//! Scenario-campaign sweep over the classical catalog.
//!
//! Expands a declarative grid — every classical network family at n = 3..=5
//! × three traffic patterns × three offered loads × three buffer
//! architectures (unbuffered, FIFO, multi-lane wormhole) — into a work
//! queue, runs it across worker threads, prints the per-scenario summary
//! table, and writes the machine-readable report to `campaign.json`. The
//! same `--seed` yields a byte-identical report at any `--threads` value.
//!
//! ```text
//! cargo run --release --example campaign_sweep \
//!     [-- --threads <T>] [--seed <S>] [--min-stages <A>] [--max-stages <B>] \
//!     [--cycles <C>] [--out <path>]
//! ```

use baseline_equivalence::prelude::{run_campaign, BufferMode, CampaignConfig};
use baseline_equivalence::sim::cli;
use min_sim::TrafficPattern;

const USAGE: &str = "usage: campaign_sweep [--threads T] [--seed S] [--min-stages A] \
                     [--max-stages B] [--cycles C] [--out PATH]";

fn main() {
    let (threads, seed, min_stages, max_stages, cycles, out_path) =
        cli::parse_args_or_exit(USAGE, |o| {
            Ok((
                o.take_or("--threads", 0usize)?, // 0 = one worker per core
                o.take_or("--seed", 0x1988u64)?,
                o.take_or("--min-stages", 3usize)?,
                o.take_or("--max-stages", 5usize)?,
                o.take_or("--cycles", 600u64)?,
                o.take_or("--out", String::from("campaign.json"))?,
            ))
        });

    let config = CampaignConfig::over_catalog(min_stages..=max_stages)
        .with_seed(seed)
        .with_traffic(vec![
            TrafficPattern::Uniform,
            TrafficPattern::Hotspot {
                fraction: 0.25,
                target: 0,
            },
            TrafficPattern::BitReversal,
        ])
        .with_loads(vec![0.4, 0.8, 1.0])
        .with_buffer_modes(vec![
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            BufferMode::Wormhole {
                lanes: 2,
                lane_depth: 4,
                flits_per_packet: 4,
            },
        ])
        .with_cycles(cycles, cycles / 10);

    println!(
        "== Campaign: {} catalog cells × {} traffic × {} loads × {} buffer modes = {} scenarios (seed {seed:#x}) ==\n",
        config.cells.len(),
        config.traffic.len(),
        config.loads.len(),
        config.buffer_modes.len(),
        config.scenario_count(),
    );

    let (report, elapsed) = cli::run_timed("campaign", || run_campaign(&config, threads));

    print!("{}", report.summary_table());
    println!("\n{}", cli::completed_line(elapsed, threads));

    cli::write_artifact(&out_path, &report.to_json(), "report");
}
