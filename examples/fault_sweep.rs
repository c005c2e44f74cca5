//! Fault-injection sweep over the classical catalog.
//!
//! Expands a campaign grid — every classical family at n = 3..=max ×
//! uniform traffic × two offered loads × three buffer architectures × four
//! fault plans (healthy, one dead link, a seeded 2-link plan, and a
//! mid-simulation switch death with a degraded lane) — runs it across
//! worker threads, prints the per-scenario table with the reliability
//! columns, and writes the machine-readable report to
//! `fault_campaign.json`. The same `--seed` yields a byte-identical report
//! at any `--threads` value (the CI fault-smoke job `cmp`s a single-thread
//! rerun against the parallel one).
//!
//! ```text
//! cargo run --release --example fault_sweep \
//!     [-- --threads <T>] [--seed <S>] [--max-stages <B>] \
//!     [--cycles <C>] [--out <path>]
//! ```

use baseline_equivalence::prelude::{run_campaign, BufferMode, CampaignConfig, FaultPlan};
use baseline_equivalence::sim::cli;
use min_sim::TrafficPattern;

const USAGE: &str =
    "usage: fault_sweep [--threads T] [--seed S] [--max-stages B] [--cycles C] [--out PATH]";

fn main() {
    let (threads, seed, max_stages, cycles, out_path) = cli::parse_args_or_exit(USAGE, |o| {
        Ok((
            o.take_or("--threads", 0usize)?, // 0 = one worker per core
            o.take_or("--seed", 0x1988u64)?,
            o.take_or("--max-stages", 4usize)?,
            o.take_or("--cycles", 400u64)?,
            o.take_or("--out", String::from("fault_campaign.json"))?,
        ))
    });

    // Fault sites are chosen inside the smallest grid fabric (n = 3:
    // 3 stages × 4 cells) so every plan fits every grid cell.
    let fault_plans = vec![
        FaultPlan::none(),
        FaultPlan::none().with_dead_link(1, 0, 1, 0),
        FaultPlan::random_links(seed ^ 0xFA17, 2, 3, 4),
        FaultPlan::none()
            .with_dead_switch(1, 1, cycles / 2)
            .with_degraded_link(0, 0, 0, 0),
    ];

    let config = CampaignConfig::over_catalog(3..=max_stages)
        .with_seed(seed)
        .with_traffic(vec![TrafficPattern::Uniform])
        .with_loads(vec![0.4, 0.9])
        .with_buffer_modes(vec![
            BufferMode::Unbuffered,
            BufferMode::Fifo(4),
            BufferMode::Wormhole {
                lanes: 2,
                lane_depth: 4,
                flits_per_packet: 4,
            },
        ])
        .with_fault_plans(fault_plans)
        .with_cycles(cycles, cycles / 10);

    println!(
        "== Fault campaign: {} catalog cells × {} loads × {} buffer modes × {} fault plans = {} scenarios (seed {seed:#x}) ==\n",
        config.cells.len(),
        config.loads.len(),
        config.buffer_modes.len(),
        config.fault_plans.len(),
        config.scenario_count(),
    );

    let (report, elapsed) = cli::run_timed("fault campaign", || run_campaign(&config, threads));

    print!("{}", report.summary_table());
    let a = &report.aggregate;
    println!(
        "\nreliability: {} delivered despite faults · {} fault drops · {} unroutable refusals",
        a.total_delivered_despite_fault, a.total_dropped_fault, a.total_unroutable_drops
    );
    println!("{}", cli::completed_line(elapsed, threads));

    cli::write_artifact(&out_path, &report.to_json(), "report");
}
