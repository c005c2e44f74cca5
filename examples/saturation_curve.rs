//! Offered-load saturation sweep over the unbuffered catalog.
//!
//! Expands a campaign grid — every classical family at n = 3..=max ×
//! uniform traffic × an offered-load ladder from 0.1 to 1.0 — with enough
//! replications per scenario that the word-packed `LaneEngine` carries the
//! whole sweep, prints the per-scenario table, and writes the saturation
//! curve (replication-averaged throughput/latency per family × size ×
//! load) to `saturation.json`; the committed copy at the repository root
//! is this example's default-argument output. The same `--seed` yields a
//! byte-identical curve at any `--threads` value (the CI smoke job `cmp`s
//! a single-thread rerun against the parallel one).
//!
//! Setting the `BENCH_QUICK` environment variable to anything but `0` or
//! the empty string shrinks the grid (fewer loads, smaller fabrics,
//! shorter runs) for smoke-test use; committed artifacts must come from a
//! default run.
//!
//! ```text
//! cargo run --release --example saturation_curve \
//!     [-- --threads <T>] [--seed <S>] [--max-stages <B>] \
//!     [--cycles <C>] [--out <path>]
//! ```

use baseline_equivalence::prelude::{run_campaign, CampaignConfig, CampaignReport};
use baseline_equivalence::sim::{cli, curves};
use std::fmt::Write as _;

const USAGE: &str =
    "usage: saturation_curve [--threads T] [--seed S] [--max-stages B] [--cycles C] [--out PATH]";

/// Renders the replication-averaged saturation curve as deterministic JSON:
/// one point per grid point, in the canonical grid-expansion order.
/// Fixed-precision float formatting keeps the bytes reproducible across
/// platforms and thread counts.
fn curve_json(report: &CampaignReport, replications: u32) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"cycles\":{},\"replications\":{replications},\"points\":[",
        report.cycles
    );
    for (i, p) in curves::fold_points(report).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"network\":\"{}\",\"stages\":{},\"load\":{:.2},\
             \"throughput\":{:.6},\"mean_latency\":{:.4},\"p99_latency\":{},\
             \"acceptance\":{:.6},\"delivered\":{},\"dropped\":{}}}",
            p.scenario.network.name(),
            p.scenario.stages,
            p.scenario.offered_load,
            p.throughput(),
            p.mean_latency(),
            p.p99_latency,
            p.acceptance(),
            p.delivered,
            p.dropped,
        );
    }
    out.push_str("]}");
    out
}

fn main() {
    let quick = cli::bench_quick();
    let (threads, seed, max_stages, cycles, out_path) = cli::parse_args_or_exit(USAGE, |o| {
        Ok((
            o.take_or("--threads", 0usize)?, // 0 = one worker per core
            o.take_or("--seed", 0x1988u64)?,
            o.take_or("--max-stages", if quick { 4 } else { 6 })?,
            o.take_or("--cycles", if quick { 200 } else { 600 })?,
            o.take_or("--out", String::from("saturation.json"))?,
        ))
    });

    // The load ladder: the saturation knee of an unbuffered banyan sits
    // well below 1.0, so the ladder is densest where the curve bends.
    let loads: Vec<f64> = if quick {
        vec![0.2, 0.6, 1.0]
    } else {
        (1..=10).map(|step| f64::from(step) / 10.0).collect()
    };
    // Enough replications that every scenario rides the word-packed lane
    // engine (the batching layer needs at least its lane threshold) and
    // the per-point statistics stabilize.
    let replications = if quick { 16 } else { 32 };

    let config = CampaignConfig::over_catalog(3..=max_stages)
        .with_seed(seed)
        .with_loads(loads)
        .with_replications(replications)
        .with_cycles(cycles, cycles / 10);

    println!(
        "== Saturation sweep: {} catalog cells × {} loads × {} replications = {} scenarios (seed {seed:#x}) ==\n",
        config.cells.len(),
        config.loads.len(),
        config.replications,
        config.scenario_count(),
    );

    let (report, elapsed) = cli::run_timed("saturation sweep", || run_campaign(&config, threads));

    print!("{}", report.summary_table());
    let a = &report.aggregate;
    println!(
        "\nsaturation: mean throughput {:.4} · worst mean latency {:.2} cy · worst p99 {} cy",
        a.mean_throughput, a.worst_mean_latency, a.worst_p99_latency
    );
    println!("{}", cli::completed_line(elapsed, threads));

    cli::write_artifact(&out_path, &curve_json(&report, replications), "curve");
}
