//! Saturation/stability sweep under production-shaped traffic.
//!
//! Where `saturation_curve` sweeps uniform Bernoulli traffic over the
//! unbuffered catalog, this example drives the *hardened* traffic layer —
//! Zipf-skewed destinations and bursty Markov-modulated ON/OFF sources,
//! with uniform traffic as the control — across every switching core
//! (unbuffered, FIFO, and a wormhole lane ladder) on the 32-terminal Omega
//! and Baseline cells. The offered-load axis is open-loop: refused packets
//! still count as offered, so the curves reproduce the classic
//! stability-analysis shape where delivered throughput tracks the offered
//! rate up to a knee and then flattens (cf. the wormhole saturation curves
//! of arXiv:2007.02550 and the Omega-network stability analysis of
//! arXiv:1202.1062).
//!
//! The replication-averaged curves — offered rate, delivered throughput,
//! acceptance, latency and occupancy per grid point, plus the detected
//! saturation load (the first point where throughput falls more than 5 %
//! below the offered rate) — are written as deterministic fixed-precision
//! JSON; the committed `stability.json` at the repository root is this
//! example's default-argument output. The same `--seed` yields a
//! byte-identical file at any `--threads` value (CI `cmp`s a single-thread
//! rerun against the parallel one).
//!
//! The example *gates its own output*: it exits nonzero unless every buffer
//! mode shows a measurable saturation point for at least one Zipf curve and
//! at least one bursty ON/OFF curve — the shape the stability literature
//! predicts. A silent regression in the traffic layer (say, skew or
//! burstiness quietly degrading to uniform) fails the run instead of
//! committing a flat curve.
//!
//! Setting `BENCH_QUICK` to anything but `0` or the empty string shrinks
//! the grid for smoke-test use; committed artifacts must come from a
//! default run.
//!
//! ```text
//! cargo run --release --example stability_sweep \
//!     [-- --threads <T>] [--seed <S>] [--cycles <C>] [--out <path>]
//! ```

use baseline_equivalence::prelude::{
    run_campaign, BufferMode, CampaignConfig, ClassicalNetwork, NetworkSpec, TrafficPattern,
};
use baseline_equivalence::sim::cli;
use baseline_equivalence::sim::curves::{self, load_json, Ladder, DIVERGENCE_THRESHOLD};
use std::fmt::Write as _;

const USAGE: &str = "usage: stability_sweep [--threads T] [--seed S] [--cycles C] [--out PATH]";

/// Renders the curves as deterministic JSON: fixed-precision floats in the
/// canonical curve order keep the bytes identical across platforms and
/// thread counts.
fn stability_json(curves: &[Ladder], cycles: u64, warmup: u64, replications: u32) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"cycles\":{cycles},\"warmup\":{warmup},\"replications\":{replications},\
         \"divergence_threshold\":{DIVERGENCE_THRESHOLD},\"curves\":["
    );
    for (i, c) in curves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = c.scenario();
        let _ = write!(
            out,
            "{{\"network\":\"{}\",\"stages\":{},\"traffic\":\"{}\",\"buffers\":\"{}\",\"points\":[",
            s.network.name(),
            s.stages,
            s.traffic.label(),
            s.buffer_mode.label()
        );
        for (j, p) in c.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"load\":{:.2},\"offered\":{:.6},\"throughput\":{:.6},\
                 \"acceptance\":{:.6},\"mean_latency\":{:.4},\"occupancy\":{:.6}}}",
                p.scenario.offered_load,
                p.offered_rate(),
                p.throughput(),
                p.acceptance(),
                p.mean_latency(),
                p.occupancy(),
            );
        }
        let _ = write!(
            out,
            "],\"saturation_load\":{}}}",
            load_json(c.saturation_load())
        );
    }
    out.push_str("]}");
    out
}

fn main() {
    let quick = cli::bench_quick();
    let (threads, seed, cycles, out_path) = cli::parse_args_or_exit(USAGE, |o| {
        Ok((
            o.take_or("--threads", 0usize)?, // 0 = one worker per core
            o.take_or("--seed", 0x5AB1E_u64)?,
            o.take_or("--cycles", if quick { 200 } else { 600 })?,
            o.take_or("--out", String::from("stability.json"))?,
        ))
    });
    let stages = if quick { 4 } else { 5 };
    let cells = vec![
        NetworkSpec::catalog(ClassicalNetwork::Omega, stages),
        NetworkSpec::catalog(ClassicalNetwork::Baseline, stages),
    ];
    // Uniform Bernoulli is the control; the Zipf skew concentrates traffic
    // on a few hot destinations, and the ON/OFF source fires full-rate
    // bursts at a 3:1 duty cycle — both saturate well below the uniform
    // knee.
    let traffic = vec![
        TrafficPattern::Uniform,
        TrafficPattern::Zipf { exponent: 1.0 },
        TrafficPattern::OnOff {
            on_dwell: 30.0,
            off_dwell: 10.0,
            on_rate: 1.0,
        },
    ];
    // Unbuffered, FIFO, and a wormhole ladder of 1, 2 and 4 lanes.
    let mut buffer_modes = vec![BufferMode::Unbuffered, BufferMode::Fifo(4)];
    buffer_modes.extend([1, 2, 4].map(|lanes| BufferMode::Wormhole {
        lanes,
        lane_depth: 4,
        flits_per_packet: 4,
    }));
    let loads: Vec<f64> = if quick {
        vec![0.3, 0.6, 0.9]
    } else {
        (1..=10).map(|step| f64::from(step) / 10.0).collect()
    };
    let replications = if quick { 4 } else { 8 };
    let warmup = cycles / 10;

    let config = CampaignConfig::over_catalog(3..=3)
        .with_cells(cells)
        .with_seed(seed)
        .with_traffic(traffic)
        .with_loads(loads)
        .with_buffer_modes(buffer_modes)
        .with_replications(replications)
        .with_cycles(cycles, warmup);

    println!(
        "== Stability sweep: {} cells × {} traffic × {} loads × {} modes × {} reps = {} scenarios (seed {seed:#x}) ==\n",
        config.cells.len(),
        config.traffic.len(),
        config.loads.len(),
        config.buffer_modes.len(),
        config.replications,
        config.scenario_count(),
    );

    let (report, elapsed) = cli::run_timed("stability sweep", || run_campaign(&config, threads));
    let curves = curves::ladders(curves::fold_points(&report));
    println!(
        "{:<10} {:>2}  {:<8} {:<14} {:>10}",
        "network", "n", "traffic", "buffers", "saturation"
    );
    for c in &curves {
        let s = c.scenario();
        let knee = match c.saturation_load() {
            Some(load) => format!("{load:.2}"),
            None => "—".to_string(),
        };
        println!(
            "{:<10} {:>2}  {:<8} {:<14} {:>10}",
            s.network.name(),
            s.stages,
            s.traffic.label(),
            s.buffer_mode.label(),
            knee
        );
    }
    println!("\ncompleted in {elapsed:.2?}");

    cli::write_artifact(
        &out_path,
        &stability_json(&curves, cycles, warmup, replications),
        "curves",
    );

    // Self-gate: every buffer mode must show the stability-literature shape
    // — a measurable saturation knee for at least one Zipf curve and at
    // least one bursty ON/OFF curve. A traffic-layer regression that
    // flattens the skew or the bursts fails the run here.
    let mut failures = Vec::new();
    for mode in &config.buffer_modes {
        for wanted in ["zipf", "on-off"] {
            let saturates = curves.iter().any(|c| {
                let s = c.scenario();
                s.buffer_mode == *mode
                    && s.traffic.label() == wanted
                    && c.saturation_load().is_some()
            });
            if !saturates {
                failures.push(format!("{} under {wanted}", mode.label()));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!(
            "stability gate failed: no saturation point for {}",
            failures.join(", ")
        );
        std::process::exit(1);
    }
    println!("stability gate passed: every buffer mode saturates under zipf and on-off traffic");
}
