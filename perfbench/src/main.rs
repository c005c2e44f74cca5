//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <stability|saturation|classify|serve> --seed <n>
//!           --seconds <s> --trace <0|1> --build-dir <dir> [--scale small]
//! ```
//!
//! `--build-dir` is the cargo target directory that holds the release
//! builds of the `stability_sweep`, `saturation_curve` and `classify_sweep`
//! examples; the example outputs and the spans are written under its
//! `perfbench/`.
//!
//! `--trace 0` repeats the workload for `--seconds`, checks every output
//! byte for byte, and reports the end-to-end metrics as medians over the
//! iterations. `--trace 1` runs the workload once in process with a span
//! around every layer call, then probes the layers one by one; it reports
//! the per-layer metrics derived from the spans and writes the spans to
//! `<build-dir>/perfbench/spans-<workload>-<seed>.jsonl`. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! Seed 0 reproduces the committed artifact (`stability.json`,
//! `saturation.json`, `classification.json`, read from the working
//! directory) byte for byte; any other seed is checked against the same
//! workload on the other thread count, 1 or `nproc` (for `serve`, against
//! `run_campaign(_, 1)`).

mod probes;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use baseline_equivalence::sim::campaign::CampaignReport;

use trace::{Trace, Tracer};
use workloads::{Kind, Result, Workload};

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with their units. A workload that does
/// not enter a layer reports 0 for that layer's metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("campaign.plan_s", "s"),
    ("campaign.execute_s", "s"),
    ("campaign.shard_p50_ms", "ms"),
    ("campaign.shard_p95_ms", "ms"),
    ("campaign.assemble_s", "s"),
    ("campaign.report_json_s", "s"),
    ("campaign.report_bytes", "bytes"),
    ("campaign.grid_points", "count"),
    ("batch.packed_points", "count"),
    ("batch.scalar_points", "count"),
    ("batch.packed_s", "s"),
    ("batch.scalar_s", "s"),
    ("engine.new_us", "us"),
    ("engine.unbuf.ns_per_cell_cycle", "ns"),
    ("engine.fifo4.ns_per_cell_cycle", "ns"),
    ("engine.wh1.ns_per_cell_cycle", "ns"),
    ("engine.wh2.ns_per_cell_cycle", "ns"),
    ("engine.wh4.ns_per_cell_cycle", "ns"),
    ("engine.uniform.ns_per_cell_cycle", "ns"),
    ("engine.zipf.ns_per_cell_cycle", "ns"),
    ("engine.onoff.ns_per_cell_cycle", "ns"),
    ("engine.wh1.ns_per_flit", "ns"),
    ("engine.wh2.ns_per_flit", "ns"),
    ("engine.wh4.ns_per_flit", "ns"),
    ("engine.faulted.ns_per_cell_cycle", "ns"),
    ("lane.new_us", "us"),
    ("lane.ns_per_rep_cell_cycle", "ns"),
    ("lane.chunks", "count"),
    ("lane.fill", "ratio"),
    ("traffic.uniform.ns_per_offer", "ns"),
    ("traffic.zipf.ns_per_offer", "ns"),
    ("traffic.onoff.ns_per_offer", "ns"),
    ("traffic.offers", "count"),
    ("switch.flits_delivered", "count"),
    ("switch.flit_stalls", "count"),
    ("switch.stall_ratio", "ratio"),
    ("switch.drop_ratio", "ratio"),
    ("routing.path_diversity_ms", "ms"),
    ("routing.path_diversity_calls", "count"),
    ("serve.submit_s", "s"),
    ("serve.run_s", "s"),
    ("serve.results_s", "s"),
    ("serve.frame_encode_mb_per_s", "MB/s"),
    ("serve.frame_decode_mb_per_s", "MB/s"),
    ("serve.results_bytes", "bytes"),
    ("serve.push_bytes", "bytes"),
    ("serve.requeues", "count"),
    ("classify.build_s", "s"),
    ("classify.affine_form_s", "s"),
    ("classify.digraph_s", "s"),
    ("classify.baseline_iso_s", "s"),
    ("classify.crossverify_s", "s"),
    ("classify.report_json_s", "s"),
    ("classify.serial_share", "ratio"),
];

/// Open/close pairs per sample, and samples, of the tracer's own cost.
const SPAN_COST_PAIRS: u32 = 20_000;
const SPAN_COST_SAMPLES: usize = 5;

/// Set-up samples per iteration for the workloads whose set-up is not part
/// of a job (`serve` sets up once per iteration), and the least time one
/// sample repeats the set-up for.
const SETUP_SAMPLES: usize = 5;
const SETUP_SAMPLE_S: f64 = 0.005;

struct Args {
    name: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
    build_dir: PathBuf,
}

fn parse_args() -> Result<Args> {
    let mut kind = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut small = false;
    let mut build_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some((Kind::parse(&value).ok_or_else(|| bad("workload"))?, value))
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--scale" => {
                small = match value.as_str() {
                    "small" => true,
                    "full" => false,
                    _ => return Err(bad("scale")),
                }
            }
            "--build-dir" => build_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let (kind, name) = kind.ok_or("--workload is required")?;
    Ok(Args {
        name,
        kind,
        seed,
        seconds,
        trace,
        small,
        build_dir: build_dir.ok_or("--build-dir is required")?,
    })
}

/// Correctness bookkeeping over every output the run produced.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Tally {
    fn check(&mut self, units: u64, failed_units: u64, output: &str, expected: &str, what: &str) {
        self.attempted += units;
        if output == expected {
            self.failed += failed_units.min(units);
        } else {
            eprintln!(
                "{what}: output ({} bytes) differs from the expected output ({} bytes) at byte {}",
                output.len(),
                expected.len(),
                output
                    .bytes()
                    .zip(expected.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or(output.len().min(expected.len()))
            );
            self.mismatches += 1;
            self.failed += units;
        }
    }

    /// A layer probe whose own result check failed `failed` times.
    fn probe(&mut self, failed: u64, what: &str) {
        if failed > 0 {
            eprintln!("{what}: {failed} check(s) failed");
            self.failed += failed;
            self.mismatches += 1;
        }
    }

    fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed == 0
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Host memory high-water mark of the workload, in MiB: of this process
/// for `serve`, of the largest example process run so far otherwise.
fn peak_rss_mb(kind: Kind) -> Result<f64> {
    if kind == Kind::Serve {
        self_peak_rss_mb()
    } else {
        children_peak_rss_mb()
    }
}

fn self_peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `struct rusage` of Linux: two `struct timeval`, then fourteen `long`s.
#[repr(C)]
struct RUsage {
    times: [std::os::raw::c_long; 4],
    maxrss: std::os::raw::c_long,
    rest: [std::os::raw::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::os::raw::c_int, usage: *mut RUsage) -> std::os::raw::c_int;
}

/// `ru_maxrss` of the terminated children, in MiB.
fn children_peak_rss_mb() -> Result<f64> {
    const RUSAGE_CHILDREN: std::os::raw::c_int = -1;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` has the layout of `struct rusage` and outlives the
    // call, which only writes into it.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

/// `--trace 0`: repeat the workload for the time budget. The oracle is
/// computed after the timed iterations and the memory high-water mark, so
/// that neither the reference run nor its output counts towards
/// `peak_rss_mb`; until then each output is compared with the first.
fn end_to_end(args: &Args, workload: &Workload, tally: &mut Tally) -> Result<Vec<f64>> {
    let units = workload.units();
    let start = Instant::now();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let (mut first, mut iterations) = (None::<String>, Vec::new());
    // Iterate until the budget is spent, finishing the iteration in
    // progress. Set-up samples are spread over the run, a few before each
    // iteration, so one slow moment of a shared host does not set them all.
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        if workload.kind != Kind::Serve {
            for _ in 0..SETUP_SAMPLES {
                // Each sample repeats the set-up until it has taken a few
                // milliseconds, so the timer's resolution does not show.
                let (mut reps, mut total) = (0u32, 0.0);
                while total < SETUP_SAMPLE_S {
                    total += workload.setup_once()?;
                    reps += 1;
                }
                setups.push(total / f64::from(reps));
            }
        }
        let it = workload.run_once()?;
        walls.push(it.wall_s);
        setups.extend(it.setup_s);
        let first = first.get_or_insert_with(|| it.output.clone());
        let differs = (it.output != *first).then_some(it.output);
        iterations.push((it.failed_units, differs));
    }
    let peak_rss_mb = peak_rss_mb(workload.kind)?;
    let first = first.expect("at least one iteration ran");
    if workload.kind != Kind::Serve && !first.is_empty() {
        workload.check_grid(&first)?;
    }
    let expected = workload.expected()?;
    for (failed_units, differs) in &iterations {
        let output = differs.as_deref().unwrap_or(&first);
        tally.check(units, *failed_units, output, &expected, "iteration");
    }
    let wall_s = median(&mut walls);
    Ok(vec![
        wall_s,
        median(&mut setups),
        workload.work() / wall_s,
        peak_rss_mb,
    ])
}

/// Simulated switch statistics of a campaign report.
fn switch_counts(report: &CampaignReport, m: &mut BTreeMap<&'static str, f64>) {
    let sum = |f: fn(&baseline_equivalence::sim::campaign::ScenarioResult) -> u64| -> f64 {
        report.scenarios.iter().map(f).sum::<u64>() as f64
    };
    let (flits, stalls) = (sum(|r| r.flits_delivered), sum(|r| r.flit_stalls));
    m.insert("switch.flits_delivered", flits);
    m.insert("switch.flit_stalls", stalls);
    m.insert("switch.stall_ratio", ratio(stalls, stalls + flits));
    m.insert(
        "switch.drop_ratio",
        ratio(sum(|r| r.dropped), sum(|r| r.injected)),
    );
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The tracer's own cost: the median over a few samples of the mean time
/// of one span open and close, in seconds.
fn span_cost_s() -> f64 {
    let tracer = Tracer::new();
    let mut samples: Vec<f64> = (0..SPAN_COST_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SPAN_COST_PAIRS {
                let open = tracer.open("calibration", None);
                tracer.close(open, Vec::new(), vec![("count", 1)]);
            }
            start.elapsed().as_secs_f64() / f64::from(SPAN_COST_PAIRS)
        })
        .collect();
    median(&mut samples)
}

/// `--trace 1`: one traced pass in process, then the layer probes.
fn traced(
    args: &Args,
    workload: &Workload,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>> {
    let units = workload.units();
    workload.check_grid_against_artifact()?;
    let expected = workload.traced_expected()?;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let tracer = Tracer::new();
    let root = tracer.open("workload", None);
    let root_id = root.id();
    let start = Instant::now();
    let (traced_wall, pass_spans);
    match workload.kind {
        Kind::Stability | Kind::Saturation => {
            let tc = workload.traced_campaign(&tracer, root_id)?;
            (traced_wall, pass_spans) = (start.elapsed().as_secs_f64(), tracer.len());
            tally.check(units, 0, &tc.report_json, &expected, "traced pass");
            let probes = tracer.open("probes", Some(root_id));
            probes::campaign_layers(&tracer, probes.id(), &tc)?;
            tracer.close(probes, Vec::new(), Vec::new());
            switch_counts(&tc.report, &mut m);
        }
        Kind::Serve => {
            let it = workload.serve_once(Some((&tracer, root_id)))?;
            (traced_wall, pass_spans) = (it.wall_s, tracer.len());
            tally.check(units, it.failed_units, &it.output, &expected, "traced job");
            let probes = tracer.open("probes", Some(root_id));
            let tc = workload.traced_campaign(&tracer, probes.id())?;
            tally.check(
                units,
                0,
                &tc.report_json,
                &expected,
                "traced in-process pass",
            );
            let broken = probes::frames(&tracer, probes.id(), &tc)?;
            tally.probe(broken, "frame round trip");
            probes::campaign_layers(&tracer, probes.id(), &tc)?;
            tracer.close(probes, Vec::new(), Vec::new());
            switch_counts(&tc.report, &mut m);
        }
        Kind::Classify => {
            let grid = tracer.time("classify.grid", Some(root_id), || {
                workload.classification_grid()
            });
            let subjects = tracer.time("classify.subjects", Some(root_id), || grid.subjects());
            let report = tracer.time("classify.run", Some(root_id), || {
                baseline_equivalence::core::classify::classify_subjects(&subjects, workload.threads)
                    .map_err(|e| e.to_string())
            })?;
            let json = tracer.time("classify.report_json", Some(root_id), || report.to_json());
            (traced_wall, pass_spans) = (start.elapsed().as_secs_f64(), tracer.len());
            let unverified = workloads::unverified_subjects(&report);
            tally.check(units, unverified, &json, &expected, "traced pass");
            let probes = tracer.open("probes", Some(root_id));
            let failed = probes::classify_layers(&tracer, probes.id(), &subjects, &report);
            tally.probe(failed, "cross-verification probe");
            tracer.close(probes, Vec::new(), Vec::new());
        }
    }
    tracer.close(root, Vec::new(), Vec::new());
    let trace = tracer.finish();
    let spans = workload
        .out_dir()
        .join(format!("spans-{}-{}.jsonl", args.name, args.seed));
    trace
        .write_jsonl(&spans)
        .map_err(|e| format!("write spans to {}: {e}", spans.display()))?;
    m.insert("trace.wall_s", traced_wall);
    m.insert("trace.overhead_s", pass_spans as f64 * span_cost_s());
    layer_metrics(&trace, &mut m);
    Ok(m)
}

/// Derives the per-layer metrics from the spans.
fn layer_metrics(t: &Trace, m: &mut BTreeMap<&'static str, f64>) {
    let ns_per = |spans: Vec<&trace::Span>, key: &str| -> f64 {
        let secs: f64 = spans.iter().map(|s| s.secs()).sum();
        let work: u64 = spans.iter().map(|s| s.count(key)).sum();
        ratio(secs * 1e9, work as f64)
    };
    let with = |name: &'static str, attr: &'static str, value: &'static str| -> Vec<&trace::Span> {
        t.named(name)
            .filter(|s| s.attr(attr) == Some(value))
            .collect()
    };
    let bytes_per_s = |name: &str| ratio(t.count(name, "bytes") as f64 / 1e6, t.total_s(name));

    m.insert("campaign.plan_s", t.total_s("campaign.plan"));
    m.insert("campaign.execute_s", t.total_s("campaign.execute"));
    m.insert(
        "campaign.shard_p50_ms",
        t.percentile_s("campaign.execute_shard", 50.0) * 1e3,
    );
    m.insert(
        "campaign.shard_p95_ms",
        t.percentile_s("campaign.execute_shard", 95.0) * 1e3,
    );
    m.insert("campaign.assemble_s", t.total_s("campaign.assemble"));
    m.insert("campaign.report_json_s", t.total_s("campaign.report_json"));
    m.insert(
        "campaign.report_bytes",
        t.count("campaign.report_json", "bytes") as f64,
    );
    m.insert(
        "campaign.grid_points",
        t.count("campaign.plan", "grid_points") as f64,
    );

    m.insert(
        "batch.packed_points",
        t.count("batch", "packed_points") as f64,
    );
    m.insert(
        "batch.scalar_points",
        t.count("batch", "scalar_points") as f64,
    );
    for (path, metric) in [("packed", "batch.packed_s"), ("scalar", "batch.scalar_s")] {
        let secs = with("batch.run_replications", "path", path)
            .iter()
            .map(|s| s.secs())
            .sum();
        m.insert(metric, secs);
    }

    m.insert("engine.new_us", t.mean_s("engine.new") * 1e6);
    for (mode, metric) in [
        ("unbuf", "engine.unbuf.ns_per_cell_cycle"),
        ("fifo4", "engine.fifo4.ns_per_cell_cycle"),
        ("wh1", "engine.wh1.ns_per_cell_cycle"),
        ("wh2", "engine.wh2.ns_per_cell_cycle"),
        ("wh4", "engine.wh4.ns_per_cell_cycle"),
    ] {
        m.insert(
            metric,
            ns_per(with("engine.run", "mode", mode), "cell_cycles"),
        );
    }
    for (traffic, metric) in [
        ("uniform", "engine.uniform.ns_per_cell_cycle"),
        ("zipf", "engine.zipf.ns_per_cell_cycle"),
        ("onoff", "engine.onoff.ns_per_cell_cycle"),
    ] {
        m.insert(
            metric,
            ns_per(with("engine.run", "traffic", traffic), "cell_cycles"),
        );
    }
    for (mode, metric) in [
        ("wh1", "engine.wh1.ns_per_flit"),
        ("wh2", "engine.wh2.ns_per_flit"),
        ("wh4", "engine.wh4.ns_per_flit"),
    ] {
        m.insert(metric, ns_per(with("engine.run", "mode", mode), "flits"));
    }
    m.insert(
        "engine.faulted.ns_per_cell_cycle",
        ns_per(with("engine.run", "faulted", "true"), "cell_cycles"),
    );

    m.insert("lane.new_us", t.mean_s("lane.new") * 1e6);
    m.insert(
        "lane.ns_per_rep_cell_cycle",
        ns_per(t.named("lane.run").collect(), "rep_cell_cycles"),
    );
    let chunks = t.count("lane", "chunks") as f64;
    m.insert("lane.chunks", chunks);
    m.insert(
        "lane.fill",
        ratio(t.count("lane", "replications") as f64, chunks * 64.0),
    );

    for (traffic, metric) in [
        ("uniform", "traffic.uniform.ns_per_offer"),
        ("zipf", "traffic.zipf.ns_per_offer"),
        ("onoff", "traffic.onoff.ns_per_offer"),
    ] {
        m.insert(
            metric,
            ns_per(with("traffic.replay", "traffic", traffic), "offers"),
        );
    }
    m.insert("traffic.offers", t.count("traffic.replay", "offers") as f64);

    m.insert(
        "routing.path_diversity_ms",
        t.mean_s("routing.path_diversity") * 1e3,
    );
    m.insert(
        "routing.path_diversity_calls",
        t.count("routing", "calls") as f64,
    );

    m.insert("serve.submit_s", t.total_s("serve.submit"));
    m.insert("serve.run_s", t.total_s("serve.run"));
    m.insert("serve.results_s", t.total_s("serve.results"));
    m.insert(
        "serve.frame_encode_mb_per_s",
        bytes_per_s("serve.frame_encode"),
    );
    m.insert(
        "serve.frame_decode_mb_per_s",
        bytes_per_s("serve.frame_decode"),
    );
    for (kind, metric) in [
        ("results", "serve.results_bytes"),
        ("push", "serve.push_bytes"),
    ] {
        let bytes: u64 = with("serve.frame_encode", "kind", kind)
            .iter()
            .map(|s| s.count("bytes"))
            .sum();
        m.insert(metric, bytes as f64);
    }
    m.insert("serve.requeues", t.count("serve.run", "requeues") as f64);

    let phases = [
        ("classify.build", "classify.build_s"),
        ("classify.affine_form", "classify.affine_form_s"),
        ("classify.digraph", "classify.digraph_s"),
        ("classify.baseline_iso", "classify.baseline_iso_s"),
        ("classify.crossverify", "classify.crossverify_s"),
        ("classify.report_json", "classify.report_json_s"),
    ];
    for (span, metric) in phases {
        m.insert(metric, t.total_s(span));
    }
    let decided: f64 = phases[..5].iter().map(|(span, _)| t.total_s(span)).sum();
    m.insert(
        "classify.serial_share",
        ratio(t.total_s("classify.crossverify"), decided),
    );
}

fn print_result(tally: &Tally, table: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> Result<()> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
    Ok(())
}

fn run() -> Result<bool> {
    let args = parse_args()?;
    let workload = Workload::new(args.kind, args.seed, args.small, args.build_dir.clone());
    let mut tally = Tally::default();
    if args.trace {
        let values = traced(&args, &workload, &mut tally)?;
        print_result(&tally, PER_LAYER, &values)?;
    } else {
        let values = end_to_end(&args, &workload, &mut tally)?;
        let values = END_TO_END.iter().map(|(n, _)| *n).zip(values).collect();
        print_result(&tally, END_TO_END, &values)?;
    }
    Ok(tally.correct())
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
