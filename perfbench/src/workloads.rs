//! The four workloads: their inputs, one untraced iteration, the
//! correctness oracles, and the traced pass through each layer's phases.
//!
//! An untraced iteration of `stability`, `saturation` or `classify` runs the
//! repository's own example binary that writes the committed artifact
//! (`stability_sweep`, `saturation_curve`, `classify_sweep`), so the timed
//! work is exactly the program's regeneration. Their grids are also built
//! here, for the in-process set-up samples and the traced pass; each is
//! checked against the shape of the example's output
//! ([`Workload::check_grid`]), so a grid that drifts from the example's
//! defaults fails the run instead of measuring something else.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use baseline_equivalence::core::classify::{classify_subjects, ClassificationReport};
use baseline_equivalence::networks::{
    ClassicalNetwork, ClassificationGrid, NetworkSpec, RandomFamily, Rewrite,
};
use baseline_equivalence::serve::{self, Master, MasterConfig, WorkerConfig};
use baseline_equivalence::sim::campaign::{
    assemble, execute_shard, run_campaign, CampaignConfig, CampaignReport, ScenarioResult, Shard,
};
use baseline_equivalence::sim::{BufferMode, FaultPlan, TrafficPattern};
use serde::{Deserialize, Value};

use crate::trace::Tracer;

/// Master idle sleep between accepts; bounds the latency of every exchange.
pub const MASTER_TICK: Duration = Duration::from_millis(1);
/// Generous enough that no worker is declared dead on a loaded machine, so
/// any requeue is a real fault.
pub const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(10);
/// Worker heartbeat while executing a shard (the `WorkerConfig` default).
pub const WORKER_HEARTBEAT: Duration = Duration::from_secs(1);
/// Worker sleep after a `Wait` reply.
pub const WORKER_POLL: Duration = Duration::from_millis(10);
/// Consecutive refused connections before a worker gives up; the master
/// exits as soon as it has served the results, so this bounds how long a
/// drained worker lingers.
pub const WORKER_CONNECT_FAILURES: u32 = 5;
/// Client status-poll interval while the job runs.
pub const STATUS_POLL: Duration = Duration::from_millis(10);
/// Poll interval while waiting for the workers to register.
const REGISTER_POLL: Duration = Duration::from_millis(1);
/// A serve phase that takes longer than this is reported as an error.
const SERVE_DEADLINE: Duration = Duration::from_secs(120);

/// `classify_sweep` arguments of the small grid.
const SMALL_CLASSIFY_ARGS: [&str; 8] = [
    "--max-stages",
    "6",
    "--benes-max-n",
    "3",
    "--random-max-stages",
    "4",
    "--random-samples",
    "1",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stability,
    Saturation,
    Classify,
    Serve,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "stability" => Some(Kind::Stability),
            "saturation" => Some(Kind::Saturation),
            "classify" => Some(Kind::Classify),
            "serve" => Some(Kind::Serve),
            _ => None,
        }
    }

    /// The campaign seed of the committed artifact (`--seed 0`).
    fn default_seed(self) -> u64 {
        match self {
            Kind::Stability => 0x5AB1E,
            Kind::Saturation | Kind::Classify | Kind::Serve => 0x1988,
        }
    }

    fn artifact(self) -> Option<&'static str> {
        match self {
            Kind::Stability => Some("stability.json"),
            Kind::Saturation => Some("saturation.json"),
            Kind::Classify => Some("classification.json"),
            Kind::Serve => None,
        }
    }

    /// The example binary that writes the artifact.
    fn example(self) -> Option<&'static str> {
        match self {
            Kind::Stability => Some("stability_sweep"),
            Kind::Saturation => Some("saturation_curve"),
            Kind::Classify => Some("classify_sweep"),
            Kind::Serve => None,
        }
    }
}

/// One workload at one seed and grid size.
pub struct Workload {
    pub kind: Kind,
    /// Campaign seed the inputs are generated from.
    pub seed: u64,
    /// Whether `--seed 0` selected the committed artifact's own seed.
    pub default_seed: bool,
    /// Small grids for the benchmark's own tests (the examples'
    /// `BENCH_QUICK` grids).
    pub small: bool,
    /// Worker threads of a timed iteration. `stability` and `saturation`
    /// run on one, whose time is the steadiest on a shared machine and is
    /// what ROADMAP item 2 targets; `classify` runs on `nproc`, so that its
    /// serial cross-verification share shows in `wall_s`; `serve` runs
    /// `nproc` workers.
    pub threads: usize,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Cargo target directory holding the examples (`release/examples/`);
    /// example outputs and spans go to its `perfbench/`.
    pub build_dir: PathBuf,
}

/// The outcome of one untraced iteration.
pub struct Iteration {
    pub wall_s: f64,
    /// Measured inside the iteration (serve only: bind, registration and
    /// submit happen once per job).
    pub setup_s: Option<f64>,
    pub output: String,
    /// Units that errored or were requeued (mismatching bytes are counted
    /// by the caller).
    pub failed_units: u64,
}

/// What the traced pass of a campaign workload hands to the probes.
pub struct TracedCampaign {
    pub config: CampaignConfig,
    pub shards: Vec<Shard>,
    pub shard_results: Vec<Vec<ScenarioResult>>,
    pub report: CampaignReport,
    pub report_json: String,
}

pub type Result<T> = std::result::Result<T, String>;

impl Workload {
    pub fn new(kind: Kind, seed: u64, small: bool, build_dir: PathBuf) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Workload {
            kind,
            seed: if seed == 0 { kind.default_seed() } else { seed },
            default_seed: seed == 0,
            small,
            threads: match kind {
                Kind::Stability | Kind::Saturation => 1,
                Kind::Classify | Kind::Serve => nproc,
            },
            nproc,
            build_dir,
        }
    }

    /// The committed file the default seed must reproduce.
    fn committed_artifact(&self) -> Option<&'static str> {
        if self.default_seed && !self.small {
            self.kind.artifact()
        } else {
            None
        }
    }

    /// The other thread count of the 1-thread vs `nproc`-thread oracle.
    fn oracle_threads(&self) -> usize {
        if self.threads == 1 {
            self.nproc
        } else {
            1
        }
    }

    /// Directory for the examples' outputs and the spans.
    pub fn out_dir(&self) -> PathBuf {
        self.build_dir.join("perfbench")
    }

    /// The campaign grid of a simulating workload.
    pub fn campaign_config(&self) -> CampaignConfig {
        let small = self.small;
        let ladder = |steps: u32| {
            (1..=steps)
                .map(|s| f64::from(s) / f64::from(steps))
                .collect()
        };
        match self.kind {
            // `examples/stability_sweep.rs` defaults.
            Kind::Stability => {
                let n = if small { 4 } else { 5 };
                let cycles = if small { 200 } else { 600 };
                CampaignConfig::over_catalog(3..=3)
                    .with_cells(vec![
                        NetworkSpec::catalog(ClassicalNetwork::Omega, n),
                        NetworkSpec::catalog(ClassicalNetwork::Baseline, n),
                    ])
                    .with_seed(self.seed)
                    .with_traffic(vec![
                        TrafficPattern::Uniform,
                        TrafficPattern::Zipf { exponent: 1.0 },
                        TrafficPattern::OnOff {
                            on_dwell: 30.0,
                            off_dwell: 10.0,
                            on_rate: 1.0,
                        },
                    ])
                    .with_loads(if small {
                        vec![0.3, 0.6, 0.9]
                    } else {
                        ladder(10)
                    })
                    .with_buffer_modes(stability_modes())
                    .with_replications(if small { 4 } else { 8 })
                    .with_cycles(cycles, cycles / 10)
            }
            // `examples/saturation_curve.rs` defaults.
            Kind::Saturation => {
                let cycles = if small { 200 } else { 600 };
                CampaignConfig::over_catalog(3..=if small { 4 } else { 6 })
                    .with_seed(self.seed)
                    .with_loads(if small {
                        vec![0.2, 0.6, 1.0]
                    } else {
                        ladder(10)
                    })
                    .with_replications(if small { 16 } else { 32 })
                    .with_cycles(cycles, cycles / 10)
            }
            // Fault axis × buffered-mode axis, one grid point per shard;
            // sized so the results frame (~110 KB) makes the client's
            // decode cost visible without dominating the run.
            Kind::Serve => {
                let cycles = if small { 100 } else { 2400 };
                let n = if small { vec![3] } else { vec![4, 5] };
                CampaignConfig::over_catalog(3..=3)
                    .with_cells(
                        n.iter()
                            .flat_map(|&n| {
                                [ClassicalNetwork::Omega, ClassicalNetwork::Baseline]
                                    .map(|family| NetworkSpec::catalog(family, n))
                            })
                            .collect(),
                    )
                    .with_seed(self.seed)
                    .with_traffic(vec![TrafficPattern::Uniform])
                    .with_loads(vec![0.9])
                    .with_buffer_modes(vec![
                        BufferMode::Unbuffered,
                        BufferMode::Fifo(4),
                        BufferMode::Wormhole {
                            lanes: 2,
                            lane_depth: 4,
                            flits_per_packet: 4,
                        },
                    ])
                    .with_fault_plans(vec![
                        FaultPlan::none(),
                        FaultPlan::none().with_dead_link(1, 0, 1, 0),
                        FaultPlan::none().with_degraded_link(0, 1, 0, cycles / 4),
                    ])
                    .with_replications(4)
                    .with_cycles(cycles, cycles / 10)
            }
            Kind::Classify => unreachable!("classify has no campaign grid"),
        }
    }

    /// The `examples/classify_sweep.rs` default grid (with
    /// [`SMALL_CLASSIFY_ARGS`] when small).
    pub fn classification_grid(&self) -> ClassificationGrid {
        let (max_stages, benes_max_n, random_max) = if self.small { (6, 3, 4) } else { (16, 4, 6) };
        let mut grid = ClassificationGrid::over_catalog(2..=max_stages).with_seed(self.seed);
        for n in 2..=benes_max_n {
            grid.catalog.push(NetworkSpec::benes(n));
            grid.catalog.push(NetworkSpec::benes_variant(n));
        }
        for family in ClassicalNetwork::ALL {
            for rewrite in Rewrite::ALL {
                grid.catalog
                    .push(NetworkSpec::rewritten(family, 4, rewrite));
            }
        }
        grid.with_random(
            RandomFamily::ALL.to_vec(),
            3..=random_max,
            if self.small { 1 } else { 2 },
        )
    }

    /// Work units of one iteration: scenarios, subjects or shards.
    pub fn units(&self) -> u64 {
        match self.kind {
            Kind::Classify => self.classification_grid().subject_count() as u64,
            Kind::Serve => {
                let c = self.campaign_config();
                (c.scenario_count() / c.replications as usize) as u64
            }
            Kind::Stability | Kind::Saturation => self.campaign_config().scenario_count() as u64,
        }
    }

    /// Throughput numerator of one iteration: simulated cell-cycles
    /// (stages × cells per stage × cycles, summed over every replication)
    /// or classified subjects.
    pub fn work(&self) -> f64 {
        if self.kind == Kind::Classify {
            return self.units() as f64;
        }
        let c = self.campaign_config();
        let per_cell_pass: usize = c
            .cells
            .iter()
            .map(|s| s.stages() * s.cells_per_stage())
            .sum();
        let per_cell_points = c.scenario_count() / c.cells.len().max(1);
        per_cell_pass as f64 * per_cell_points as f64 * c.cycles as f64
    }

    /// Checks this grid against an example output (or the committed
    /// artifact): both must describe the same work units and the same
    /// simulated cell-cycles.
    pub fn check_grid(&self, output: &str) -> Result<()> {
        let shape = output_shape(self.kind, output)?;
        let grid = (self.units(), self.work());
        if shape != grid {
            return Err(format!(
                "the benchmark's {:?} grid (units, work) = {grid:?} no longer matches the \
                 example's output {shape:?}; update `Workload::campaign_config` or \
                 `Workload::classification_grid`",
                self.kind
            ));
        }
        Ok(())
    }

    /// [`Workload::check_grid`] against the committed artifact, for the
    /// traced run, which runs no example. The artifact's shape does not
    /// depend on the seed; the small grids have no artifact.
    pub fn check_grid_against_artifact(&self) -> Result<()> {
        match self.kind.artifact() {
            Some(artifact) if !self.small => {
                let text = std::fs::read_to_string(artifact)
                    .map_err(|e| format!("read {artifact}: {e}"))?;
                self.check_grid(&text)
            }
            _ => Ok(()),
        }
    }

    /// The set-up an iteration performs before its first unit of work:
    /// grid expansion, `validate` and `plan` (or the subject list).
    pub fn setup_once(&self) -> Result<f64> {
        let start = Instant::now();
        match self.kind {
            Kind::Classify => {
                std::hint::black_box(self.classification_grid().subjects());
            }
            _ => {
                let config = self.campaign_config();
                config.validate().map_err(|e| e.to_string())?;
                std::hint::black_box(config.plan().map_err(|e| e.to_string())?);
            }
        }
        Ok(start.elapsed().as_secs_f64())
    }

    fn read_artifact(&self) -> Option<Result<String>> {
        self.committed_artifact().map(|artifact| {
            std::fs::read_to_string(artifact).map_err(|e| format!("read {artifact}: {e}"))
        })
    }

    /// What an untraced iteration must output: the committed artifact for
    /// the default seed, otherwise the example on the other thread count
    /// (1 vs `nproc`), and `run_campaign(_, 1)` for `serve`.
    pub fn expected(&self) -> Result<String> {
        if let Some(artifact) = self.read_artifact() {
            return artifact;
        }
        if self.kind == Kind::Serve {
            return run_campaign(&self.campaign_config(), 1)
                .map(|r| r.to_json())
                .map_err(|e| e.to_string());
        }
        let reference = self.run_example(self.oracle_threads())?;
        if reference.failed_units > 0 {
            return Err("the reference run of the example failed".into());
        }
        Ok(reference.output)
    }

    /// What the traced pass must output. It runs in process, so a campaign
    /// workload yields the report JSON, checked against `run_campaign` on
    /// the other thread count; `classify` yields the committed artifact's
    /// bytes (checked against it for the default seed, otherwise against
    /// a 1-thread classification); `serve` is checked as untraced.
    pub fn traced_expected(&self) -> Result<String> {
        match self.kind {
            Kind::Serve => self.expected(),
            Kind::Classify => self.read_artifact().unwrap_or_else(|| {
                classify_subjects(&self.classification_grid().subjects(), 1)
                    .map(|r| r.to_json())
                    .map_err(|e| e.to_string())
            }),
            Kind::Stability | Kind::Saturation => {
                run_campaign(&self.campaign_config(), self.oracle_threads())
                    .map(|r| r.to_json())
                    .map_err(|e| e.to_string())
            }
        }
    }

    /// One untraced iteration.
    pub fn run_once(&self) -> Result<Iteration> {
        if self.kind == Kind::Serve {
            self.serve_once(None)
        } else {
            self.run_example(self.threads)
        }
    }

    /// Runs the workload's example binary on `threads` threads, timing it
    /// from spawn to exit. An example that exits nonzero (its own gates
    /// failed) fails every unit.
    fn run_example(&self, threads: usize) -> Result<Iteration> {
        let name = self.kind.example().expect("an example workload");
        let exe = self.build_dir.join("release").join("examples").join(name);
        let out = self.out_dir().join(format!(
            "{name}-{}-t{threads}-{}.json",
            self.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(self.out_dir()).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&out);
        let mut command = Command::new(&exe);
        command
            .args(["--threads", &threads.to_string()])
            .args(["--seed", &self.seed.to_string()])
            .arg("--out")
            .arg(&out)
            .env_remove("BENCH_QUICK")
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if self.small {
            match self.kind {
                Kind::Classify => command.args(SMALL_CLASSIFY_ARGS),
                _ => command.env("BENCH_QUICK", "1"),
            };
        }
        let start = Instant::now();
        let run = command
            .output()
            .map_err(|e| format!("run {}: {e}", exe.display()))?;
        let wall_s = start.elapsed().as_secs_f64();
        let output = std::fs::read_to_string(&out).unwrap_or_default();
        let _ = std::fs::remove_file(&out);
        let failed_units = if run.status.success() {
            0
        } else {
            eprintln!(
                "{name} --threads {threads} --seed {} {}: {}",
                self.seed,
                run.status,
                String::from_utf8_lossy(&run.stderr).trim()
            );
            self.units()
        };
        Ok(Iteration {
            wall_s,
            setup_s: None,
            output,
            failed_units,
        })
    }

    /// One job through an in-process master and `nproc` worker threads
    /// on loopback. With a tracer, its phases are recorded as spans under
    /// `parent`.
    pub fn serve_once(&self, trace: Option<(&Tracer, usize)>) -> Result<Iteration> {
        let threads = self.threads;
        let span = |name| trace.map(|(t, parent)| t.open(name, Some(parent)));
        let close = |open: Option<crate::trace::Open>, counts| {
            if let (Some(open), Some((t, _))) = (open, trace) {
                t.close(open, Vec::new(), counts);
            }
        };
        let config = self.campaign_config();
        let start = Instant::now();
        let setup = span("serve.setup");
        let master = Master::bind(
            "127.0.0.1:0",
            MasterConfig {
                heartbeat_timeout: HEARTBEAT_TIMEOUT,
                once: true,
                tick: MASTER_TICK,
            },
        )
        .map_err(|e| format!("bind master: {e}"))?;
        let addr = master.local_addr();
        let master = std::thread::spawn(move || master.run());
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let mut worker = WorkerConfig::new(addr.to_string(), format!("w{i}"));
                worker.heartbeat = WORKER_HEARTBEAT;
                worker.poll = WORKER_POLL;
                worker.max_connect_failures = WORKER_CONNECT_FAILURES;
                std::thread::spawn(move || serve::run_worker(&worker))
            })
            .collect();
        let outcome = (|| -> Result<(f64, String, u64)> {
            wait_until(addr, REGISTER_POLL, |s| s.workers >= threads)?;
            let submit = trace.map(|(t, _)| t.open("serve.submit", setup.as_ref().map(|o| o.id())));
            serve::submit(addr, &config, 1).map_err(|e| format!("submit: {e}"))?;
            close(submit, Vec::new());
            close(setup, Vec::new());
            let setup_s = start.elapsed().as_secs_f64();
            let run = span("serve.run");
            let status = wait_until(addr, STATUS_POLL, |s| s.complete)?;
            close(run, vec![("requeues", status.requeues)]);
            let results = span("serve.results");
            let output = serve::results(addr)
                .map_err(|e| format!("results: {e}"))?
                .ok_or("results not ready after status reported complete")?;
            close(results, vec![("bytes", output.len() as u64)]);
            Ok((setup_s, output, status.requeues))
        })();
        let wall_s = start.elapsed().as_secs_f64();
        // Join every thread before reporting, so no retrying worker
        // overlaps the next iteration. An error above leaves the master
        // waiting for work; shut it down first.
        if outcome.is_err() {
            let _ = serve::shutdown(addr);
        }
        let mut worker_errors = 0;
        for w in workers {
            match w.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    eprintln!("worker failed: {e}");
                    worker_errors += 1;
                }
                Err(_) => return Err("worker thread panicked".into()),
            }
        }
        master
            .join()
            .map_err(|_| "master thread panicked".to_string())?
            .map_err(|e| format!("master: {e}"))?;
        let (setup_s, output, requeues) = outcome?;
        Ok(Iteration {
            wall_s,
            setup_s: Some(setup_s),
            output,
            failed_units: requeues + worker_errors,
        })
    }

    /// The campaign layer phase by phase — `plan`, `execute_shard` on
    /// the iteration's threads pulling from a shared cursor, `assemble`,
    /// `to_json` — with a span around each call.
    pub fn traced_campaign(&self, tracer: &Tracer, parent: usize) -> Result<TracedCampaign> {
        let threads = self.threads;
        let config = tracer.time("campaign.config", Some(parent), || self.campaign_config());
        let open = tracer.open("campaign.plan", Some(parent));
        let plan = config.plan().map_err(|e| e.to_string())?;
        tracer.close(
            open,
            Vec::new(),
            vec![("grid_points", plan.shard_count() as u64)],
        );
        let shards = plan.shards;

        let execute = tracer.open("campaign.execute", Some(parent));
        let execute_id = execute.id();
        let cursor = AtomicUsize::new(0);
        let mut collected: Vec<(usize, Result<Vec<ScenarioResult>>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads.clamp(1, shards.len().max(1)))
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let g = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(shard) = shards.get(g) else { break };
                                let open = tracer.open("campaign.execute_shard", Some(execute_id));
                                let result =
                                    execute_shard(&config, shard).map_err(|e| e.to_string());
                                tracer.close(
                                    open,
                                    Vec::new(),
                                    vec![("scenarios", shard.len() as u64)],
                                );
                                local.push((g, result));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("traced campaign worker panicked"))
                    .collect()
            });
        tracer.close(execute, Vec::new(), Vec::new());
        collected.sort_by_key(|(g, _)| *g);
        let mut shard_results = Vec::with_capacity(collected.len());
        for (_, r) in collected {
            shard_results.push(r?);
        }

        let report = tracer.time("campaign.assemble", Some(parent), || {
            assemble(&config, shard_results.concat()).map_err(|e| e.to_string())
        })?;
        let open = tracer.open("campaign.report_json", Some(parent));
        let report_json = report.to_json();
        tracer.close(open, Vec::new(), vec![("bytes", report_json.len() as u64)]);
        Ok(TracedCampaign {
            config,
            shards,
            shard_results,
            report,
            report_json,
        })
    }
}

fn stability_modes() -> Vec<BufferMode> {
    let wormhole = |lanes| BufferMode::Wormhole {
        lanes,
        lane_depth: 4,
        flits_per_packet: 4,
    };
    vec![
        BufferMode::Unbuffered,
        BufferMode::Fifo(4),
        wormhole(1),
        wormhole(2),
        wormhole(4),
    ]
}

/// Subjects in equivalence classes whose certificates failed
/// cross-verification.
pub fn unverified_subjects(report: &ClassificationReport) -> u64 {
    report
        .classes
        .iter()
        .filter(|c| c.equivalent && !c.cross_verified)
        .map(|c| c.members.len() as u64)
        .sum()
}

/// Any JSON value, through the vendored serde data model.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

/// Work units and simulated cell-cycles (classified subjects, for
/// `classify`) that an example's JSON output describes.
fn output_shape(kind: Kind, output: &str) -> Result<(u64, f64)> {
    type Map = [(String, Value)];
    let bad = |what: &str| format!("example output has no {what}");
    let Json(root) = serde_json::from_str(output).map_err(|e| format!("example output: {e}"))?;
    let root = root.as_map().ok_or_else(|| bad("top-level object"))?;
    let num = |m: &Map, key: &str| match serde::map_get(m, key) {
        Ok(Value::U64(v)) => Ok(*v),
        _ => Err(bad(key)),
    };
    let seq = |m: &'_ Map, key: &str| -> Result<Vec<Value>> {
        serde::map_get(m, key)
            .ok()
            .and_then(Value::as_seq)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| bad(key))
    };
    if kind == Kind::Classify {
        let subjects = num(root, "subject_count")?;
        return Ok((subjects, subjects as f64));
    }
    let (cycles, reps) = (num(root, "cycles")?, num(root, "replications")?);
    // (stages, grid points) per curve of `stability.json`, per point of
    // `saturation.json`.
    let mut groups = Vec::new();
    let list = if kind == Kind::Stability {
        "curves"
    } else {
        "points"
    };
    for entry in seq(root, list)? {
        let entry = entry.as_map().ok_or_else(|| bad(list))?;
        let points = if kind == Kind::Stability {
            seq(entry, "points")?.len() as u64
        } else {
            1
        };
        groups.push((num(entry, "stages")?, points));
    }
    let points: u64 = groups.iter().map(|(_, p)| p).sum();
    let cell_cycles: u64 = groups
        .iter()
        .map(|&(stages, p)| p * stages * (1 << (stages - 1)) * cycles * reps)
        .sum();
    Ok((points * reps, cell_cycles as f64))
}

/// Polls the master's status every `poll` until `done` holds.
fn wait_until(
    addr: SocketAddr,
    poll: Duration,
    done: impl Fn(&serve::StatusReport) -> bool,
) -> Result<serve::StatusReport> {
    let start = Instant::now();
    loop {
        let status = serve::status(addr).map_err(|e| format!("status: {e}"))?;
        if done(&status) {
            return Ok(status);
        }
        if start.elapsed() > SERVE_DEADLINE {
            return Err(format!(
                "master made no progress within {SERVE_DEADLINE:?}: {status:?}"
            ));
        }
        std::thread::sleep(poll);
    }
}
