//! `min_serve` — the distributed campaign service CLI.
//!
//! One binary, four roles:
//!
//! ```text
//! min_serve master   --listen 127.0.0.1:7077 [--heartbeat-timeout-ms 10000] [--once]
//! min_serve worker   --connect 127.0.0.1:7077 [--name w0] [--heartbeat-ms 1000]
//!                    [--poll-ms 50] [--die-after-leases N]
//! min_serve submit   --connect 127.0.0.1:7077 --config grid.json
//!                    [--points-per-shard 1] [--wait] [--output report.json]
//! min_serve status   --connect 127.0.0.1:7077
//! min_serve results  --connect 127.0.0.1:7077 [--output report.json]
//! min_serve shutdown --connect 127.0.0.1:7077
//! min_serve run-local  --config grid.json [--threads 0] [--output report.json]
//! min_serve gen-config [--preset smoke] [--output grid.json]
//! ```
//!
//! `run-local` executes the same campaign in process (the single-machine
//! baseline the distributed report must match byte-for-byte) and
//! `gen-config` writes a canonical campaign JSON, so the CI determinism
//! gate is three invocations and a `cmp`.

use std::io::{self, Write as _};
use std::time::Duration;

use min_serve::{client, CampaignConfig, Master, MasterConfig, WorkerConfig};
use min_sim::campaign::run_campaign;
use min_sim::cli::Opts;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("min_serve: {message}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((verb, rest)) = args.split_first() else {
        return Err(format!("missing subcommand\n\n{USAGE}"));
    };
    let mut opts = Opts::parse(rest)?;
    match verb.as_str() {
        "master" => cmd_master(&mut opts),
        "worker" => cmd_worker(&mut opts),
        "submit" => cmd_submit(&mut opts),
        "status" => cmd_status(&mut opts),
        "results" => cmd_results(&mut opts),
        "shutdown" => cmd_shutdown(&mut opts),
        "run-local" => cmd_run_local(&mut opts),
        "gen-config" => cmd_gen_config(&mut opts),
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

const USAGE: &str = "usage: min_serve <master|worker|submit|status|results|shutdown|run-local|gen-config> [options]";

fn io_err(err: io::Error) -> String {
    err.to_string()
}

fn connect_addr(opts: &mut Opts) -> Result<String, String> {
    opts.take("--connect")?
        .ok_or_else(|| "--connect <addr> is required".to_string())
}

fn write_output(opts: &mut Opts, text: &str) -> Result<(), String> {
    match opts.take("--output")? {
        Some(path) => std::fs::write(&path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut stdout = io::stdout().lock();
            stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.write_all(b"\n"))
                .map_err(io_err)
        }
    }
}

fn load_config(opts: &mut Opts) -> Result<CampaignConfig, String> {
    let path = opts
        .take("--config")?
        .ok_or_else(|| "--config <file> is required".to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_master(opts: &mut Opts) -> Result<(), String> {
    let listen = opts
        .take("--listen")?
        .unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let mut config = MasterConfig::default();
    if let Some(ms) = opts.take_parsed::<u64>("--heartbeat-timeout-ms")? {
        config.heartbeat_timeout = Duration::from_millis(ms);
    }
    config.once = opts.take_bool("--once")?;
    opts.finish()?;
    let master = Master::bind(listen.as_str(), config).map_err(io_err)?;
    println!("master listening on {}", master.local_addr());
    master.run().map_err(io_err)
}

fn cmd_worker(opts: &mut Opts) -> Result<(), String> {
    let master = connect_addr(opts)?;
    let name = opts
        .take("--name")?
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let mut config = WorkerConfig::new(master, name);
    if let Some(ms) = opts.take_parsed::<u64>("--heartbeat-ms")? {
        config.heartbeat = Duration::from_millis(ms);
    }
    if let Some(ms) = opts.take_parsed::<u64>("--poll-ms")? {
        config.poll = Duration::from_millis(ms);
    }
    config.die_after_leases = opts.take_parsed::<usize>("--die-after-leases")?;
    opts.finish()?;
    let summary = min_serve::run_worker(&config).map_err(io_err)?;
    println!(
        "worker {}: leased {}, executed {}{}",
        config.name,
        summary.leased,
        summary.executed,
        if summary.died {
            ", died (injected)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_submit(opts: &mut Opts) -> Result<(), String> {
    let addr = connect_addr(opts)?;
    let config = load_config(opts)?;
    let points = opts
        .take_parsed::<usize>("--points-per-shard")?
        .unwrap_or(1);
    let wait = opts.take_bool("--wait")?;
    let poll = Duration::from_millis(opts.take_parsed::<u64>("--poll-ms")?.unwrap_or(200));
    let (shards, scenarios) = client::submit(addr.as_str(), &config, points).map_err(io_err)?;
    eprintln!("submitted: {shards} shards, {scenarios} scenarios");
    if wait {
        let report_json = client::wait_for_results(addr.as_str(), poll).map_err(io_err)?;
        write_output(opts, &report_json)?;
    }
    opts.finish()
}

fn cmd_status(opts: &mut Opts) -> Result<(), String> {
    let addr = connect_addr(opts)?;
    opts.finish()?;
    let s = client::status(addr.as_str()).map_err(io_err)?;
    if !s.has_job {
        println!("no job submitted");
        return Ok(());
    }
    println!(
        "shards {}: {} pending, {} running, {} done · {} workers · {} requeues · {}",
        s.shards,
        s.pending,
        s.running,
        s.done,
        s.workers,
        s.requeues,
        if s.complete {
            "complete"
        } else {
            "in progress"
        }
    );
    Ok(())
}

fn cmd_results(opts: &mut Opts) -> Result<(), String> {
    let addr = connect_addr(opts)?;
    match client::results(addr.as_str()).map_err(io_err)? {
        Some(report_json) => {
            write_output(opts, &report_json)?;
            opts.finish()
        }
        None => Err("results not ready (shards still outstanding)".to_string()),
    }
}

fn cmd_shutdown(opts: &mut Opts) -> Result<(), String> {
    let addr = connect_addr(opts)?;
    opts.finish()?;
    client::shutdown(addr.as_str()).map_err(io_err)
}

fn cmd_run_local(opts: &mut Opts) -> Result<(), String> {
    let config = load_config(opts)?;
    let threads = opts.take_parsed::<usize>("--threads")?.unwrap_or(0);
    let report = run_campaign(&config, threads).map_err(|e| e.to_string())?;
    write_output(opts, &report.to_json())?;
    opts.finish()
}

fn cmd_gen_config(opts: &mut Opts) -> Result<(), String> {
    let preset = opts
        .take("--preset")?
        .unwrap_or_else(|| "smoke".to_string());
    let config = preset_config(&preset)?;
    let json = serde_json::to_string(&config).map_err(|e| e.to_string())?;
    write_output(opts, &json)?;
    opts.finish()
}

/// Canonical campaign presets for CI and demos.
fn preset_config(preset: &str) -> Result<CampaignConfig, String> {
    use min_sim::{FaultPlan, TrafficPattern};
    match preset {
        // Small enough to finish in seconds, rich enough to cross every
        // distributed code path: several shards per worker, a fault axis
        // (so path-diversity histograms flow through the wire), and two
        // replications per grid point.
        "smoke" => Ok(CampaignConfig::over_catalog(3..=3)
            .with_traffic(vec![TrafficPattern::Uniform, TrafficPattern::BitReversal])
            .with_loads(vec![0.35, 0.85])
            .with_fault_plans(vec![
                FaultPlan::none(),
                FaultPlan::none().with_dead_link(1, 0, 1, 0),
            ])
            .with_replications(2)
            .with_cycles(150, 20)),
        // The default catalog sweep, unchanged.
        "catalog" => Ok(CampaignConfig::default()),
        other => Err(format!(
            "unknown preset `{other}` (try `smoke` or `catalog`)"
        )),
    }
}
