//! Distributed campaign demo: a master and workers in one process.
//!
//! Spins up a `min-serve` master on an ephemeral localhost port, submits a
//! small campaign, runs a few worker loops in threads — killing one of
//! them right after its first lease to exercise heartbeat failover — and
//! then proves the assembled report is byte-identical to the single-threaded
//! in-process run. The same flow works across machines with the
//! `min_serve` binary: `master`, `worker --connect`, `submit --wait`.
//!
//! ```text
//! cargo run --release --example distributed_campaign
//! ```

use std::time::Duration;

use baseline_equivalence::prelude::*;
use baseline_equivalence::serve;

fn main() {
    let config = CampaignConfig::over_catalog(3..=3)
        .with_traffic(vec![TrafficPattern::Uniform, TrafficPattern::BitReversal])
        .with_loads(vec![0.4, 0.9])
        .with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::none().with_dead_link(1, 0, 1, 0),
        ])
        .with_replications(2)
        .with_cycles(200, 40);

    println!(
        "single-threaded baseline ({} scenarios)…",
        config.scenario_count()
    );
    let reference = run_campaign(&config, 1).expect("campaign runs").to_json();

    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            heartbeat_timeout: Duration::from_millis(800),
            once: true,
            tick: Duration::from_millis(2),
        },
    )
    .expect("bind master");
    let addr = master.local_addr();
    println!("master on {addr}");
    let master = std::thread::spawn(move || master.run().expect("master runs"));

    let (shards, scenarios) = serve::submit(addr, &config, 2).expect("submit");
    println!("submitted: {shards} shards, {scenarios} scenarios");

    // One worker "crashes" immediately after leasing a shard; the master
    // requeues it once the heartbeat deadline passes.
    let mut doomed = WorkerConfig::new(addr.to_string(), "doomed");
    doomed.die_after_leases = Some(1);
    let crash = serve::run_worker(&doomed).expect("doomed worker");
    println!(
        "worker {}: leased {}, executed {} (injected crash)",
        doomed.name, crash.leased, crash.executed
    );

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let mut worker = WorkerConfig::new(addr.to_string(), format!("w{i}"));
            worker.heartbeat = Duration::from_millis(100);
            worker.poll = Duration::from_millis(10);
            std::thread::spawn(move || serve::run_worker(&worker).expect("worker runs"))
        })
        .collect();

    let report_json =
        serve::wait_for_results(addr, Duration::from_millis(50)).expect("job completes");
    for worker in workers {
        let summary = worker.join().expect("worker thread");
        println!("worker finished: {summary:?}");
    }
    master.join().expect("master thread");

    assert_eq!(
        report_json, reference,
        "distributed report diverged from the single-threaded baseline"
    );
    println!(
        "distributed report ({} bytes) is byte-identical to the single-threaded run",
        report_json.len()
    );
}
