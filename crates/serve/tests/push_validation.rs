//! Push validation: the master accepts a shard's results only when they are
//! exactly that shard's scenarios, in order. A bad push is refused and the
//! slot stays open for the real results.

use std::time::Duration;

use min_serve::{client, Master, MasterConfig, Reply, Request};
use min_sim::campaign::{execute_shard, run_campaign, CampaignConfig, ScenarioResult};

fn push(addr: std::net::SocketAddr, shard: usize, results: Vec<ScenarioResult>) -> Reply {
    let request = Request::Push {
        worker: "w".to_string(),
        shard,
        results,
    };
    client::request(addr, &request).unwrap()
}

#[test]
fn pushes_that_do_not_hold_their_shard_are_rejected() {
    let config = CampaignConfig::over_catalog(3..=3).with_cycles(80, 10);
    let reference = run_campaign(&config, 1).unwrap().to_json();
    let plan = config.plan().unwrap();
    assert!(plan.shard_count() > 1);

    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            heartbeat_timeout: Duration::from_secs(30),
            once: true,
            tick: Duration::from_millis(2),
        },
    )
    .unwrap();
    let addr = master.local_addr();
    let master = std::thread::spawn(move || master.run().unwrap());
    client::submit(addr, &config, 1).unwrap();

    let results: Vec<Vec<ScenarioResult>> = plan
        .shards
        .iter()
        .map(|shard| execute_shard(&config, shard).unwrap())
        .collect();

    // An empty push, and shard 1's results under shard 0's id, for every
    // shard: none of them may fill a slot.
    for id in 0..plan.shard_count() {
        let other = (id + 1) % plan.shard_count();
        for bad in [Vec::new(), results[other].clone()] {
            let reply = push(addr, id, bad);
            assert!(matches!(reply, Reply::Error { .. }), "{reply:?}");
        }
    }
    let status = client::status(addr).unwrap();
    assert_eq!(status.done, 0, "{status:?}");
    assert!(!status.complete);
    assert_eq!(client::results(addr).unwrap(), None);

    // The slots stayed open: the real results complete the job.
    for (id, shard_results) in results.into_iter().enumerate() {
        assert_eq!(push(addr, id, shard_results), Reply::Ack);
    }
    let report_json = client::results(addr).unwrap().expect("all slots filled");
    assert_eq!(report_json, reference);
    master.join().unwrap();
}
