//! Submit validation: a campaign whose buffer parameters would overflow the
//! switch cores, or whose fabric would hold more than `MAX_FABRIC_SLOTS`
//! buffer slots, is refused at `Submit`, so no worker ever leases a shard of
//! it.

use std::time::Duration;

use min_serve::{client, Master, MasterConfig, Reply, Request};
use min_sim::campaign::CampaignConfig;
use min_sim::{BufferMode, MAX_BUFFER_PARAMETER};

#[test]
fn oversized_buffer_parameters_are_refused_at_submit() {
    let master = Master::bind(
        "127.0.0.1:0",
        MasterConfig {
            heartbeat_timeout: Duration::from_secs(30),
            once: false,
            tick: Duration::from_millis(2),
        },
    )
    .unwrap();
    let addr = master.local_addr();
    let master = std::thread::spawn(move || master.run().unwrap());

    let wormhole = |lane_depth, flits_per_packet| BufferMode::Wormhole {
        lanes: 2,
        lane_depth,
        flits_per_packet,
    };
    let hostile = [
        BufferMode::Fifo(1 << 31),
        BufferMode::Fifo(1 << 63),
        wormhole(1 << 32, 4),
        wormhole(4, 1 << 32),
    ];
    let base = CampaignConfig::over_catalog(3..=3).with_cycles(80, 10);
    for mode in hostile {
        let submit = Request::Submit {
            config: base.clone().with_buffer_modes(vec![mode]),
            points_per_shard: 1,
        };
        match client::request(addr, &submit).unwrap() {
            Reply::Error { message } => assert!(
                message.starts_with("invalid campaign") && message.contains("exceeds the maximum"),
                "{mode:?}: {message}"
            ),
            other => panic!("{mode:?} was not refused: {other:?}"),
        }
        let lease = Request::Lease {
            worker: "w".to_string(),
        };
        assert_eq!(client::request(addr, &lease).unwrap(), Reply::Wait);
        let status = client::status(addr).unwrap();
        assert!(!status.has_job, "{mode:?}: {status:?}");
    }

    // Every parameter in range, but the product over an Omega(12) fabric
    // (12 × 2048 cells × 131072 slots) is over the fabric budget.
    let mut oversized = base
        .clone()
        .with_buffer_modes(vec![BufferMode::Fifo(MAX_BUFFER_PARAMETER)]);
    oversized.cells = serde_json::from_str(r#"[["Omega",12]]"#).unwrap();
    let submit = Request::Submit {
        config: oversized,
        points_per_shard: 1,
    };
    match client::request(addr, &submit).unwrap() {
        Reply::Error { message } => assert!(
            message.starts_with("invalid campaign") && message.contains("budget"),
            "{message}"
        ),
        other => panic!("the oversized fabric was not refused: {other:?}"),
    }
    assert!(!client::status(addr).unwrap().has_job);

    // The master is still serving: a sound campaign is accepted.
    assert!(client::submit(addr, &base, 1).is_ok());
    client::shutdown(addr).unwrap();
    master.join().unwrap();
}
