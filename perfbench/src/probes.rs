//! Layer probes for the traced run. Each probe drives one layer through its
//! public API on the workload's own inputs and records a span around every
//! call; the per-layer metrics are derived from those spans afterwards.
//!
//! The batch, engine and lane probes replay a deterministic sample of the
//! workload's grid points (every `stride`-th load of the ladder), so the
//! traced run stays within a few workload iterations.

use baseline_equivalence::core::affine_form::affine_form;
use baseline_equivalence::core::baseline_iso::baseline_isomorphism;
use baseline_equivalence::core::classify::{ClassificationReport, Subject};
use baseline_equivalence::core::equivalence::compose_baseline_certificates;
use baseline_equivalence::graph::iso::verify_stage_mapping;
use baseline_equivalence::routing::destination_tags;
use baseline_equivalence::routing::disjoint::path_diversity_histogram;
use baseline_equivalence::serve::protocol::{read_frame, write_frame, Reply, Request};
use baseline_equivalence::sim::batch::{packed_eligible, run_replications};
use baseline_equivalence::sim::campaign::{CampaignConfig, Shard};
use baseline_equivalence::sim::traffic::{Offer, TrafficSources};
use baseline_equivalence::sim::{BufferMode, LaneEngine, Simulator, TrafficPattern, LANE_WIDTH};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::trace::Tracer;
use crate::workloads::{Result, TracedCampaign};

/// Short label of a buffer mode, as the metric names use it.
fn mode_key(mode: &BufferMode) -> String {
    match mode {
        BufferMode::Unbuffered => "unbuf".into(),
        BufferMode::Fifo(depth) => format!("fifo{depth}"),
        BufferMode::Wormhole { lanes, .. } => format!("wh{lanes}"),
    }
}

/// Short label of a traffic pattern, as the metric names use it.
fn traffic_key(traffic: &TrafficPattern) -> &'static str {
    match traffic {
        TrafficPattern::OnOff { .. } => "onoff",
        other => other.label(),
    }
}

/// One grid point (a shard of `CampaignConfig::plan`) with the path the
/// batch layer takes for it.
struct Point<'a> {
    shard: &'a Shard,
    packed: bool,
}

fn points<'a>(config: &CampaignConfig, shards: &'a [Shard]) -> Vec<Point<'a>> {
    shards
        .iter()
        .filter(|s| !s.is_empty())
        .map(|shard| {
            let first = &shard.scenarios[0];
            let sim = first.sim_config(config);
            let packed = packed_eligible(&sim, first.stages, shard.len())
                && destination_tags(&first.network.build()).is_some();
            Point { shard, packed }
        })
        .collect()
}

/// Every `stride`-th load of the ladder (all loads when the ladder is short).
fn sampled<'a, 'b>(config: &CampaignConfig, points: &'b [Point<'a>]) -> Vec<&'b Point<'a>> {
    let stride = if config.loads.len() >= 6 { 3 } else { 1 };
    points
        .iter()
        .filter(|p| {
            let load = p.shard.scenarios[0].offered_load;
            let i = config.loads.iter().position(|&l| l == load).unwrap_or(0);
            i % stride == stride - 1
        })
        .collect()
}

fn cell_cycles(config: &CampaignConfig, shard: &Shard) -> u64 {
    let spec = shard.scenarios[0].network;
    (spec.stages() * spec.cells_per_stage()) as u64 * config.cycles
}

/// `batch`, `engine`, `lane`, `traffic` and `routing` probes over a
/// campaign workload, under the span `parent`.
pub fn campaign_layers(tracer: &Tracer, parent: usize, traced: &TracedCampaign) -> Result<()> {
    let config = &traced.config;
    let all = points(config, &traced.shards);
    let sample = sampled(config, &all);

    // batch: path counts over the whole grid, time over the sample.
    let open = tracer.open("batch", Some(parent));
    let batch_id = open.id();
    for p in &sample {
        let first = &p.shard.scenarios[0];
        let net = first.network.build();
        let sim = first.sim_config(config);
        let seeds: Vec<u64> = p.shard.scenarios.iter().map(|s| s.seed).collect();
        let run = tracer.open("batch.run_replications", Some(batch_id));
        std::hint::black_box(run_replications(&net, &sim, &seeds).map_err(|e| e.to_string())?);
        let path = if p.packed { "packed" } else { "scalar" };
        tracer.close(run, vec![("path", path.into())], Vec::new());
    }
    let packed = all.iter().filter(|p| p.packed).count() as u64;
    tracer.close(
        open,
        Vec::new(),
        vec![
            ("packed_points", packed),
            ("scalar_points", all.len() as u64 - packed),
        ],
    );

    // engine: the scalar Simulator driven through new, reseed and step.
    let open = tracer.open("engine", Some(parent));
    let engine_id = open.id();
    for p in sample.iter().filter(|p| !p.packed) {
        let first = &p.shard.scenarios[0];
        let sim_config = first.sim_config(config);
        let net = first.network.build();
        let new = tracer.open("engine.new", Some(engine_id));
        let mut sim = Simulator::new(net, sim_config).map_err(|e| e.to_string())?;
        tracer.close(new, Vec::new(), Vec::new());
        let attrs = vec![
            ("mode", mode_key(&first.buffer_mode)),
            ("traffic", traffic_key(&first.traffic).to_string()),
            ("faulted", (!first.fault_plan.is_empty()).to_string()),
        ];
        for scenario in &p.shard.scenarios {
            let run = tracer.open("engine.run", Some(engine_id));
            sim.reseed(scenario.seed);
            for _ in 0..config.cycles {
                sim.step();
            }
            let flits = sim.metrics().flits_delivered;
            tracer.close(
                run,
                attrs.clone(),
                vec![
                    ("cell_cycles", cell_cycles(config, p.shard)),
                    ("flits", flits),
                ],
            );
        }
    }
    tracer.close(open, Vec::new(), Vec::new());

    // lane: the word-packed LaneEngine, one instance per 64 replications.
    let open = tracer.open("lane", Some(parent));
    let lane_id = open.id();
    for p in sample.iter().filter(|p| p.packed) {
        let first = &p.shard.scenarios[0];
        let sim_config = first.sim_config(config);
        let net = first.network.build();
        let seeds: Vec<u64> = p.shard.scenarios.iter().map(|s| s.seed).collect();
        for chunk in seeds.chunks(LANE_WIDTH) {
            let new = tracer.open("lane.new", Some(lane_id));
            let engine = LaneEngine::new(net.clone(), sim_config.clone(), chunk)
                .map_err(|e| e.to_string())?;
            tracer.close(new, Vec::new(), Vec::new());
            let run = tracer.open("lane.run", Some(lane_id));
            std::hint::black_box(engine.run());
            tracer.close(
                run,
                Vec::new(),
                vec![(
                    "rep_cell_cycles",
                    chunk.len() as u64 * cell_cycles(config, p.shard),
                )],
            );
        }
    }
    let (chunks, reps) = all.iter().filter(|p| p.packed).fold((0, 0), |(c, r), p| {
        (
            c + p.shard.len().div_ceil(LANE_WIDTH) as u64,
            r + p.shard.len() as u64,
        )
    });
    tracer.close(
        open,
        Vec::new(),
        vec![("chunks", chunks), ("replications", reps)],
    );

    traffic(tracer, parent, config, &all);
    routing(tracer, parent, &all);
    Ok(())
}

/// `traffic`: a standalone `TrafficSources::offer` + `DestSampler::draw`
/// replay of one replication per (cell, traffic, load) at the workload's
/// cycle count.
fn traffic(tracer: &Tracer, parent: usize, config: &CampaignConfig, points: &[Point]) {
    let open = tracer.open("traffic", Some(parent));
    let traffic_id = open.id();
    let mut seen = Vec::new();
    for p in points {
        let first = &p.shard.scenarios[0];
        let key = (
            first.network,
            first.traffic.clone(),
            first.offered_load.to_bits(),
        );
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let cells = first.network.cells_per_stage();
        let width = first.network.build().width();
        let mut sources = TrafficSources::new(&first.traffic, cells);
        let sampler = first.traffic.sampler(cells as u32, width);
        let mut rng = ChaCha8Rng::seed_from_u64(first.seed);
        let mut checksum = 0u64;
        let replay = tracer.open("traffic.replay", Some(traffic_id));
        for cycle in 0..config.cycles {
            for cell in 0..cells as u32 {
                for terminal in 0..2 {
                    match sources.offer(cycle, cell, terminal, first.offered_load, &mut rng) {
                        Offer::Idle => {}
                        Offer::Packet => checksum += u64::from(sampler.draw(cell, &mut rng)),
                        Offer::PacketTo(dest) => checksum += u64::from(dest),
                    }
                }
            }
        }
        std::hint::black_box(checksum);
        tracer.close(
            replay,
            vec![("traffic", traffic_key(&first.traffic).to_string())],
            vec![("offers", config.cycles * cells as u64 * 2)],
        );
    }
    tracer.close(open, Vec::new(), Vec::new());
}

/// `routing`: the disjoint-path diversity histogram, once per distinct
/// fault-bearing cell; the call count is what the workload's executor
/// pays — once per shard, since every `execute_shard` recomputes it.
fn routing(tracer: &Tracer, parent: usize, points: &[Point]) {
    let open = tracer.open("routing", Some(parent));
    let routing_id = open.id();
    let faulted: Vec<&Point> = points
        .iter()
        .filter(|p| {
            let first = &p.shard.scenarios[0];
            !first.fault_plan.is_empty() && first.stages <= 8
        })
        .collect();
    let mut seen = Vec::new();
    for p in &faulted {
        let spec = p.shard.scenarios[0].network;
        if seen.contains(&spec) {
            continue;
        }
        seen.push(spec);
        let net = spec.build();
        tracer.time("routing.path_diversity", Some(routing_id), || {
            std::hint::black_box(path_diversity_histogram(&net))
        });
    }
    tracer.close(open, Vec::new(), vec![("calls", faulted.len() as u64)]);
}

/// `serve` wire probe: `write_frame` / `read_frame` into memory over the
/// Assignment, Push and Results messages of the workload's job. Returns the
/// number of messages that did not survive the round trip.
pub fn frames(tracer: &Tracer, parent: usize, traced: &TracedCampaign) -> Result<u64> {
    let open = tracer.open("serve.frames", Some(parent));
    let id = open.id();
    let mut broken = 0;
    for (shard, results) in traced.shards.iter().zip(&traced.shard_results) {
        let assignment = Reply::Assignment {
            config: traced.config.clone(),
            shard: shard.clone(),
        };
        broken += round_trip(tracer, id, "assignment", &assignment)?;
        let push = Request::Push {
            worker: "w0".into(),
            shard: shard.id,
            results: results.clone(),
        };
        broken += round_trip(tracer, id, "push", &push)?;
    }
    let results = Reply::Results {
        report_json: traced.report_json.clone(),
    };
    broken += round_trip(tracer, id, "results", &results)?;
    tracer.close(open, Vec::new(), Vec::new());
    Ok(broken)
}

/// Encodes and decodes one frame, each under its own span; returns 1 if the
/// decoded message differs from the original.
fn round_trip<T: Serialize + Deserialize + PartialEq>(
    tracer: &Tracer,
    parent: usize,
    kind: &'static str,
    message: &T,
) -> Result<u64> {
    let mut wire = Vec::new();
    let encode = tracer.open("serve.frame_encode", Some(parent));
    write_frame(&mut wire, message).map_err(|e| e.to_string())?;
    let attrs = vec![("kind", kind.to_string())];
    let counts = vec![("bytes", wire.len() as u64)];
    tracer.close(encode, attrs.clone(), counts.clone());
    let decode = tracer.open("serve.frame_decode", Some(parent));
    let back: T = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
    tracer.close(decode, attrs, counts);
    Ok(u64::from(back != *message))
}

/// `classify` probe: each subject decided phase by phase on one thread —
/// build, packed affine forms, digraph, `baseline_isomorphism` — then the
/// serial cross-verification of every equivalent class. Returns the number
/// of class members whose composed certificate failed to verify.
pub fn classify_layers(
    tracer: &Tracer,
    parent: usize,
    subjects: &[Subject],
    report: &ClassificationReport,
) -> u64 {
    let mut certificates = Vec::with_capacity(subjects.len());
    for subject in subjects {
        let net = tracer.time("classify.build", Some(parent), || subject.build());
        tracer.time("classify.affine_form", Some(parent), || {
            std::hint::black_box(
                net.connections()
                    .iter()
                    .map(affine_form)
                    .collect::<Option<Vec<_>>>(),
            )
        });
        let digraph = tracer.time("classify.digraph", Some(parent), || net.to_digraph());
        let cert = tracer.time("classify.baseline_iso", Some(parent), || {
            baseline_isomorphism(&digraph).ok()
        });
        certificates.push(cert);
    }
    tracer.time("classify.crossverify", Some(parent), || {
        let mut failed = 0;
        for class in report
            .classes
            .iter()
            .filter(|c| c.equivalent && c.members.len() > 1)
        {
            let rep = class.members[0];
            let rep_digraph = subjects[rep].build().to_digraph();
            for &member in &class.members[1..] {
                let verified = match (&certificates[member], &certificates[rep]) {
                    (Some(m), Some(r)) => compose_baseline_certificates(m, r)
                        .map(|mapping| {
                            let member_digraph = subjects[member].build().to_digraph();
                            verify_stage_mapping(&member_digraph, &rep_digraph, &mapping)
                        })
                        .unwrap_or(false),
                    _ => false,
                };
                failed += u64::from(!verified);
            }
        }
        failed
    })
}
