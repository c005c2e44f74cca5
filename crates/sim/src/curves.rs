//! Load curves from campaign reports: the replication fold and the
//! saturation knee.
//!
//! A campaign expands its grid in the canonical order cells × traffic ×
//! loads × buffer modes × fault plans × replications, so the replications
//! of one grid point are adjacent and [`fold_points`] folds them in one
//! pass, summing in scenario order (the averages are therefore
//! bit-identical run to run). The points of one load curve are *not*
//! adjacent — the load axis sits outside the buffer-mode and fault-plan
//! axes — so [`ladders`] groups points by every axis except the load, in
//! first-appearance order.
//!
//! The saturation knee ([`Ladder::saturation_load`]) is the first ladder
//! load whose delivered throughput falls more than
//! [`DIVERGENCE_THRESHOLD`] below the open-loop offered rate, the shape
//! the wormhole and Omega-stability literature plots.

use crate::campaign::{CampaignReport, Scenario};

/// Relative throughput shortfall that marks the saturation point: the
/// first ladder load where `throughput < (1 - THRESHOLD) × offered`.
pub const DIVERGENCE_THRESHOLD: f64 = 0.05;

/// One grid point (every axis but the replication), folded over its
/// replications.
#[derive(Debug)]
pub struct Point<'a> {
    /// The first replication's scenario: the grid point's coordinates.
    pub scenario: &'a Scenario,
    /// Scenarios folded into this point.
    pub replications: u32,
    /// Measured cycles per scenario.
    pub cycles: u64,
    /// Summed offered packets (open-loop: refused packets count).
    pub offered: u64,
    /// Summed delivered packets.
    pub delivered: u64,
    /// Summed dropped packets.
    pub dropped: u64,
    /// Largest p99 latency over the replications.
    pub p99_latency: u64,
    throughput_sum: f64,
    acceptance_sum: f64,
    mean_latency_sum: f64,
    occupancy_sum: f64,
}

impl Point<'_> {
    fn mean(&self, sum: f64) -> f64 {
        sum / f64::from(self.replications)
    }

    /// Replication-averaged delivered throughput.
    pub fn throughput(&self) -> f64 {
        self.mean(self.throughput_sum)
    }

    /// Replication-averaged acceptance.
    pub fn acceptance(&self) -> f64 {
        self.mean(self.acceptance_sum)
    }

    /// Replication-averaged mean latency.
    pub fn mean_latency(&self) -> f64 {
        self.mean(self.mean_latency_sum)
    }

    /// Replication-averaged storage occupancy.
    pub fn occupancy(&self) -> f64 {
        self.mean(self.occupancy_sum)
    }

    /// Replication-averaged offered rate in packets per terminal per
    /// cycle, refused packets included.
    pub fn offered_rate(&self) -> f64 {
        let slots = self.cycles as f64
            * self.scenario.network.terminals() as f64
            * f64::from(self.replications);
        if slots == 0.0 {
            0.0
        } else {
            self.offered as f64 / slots
        }
    }

    /// Whether delivered throughput falls more than
    /// [`DIVERGENCE_THRESHOLD`] below the offered rate.
    pub fn is_saturated(&self) -> bool {
        let offered = self.offered_rate();
        offered > 0.0 && self.throughput() < (1.0 - DIVERGENCE_THRESHOLD) * offered
    }
}

/// Folds the report's results into one [`Point`] per grid point, in
/// canonical order.
pub fn fold_points(report: &CampaignReport) -> Vec<Point<'_>> {
    let mut points: Vec<Point<'_>> = Vec::new();
    for r in &report.scenarios {
        let s = &r.scenario;
        if !points.last().is_some_and(|p| p.scenario.same_point(s)) {
            points.push(Point {
                scenario: s,
                replications: 0,
                cycles: report.cycles,
                offered: 0,
                delivered: 0,
                dropped: 0,
                p99_latency: 0,
                throughput_sum: 0.0,
                acceptance_sum: 0.0,
                mean_latency_sum: 0.0,
                occupancy_sum: 0.0,
            });
        }
        let p = points.last_mut().expect("just pushed");
        p.replications += 1;
        p.offered += r.offered;
        p.delivered += r.delivered;
        p.dropped += r.dropped;
        p.p99_latency = p.p99_latency.max(r.p99_latency);
        p.throughput_sum += r.throughput;
        p.acceptance_sum += r.acceptance;
        p.mean_latency_sum += r.mean_latency;
        p.occupancy_sum += r.mean_occupancy;
    }
    points
}

/// One load ladder: the points sharing every grid axis but the load, in
/// ascending grid order.
#[derive(Debug)]
pub struct Ladder<'a> {
    /// The ladder's points, one per load.
    pub points: Vec<Point<'a>>,
}

impl Ladder<'_> {
    /// The scenario naming the ladder's network, traffic, buffer mode and
    /// fault plan.
    pub fn scenario(&self) -> &Scenario {
        self.points[0].scenario
    }

    /// The stability knee: the first ladder load whose point
    /// [`is_saturated`](Point::is_saturated). `None` when the curve never
    /// diverges on this ladder.
    pub fn saturation_load(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.is_saturated())
            .map(|p| p.scenario.offered_load)
    }
}

/// Groups points into load ladders in first-appearance order.
pub fn ladders(points: Vec<Point<'_>>) -> Vec<Ladder<'_>> {
    let mut out: Vec<Ladder<'_>> = Vec::new();
    for p in points {
        match out
            .iter_mut()
            .find(|l| l.scenario().same_ladder(p.scenario))
        {
            Some(ladder) => ladder.points.push(p),
            None => out.push(Ladder { points: vec![p] }),
        }
    }
    out
}

/// Renders a load as fixed-precision JSON: two decimals, or `null` for a
/// curve that never saturates.
pub fn load_json(load: Option<f64>) -> String {
    match load {
        Some(load) => format!("{load:.2}"),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{assemble, CampaignConfig, ScenarioResult};
    use crate::config::BufferMode;
    use min_networks::{ClassicalNetwork, NetworkSpec};

    /// A report over `config` whose results are filled by `measure`
    /// (scenario → (offered packets, throughput)); nothing is simulated.
    fn report(
        config: &CampaignConfig,
        measure: impl Fn(&Scenario) -> (u64, f64),
    ) -> CampaignReport {
        let results = config
            .scenarios()
            .unwrap()
            .into_iter()
            .map(|scenario| {
                let (offered, throughput) = measure(&scenario);
                ScenarioResult {
                    scenario,
                    throughput,
                    mean_latency: 1.0,
                    p99_latency: 2,
                    max_latency: 2,
                    acceptance: 1.0,
                    offered,
                    injected: offered,
                    delivered: offered,
                    dropped: 0,
                    dropped_arbitration: 0,
                    dropped_backpressure: 0,
                    flits_delivered: 0,
                    flit_stalls: 0,
                    mean_occupancy: 0.0,
                    in_flight: 0,
                    dropped_fault: 0,
                    unroutable_drops: 0,
                    delivered_despite_fault: 0,
                    fault_exposure: Vec::new(),
                    path_diversity: Vec::new(),
                }
            })
            .collect();
        assemble(config, results).unwrap()
    }

    /// One 8-terminal Omega cell, 100 cycles: 800 terminal-cycle slots per
    /// replication.
    fn grid(loads: Vec<f64>, modes: Vec<BufferMode>, replications: u32) -> CampaignConfig {
        CampaignConfig::over_catalog(3..=3)
            .with_cells(vec![NetworkSpec::catalog(ClassicalNetwork::Omega, 3)])
            .with_loads(loads)
            .with_buffer_modes(modes)
            .with_replications(replications)
            .with_cycles(100, 10)
    }

    #[test]
    fn ladders_group_non_adjacent_points_in_first_appearance_order() {
        let modes = vec![BufferMode::Fifo(4), BufferMode::Unbuffered];
        let config = grid(vec![0.2, 0.4, 0.6], modes.clone(), 2);
        let report = report(&config, |s| (400, s.offered_load));
        let ladders = ladders(fold_points(&report));
        assert_eq!(ladders.len(), 2);
        for (ladder, mode) in ladders.iter().zip(&modes) {
            assert_eq!(ladder.scenario().buffer_mode, *mode);
            let loads: Vec<f64> = ladder
                .points
                .iter()
                .map(|p| p.scenario.offered_load)
                .collect();
            assert_eq!(loads, [0.2, 0.4, 0.6]);
            assert!(ladder.points.iter().all(|p| p.replications == 2));
        }
    }

    #[test]
    fn the_knee_is_strictly_below_the_threshold() {
        // 400 packets over 800 slots: an offered rate of exactly 0.5.
        let edge = (1.0 - DIVERGENCE_THRESHOLD) * 0.5;
        let config = grid(vec![0.3, 0.6, 0.9], vec![BufferMode::Unbuffered], 1);
        let report = report(&config, |s| match s.index {
            0 => (400, 0.5),
            1 => (400, edge),
            _ => (400, edge * (1.0 - 1e-9)),
        });
        let points = fold_points(&report);
        assert_eq!(points[1].offered_rate(), 0.5);
        assert!(!points[1].is_saturated(), "exactly at the shortfall");
        assert!(points[2].is_saturated(), "just below the shortfall");
        let ladders = ladders(points);
        assert_eq!(ladders[0].saturation_load(), Some(0.9));
        assert_eq!(load_json(ladders[0].saturation_load()), "0.90");
    }

    #[test]
    fn a_curve_that_never_saturates_has_no_knee() {
        let config = grid(vec![0.5, 1.0], vec![BufferMode::Unbuffered], 2);
        let report = report(&config, |_| (400, 0.5));
        let ladders = ladders(fold_points(&report));
        assert_eq!(ladders[0].saturation_load(), None);
        assert_eq!(load_json(None), "null");
    }

    #[test]
    fn buffer_modes_at_one_load_stay_separate_points() {
        let config = grid(
            vec![0.5],
            vec![BufferMode::Unbuffered, BufferMode::Fifo(4)],
            2,
        );
        let report = report(&config, |s| match (s.buffer_mode, s.replication) {
            (BufferMode::Unbuffered, 0) => (400, 0.2),
            (BufferMode::Unbuffered, _) => (400, 0.4),
            (_, 0) => (400, 0.5),
            _ => (400, 0.7),
        });
        let points = fold_points(&report);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.replications == 2));
        assert_eq!(points[0].throughput(), (0.2 + 0.4) / 2.0);
        assert_eq!(points[1].throughput(), (0.5 + 0.7) / 2.0);
        assert_eq!(points[0].offered_rate(), 0.5);
    }
}
