//! Faulty-cell and faulty-link variants of the catalog networks.
//!
//! The stability literature anchored by the paper's networks (3-disjoint-path
//! Omega MINs, wormhole fabrics under switch failures) studies topologies
//! *after* a component dies. This module provides those damaged objects as
//! first-class values so the analysis layers can be pointed at them:
//!
//! * [`dead_link_digraph`] / [`dead_switch_digraph`] — the MI-digraph of a
//!   network with one arc, or one whole switch, removed (feeds
//!   `min_graph::paths`: the Banyan property breaks with a `NoPath`
//!   witness);
//! * [`stuck_cell`] — a *connection network* whose cell is jammed in one
//!   state: both out-ports collapse onto the same target, producing the
//!   parallel-link redundancy the disjoint-path machinery of `min-routing`
//!   falls back across;
//! * [`link_sites`] — the canonical enumeration of every link of a network,
//!   the site list fault-injection sweeps draw from;
//! * catalog conveniences [`ClassicalNetwork::with_dead_link`] and
//!   [`ClassicalNetwork::with_stuck_cell`].

use crate::catalog::ClassicalNetwork;
use min_core::{Connection, ConnectionNetwork};
use min_graph::MiDigraph;

/// Every link site of the network, in canonical order: stage-major, then
/// cell, then port (0 = `f`, 1 = `g`). A link site is the arc leaving
/// `cell` through `port` of connection `stage`.
pub fn link_sites(net: &ConnectionNetwork) -> Vec<(usize, u32, u8)> {
    let cells = net.cells_per_stage() as u32;
    (0..net.stages() - 1)
        .flat_map(|stage| {
            (0..cells).flat_map(move |cell| (0..2u8).map(move |port| (stage, cell, port)))
        })
        .collect()
}

/// The MI-digraph of `net` with the single arc at `(stage, cell, port)`
/// removed — a dead link.
///
/// The result is no longer 2-out-regular at the damaged cell, which is the
/// point: path analysis (`min_graph::paths`) reports the pairs the dead
/// link severs as `NoPath` Banyan violations.
///
/// # Panics
///
/// Panics when the site is out of range (`stage` must index a connection,
/// `cell` a cell, `port` one of the two out-ports).
pub fn dead_link_digraph(net: &ConnectionNetwork, stage: usize, cell: u32, port: u8) -> MiDigraph {
    let cells = net.cells_per_stage();
    assert!(stage + 1 < net.stages(), "link stage {stage} out of range");
    assert!((cell as usize) < cells, "cell {cell} out of range");
    assert!(port < 2, "port {port} out of range");
    build_digraph_except(
        net,
        |s, v, p| (s, v, p) == (stage, cell, port),
        |_, _| false,
    )
}

/// The MI-digraph of `net` with the switch at `(stage, cell)` removed: every
/// arc into and out of the dead switch is dropped.
///
/// # Panics
///
/// Panics when the site is out of range.
pub fn dead_switch_digraph(net: &ConnectionNetwork, stage: usize, cell: u32) -> MiDigraph {
    let cells = net.cells_per_stage();
    assert!(stage < net.stages(), "switch stage {stage} out of range");
    assert!((cell as usize) < cells, "cell {cell} out of range");
    build_digraph_except(net, |_, _, _| false, |s, v| (s, v) == (stage, cell))
}

/// Builds the network's digraph, skipping arcs selected by `drop_link` and
/// arcs touching switches selected by `drop_cell`.
fn build_digraph_except(
    net: &ConnectionNetwork,
    drop_link: impl Fn(usize, u32, u8) -> bool,
    drop_cell: impl Fn(usize, u32) -> bool,
) -> MiDigraph {
    let cells = net.cells_per_stage();
    let links = (0..net.stages() - 1)
        .flat_map(|s| (0..cells as u32).flat_map(move |v| (0..2u8).map(move |port| (s, v, port))));
    let arcs = links
        .filter(|&(s, v, port)| !drop_cell(s, v) && !drop_link(s, v, port))
        .map(|(s, v, port)| {
            let to = net.connection(s).children(u64::from(v))[usize::from(port)];
            (s, v, to as u32)
        })
        .filter(|&(s, _, to)| !drop_cell(s + 1, to));
    MiDigraph::from_arcs(net.stages(), cells, arcs).expect("a subset of the network's arcs")
}

/// A copy of `net` whose cell at `(stage, cell)` is stuck in one switching
/// state: both out-ports are jammed onto the target normally reached through
/// `port`, creating a pair of parallel links there.
///
/// The damaged network stays 2-out-regular (so it remains a
/// [`ConnectionNetwork`]), but it is no longer proper — the bypassed target
/// loses an in-arc — and some pairs gain a second, link-disjoint path
/// through the parallel arcs while others lose their only one. This is the
/// canonical object for exercising `min-routing`'s disjoint-path fallback.
///
/// # Panics
///
/// Panics when the site is out of range.
pub fn stuck_cell(net: &ConnectionNetwork, stage: usize, cell: u32, port: u8) -> ConnectionNetwork {
    let cells = net.cells_per_stage();
    assert!(stage + 1 < net.stages(), "link stage {stage} out of range");
    assert!((cell as usize) < cells, "cell {cell} out of range");
    assert!(port < 2, "port {port} out of range");
    let connections = net
        .connections()
        .iter()
        .enumerate()
        .map(|(s, conn)| {
            if s != stage {
                return conn.clone();
            }
            let jammed = if port == 0 {
                conn.f(u64::from(cell))
            } else {
                conn.g(u64::from(cell))
            } as u32;
            let mut f = conn.f_table().to_vec();
            let mut g = conn.g_table().to_vec();
            f[cell as usize] = jammed;
            g[cell as usize] = jammed;
            Connection::from_tables(net.width(), f, g)
        })
        .collect();
    ConnectionNetwork::new(net.width(), connections)
}

impl ClassicalNetwork {
    /// The `n`-stage instance with the link at `(stage, cell, port)` dead,
    /// as an MI-digraph (see [`dead_link_digraph`]).
    pub fn with_dead_link(self, n: usize, stage: usize, cell: u32, port: u8) -> MiDigraph {
        dead_link_digraph(&self.build(n), stage, cell, port)
    }

    /// The `n`-stage instance with the cell at `(stage, cell)` stuck on the
    /// `port` target (see [`stuck_cell`]).
    pub fn with_stuck_cell(self, n: usize, stage: usize, cell: u32, port: u8) -> ConnectionNetwork {
        stuck_cell(&self.build(n), stage, cell, port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use min_graph::paths::{banyan_violation, is_banyan, path_counts_from, BanyanViolation};

    #[test]
    fn link_sites_enumerate_every_arc_once() {
        let net = ClassicalNetwork::Omega.build(4);
        let sites = link_sites(&net);
        assert_eq!(sites.len(), (net.stages() - 1) * net.cells_per_stage() * 2);
        assert_eq!(sites[0], (0, 0, 0));
        assert_eq!(sites[1], (0, 0, 1));
        let unique: std::collections::HashSet<_> = sites.iter().collect();
        assert_eq!(unique.len(), sites.len());
    }

    #[test]
    fn a_dead_link_breaks_the_banyan_property_with_a_no_path_witness() {
        for kind in ClassicalNetwork::ALL {
            let healthy = kind.build(4).to_digraph();
            assert!(is_banyan(&healthy), "{kind}");
            let damaged = kind.with_dead_link(4, 1, 0, 1);
            assert_eq!(damaged.arc_count(), healthy.arc_count() - 1);
            match banyan_violation(&damaged) {
                Some(BanyanViolation::NoPath(_, _)) => {}
                other => panic!("{kind}: expected NoPath, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_dead_switch_removes_all_its_arcs() {
        let net = ClassicalNetwork::Baseline.build(4);
        let healthy = net.to_digraph();
        let damaged = dead_switch_digraph(&net, 1, 3);
        // An interior switch of a proper fabric has 2 in-arcs and 2 out-arcs.
        assert_eq!(damaged.arc_count(), healthy.arc_count() - 4);
        assert!(damaged.children(1, 3).is_empty());
        assert!(damaged.parents(1, 3).is_empty());
        assert!(!is_banyan(&damaged));
    }

    #[test]
    fn a_stuck_cell_creates_parallel_links_and_multipath_redundancy() {
        let net = ClassicalNetwork::Omega.build(3);
        let jammed = stuck_cell(&net, 0, 0, 0);
        assert!(jammed.connection(0).has_parallel_links());
        assert!(!jammed.is_proper(), "the bypassed target lost an in-arc");
        // Paths through the jammed cell double; paths through the bypassed
        // target vanish.
        let counts = path_counts_from(&jammed.to_digraph(), 0);
        assert!(counts.iter().any(|&c| c >= 2), "parallel-arc multipath");
        assert!(counts.contains(&0), "severed pairs");
        // The other stages are untouched.
        assert_eq!(jammed.connection(1), net.connection(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_sites_panic() {
        let net = ClassicalNetwork::Omega.build(3);
        let _ = dead_link_digraph(&net, 9, 0, 0);
    }
}
