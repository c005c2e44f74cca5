//! A uniform routing interface over self-routing, multi-path and
//! permutation-configured fabrics.
//!
//! [`Router`] answers one question — *which tag does the packet at
//! `(source, terminal)` use to reach `destination`?* — so the simulator
//! picks an implementation per scenario instead of growing network-specific
//! branches:
//!
//! * [`DeltaRouter`] — the classical bit-directed routing of §4: the tag
//!   depends only on the destination. Exists iff the network is delta.
//! * [`MultiPathRouter`] — per-pair link-disjoint path tags; the two
//!   terminals of a cell spread across the disjoint paths. Works on any
//!   proper network, including the full Benes, and
//!   [`MultiPathRouter::avoiding`] builds the same table around a
//!   [`FaultDigest`] via [`crate::surviving_path`].
//! * [`LoopingRouter`] — a conflict-free setting for one full permutation,
//!   computed by [`crate::looping::loop_setup`].
//!
//! The tag encoding is the same everywhere (bit `s` = out-port at
//! connection `s`), so the switch cores consume every router's tags alike.

use crate::disjoint::{disjoint_paths, path_tag, route_all_to, FaultDigest};
use crate::looping::{loop_setup, LoopingError, LoopingSetting};
use crate::tag::{destination_tags, SelfRoutingTable};
use min_core::ConnectionNetwork;

/// Source-aware tag routing: everything the injection path needs to know
/// about how packets traverse a fabric.
pub trait Router: Send + Sync {
    /// The routing tag for a packet entering at `(source, terminal)` bound
    /// for last-stage cell `destination`, or `None` when the router cannot
    /// reach it (the engine counts an unroutable drop).
    fn tag(&self, source: u64, terminal: usize, destination: u64) -> Option<u32>;

    /// Short stable label for diagnostics and reports.
    fn label(&self) -> &'static str;
}

/// Destination-tag routing for delta networks ([`crate::tag`]): the tag is a
/// function of the destination alone.
#[derive(Debug, Clone)]
pub struct DeltaRouter {
    table: SelfRoutingTable,
}

impl DeltaRouter {
    /// Builds the router; `None` when the network is not delta.
    pub fn new(net: &ConnectionNetwork) -> Option<Self> {
        destination_tags(net).map(|table| DeltaRouter { table })
    }

    /// Wraps an already-computed self-routing table.
    pub fn from_table(table: SelfRoutingTable) -> Self {
        DeltaRouter { table }
    }
}

impl Router for DeltaRouter {
    fn tag(&self, _source: u64, _terminal: usize, destination: u64) -> Option<u32> {
        self.table
            .tag_of_destination
            .get(destination as usize)
            .copied()
    }

    fn label(&self) -> &'static str {
        "delta"
    }
}

/// Per-pair multi-path routing: every `(source, destination)` pair holds its
/// link-disjoint path tags and the two terminals of a source cell spread
/// across them, so multi-path fabrics (e.g. the full Benes) are driven
/// without a permutation-level setup.
#[derive(Debug, Clone)]
pub struct MultiPathRouter {
    cells: usize,
    /// `tags[source * cells + destination]` = the disjoint path tags.
    tags: Vec<Vec<u32>>,
    label: &'static str,
}

impl MultiPathRouter {
    /// Enumerates the link-disjoint paths of every pair. Quadratic in the
    /// cell count (with a path sweep per pair) — intended for the moderate
    /// fabric sizes the simulation campaigns drive.
    pub fn new(net: &ConnectionNetwork) -> Self {
        let cells = net.cells_per_stage();
        let mut tags = Vec::with_capacity(cells * cells);
        for src in 0..cells as u64 {
            for dst in 0..cells as u64 {
                tags.push(disjoint_paths(net, src, dst).iter().map(path_tag).collect());
            }
        }
        MultiPathRouter {
            cells,
            tags,
            label: "multi-path",
        }
    }

    /// Builds the table around a fault digest: each pair keeps the tag of
    /// its surviving path (via [`crate::route_all_to`]), or no tag at all
    /// when the pair is severed — the router-level face of `route_around` /
    /// `surviving_path`.
    pub fn avoiding(net: &ConnectionNetwork, digest: &FaultDigest) -> Self {
        let cells = net.cells_per_stage();
        let mut tags = vec![Vec::new(); cells * cells];
        for dst in 0..cells as u64 {
            for (src, route) in route_all_to(net, dst, digest).iter().enumerate() {
                if let Some(path) = route.path() {
                    tags[src * cells + dst as usize].push(path_tag(path));
                }
            }
        }
        MultiPathRouter {
            cells,
            tags,
            label: "multi-path-avoiding",
        }
    }

    /// Number of stored paths for a pair.
    pub fn path_count(&self, source: u64, destination: u64) -> usize {
        self.tags[source as usize * self.cells + destination as usize].len()
    }

    /// Number of (source, destination) pairs with no stored path — the
    /// pairs a fault digest severs.
    pub fn severed_pairs(&self) -> u64 {
        self.tags.iter().filter(|list| list.is_empty()).count() as u64
    }
}

impl Router for MultiPathRouter {
    fn tag(&self, source: u64, terminal: usize, destination: u64) -> Option<u32> {
        let list = &self.tags[source as usize * self.cells + destination as usize];
        if list.is_empty() {
            None
        } else {
            Some(list[terminal % list.len()])
        }
    }

    fn label(&self) -> &'static str {
        self.label
    }
}

/// Permutation-configured routing: the conflict-free setting computed by the
/// looping algorithm, keyed by source terminal. Requests for any other
/// destination than the configured one are refused (`None`) — the setting
/// realises exactly one permutation.
#[derive(Debug, Clone)]
pub struct LoopingRouter {
    setting: LoopingSetting,
}

impl LoopingRouter {
    /// Runs the looping algorithm for `permutation` (one destination
    /// terminal per source terminal).
    pub fn new(net: &ConnectionNetwork, permutation: &[u32]) -> Result<Self, LoopingError> {
        loop_setup(net, permutation).map(|setting| LoopingRouter { setting })
    }
}

impl Router for LoopingRouter {
    fn tag(&self, source: u64, terminal: usize, destination: u64) -> Option<u32> {
        let t = (source as usize) * 2 + (terminal & 1);
        if t >= self.setting.terminals() {
            return None;
        }
        if u64::from(self.setting.destinations[t]) >> 1 != destination {
            return None;
        }
        Some(self.setting.tags[t])
    }

    fn label(&self) -> &'static str {
        "looping"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_around;
    use min_core::delta::route_by_tag;
    use min_networks::rearrangeable::benes;
    use min_networks::{baseline, omega};

    #[test]
    fn delta_router_reproduces_destination_tags() {
        let net = omega(4);
        let router = DeltaRouter::new(&net).expect("omega is delta");
        let table = destination_tags(&net).unwrap();
        for dst in 0..net.cells_per_stage() as u64 {
            for src in [0u64, 3, 7] {
                for terminal in 0..2 {
                    assert_eq!(
                        router.tag(src, terminal, dst),
                        Some(table.tag_of_destination[dst as usize])
                    );
                }
            }
        }
        assert_eq!(router.label(), "delta");
    }

    #[test]
    fn benes_is_not_delta_but_is_multi_path_routable() {
        let net = benes(3);
        assert!(DeltaRouter::new(&net).is_none());
        let router = MultiPathRouter::new(&net);
        let cells = net.cells_per_stage() as u64;
        for src in 0..cells {
            for dst in 0..cells {
                assert!(router.path_count(src, dst) >= 2, "{src}->{dst}");
                for terminal in 0..2 {
                    let tag = router.tag(src, terminal, dst).unwrap();
                    assert_eq!(route_by_tag(&net, src, u64::from(tag)), dst);
                }
                // The two terminals ride different disjoint paths.
                assert_ne!(router.tag(src, 0, dst), router.tag(src, 1, dst));
            }
        }
    }

    #[test]
    fn avoiding_router_agrees_with_route_around() {
        let net = baseline(4);
        let mut digest = FaultDigest::new(net.stages(), net.cells_per_stage());
        digest.kill_link(1, 0, 0);
        digest.kill_cell(2, 3);
        let router = MultiPathRouter::avoiding(&net, &digest);
        let cells = net.cells_per_stage() as u64;
        let mut severed = 0;
        for src in 0..cells {
            for dst in 0..cells {
                let expected = route_around(&net, src, dst, &digest);
                match (expected.path(), router.tag(src, 0, dst)) {
                    (Some(path), Some(tag)) => assert_eq!(tag, path_tag(path)),
                    (None, None) => severed += 1,
                    other => panic!("{src}->{dst}: {other:?}"),
                }
            }
        }
        assert!(severed > 0, "the dead cell severs pairs");
        assert_eq!(router.severed_pairs(), severed);
        assert_eq!(router.label(), "multi-path-avoiding");
    }

    #[test]
    fn looping_router_serves_exactly_the_configured_permutation() {
        let net = benes(3);
        let terminals = 2 * net.cells_per_stage();
        let perm: Vec<u32> = (0..terminals as u32).map(|t| t ^ 5).collect();
        let router = LoopingRouter::new(&net, &perm).unwrap();
        for t in 0..terminals {
            let (src, terminal) = ((t as u64) >> 1, t & 1);
            let configured = u64::from(perm[t]) >> 1;
            let tag = router
                .tag(src, terminal, configured)
                .expect("configured pair routes");
            assert_eq!(route_by_tag(&net, src, u64::from(tag)), configured);
            // Any other destination is refused.
            let other = (configured + 1) % net.cells_per_stage() as u64;
            if other != configured {
                assert_eq!(router.tag(src, terminal, other), None);
            }
        }
        assert_eq!(router.label(), "looping");
    }
}
