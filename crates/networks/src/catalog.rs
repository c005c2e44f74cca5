//! An enumerable catalog of the six classical networks.
//!
//! Used by the equivalence-matrix experiment (E9), the routing/simulation
//! comparisons (E12) and the benchmarks, which all want to iterate over
//! "every classical network" uniformly.

use crate::classical;
use min_core::ConnectionNetwork;
use min_labels::IndexPermutation;
use serde::{Deserialize, Serialize};

/// The six networks whose equivalence is the paper's headline corollary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClassicalNetwork {
    /// Wu & Feng's Baseline network.
    Baseline,
    /// The Baseline drawn right-to-left.
    ReverseBaseline,
    /// Lawrie's Omega network (perfect shuffles).
    Omega,
    /// Batcher's Flip network (inverse shuffles).
    Flip,
    /// Pease's Indirect Binary n-Cube (butterflies, ascending).
    IndirectBinaryCube,
    /// Feng's Modified Data Manipulator (butterflies, descending).
    ModifiedDataManipulator,
}

impl ClassicalNetwork {
    /// All six members, in a fixed order.
    pub const ALL: [ClassicalNetwork; 6] = [
        ClassicalNetwork::Baseline,
        ClassicalNetwork::ReverseBaseline,
        ClassicalNetwork::Omega,
        ClassicalNetwork::Flip,
        ClassicalNetwork::IndirectBinaryCube,
        ClassicalNetwork::ModifiedDataManipulator,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ClassicalNetwork::Baseline => "Baseline",
            ClassicalNetwork::ReverseBaseline => "Reverse Baseline",
            ClassicalNetwork::Omega => "Omega",
            ClassicalNetwork::Flip => "Flip",
            ClassicalNetwork::IndirectBinaryCube => "Indirect Binary n-Cube",
            ClassicalNetwork::ModifiedDataManipulator => "Modified Data Manipulator",
        }
    }

    /// Literature reference (as cited in the paper's bibliography).
    pub fn citation(self) -> &'static str {
        match self {
            ClassicalNetwork::Baseline | ClassicalNetwork::ReverseBaseline => {
                "Wu & Feng, IEEE Trans. Computers C-29 (1980) 694-702"
            }
            ClassicalNetwork::Omega => "Lawrie, IEEE Trans. Computers C-24 (1975) 1145-1155",
            ClassicalNetwork::Flip => "Batcher, Proc. ICPP (1976) 65-71",
            ClassicalNetwork::IndirectBinaryCube => {
                "Pease, IEEE Trans. Computers C-26 (1977) 458-473"
            }
            ClassicalNetwork::ModifiedDataManipulator => {
                "Feng, IEEE Trans. Computers C-23 (1974) 309-318"
            }
        }
    }

    /// The PIPID digit permutations of the `n`-stage instance.
    pub fn thetas(self, n: usize) -> Vec<IndexPermutation> {
        match self {
            ClassicalNetwork::Baseline => classical::baseline_thetas(n),
            ClassicalNetwork::ReverseBaseline => classical::reverse_baseline_thetas(n),
            ClassicalNetwork::Omega => classical::omega_thetas(n),
            ClassicalNetwork::Flip => classical::flip_thetas(n),
            ClassicalNetwork::IndirectBinaryCube => classical::indirect_binary_cube_thetas(n),
            ClassicalNetwork::ModifiedDataManipulator => {
                classical::modified_data_manipulator_thetas(n)
            }
        }
    }

    /// Builds the `n`-stage instance.
    pub fn build(self, n: usize) -> ConnectionNetwork {
        match self {
            ClassicalNetwork::Baseline => classical::baseline(n),
            ClassicalNetwork::ReverseBaseline => classical::reverse_baseline(n),
            ClassicalNetwork::Omega => classical::omega(n),
            ClassicalNetwork::Flip => classical::flip(n),
            ClassicalNetwork::IndirectBinaryCube => classical::indirect_binary_cube(n),
            ClassicalNetwork::ModifiedDataManipulator => classical::modified_data_manipulator(n),
        }
    }
}

/// Expands a family × stage-count grid over the classical catalog, in a
/// fixed deterministic order (families in [`ClassicalNetwork::ALL`] order,
/// stage counts ascending within each family).
///
/// This is the enumeration the campaign runner (`min-sim::campaign`) and the
/// sweep benchmarks build their work queues from. Since the `NetworkSpec`
/// redesign it returns [`crate::spec::NetworkSpec`] cells; each serializes
/// as a `[family, stages]` pair.
pub fn catalog_grid(stages: std::ops::RangeInclusive<usize>) -> Vec<crate::spec::NetworkSpec> {
    grid(&ClassicalNetwork::ALL, stages)
}

/// Expands an arbitrary family subset × stage-count grid, preserving the
/// given family order and ascending stage counts within each family.
pub fn grid(
    families: &[ClassicalNetwork],
    stages: std::ops::RangeInclusive<usize>,
) -> Vec<crate::spec::NetworkSpec> {
    families
        .iter()
        .flat_map(|&kind| {
            stages
                .clone()
                .map(move |n| crate::spec::NetworkSpec::catalog(kind, n))
        })
        .collect()
}

impl std::fmt::Display for ClassicalNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_has_six_distinct_members() {
        assert_eq!(ClassicalNetwork::ALL.len(), 6);
        let names: std::collections::HashSet<&str> =
            ClassicalNetwork::ALL.iter().map(|n| n.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn build_and_thetas_are_consistent() {
        for kind in ClassicalNetwork::ALL {
            let n = 4;
            let net = kind.build(n);
            let thetas = kind.thetas(n);
            assert_eq!(net.stages(), n);
            assert_eq!(thetas.len(), n - 1);
            // Rebuilding from the exposed thetas gives the same network.
            let rebuilt_connections: Vec<_> = thetas
                .iter()
                .map(|t| min_core::pipid::connection_from_pipid(t).connection)
                .collect();
            let rebuilt = ConnectionNetwork::new(n - 1, rebuilt_connections);
            assert_eq!(&rebuilt, &net, "{kind}");
        }
    }

    #[test]
    fn display_and_citation_are_present() {
        for kind in ClassicalNetwork::ALL {
            assert!(!kind.to_string().is_empty());
            assert!(kind.citation().contains("19"));
        }
    }

    #[test]
    fn catalog_grid_enumerates_family_major() {
        let cells = catalog_grid(3..=5);
        assert_eq!(cells.len(), 6 * 3);
        // Family-major: the first three cells are the Baseline at n = 3, 4, 5.
        let catalog = crate::spec::NetworkSpec::catalog;
        assert_eq!(cells[0], catalog(ClassicalNetwork::Baseline, 3));
        assert_eq!(cells[1], catalog(ClassicalNetwork::Baseline, 4));
        assert_eq!(cells[2], catalog(ClassicalNetwork::Baseline, 5));
        assert_eq!(cells[3], catalog(ClassicalNetwork::ReverseBaseline, 3));
        // Every cell builds a network of the requested size.
        for spec in cells {
            assert_eq!(spec.build().stages(), spec.stages());
        }
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    fn grid_respects_the_given_family_subset() {
        let cells = grid(&[ClassicalNetwork::Omega, ClassicalNetwork::Flip], 4..=4);
        assert_eq!(cells.len(), 2);
        use crate::spec::NetworkSpec;
        assert_eq!(cells[0], NetworkSpec::catalog(ClassicalNetwork::Omega, 4));
        assert_eq!(cells[1], NetworkSpec::catalog(ClassicalNetwork::Flip, 4));
        assert!(grid(&[], 3..=5).is_empty());
        assert!(catalog_grid(5..=3).is_empty());
    }

    #[test]
    fn catalog_networks_differ_pairwise_as_labelled_objects() {
        // They are all *isomorphic*, but as labelled connection networks the
        // six constructions must be pairwise distinct (otherwise the
        // equivalence corollary would be vacuous).
        let n = 4;
        for (i, a) in ClassicalNetwork::ALL.iter().enumerate() {
            for b in ClassicalNetwork::ALL.iter().skip(i + 1) {
                assert_ne!(a.build(n), b.build(n), "{a} vs {b}");
            }
        }
    }
}
