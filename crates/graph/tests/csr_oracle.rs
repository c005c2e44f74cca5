//! Reference-oracle property test for the compressed-sparse-row layout.
//!
//! `MiDigraph::from_arcs` fills both directions with a stable counting sort.
//! These proptests check it against a naive reference that pushes the same
//! arcs, in the same order, onto one `Vec<u32>` per node and direction. The
//! random arc lists include parallel arcs, stages without arcs and
//! single-stage digraphs.

use min_graph::MiDigraph;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

type Arc = (usize, u32, u32);

/// One child list and one parent list per node, filled by pushing.
struct Naive {
    kids: Vec<Vec<Vec<u32>>>,
    parents: Vec<Vec<Vec<u32>>>,
}

impl Naive {
    fn new(stages: usize, width: usize, arcs: &[Arc]) -> Naive {
        let mut kids = vec![vec![Vec::new(); width]; stages];
        let mut parents = kids.clone();
        for &(s, v, c) in arcs {
            kids[s][v as usize].push(c);
            parents[s + 1][c as usize].push(v);
        }
        Naive { kids, parents }
    }

    /// Arcs by source stage, then source node, then child order.
    fn arcs(&self) -> Vec<Arc> {
        let mut out = Vec::new();
        for (s, stage) in self.kids.iter().enumerate() {
            for (v, kids) in stage.iter().enumerate() {
                out.extend(kids.iter().map(|&c| (s, v as u32, c)));
            }
        }
        out
    }

    fn has_parallel_arcs(&self) -> bool {
        self.kids.iter().flatten().any(|kids| {
            let mut sorted = kids.clone();
            sorted.sort_unstable();
            sorted.windows(2).any(|w| w[0] == w[1])
        })
    }
}

/// A random arc list over `stages × width`: each stage boundary carries
/// arcs with probability 3/4, and a quarter of the arcs repeat the one
/// before (a parallel arc).
fn random_arcs(rng: &mut ChaCha8Rng, stages: usize, width: usize, len: usize) -> Vec<Arc> {
    let live: Vec<usize> = (0..stages - 1).filter(|_| rng.gen_bool(0.75)).collect();
    let mut arcs: Vec<Arc> = Vec::new();
    if live.is_empty() {
        return arcs;
    }
    for _ in 0..len {
        match arcs.last() {
            Some(&last) if rng.gen_range(0..4) == 0 => arcs.push(last),
            _ => arcs.push((
                *live.choose(rng).unwrap(),
                rng.gen_range(0..width as u32),
                rng.gen_range(0..width as u32),
            )),
        }
    }
    arcs
}

/// A random permutation of every stage.
fn random_mapping(rng: &mut ChaCha8Rng, stages: usize, width: usize) -> Vec<Vec<u32>> {
    (0..stages)
        .map(|_| {
            let mut m: Vec<u32> = (0..width as u32).collect();
            m.shuffle(rng);
            m
        })
        .collect()
}

/// Checks every adjacency list (order included), the arc count and the
/// arc iterator of `g` against the reference.
fn check(g: &MiDigraph, naive: &Naive) -> Result<(), String> {
    prop_assert_eq!(g.stages(), naive.kids.len());
    for s in 0..g.stages() {
        for v in 0..g.width() {
            prop_assert_eq!(g.children(s, v as u32), &naive.kids[s][v][..]);
            prop_assert_eq!(g.parents(s, v as u32), &naive.parents[s][v][..]);
        }
    }
    let arcs = naive.arcs();
    prop_assert_eq!(g.arc_count(), arcs.len());
    prop_assert_eq!(g.arcs().collect::<Vec<_>>(), arcs);
    prop_assert_eq!(g.has_parallel_arcs(), naive.has_parallel_arcs());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `from_arcs` and every derived digraph agree with the reference.
    #[test]
    fn csr_matches_the_naive_reference(
        stages in 1usize..=5,
        width in 1usize..=6,
        len in 0usize..=40,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arcs = random_arcs(&mut rng, stages, width, len);
        let g = MiDigraph::from_arcs(stages, width, arcs.iter().copied()).unwrap();
        check(&g, &Naive::new(stages, width, &arcs))?;

        // The reverse pushes the flipped arcs in `arcs()` order.
        let flipped: Vec<Arc> = g.arcs().map(|(s, v, c)| (stages - 2 - s, c, v)).collect();
        check(&g.reverse(), &Naive::new(stages, width, &flipped))?;
        prop_assert!(g.reverse().reverse().same_arcs(&g));

        let mapping = random_mapping(&mut rng, stages, width);
        let relabelled: Vec<Arc> = g
            .arcs()
            .map(|(s, v, c)| (s, mapping[s][v as usize], mapping[s + 1][c as usize]))
            .collect();
        check(&g.relabel(&mapping), &Naive::new(stages, width, &relabelled))?;

        let lo = rng.gen_range(0..stages);
        let hi = rng.gen_range(lo..stages);
        let sliced: Vec<Arc> = g
            .arcs()
            .filter(|&(s, ..)| (lo..hi).contains(&s))
            .map(|(s, v, c)| (s - lo, v, c))
            .collect();
        check(&g.slice(lo, hi), &Naive::new(hi - lo + 1, width, &sliced))?;
    }

    /// `normalize` sorts every list in place, so any order of one arc
    /// multiset normalizes to the same digraph; a changed multiset does not.
    #[test]
    fn normalize_and_same_arcs_see_only_the_arc_multiset(
        stages in 1usize..=5,
        width in 1usize..=6,
        len in 0usize..=40,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arcs = random_arcs(&mut rng, stages, width, len);
        let mut shuffled = arcs.clone();
        shuffled.shuffle(&mut rng);
        let g = MiDigraph::from_arcs(stages, width, arcs.iter().copied()).unwrap();
        let h = MiDigraph::from_arcs(stages, width, shuffled.iter().copied()).unwrap();
        prop_assert!(g.same_arcs(&h));
        let (mut gn, mut hn) = (g.clone(), h.clone());
        gn.normalize();
        hn.normalize();
        prop_assert_eq!(&gn, &hn);
        let mut sorted = arcs.clone();
        sorted.sort_unstable();
        let reference = Naive::new(stages, width, &sorted);
        check(&gn, &reference)?;

        if let Some(&(s, v, c)) = arcs.first() {
            let mut changed = arcs.clone();
            changed[0] = (s, v, (c + 1) % width as u32);
            let k = MiDigraph::from_arcs(stages, width, changed.iter().copied()).unwrap();
            prop_assert_eq!(k.same_arcs(&g), width == 1);
            let mut dropped = arcs.clone();
            dropped.pop();
            let d = MiDigraph::from_arcs(stages, width, dropped.iter().copied()).unwrap();
            prop_assert!(!d.same_arcs(&g));
        }
    }
}
