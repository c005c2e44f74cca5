//! The MI-digraph data structure.

use serde::{Deserialize, Serialize};

/// Identifies a node by its stage and its index within that stage.
///
/// The paper labels the nodes of stage `i` with the binary `(n-1)`-tuples
/// `(x_{n-1}, …, x_1)`; [`NodeId::index`] is the integer value of that tuple
/// and [`NodeId::stage`] is the 0-based stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId {
    /// 0-based stage (the paper's stage `i` is `stage = i - 1`).
    pub stage: usize,
    /// Index of the node within its stage (`0 ..= width-1`).
    pub index: u32,
}

impl NodeId {
    /// Convenience constructor.
    pub fn new(stage: usize, index: u32) -> Self {
        NodeId { stage, index }
    }
}

/// Why [`MiDigraph::from_arcs`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigraphError {
    /// `stages` or `width` is zero.
    Empty,
    /// `stages × width` overflows, or there are more arcs than `u32` offsets
    /// index.
    TooLarge,
    /// Arc `(stage, from, to)` leaves the last stage or its stages' nodes.
    ArcOutOfRange(usize, u32, u32),
}

impl std::fmt::Display for DigraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DigraphError::Empty => write!(f, "zero stages or zero nodes per stage"),
            DigraphError::TooLarge => write!(f, "too many nodes or arcs"),
            DigraphError::ArcOutOfRange(s, v, c) => write!(f, "arc ({s}, {v}) -> {c} out of range"),
        }
    }
}

impl std::error::Error for DigraphError {}

/// A multistage interconnection digraph.
///
/// Nodes are partitioned into `stages` ordered stages of `width` nodes each;
/// arcs go only from stage `s` to stage `s+1`. Parallel arcs are allowed
/// (they arise from the degenerate PIPID stages of Fig. 5) and degrees are
/// not constrained by the data structure — the paper's regularity
/// requirements are checked by [`MiDigraph::is_proper`].
///
/// The digraph is frozen: [`MiDigraph::from_arcs`] lays it out once as
/// compressed sparse rows, one per direction. Node `(s, v)` has flat index
/// `i = s·width + v` and lists `targets[offsets[i]..offsets[i + 1]]`, all
/// `u32`. A proper digraph (about two arcs per node) so costs about 12 bytes
/// per arc, two targets and two offsets per two arcs: 11.5 MiB for
/// Omega(16)'s 983,040 arcs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiDigraph {
    stages: usize,
    width: usize,
    /// Children of every node; the last stage's lists are empty.
    down: Rows,
    /// Parents of every node; the first stage's lists are empty.
    up: Rows,
}

/// One direction of the compressed sparse rows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Rows {
    fn of(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn sort_each(&mut self) {
        for w in self.offsets.windows(2) {
            self.targets[w[0] as usize..w[1] as usize].sort_unstable();
        }
    }
}

impl MiDigraph {
    /// Builds the digraph of `stages` stages of `width` nodes whose arcs are
    /// `(stage, from, to)`: node `from` of `stage` to node `to` of
    /// `stage + 1`, parallel arcs kept. A stable counting sort lists every
    /// node's children and parents in arc order. `arcs` is walked twice, to
    /// count degrees and to place targets, and must yield the same arcs both
    /// times.
    pub fn from_arcs<I>(stages: usize, width: usize, arcs: I) -> Result<MiDigraph, DigraphError>
    where
        I: IntoIterator<Item = (usize, u32, u32)>,
        I::IntoIter: Clone,
    {
        let nodes = stages.checked_mul(width).filter(|&n| n < usize::MAX);
        let nodes = nodes.ok_or(DigraphError::TooLarge)?;
        if nodes == 0 {
            return Err(DigraphError::Empty);
        }
        let (arcs, at) = (arcs.into_iter(), |s: usize, v: u32| s * width + v as usize);
        // Count degrees into `offsets[i + 1]` and prefix-sum them into start
        // offsets; each start then serves as its node's fill cursor.
        let (mut down, mut up) = (vec![0u32; nodes + 1], vec![0u32; nodes + 1]);
        let mut total = 0u32;
        arcs.clone().try_for_each(|(stage, from, to)| {
            if stage + 1 >= stages || from as usize >= width || to as usize >= width {
                return Err(DigraphError::ArcOutOfRange(stage, from, to));
            }
            total = total.checked_add(1).ok_or(DigraphError::TooLarge)?;
            down[at(stage, from) + 1] += 1;
            up[at(stage + 1, to) + 1] += 1;
            Ok(())
        })?;
        for i in 1..=nodes {
            down[i] += down[i - 1];
            up[i] += up[i - 1];
        }
        let (mut kids, mut parents) = (vec![0; total as usize], vec![0; total as usize]);
        arcs.for_each(|(stage, from, to)| {
            let (i, j) = (at(stage, from), at(stage + 1, to));
            kids[down[i] as usize] = to;
            parents[up[j] as usize] = from;
            down[i] += 1;
            up[j] += 1;
        });
        // Every cursor now sits at the next node's start: shift them back.
        let seal = |mut offsets: Vec<u32>, targets| {
            offsets.copy_within(0..nodes, 1);
            offsets[0] = 0;
            Rows { offsets, targets }
        };
        let (down, up) = (seal(down, kids), seal(up, parents));
        Ok(MiDigraph {
            stages,
            width,
            down,
            up,
        })
    }

    /// Number of stages (`n` in the paper).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Nodes per stage (`N/2 = 2^{n-1}` for the paper's networks).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.stages * self.width
    }

    /// Total number of arcs.
    pub fn arc_count(&self) -> usize {
        self.down.targets.len()
    }

    /// Flat index of node `v` of stage `stage`.
    fn node(&self, stage: usize, v: u32) -> usize {
        let exists = stage < self.stages && (v as usize) < self.width;
        assert!(exists, "no node ({stage}, {v})");
        stage * self.width + v as usize
    }

    /// Children of node `v` of stage `stage` (empty for the last stage).
    pub fn children(&self, stage: usize, v: u32) -> &[u32] {
        self.down.of(self.node(stage, v))
    }

    /// Parents of node `v` of stage `stage` (empty for the first stage).
    pub fn parents(&self, stage: usize, v: u32) -> &[u32] {
        self.up.of(self.node(stage, v))
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, stage: usize, v: u32) -> usize {
        self.children(stage, v).len()
    }

    /// In-degree of a node.
    pub fn in_degree(&self, stage: usize, v: u32) -> usize {
        self.parents(stage, v).len()
    }

    /// Iterates over all arcs as `(stage, from, to)` triples, by source
    /// stage, then source node, then child order.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, u32, u32)> + Clone + '_ {
        self.nodes().flat_map(move |NodeId { stage, index }| {
            let kids = self.children(stage, index).iter();
            kids.map(move |&c| (stage, index, c))
        })
    }

    /// Iterates over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        (0..self.stages).flat_map(move |s| (0..self.width as u32).map(move |v| NodeId::new(s, v)))
    }

    /// Checks the regularity requirements of the paper's MI-digraph
    /// definition: every node of a non-final stage has out-degree 2, every
    /// node of a non-initial stage has in-degree 2, and arcs only join
    /// consecutive stages (guaranteed structurally).
    ///
    /// Note that the paper additionally requires `width = 2^{stages - 1}`;
    /// that is a property of the *networks*, not of the digraph container,
    /// and is checked by `min-core`.
    pub fn is_proper(&self) -> bool {
        self.nodes().all(|NodeId { stage, index }| {
            (stage + 1 == self.stages || self.out_degree(stage, index) == 2)
                && (stage == 0 || self.in_degree(stage, index) == 2)
        })
    }

    /// Returns `true` if some node has two parallel arcs to the same child —
    /// the degenerate situation of Fig. 5 (a PIPID stage with θ⁻¹(0) = 0).
    pub fn has_parallel_arcs(&self) -> bool {
        (0..self.node_count()).any(|i| {
            let kids = self.down.of(i);
            (1..kids.len()).any(|j| kids[..j].contains(&kids[j]))
        })
    }

    /// The reverse MI-digraph `G⁻¹`: stages in reverse order and every arc
    /// flipped (the paper's "reverse network", §3).
    pub fn reverse(&self) -> MiDigraph {
        // Arc (s, from) -> (s+1, to) becomes, in the reversed stage order,
        // an arc from stage (stages-2-s) node `to` to stage (stages-1-s)
        // node `from`.
        let arcs = self
            .arcs()
            .map(|(s, from, to)| (self.stages - 2 - s, to, from));
        MiDigraph::from_arcs(self.stages, self.width, arcs).expect("a valid digraph's arcs")
    }

    /// Extracts the sub-digraph induced by the stage interval
    /// `lo ..= hi` (the paper's `(G)_{i,j}`) as a standalone MI-digraph with
    /// `hi - lo + 1` stages.
    pub fn slice(&self, lo: usize, hi: usize) -> MiDigraph {
        assert!(lo <= hi && hi < self.stages, "invalid stage interval");
        let arcs = self.arcs().filter(|&(s, ..)| (lo..hi).contains(&s));
        let arcs = arcs.map(|(s, from, to)| (s - lo, from, to));
        MiDigraph::from_arcs(hi - lo + 1, self.width, arcs).expect("a valid digraph's arcs")
    }

    /// Relabels the nodes of every stage according to `mapping`
    /// (`mapping[stage][old_index] = new_index`) and returns the relabelled
    /// digraph. Panics unless each per-stage map is a bijection.
    pub fn relabel(&self, mapping: &[Vec<u32>]) -> MiDigraph {
        assert_eq!(mapping.len(), self.stages, "one map per stage required");
        for m in mapping {
            assert_eq!(m.len(), self.width, "each map must cover the stage");
            let mut seen = vec![false; self.width];
            for &t in m {
                let fresh = (t as usize) < self.width && !seen[t as usize];
                assert!(fresh, "not a bijection");
                seen[t as usize] = true;
            }
        }
        let image = |s: usize, v: u32| mapping[s][v as usize];
        let arcs = self
            .arcs()
            .map(|(s, f, t)| (s, image(s, f), image(s + 1, t)));
        MiDigraph::from_arcs(self.stages, self.width, arcs).expect("a valid digraph's arcs")
    }

    /// Sorts every adjacency list in place; after normalization, two
    /// digraphs that contain the same arcs compare equal with `==`
    /// regardless of insertion order.
    pub fn normalize(&mut self) {
        self.down.sort_each();
        self.up.sort_each();
    }

    /// Structural equality up to arc order.
    pub fn same_arcs(&self, other: &MiDigraph) -> bool {
        let (mut a, mut b) = (self.clone(), other.clone());
        a.normalize();
        b.normalize();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny 3-stage, width-4 butterfly-like graph used by several tests:
    /// stage 0 node v -> {v, v ^ 2}, stage 1 node v -> {v, v ^ 1}.
    fn sample() -> MiDigraph {
        let arcs = (0..2usize).flat_map(|s| {
            let bit = if s == 0 { 2 } else { 1 };
            (0..4u32).flat_map(move |v| [(s, v, v), (s, v, v ^ bit)])
        });
        MiDigraph::from_arcs(3, 4, arcs).unwrap()
    }

    #[test]
    fn construction_counts_nodes_and_arcs() {
        let g = sample();
        assert_eq!(g.stages(), 3);
        assert_eq!(g.width(), 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.arc_count(), 16);
    }

    #[test]
    fn adjacency_is_recorded_in_both_directions() {
        let g = sample();
        assert_eq!(g.children(0, 1), &[1, 3]);
        let mut parents = g.parents(1, 3).to_vec();
        parents.sort_unstable();
        assert_eq!(parents, vec![1, 3]);
        assert!(g.children(2, 0).is_empty(), "last stage has no children");
        assert!(g.parents(0, 0).is_empty(), "first stage has no parents");
    }

    #[test]
    fn adjacency_keeps_arc_order() {
        let g = MiDigraph::from_arcs(2, 3, [(0, 2, 1), (0, 0, 2), (0, 2, 0), (0, 1, 1)]).unwrap();
        assert_eq!(g.children(0, 2), &[1, 0]);
        assert_eq!(g.parents(1, 1), &[2, 1]);
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 0, 2), (0, 1, 1), (0, 2, 1), (0, 2, 0)]);
    }

    #[test]
    fn degrees_and_properness() {
        let g = sample();
        assert!(g.is_proper());
        let h = MiDigraph::from_arcs(3, 4, [(0, 0, 0)]).unwrap();
        assert!(!h.is_proper());
    }

    #[test]
    fn parallel_arcs_are_representable_and_detected() {
        let g = MiDigraph::from_arcs(2, 2, [(0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0)]).unwrap();
        assert!(g.has_parallel_arcs());
        assert!(g.is_proper(), "degree-wise the graph is still 2-regular");
        assert!(!sample().has_parallel_arcs());
    }

    #[test]
    fn reverse_flips_arcs_and_stage_order() {
        let g = sample();
        let r = g.reverse();
        assert_eq!(r.stages(), 3);
        assert_eq!(r.arc_count(), g.arc_count());
        // Arc (0, v) -> (1, v^2) becomes (1, v^2) -> (2, v) in the reverse.
        for v in 0..4u32 {
            assert!(r.children(1, v ^ 2).contains(&v));
        }
        // Double reversal returns the original graph.
        assert!(g.same_arcs(&r.reverse()));
    }

    #[test]
    fn slice_extracts_the_requested_interval() {
        let g = sample();
        let s = g.slice(1, 2);
        assert_eq!(s.stages(), 2);
        assert_eq!(s.arc_count(), 8);
        assert_eq!(s.children(0, 2), &[2, 3]);
        let single = g.slice(0, 0);
        assert_eq!(single.stages(), 1);
        assert_eq!(single.arc_count(), 0);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = sample();
        // Swap nodes 0 and 1 in stage 1 only.
        let mapping = vec![vec![0, 1, 2, 3], vec![1, 0, 2, 3], vec![0, 1, 2, 3]];
        let h = g.relabel(&mapping);
        assert_eq!(h.arc_count(), g.arc_count());
        // The arc (0,0) -> (1,0) must now point at (1,1).
        assert!(h.children(0, 0).contains(&1));
        // Relabelling back with the same (involutive) mapping restores g.
        assert!(h.relabel(&mapping).same_arcs(&g));
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn relabel_rejects_non_bijections() {
        let g = sample();
        let bad = vec![vec![0, 0, 2, 3], vec![0, 1, 2, 3], vec![0, 1, 2, 3]];
        let _ = g.relabel(&bad);
    }

    #[test]
    fn same_arcs_ignores_insertion_order() {
        let a = MiDigraph::from_arcs(2, 2, [(0, 0, 0), (0, 0, 1)]).unwrap();
        let b = MiDigraph::from_arcs(2, 2, [(0, 0, 1), (0, 0, 0)]).unwrap();
        assert!(a.same_arcs(&b));
        assert_ne!(a, b, "raw equality is order-sensitive by design");
        let mut c = b.clone();
        c.normalize();
        assert_eq!(a, c, "normalize sorts every list in place");
    }

    #[test]
    fn nodes_iterator_covers_every_node() {
        let g = sample();
        assert_eq!(g.nodes().count(), 12);
        assert_eq!(g.nodes().next(), Some(NodeId::new(0, 0)));
    }

    #[test]
    fn invalid_shapes_are_errors() {
        let none = std::iter::empty();
        assert_eq!(
            MiDigraph::from_arcs(0, 4, none.clone()),
            Err(DigraphError::Empty)
        );
        assert_eq!(
            MiDigraph::from_arcs(3, 0, none.clone()),
            Err(DigraphError::Empty)
        );
        assert_eq!(
            MiDigraph::from_arcs(usize::MAX, 2, none.clone()),
            Err(DigraphError::TooLarge)
        );
        assert_eq!(
            MiDigraph::from_arcs(1, usize::MAX, none),
            Err(DigraphError::TooLarge)
        );
        assert!(!DigraphError::Empty.to_string().is_empty());
    }

    #[test]
    fn out_of_range_arcs_are_errors() {
        let from_last = MiDigraph::from_arcs(2, 2, [(0, 0, 1), (1, 0, 0)]);
        assert_eq!(from_last, Err(DigraphError::ArcOutOfRange(1, 0, 0)));
        let bad_source = MiDigraph::from_arcs(2, 2, [(0, 2, 0)]);
        assert_eq!(bad_source, Err(DigraphError::ArcOutOfRange(0, 2, 0)));
        let bad_target = MiDigraph::from_arcs(2, 2, [(0, 0, 2)]);
        assert_eq!(bad_target, Err(DigraphError::ArcOutOfRange(0, 0, 2)));
        assert!(bad_target.unwrap_err().to_string().contains("out of range"));
    }

    #[test]
    #[should_panic(expected = "no node")]
    fn out_of_range_nodes_panic() {
        let _ = sample().children(0, 4);
    }
}
