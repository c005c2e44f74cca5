//! Graphviz (DOT) export of MI-digraphs.
//!
//! Used by the `figure_gallery` example to regenerate the paper's figures
//! (Fig. 1, Fig. 2, Fig. 4, Fig. 5) as render-ready DOT files. Nodes are laid
//! out stage by stage (one `rank=same` cluster per stage) and can carry the
//! paper's binary-tuple labels.

use crate::digraph::MiDigraph;
use std::fmt::Write as _;

/// Options controlling DOT rendering.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name used in the `digraph <name> { … }` header.
    pub name: String,
    /// When `true`, node labels are binary tuples `(x_{w-1},…,x_1)` of the
    /// given width; otherwise decimal indices are used.
    pub binary_labels: Option<usize>,
    /// Draw arcs without arrowheads (the paper omits directions in figures
    /// because all arcs run left to right).
    pub undirected_style: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "MI".to_string(),
            binary_labels: None,
            undirected_style: true,
        }
    }
}

/// Renders an MI-digraph to DOT.
pub fn to_dot(g: &MiDigraph, opts: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", opts.name);
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    if opts.undirected_style {
        let _ = writeln!(out, "  edge [arrowhead=none];");
    }
    for s in 0..g.stages() {
        let _ = writeln!(out, "  subgraph cluster_stage_{s} {{");
        let _ = writeln!(out, "    label=\"stage {}\";", s + 1);
        let _ = writeln!(out, "    rank=same;");
        for v in 0..g.width() as u32 {
            let label = match opts.binary_labels {
                Some(width) => format_binary(v as u64, width),
                None => v.to_string(),
            };
            let _ = writeln!(out, "    s{s}_n{v} [label=\"{label}\"];");
        }
        let _ = writeln!(out, "  }}");
    }
    for (s, from, to) in g.arcs() {
        let _ = writeln!(out, "  s{s}_n{from} -> s{}_n{to};", s + 1);
    }
    let _ = writeln!(out, "}}");
    out
}

fn format_binary(x: u64, width: usize) -> String {
    let mut s = String::with_capacity(width + 2);
    s.push('(');
    for k in (0..width).rev() {
        s.push(if (x >> k) & 1 == 1 { '1' } else { '0' });
        if k > 0 {
            s.push(',');
        }
    }
    s.push(')');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MiDigraph {
        MiDigraph::from_arcs(2, 2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]).unwrap()
    }

    #[test]
    fn dot_contains_all_nodes_and_arcs() {
        let g = tiny();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("digraph MI {"));
        for s in 0..2 {
            for v in 0..2 {
                assert!(dot.contains(&format!("s{s}_n{v} ")));
            }
        }
        assert_eq!(dot.matches(" -> ").count(), 4);
        assert!(dot.contains("arrowhead=none"));
    }

    #[test]
    fn binary_labels_render_paper_tuples() {
        let g = tiny();
        let opts = DotOptions {
            binary_labels: Some(1),
            undirected_style: false,
            name: "Fig1".into(),
        };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("digraph Fig1 {"));
        assert!(dot.contains("label=\"(0)\""));
        assert!(dot.contains("label=\"(1)\""));
        assert!(!dot.contains("arrowhead=none"));
    }

    #[test]
    fn format_binary_pads_to_width() {
        assert_eq!(format_binary(0b01, 3), "(0,0,1)");
        assert_eq!(format_binary(0b111, 3), "(1,1,1)");
    }
}
