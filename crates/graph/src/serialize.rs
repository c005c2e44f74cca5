//! Compact text serialization of MI-digraphs.
//!
//! [`MiDigraph`] also implements `serde::{Serialize, Deserialize}` for JSON
//! and friends, as `{"stages": n, "width": w, "arcs": [[stage, from, to], …]}`
//! in arc order. The text format is a minimal, human-readable line format
//! that is convenient for golden-file tests and for pasting networks into
//! bug reports:
//!
//! ```text
//! mi-digraph v1 stages=3 width=4
//! 0 0 -> 0 2
//! 0 1 -> 0 2
//! …
//! ```
//!
//! Each arc line is `STAGE FROM -> CHILD CHILD …` (children of one node on a
//! single line, omitted when the node has none).
//!
//! Both readers take untrusted input: they build the digraph through
//! [`MiDigraph::from_arcs`], which checks every arc, and refuse more than
//! [`MAX_NODES`] nodes before anything is allocated for them.

use crate::digraph::MiDigraph;
use serde::{map_get, Deserialize, Error, Serialize, Value};
use std::fmt::Write as _;

/// The most nodes (`stages × width`) [`from_text`] and `Deserialize` accept:
/// 2^24, 32× the largest catalog digraph (Omega(16), 16 × 2^15 = 2^19
/// nodes). A hostile header so allocates at most two 64 MiB offset arrays.
pub const MAX_NODES: usize = 1 << 24;

/// Refuses zero-sized and oversized shapes before anything is allocated.
fn check_size(stages: usize, width: usize) -> Result<(), String> {
    match stages.checked_mul(width) {
        Some(1..=MAX_NODES) => Ok(()),
        _ => Err(format!("stages × width must be 1 ..= {MAX_NODES}")),
    }
}

/// Error produced when parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number where the problem was found.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes a digraph to the line format.
pub fn to_text(g: &MiDigraph) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mi-digraph v1 stages={} width={}",
        g.stages(),
        g.width()
    );
    for s in 0..g.stages().saturating_sub(1) {
        for v in 0..g.width() as u32 {
            let kids = g.children(s, v);
            if kids.is_empty() {
                continue;
            }
            let list = kids
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "{s} {v} -> {list}");
        }
    }
    out
}

/// Parses the line format back into a digraph.
pub fn from_text(text: &str) -> Result<MiDigraph, ParseError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| ParseError {
        line: 1,
        message: "empty input".into(),
    })?;
    let header_err = |msg: &str| ParseError {
        line: 1,
        message: msg.to_string(),
    };
    let mut stages = None;
    let mut width = None;
    if !header.starts_with("mi-digraph v1") {
        return Err(header_err("missing `mi-digraph v1` header"));
    }
    for token in header.split_whitespace().skip(2) {
        if let Some(v) = token.strip_prefix("stages=") {
            stages = Some(v.parse::<usize>().map_err(|_| header_err("bad stages="))?);
        } else if let Some(v) = token.strip_prefix("width=") {
            width = Some(v.parse::<usize>().map_err(|_| header_err("bad width="))?);
        }
    }
    let stages = stages.ok_or_else(|| header_err("missing stages="))?;
    let width = width.ok_or_else(|| header_err("missing width="))?;
    check_size(stages, width).map_err(|msg| header_err(&msg))?;
    let mut arcs = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| ParseError {
            line: line_no,
            message: msg.to_string(),
        };
        let (lhs, rhs) = line.split_once("->").ok_or_else(|| err("missing `->`"))?;
        let mut lhs_iter = lhs.split_whitespace();
        let s: usize = lhs_iter
            .next()
            .ok_or_else(|| err("missing stage"))?
            .parse()
            .map_err(|_| err("bad stage"))?;
        let v: u32 = lhs_iter
            .next()
            .ok_or_else(|| err("missing node"))?
            .parse()
            .map_err(|_| err("bad node"))?;
        if s + 1 >= stages || (v as usize) >= width {
            return Err(err("stage or node out of range"));
        }
        for tok in rhs.split_whitespace() {
            let c: u32 = tok.parse().map_err(|_| err("bad child"))?;
            if (c as usize) >= width {
                return Err(err("child out of range"));
            }
            arcs.push((s, v, c));
        }
    }
    MiDigraph::from_arcs(stages, width, arcs.iter().copied())
        .map_err(|e| header_err(&e.to_string()))
}

impl Serialize for MiDigraph {
    fn to_value(&self) -> Value {
        let arc = |(s, v, c): (usize, u32, u32)| {
            Value::Seq(vec![s.to_value(), v.to_value(), c.to_value()])
        };
        Value::Map(vec![
            ("stages".into(), self.stages().to_value()),
            ("width".into(), self.width().to_value()),
            ("arcs".into(), Value::Seq(self.arcs().map(arc).collect())),
        ])
    }
}

impl Deserialize for MiDigraph {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected an MI-digraph map"))?;
        let stages = usize::from_value(map_get(map, "stages")?)?;
        let width = usize::from_value(map_get(map, "width")?)?;
        check_size(stages, width).map_err(Error::custom)?;
        let arcs = map_get(map, "arcs")?
            .as_seq()
            .ok_or_else(|| Error::custom("expected arcs"))?;
        let arc = |a: &Value| match a.as_seq() {
            Some([s, v, c]) => Ok((
                usize::from_value(s)?,
                u32::from_value(v)?,
                u32::from_value(c)?,
            )),
            _ => Err(Error::custom("an arc is [stage, from, to]")),
        };
        let arcs = arcs.iter().map(arc).collect::<Result<Vec<_>, _>>()?;
        MiDigraph::from_arcs(stages, width, arcs.iter().copied()).map_err(Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline8() -> MiDigraph {
        let arcs = (0..4u32).flat_map(|v| [(0, v, v >> 1), (0, v, (v >> 1) | 2)]);
        let arcs = arcs.chain((0..4u32).flat_map(|v| [(1, v, v & 2), (1, v, (v & 2) | 1)]));
        MiDigraph::from_arcs(3, 4, arcs).unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = baseline8();
        let text = to_text(&g);
        let back = from_text(&text).expect("round trip parses");
        assert!(g.same_arcs(&back));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "mi-digraph v1 stages=2 width=2\n\n# comment\n0 0 -> 0 1\n0 1 -> 0 1\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.arc_count(), 4);
    }

    #[test]
    fn header_errors_are_reported() {
        assert!(from_text("").is_err());
        assert!(from_text("garbage").is_err());
        assert!(from_text("mi-digraph v1 width=2").is_err());
        assert!(from_text("mi-digraph v1 stages=2").is_err());
    }

    #[test]
    fn hostile_headers_are_errors_not_panics() {
        for header in [
            "mi-digraph v1 stages=0 width=4",
            "mi-digraph v1 stages=3 width=0",
            "mi-digraph v1 stages=4097 width=4096",
            "mi-digraph v1 stages=18446744073709551615 width=2",
        ] {
            let err = from_text(&format!("{header}\n0 0 -> 0\n")).unwrap_err();
            assert_eq!(err.line, 1, "{header}: {err}");
            assert!(err.message.contains("stages × width"), "{header}: {err}");
        }
        // The cap itself is accepted.
        assert_eq!(check_size(1, MAX_NODES), Ok(()));
        assert_eq!(check_size(MAX_NODES, 1), Ok(()));
    }

    #[test]
    fn body_errors_carry_line_numbers() {
        let text = "mi-digraph v1 stages=2 width=2\n0 0 -> 9\n";
        let err = from_text(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("out of range"));

        let text = "mi-digraph v1 stages=2 width=2\n1 0 -> 0\n";
        assert!(from_text(text).is_err(), "arcs cannot leave the last stage");
    }

    #[test]
    fn serde_json_round_trip() {
        let g = baseline8();
        let json = serde_json::to_string(&g).unwrap();
        let back: MiDigraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
        // Arc order survives, not just the arc set.
        let shuffled = MiDigraph::from_arcs(2, 2, [(0, 1, 0), (0, 0, 1), (0, 1, 1)]).unwrap();
        let json = serde_json::to_string(&shuffled).unwrap();
        assert_eq!(serde_json::from_str::<MiDigraph>(&json).unwrap(), shuffled);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        for json in [
            // A CSR layout is never read from input, so offsets past the
            // end of their target array have nothing to point into.
            r#"{"stages":2,"width":2,"down":{"offsets":[0,9,9,9,9],"targets":[]}}"#,
            r#"{"stages":2,"width":2,"arcs":[[0,0,2]]}"#,
            r#"{"stages":2,"width":2,"arcs":[[0,2,0]]}"#,
            r#"{"stages":2,"width":2,"arcs":[[1,0,0]]}"#,
            r#"{"stages":2,"width":2,"arcs":[[0,0]]}"#,
            r#"{"stages":2,"width":2,"arcs":[[0,0,-1]]}"#,
            r#"{"stages":2,"width":2,"arcs":{}}"#,
            r#"{"stages":0,"width":2,"arcs":[]}"#,
            r#"{"stages":2,"width":0,"arcs":[]}"#,
            r#"{"stages":1048576,"width":1048576,"arcs":[]}"#,
            r#"[2,2]"#,
        ] {
            assert!(serde_json::from_str::<MiDigraph>(json).is_err(), "{json}");
        }
    }
}
