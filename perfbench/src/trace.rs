//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around a call into one layer's
//! public API: its name, the span that caused it, start and end (ns since
//! the tracer was made), plus the categorical attributes and work counts
//! the per-layer metrics are derived from. Nothing is written until the
//! run ends ([`Trace::write_jsonl`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, String)>,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// A span that has started but not yet ended.
pub struct Open {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Thread-safe recorder; spans from worker threads carry their parent id
/// explicitly.
pub struct Tracer {
    origin: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &'static str, parent: Option<usize>) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(
        &self,
        open: Open,
        attrs: Vec<(&'static str, String)>,
        counts: Vec<(&'static str, u64)>,
    ) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                attrs,
                counts,
            });
    }

    /// Spans closed so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .len()
    }

    /// Runs `f` inside a span with no attributes or counts.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent);
        let out = f();
        self.close(open, Vec::new(), Vec::new());
        out
    }

    pub fn finish(self) -> Trace {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a thread panicked while recording a span");
        spans.sort_by_key(|s| s.id);
        Trace { spans }
    }
}

/// The spans of one traced run, with the queries the per-layer metrics use.
pub struct Trace {
    pub spans: Vec<Span>,
}

/// Per-name totals: how many spans, their summed duration, and their summed
/// self time (duration minus the part covered by child spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Trace {
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Summed count `key` over every span called `name`.
    pub fn count(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|s| s.count(key)).sum()
    }

    /// Mean duration of the spans called `name`, in seconds (0 if none).
    pub fn mean_s(&self, name: &str) -> f64 {
        let n = self.named(name).count();
        if n == 0 {
            0.0
        } else {
            self.total_s(name) / n as f64
        }
    }

    /// Nearest-rank percentile of the durations of the spans called `name`.
    pub fn percentile_s(&self, name: &str, p: f64) -> f64 {
        let mut d: Vec<f64> = self.named(name).map(Span::secs).collect();
        if d.is_empty() {
            return 0.0;
        }
        d.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * d.len() as f64).ceil() as usize;
        d[rank.clamp(1, d.len()) - 1]
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children of one parent may overlap when they
    /// ran on different threads).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let mut cur: Option<(u64, u64)> = None;
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                        if a >= b {
                            continue;
                        }
                        cur = match cur {
                            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                            Some((ca, cb)) => {
                                covered += cb - ca;
                                Some((a, b))
                            }
                            None => Some((a, b)),
                        };
                    }
                    if let Some((ca, cb)) = cur {
                        covered += cb - ca;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.secs();
            t.self_s += self_s;
        }
        out
    }

    /// Writes one JSON line per span, then one `summary` line per span
    /// name with its count, total and self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_s\":{:.9}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                self_s
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":\"{v}\"");
            }
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        for (name, t) in self.totals_by_name() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_s\":{:.9},\"self_s\":{:.9}}}",
                t.count, t.total_s, t.self_s
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            attrs: Vec::new(),
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let trace = Trace {
            spans: vec![
                span(0, None, 0, 100),
                span(1, Some(0), 10, 40),
                span(2, Some(0), 30, 50),
                span(3, Some(0), 70, 80),
                span(4, Some(3), 70, 75),
            ],
        };
        let self_ns: Vec<u64> = trace
            .self_times()
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(self_ns, vec![50, 30, 20, 5, 5]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let trace = Trace {
            spans: (1..=20)
                .map(|i| span(i, None, 0, i as u64 * 1_000))
                .collect(),
        };
        assert!((trace.percentile_s("s", 50.0) - 10e-6).abs() < 1e-12);
        assert!((trace.percentile_s("s", 95.0) - 19e-6).abs() < 1e-12);
    }
}
