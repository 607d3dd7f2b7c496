//! Bench-side spans for the traced run: name, start, end and the span
//! that caused it, kept in memory and written as JSONL when the run
//! ends. Every span comes from timestamps the benchmark takes around a
//! public call (or from the per-stage seconds a call returns, laid out
//! in stage order); nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use stco_obs::json::JsonValue;

/// One span: seconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// An in-memory span recorder. A parent is always recorded before its
/// children, so every parent index is smaller than its children's.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        debug_assert!(parent.is_none_or(|p| p < self.spans.len()));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Records `stages` as consecutive children of `parent` starting at
    /// `start`: how per-stage seconds returned by a call become spans.
    pub fn record_stages(&mut self, parent: usize, start: f64, stages: &[(&'static str, f64)]) {
        let mut t = start;
        for &(name, seconds) in stages {
            self.record(name, Some(parent), t, t + seconds);
            t += seconds;
        }
    }

    /// Opens a span that [`Trace::end`] closes, so its children can be
    /// recorded in between.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span; returns its value and its seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, parent, start, end);
        (out, end - start)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let doc = JsonValue::Obj(vec![
                ("id".to_string(), JsonValue::Num(id as f64)),
                ("name".to_string(), JsonValue::Str(span.name.to_string())),
                ("start_s".to_string(), JsonValue::Num(span.start)),
                ("end_s".to_string(), JsonValue::Num(span.end)),
                (
                    "parent".to_string(),
                    span.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                ),
            ]);
            writeln!(out, "{}", doc.render())?;
        }
        out.flush()
    }

    /// The spans folded by path from the root: per node the span count,
    /// total seconds, self seconds (total minus the children's total) and
    /// `coverage = Σchildren / total`.
    pub fn tree(&self) -> String {
        struct Node {
            depth: usize,
            name: &'static str,
            count: usize,
            total: f64,
            children: f64,
        }
        let mut nodes: Vec<Node> = Vec::new();
        let mut index: BTreeMap<(Option<usize>, &'static str), usize> = BTreeMap::new();
        let mut node_of = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let parent_node = span.parent.map(|p| node_of[p]);
            let node = *index.entry((parent_node, span.name)).or_insert_with(|| {
                nodes.push(Node {
                    depth: parent_node.map_or(0, |p: usize| nodes[p].depth + 1),
                    name: span.name,
                    count: 0,
                    total: 0.0,
                    children: 0.0,
                });
                nodes.len() - 1
            });
            let seconds = span.end - span.start;
            nodes[node].count += 1;
            nodes[node].total += seconds;
            if let Some(p) = parent_node {
                nodes[p].children += seconds;
            }
            node_of.push(node);
        }
        // Depth-first, children in order of first appearance.
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut roots = Vec::new();
        for (&(parent, _), &node) in &index {
            match parent {
                Some(p) => kids[p].push(node),
                None => roots.push(node),
            }
        }
        for k in &mut kids {
            k.sort_unstable();
        }
        roots.sort_unstable();
        let mut out = format!(
            "{:<44} {:>8} {:>12} {:>12} {:>9}\n",
            "span", "count", "total s", "self s", "coverage"
        );
        let mut stack: Vec<usize> = roots.into_iter().rev().collect();
        while let Some(n) = stack.pop() {
            let node = &nodes[n];
            let coverage = if kids[n].is_empty() {
                "-".to_string()
            } else {
                format!("{:.3}", node.children / node.total.max(1e-12))
            };
            out.push_str(&format!(
                "{:<44} {:>8} {:>12.6} {:>12.6} {:>9}\n",
                format!("{}{}", "  ".repeat(node.depth), node.name),
                node.count,
                node.total,
                node.total - node.children,
                coverage
            ));
            stack.extend(kids[n].iter().rev());
        }
        out
    }
}
