//! Folds a recorded span stream into a per-stage/per-substage profile.
//!
//! Spans with the same name under the same parent fold into one node
//! (count + accumulated time); a `stage` field splits the fold per
//! stage so `flow.stage` spans become one row per pipeline stage.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::json::JsonValue;
use crate::record::{FieldValue, Record};

/// One folded node of the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Fold label: the span name, plus `{stage=…}` when the span
    /// carried a `stage` field.
    pub name: String,
    /// Value of the `stage` field, when present.
    pub stage: Option<String>,
    /// How many spans folded into this node.
    pub count: u64,
    /// Accumulated wall-clock over all folded spans, seconds.
    pub total_s: f64,
    /// `total_s` minus the children's `total_s` (clamped at zero).
    pub self_s: f64,
    /// Folded child spans, in first-seen order.
    pub children: Vec<ProfileNode>,
    /// Event-name → occurrence count for events attached to this node.
    pub events: Vec<(String, u64)>,
}

impl ProfileNode {
    fn leaf(name: String, stage: Option<String>) -> ProfileNode {
        ProfileNode {
            name,
            stage,
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
            children: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Finds the first direct child with this fold label.
    pub fn child(&self, name: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

// Arena node used while folding; flattened into ProfileNode at the end.
struct Build {
    node: ProfileNode,
    children: BTreeMap<String, usize>, // label -> arena index
    order: Vec<usize>,
    total_ns: u128,
    events: BTreeMap<String, u64>,
    event_order: Vec<String>,
}

impl Build {
    fn new(name: String, stage: Option<String>) -> Build {
        Build {
            node: ProfileNode::leaf(name, stage),
            children: BTreeMap::new(),
            order: Vec::new(),
            total_ns: 0,
            events: BTreeMap::new(),
            event_order: Vec::new(),
        }
    }
}

fn fold_label(name: &str, stage: Option<&str>) -> String {
    match stage {
        Some(s) => format!("{name}{{stage={s}}}"),
        None => name.to_string(),
    }
}

/// A folded profile of one recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Synthetic root; its children are the trace's top-level spans.
    pub root: ProfileNode,
}

impl Profile {
    /// Folds a record stream (as captured by a ring buffer or read back
    /// from a JSONL trace) into a profile tree.
    ///
    /// Spans never closed in the stream contribute their count but no
    /// time; events on unknown spans attach to the root.
    pub fn from_records(records: &[Record]) -> Profile {
        let mut arena: Vec<Build> = vec![Build::new("(root)".into(), None)];
        // span id -> arena index, kept after close so late events still attach.
        let mut span_node: HashMap<u64, usize> = HashMap::new();

        for record in records {
            match record {
                Record::SpanStart {
                    id,
                    parent,
                    name,
                    fields,
                    ..
                } => {
                    let parent_idx = parent.and_then(|p| span_node.get(&p).copied()).unwrap_or(0);
                    let stage = fields
                        .iter()
                        .find(|(k, _)| k == "stage")
                        .map(|(_, v)| match v {
                            FieldValue::Str(s) => s.clone(),
                            other => other.to_string(),
                        });
                    let label = fold_label(name, stage.as_deref());
                    let idx = match arena[parent_idx].children.get(&label) {
                        Some(&idx) => idx,
                        None => {
                            let idx = arena.len();
                            arena.push(Build::new(label.clone(), stage));
                            arena[parent_idx].children.insert(label, idx);
                            arena[parent_idx].order.push(idx);
                            idx
                        }
                    };
                    arena[idx].node.count += 1;
                    span_node.insert(*id, idx);
                }
                Record::SpanEnd { id, elapsed_ns, .. } => {
                    if let Some(&idx) = span_node.get(id) {
                        arena[idx].total_ns += u128::from(*elapsed_ns);
                    }
                }
                Record::Event { span, name, .. } => {
                    let idx = span.and_then(|s| span_node.get(&s).copied()).unwrap_or(0);
                    let build = &mut arena[idx];
                    if !build.events.contains_key(name) {
                        build.event_order.push(name.clone());
                    }
                    *build.events.entry(name.clone()).or_insert(0) += 1;
                }
            }
        }

        let root = Self::flatten(&arena, 0);
        Profile { root }
    }

    fn flatten(arena: &[Build], idx: usize) -> ProfileNode {
        let build = &arena[idx];
        let mut node = build.node.clone();
        node.total_s = build.total_ns as f64 / 1e9;
        node.events = build
            .event_order
            .iter()
            .map(|name| (name.clone(), build.events[name]))
            .collect();
        node.children = build
            .order
            .iter()
            .map(|&c| Self::flatten(arena, c))
            .collect();
        let child_total: f64 = node.children.iter().map(|c| c.total_s).sum();
        if idx == 0 {
            // Synthetic root owns no time of its own.
            node.total_s = child_total;
            node.self_s = 0.0;
        } else {
            node.self_s = (node.total_s - child_total).max(0.0);
        }
        node
    }

    /// Sums `total_s` over every node in the tree with this fold label
    /// (e.g. `"flow.stage{stage=device}"` or `"tcad.solve_poisson"`).
    pub fn total_of(&self, label: &str) -> f64 {
        fn walk(node: &ProfileNode, label: &str, acc: &mut f64) {
            if node.name == label {
                *acc += node.total_s;
            }
            for child in &node.children {
                walk(child, label, acc);
            }
        }
        let mut acc = 0.0;
        walk(&self.root, label, &mut acc);
        acc
    }

    /// Renders the profile as a Markdown table (indented span column).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| span | count | total [s] | self [s] | events |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        fn row(node: &ProfileNode, depth: usize, out: &mut String) {
            let indent = "&nbsp;&nbsp;".repeat(depth);
            let events = node
                .events
                .iter()
                .map(|(name, n)| format!("{name}×{n}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "| {}{} | {} | {:.4} | {:.4} | {} |\n",
                indent, node.name, node.count, node.total_s, node.self_s, events
            ));
            for child in &node.children {
                row(child, depth + 1, out);
            }
        }
        for child in &self.root.children {
            row(child, 0, &mut out);
        }
        out
    }

    /// Renders the profile tree as JSON.
    pub fn to_json(&self) -> JsonValue {
        fn node_json(node: &ProfileNode) -> JsonValue {
            let mut obj = vec![
                ("name".to_string(), JsonValue::Str(node.name.clone())),
                ("count".to_string(), JsonValue::Num(node.count as f64)),
                ("total_s".to_string(), JsonValue::Num(node.total_s)),
                ("self_s".to_string(), JsonValue::Num(node.self_s)),
            ];
            if let Some(stage) = node.stage.as_ref() {
                obj.push(("stage".to_string(), JsonValue::Str(stage.clone())));
            }
            if !node.events.is_empty() {
                obj.push((
                    "events".to_string(),
                    JsonValue::Obj(
                        node.events
                            .iter()
                            .map(|(k, n)| (k.clone(), JsonValue::Num(*n as f64)))
                            .collect(),
                    ),
                ));
            }
            if !node.children.is_empty() {
                obj.push((
                    "children".to_string(),
                    JsonValue::Arr(node.children.iter().map(node_json).collect()),
                ));
            }
            JsonValue::Obj(obj)
        }
        node_json(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, name: &str, stage: Option<&str>, t: u64) -> Record {
        let fields = stage
            .map(|s| vec![("stage".to_string(), FieldValue::Str(s.to_string()))])
            .unwrap_or_default();
        Record::SpanStart {
            id,
            parent,
            name: name.into(),
            fields,
            t_ns: t,
            thread: 1,
        }
    }

    fn end(id: u64, t: u64, elapsed: u64) -> Record {
        Record::SpanEnd {
            id,
            t_ns: t,
            elapsed_ns: elapsed,
        }
    }

    fn event(span: Option<u64>, name: &str, t: u64) -> Record {
        Record::Event {
            span,
            name: name.into(),
            fields: vec![],
            t_ns: t,
            thread: 1,
        }
    }

    /// Two iterations, each with a device and a cells stage; the device
    /// stage contains a solver span with per-iteration events.
    fn sample_trace() -> Vec<Record> {
        vec![
            start(1, None, "flow.iteration", None, 0),
            start(2, Some(1), "flow.stage", Some("device"), 10),
            start(3, Some(2), "tcad.solve_poisson", None, 20),
            event(Some(3), "tcad.newton_iter", 25),
            event(Some(3), "tcad.newton_iter", 30),
            end(3, 40, 20),
            end(2, 50, 40),
            start(4, Some(1), "flow.stage", Some("cells"), 60),
            end(4, 90, 30),
            end(1, 100, 100),
            start(5, None, "flow.iteration", None, 110),
            start(6, Some(5), "flow.stage", Some("device"), 120),
            end(6, 180, 60),
            end(5, 200, 90),
        ]
    }

    #[test]
    fn folds_same_label_and_splits_stages() {
        let profile = Profile::from_records(&sample_trace());
        assert_eq!(profile.root.children.len(), 1, "both iterations fold");
        let iter = &profile.root.children[0];
        assert_eq!(iter.count, 2);
        assert!((iter.total_s - 190e-9).abs() < 1e-15);
        // device and cells stages are separate nodes under the iteration.
        let device = iter.child("flow.stage{stage=device}").expect("device");
        let cells = iter.child("flow.stage{stage=cells}").expect("cells");
        assert_eq!(device.count, 2);
        assert_eq!(cells.count, 1);
        assert!((device.total_s - 100e-9).abs() < 1e-15);
        // Solver nested inside device, events attached to it.
        let solver = device.child("tcad.solve_poisson").expect("solver");
        assert_eq!(solver.events, vec![("tcad.newton_iter".to_string(), 2)]);
        assert_eq!(solver.events.iter().map(|(_, n)| n).sum::<u64>(), 2);
    }

    #[test]
    fn self_time_subtracts_children() {
        let profile = Profile::from_records(&sample_trace());
        let iter = &profile.root.children[0];
        // iteration total 190ns, stages 100+30=130ns → self 60ns.
        assert!(
            (iter.self_s - 60e-9).abs() < 1e-15,
            "self_s={}",
            iter.self_s
        );
        assert_eq!(profile.root.self_s, 0.0);
    }

    #[test]
    fn total_of_and_stage_seconds_agree() {
        let profile = Profile::from_records(&sample_trace());
        assert!((profile.total_of("flow.stage{stage=device}") - 100e-9).abs() < 1e-15);
        assert!((profile.total_of("flow.stage{stage=cells}") - 30e-9).abs() < 1e-15);
        assert!((profile.total_of("tcad.solve_poisson") - 20e-9).abs() < 1e-15);
        assert_eq!(profile.total_of("nope"), 0.0);
    }

    #[test]
    fn unclosed_spans_and_orphan_events_are_tolerated() {
        let records = vec![
            start(1, None, "a", None, 0),
            event(Some(99), "orphan", 5),
            // span 1 never ends
        ];
        let profile = Profile::from_records(&records);
        let a = profile.root.child("a").expect("a");
        assert_eq!(a.count, 1);
        assert_eq!(a.total_s, 0.0);
        assert_eq!(profile.root.events, vec![("orphan".to_string(), 1)]);
    }

    #[test]
    fn renders_markdown_and_json() {
        let profile = Profile::from_records(&sample_trace());
        let md = profile.to_markdown();
        assert!(md.contains("| span | count |"));
        assert!(md.contains("flow.stage{stage=device}"));
        assert!(md.contains("tcad.newton_iter×2"));
        let json = profile.to_json().render();
        assert!(json.contains("\"name\":\"flow.iteration\""));
        assert!(json.contains("\"stage\":\"device\""));
    }
}
