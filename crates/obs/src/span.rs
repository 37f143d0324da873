//! Hierarchical RAII wall-clock spans.
//!
//! A [`SpanRecorder`] is the cheap cloneable handle threaded through
//! configuration structs, mirroring `tc-trace`'s `Tracer`: a disabled
//! recorder is a `None` branch — [`SpanRecorder::enter`] neither reads
//! the clock nor allocates. An enabled recorder aggregates into a
//! shared [`SpanCollector`]: entering a span pushes a frame keyed by
//! its static name under the currently open parent, and dropping the
//! returned [`SpanGuard`] adds the elapsed wall time to that frame.
//! Re-entering the same name under the same parent accumulates into
//! one frame (count + total), so tight loops — per-iteration spans,
//! per-request spans — stay O(depth) in memory regardless of how often
//! they run.
//!
//! The collector snapshots into a [`SpanTree`], a plain owned tree
//! with per-node `count`, `total_ns`, and derived *self* time
//! (total minus children), renderable as text and round-trippable
//! through a dependency-free JSON encoding.
//!
//! Wall-clock readings are inherently nondeterministic; nothing in
//! this module may ever feed a gated digest, report byte, or baseline
//! cell. See the crate docs for the contract.

use crate::lock_unpoisoned;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cheap cloneable handle to an optional [`SpanCollector`].
///
/// `Default` is disabled, so adding a recorder field to a config
/// struct changes nothing until a caller opts in.
#[derive(Clone, Default)]
pub struct SpanRecorder(Option<Arc<SpanCollector>>);

impl SpanRecorder {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> SpanRecorder {
        SpanRecorder(None)
    }

    /// A recorder aggregating into `collector`.
    pub fn new(collector: Arc<SpanCollector>) -> SpanRecorder {
        SpanRecorder(Some(collector))
    }

    /// Convenience: a fresh collector plus a recorder feeding it.
    pub fn collecting() -> (SpanRecorder, Arc<SpanCollector>) {
        let collector = Arc::new(SpanCollector::new());
        (SpanRecorder(Some(Arc::clone(&collector))), collector)
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span named `name` under the innermost open span; the
    /// returned guard closes it on drop. Disabled recorders return an
    /// inert guard without reading the clock or allocating.
    #[inline]
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        match &self.0 {
            None => SpanGuard(None),
            Some(collector) => {
                let node = collector.open(name);
                SpanGuard(Some(OpenSpan {
                    collector: Arc::clone(collector),
                    node,
                    start: Instant::now(),
                }))
            }
        }
    }
}

impl fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("SpanRecorder(enabled)"),
            None => f.write_str("SpanRecorder(disabled)"),
        }
    }
}

/// RAII guard for one open span; closes it on drop.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    collector: Arc<SpanCollector>,
    node: usize,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let ns = open.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            open.collector.close(open.node, ns);
        }
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("SpanGuard(open)"),
            None => f.write_str("SpanGuard(inert)"),
        }
    }
}

/// One aggregated frame of the collector's arena.
struct Frame {
    name: &'static str,
    count: u64,
    total_ns: u64,
    children: Vec<usize>,
}

struct Frames {
    nodes: Vec<Frame>,
    /// Indices of the currently open frames; `[0]` is the implicit root.
    stack: Vec<usize>,
}

/// Aggregating arena of span frames, shared behind an `Arc` by every
/// clone of a [`SpanRecorder`].
pub struct SpanCollector {
    inner: Mutex<Frames>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector::new()
    }
}

impl SpanCollector {
    /// An empty collector (implicit root frame, nothing open).
    pub fn new() -> SpanCollector {
        SpanCollector {
            inner: Mutex::new(Frames {
                nodes: vec![Frame {
                    name: "root",
                    count: 0,
                    total_ns: 0,
                    children: Vec::new(),
                }],
                stack: vec![0],
            }),
        }
    }

    fn open(&self, name: &'static str) -> usize {
        let mut frames = lock_unpoisoned(&self.inner);
        let parent = frames.stack.last().copied().unwrap_or(0);
        let existing = frames.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| frames.nodes[c].name == name);
        let node = match existing {
            Some(c) => c,
            None => {
                let id = frames.nodes.len();
                frames.nodes.push(Frame {
                    name,
                    count: 0,
                    total_ns: 0,
                    children: Vec::new(),
                });
                frames.nodes[parent].children.push(id);
                id
            }
        };
        frames.stack.push(node);
        node
    }

    fn close(&self, node: usize, ns: u64) {
        let mut frames = lock_unpoisoned(&self.inner);
        // Normally `node` is on top; out-of-order drops (guards moved
        // into structs, early returns) close everything above it too.
        if let Some(pos) = frames.stack.iter().rposition(|&n| n == node) {
            frames.stack.truncate(pos.max(1));
        }
        let frame = &mut frames.nodes[node];
        frame.count += 1;
        frame.total_ns = frame.total_ns.saturating_add(ns);
    }

    /// Snapshots the aggregated tree. The synthetic root's total is the
    /// sum of its children (the root frame itself is never timed).
    pub fn tree(&self) -> SpanTree {
        fn build(nodes: &[Frame], i: usize) -> SpanNode {
            let frame = &nodes[i];
            SpanNode {
                name: frame.name.to_string(),
                count: frame.count,
                total_ns: frame.total_ns,
                children: frame.children.iter().map(|&c| build(nodes, c)).collect(),
            }
        }
        let frames = lock_unpoisoned(&self.inner);
        let mut root = build(&frames.nodes, 0);
        root.total_ns = root.children.iter().map(|c| c.total_ns).sum();
        SpanTree { root }
    }
}

impl fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frames = lock_unpoisoned(&self.inner);
        write!(
            f,
            "SpanCollector({} frames, depth {})",
            frames.nodes.len(),
            frames.stack.len() - 1
        )
    }
}

/// One node of a snapshotted span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (a static identifier at record time).
    pub name: String,
    /// Completed activations aggregated into this node.
    pub count: u64,
    /// Total wall time across all activations, in nanoseconds.
    pub total_ns: u64,
    /// Child spans, in first-opened order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Self time: total minus time attributed to children (saturating —
    /// a child timed while its parent's clock was stopped reads as 0).
    pub fn self_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(child_ns)
    }

    /// Looks up a direct child by name.
    fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// A snapshotted span hierarchy rooted at a synthetic `root` node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanTree {
    /// The synthetic root; real spans are its descendants.
    pub root: SpanNode,
}

impl SpanTree {
    /// Walks `path` from the root's children downward.
    pub fn find(&self, path: &[&str]) -> Option<&SpanNode> {
        let mut node = &self.root;
        for name in path {
            node = node.child(name)?;
        }
        Some(node)
    }

    /// Dependency-free JSON encoding (single line, stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        write_node(&mut out, &self.root);
        out
    }

    /// Parses the encoding produced by [`SpanTree::to_json`].
    pub fn from_json(text: &str) -> Result<SpanTree, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let root = p.node()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.at));
        }
        Ok(SpanTree { root })
    }

    /// Renders the tree as indented text with total/self attribution.
    /// Percentages are of the root total (all recorded wall time).
    pub fn render(&self) -> String {
        let grand = self.root.total_ns.max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>8} {:>8}\n",
            "span", "total", "self", "count", "% run"
        ));
        fn line(out: &mut String, node: &SpanNode, depth: usize, grand: u64) {
            let indent = "  ".repeat(depth);
            let pct = node.total_ns as f64 * 100.0 / grand as f64;
            out.push_str(&format!(
                "{:<24} {:>10} {:>10} {:>8} {:>7.1}%\n",
                format!("{indent}{}", node.name),
                fmt_ns(node.total_ns),
                fmt_ns(node.self_ns()),
                node.count,
                pct,
            ));
            for child in &node.children {
                line(out, child, depth + 1, grand);
            }
        }
        for child in &self.root.children {
            line(&mut out, child, 0, grand);
        }
        out
    }
}

/// Human formatting for nanosecond figures (`1.23ms`, `45µs`, `2.1s`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

fn write_node(out: &mut String, node: &SpanNode) {
    out.push_str("{\"name\":\"");
    for c in node.name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push_str(&format!(
        "\",\"count\":{},\"total_ns\":{},\"children\":[",
        node.count, node.total_ns
    ));
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node(out, child);
    }
    out.push_str("]}");
}

/// Minimal recursive-descent parser for the span-tree JSON shape.
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(&b) if b == want => {
                self.at += 1;
                Ok(())
            }
            got => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                want as char,
                self.at,
                got.map(|&b| b as char)
            )),
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.at += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.at += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.at;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.at += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.at;
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        if start == self.at {
            return Err(format!("expected a number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|e| e.to_string())?
            .parse::<u64>()
            .map_err(|e| e.to_string())
    }

    fn node(&mut self) -> Result<SpanNode, String> {
        self.eat(b'{')?;
        let mut node = SpanNode {
            name: String::new(),
            count: 0,
            total_ns: 0,
            children: Vec::new(),
        };
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(node);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            match key.as_str() {
                "name" => node.name = self.string()?,
                "count" => node.count = self.number()?,
                "total_ns" => node.total_ns = self.number()?,
                "children" => {
                    self.eat(b'[')?;
                    if self.peek() == Some(b']') {
                        self.at += 1;
                    } else {
                        loop {
                            node.children.push(self.node()?);
                            match self.peek() {
                                Some(b',') => self.at += 1,
                                Some(b']') => {
                                    self.at += 1;
                                    break;
                                }
                                other => return Err(format!("bad array separator {other:?}")),
                            }
                        }
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(node);
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_yields_inert_guards() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        let g = rec.enter("anything");
        assert_eq!(format!("{g:?}"), "SpanGuard(inert)");
        drop(g);
        assert_eq!(format!("{rec:?}"), "SpanRecorder(disabled)");
    }

    #[test]
    fn nested_spans_aggregate_by_name_under_parent() {
        let (rec, collector) = SpanRecorder::collecting();
        {
            let _run = rec.enter("run");
            for _ in 0..3 {
                let _iter = rec.enter("iteration");
                let _op = rec.enter("op");
            }
        }
        let tree = collector.tree();
        let run = tree.find(&["run"]).expect("run span");
        assert_eq!(run.count, 1);
        let iter = tree.find(&["run", "iteration"]).expect("iteration span");
        assert_eq!(iter.count, 3);
        let op = tree.find(&["run", "iteration", "op"]).expect("op span");
        assert_eq!(op.count, 3);
        // One frame per distinct (parent, name), not per activation.
        assert_eq!(run.children.len(), 1);
        assert_eq!(iter.children.len(), 1);
    }

    #[test]
    fn sibling_spans_stay_siblings() {
        let (rec, collector) = SpanRecorder::collecting();
        {
            let _run = rec.enter("run");
            drop(rec.enter("restructure"));
            drop(rec.enter("compute"));
        }
        let tree = collector.tree();
        let run = tree.find(&["run"]).expect("run span");
        assert_eq!(
            run.children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            ["restructure", "compute"]
        );
    }

    #[test]
    fn out_of_order_drop_is_tolerated() {
        let (rec, collector) = SpanRecorder::collecting();
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        drop(outer); // closes inner's frame off the stack too
        drop(inner); // still records inner's time
        let tree = collector.tree();
        assert_eq!(tree.find(&["outer"]).map(|n| n.count), Some(1));
        assert_eq!(tree.find(&["outer", "inner"]).map(|n| n.count), Some(1));
        // The stack is back at the root: a new span is a new top-level.
        drop(rec.enter("next"));
        assert!(collector.tree().find(&["next"]).is_some());
    }

    #[test]
    fn self_time_subtracts_children() {
        let node = SpanNode {
            name: "p".into(),
            count: 1,
            total_ns: 100,
            children: vec![
                SpanNode {
                    name: "a".into(),
                    count: 1,
                    total_ns: 30,
                    children: Vec::new(),
                },
                SpanNode {
                    name: "b".into(),
                    count: 2,
                    total_ns: 45,
                    children: Vec::new(),
                },
            ],
        };
        assert_eq!(node.self_ns(), 25);
    }

    #[test]
    fn json_round_trips() {
        let (rec, collector) = SpanRecorder::collecting();
        {
            let _run = rec.enter("run");
            let _a = rec.enter("phase \"a\"\\");
            drop(rec.enter("op"));
        }
        let tree = collector.tree();
        let json = tree.to_json();
        let back = SpanTree::from_json(&json).expect("parse back");
        assert_eq!(back, tree);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"name\":}",
            "{\"name\":\"x\",\"count\":-1,\"total_ns\":0,\"children\":[]}",
            "{\"name\":\"x\",\"count\":0,\"total_ns\":0,\"children\":[]}trailing",
            "{\"nope\":\"x\"}",
        ] {
            assert!(SpanTree::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_lists_every_span_with_attribution() {
        let (rec, collector) = SpanRecorder::collecting();
        {
            let _run = rec.enter("run");
            drop(rec.enter("compute"));
        }
        let text = collector.tree().render();
        assert!(text.contains("run"), "{text}");
        assert!(text.contains("  compute"), "{text}");
        assert!(text.contains("count"), "{text}");
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_250_000), "2.25ms");
        assert_eq!(fmt_ns(3_100_000_000), "3.10s");
    }
}
