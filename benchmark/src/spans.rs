//! Benchmark-owned spans: one per call into a public function of the
//! program, recorded from outside. Kept in memory during the run and
//! written to `benchmark/out/trace-<workload>.json` when it ends.
//!
//! A span's self time is its duration minus the part its child spans
//! cover; spans of one round share the round's number.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept verbatim; later ones are only aggregated by name.
const KEEP: usize = 50_000;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    round: u64,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// An open span, closed by [`Spans::exit`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u64,
    by_name: BTreeMap<&'static str, Agg>,
}

impl Spans {
    /// `on == false` records nothing: `enter`/`exit` only read the clock,
    /// which the untraced run needs anyway for its own timings.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            by_name: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording; only between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(
            self.stack.is_empty(),
            "span recording switched inside a span"
        );
        self.on = on;
    }

    /// Sets the identifier shared by the spans that follow.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let idx = self.on.then(|| {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                name,
                parent,
                round: self.round,
                start_ns: 0,
                end_ns: 0,
                child_ns: 0,
            });
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        let start = Instant::now();
        if let Some(i) = idx {
            self.spans[i].start_ns = start.duration_since(self.origin).as_nanos() as u64;
        }
        Open { idx, start }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let ns = open.start.elapsed().as_nanos() as u64;
        let Some(i) = open.idx else { return ns };
        assert_eq!(self.stack.pop(), Some(i), "spans closed out of order");
        self.spans[i].end_ns = self.spans[i].start_ns + ns;
        let (name, parent, child_ns) = {
            let s = &self.spans[i];
            (s.name, s.parent, s.child_ns)
        };
        if let Some(p) = parent {
            self.spans[p].child_ns += ns;
        }
        let agg = self.by_name.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += ns;
        agg.self_ns += ns.saturating_sub(child_ns);
        // Past the cap a finished leaf is dropped; its aggregate stays.
        if i >= KEEP && i + 1 == self.spans.len() {
            self.spans.pop();
        }
        ns
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the spans called `name`, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64 / 1e6
        }
    }

    /// The trace file: per-name aggregates and the first spans verbatim.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let num = |x: u64| Json::Num(x as f64);
        let by_name = self.by_name.iter().map(|(name, a)| {
            let agg = Json::obj([
                ("count", num(a.count)),
                ("total_ns", num(a.total_ns)),
                ("self_ns", num(a.self_ns)),
            ]);
            (*name, agg)
        });
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", num(id as u64)),
                ("parent", s.parent.map_or(Json::Null, |p| num(p as u64))),
                ("name", Json::str(s.name)),
                ("round", num(s.round)),
                ("start_ns", num(s.start_ns)),
                ("end_ns", num(s.end_ns)),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", num(seed)),
            ("kept_spans", num(self.spans.len() as u64)),
            ("by_name", Json::obj(by_name)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut sp = Spans::new(true);
        let outer = sp.enter("outer");
        let (_, a) = sp.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, b) = sp.time("inner", || ());
        let total = sp.exit(outer);
        let (o, i) = (sp.agg("outer"), sp.agg("inner"));
        assert_eq!((o.count, i.count), (1, 2));
        assert_eq!(i.total_ns, a + b);
        assert_eq!(o.total_ns, total);
        assert_eq!(o.self_ns, total - a - b);
        let doc = sp.to_json("w", 7);
        let spans = doc.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut sp = Spans::new(false);
        let (_, ns) = sp.time("x", || std::hint::black_box(1 + 1));
        assert!(ns < 1_000_000_000);
        assert_eq!(sp.agg("x").count, 0);
        assert_eq!(sp.to_json("w", 1).get("spans").unwrap().as_arr().len(), 0);
    }
}
