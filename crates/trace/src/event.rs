//! The trace event vocabulary.
//!
//! One [`Event`] per counted unit of work, grouped by the layer that
//! emits it. Events are small `Copy` values — constructing one never
//! allocates, so the disabled-tracer fast path stays allocation-free.
//!
//! The variants mirror the cost-metric suite one-to-one: each counter
//! of [`crate::Counts`] has exactly one event (or event field) that
//! increments it, which is what makes [`crate::replay`] an exact
//! reconstruction rather than an estimate. Events that carry no metric
//! (pin/unpin, iteration markers) exist purely for observability and
//! count nothing.
//!
//! The vocabulary is declared **once**, in the `events!` table at the
//! bottom of this module: the enum, [`Event::name`], [`Event::NAMES`],
//! the JSONL encoder and parser and the digest fold are all generated
//! from it, and what differs per field *type* lives in the eight impls
//! of the private `Field` trait. Adding an event is one table entry;
//! [`crate::Counts::on`] — the one fold, which the engine, replay and
//! `tc-profile` all count through — then fails to compile until it says
//! what the event means.

use crate::digest::Fnv;
use std::io::{self, Write};

/// The two phases of the study's uniform algorithm framework (§4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub enum Phase {
    /// Topological sort + successor-list construction (preprocessing).
    #[default]
    Restructure,
    /// List expansion and final write-out.
    Compute,
}

impl Phase {
    /// Stable single-byte encoding, used by trace digests.
    pub fn code(self) -> u8 {
        match self {
            Phase::Restructure => 0,
            Phase::Compute => 1,
        }
    }

    /// Lower-case name, used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Restructure => "restructure",
            Phase::Compute => "compute",
        }
    }
}

/// What role a file plays in the study's storage layout (`tc-storage`
/// re-exports this as `FileKind`).
///
/// The breakdown lets the experiment harness attribute I/O the way the
/// paper discusses it: input-relation scans and index probes during the
/// restructuring phase versus successor-list traffic during the
/// computation phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Kind {
    /// The input relation, clustered on the source attribute.
    Relation,
    /// The arc-reversed relation, clustered on the destination attribute
    /// (the dual representation required by `JKB2`, paper §4.1).
    InverseRelation,
    /// Sparse clustered-index pages.
    Index,
    /// Successor-list / successor-tree pages (the paper's 30-block format).
    SuccessorList,
    /// Scratch space (external-sort runs, seminaive deltas).
    Temp,
    /// Materialized query output.
    Output,
}

impl Kind {
    /// All kinds, in reporting order, indexed by [`Kind::idx`].
    pub const ALL: [Kind; 6] = [
        Kind::Relation,
        Kind::InverseRelation,
        Kind::Index,
        Kind::SuccessorList,
        Kind::Temp,
        Kind::Output,
    ];

    /// Stable index of this kind into per-kind counter arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Kind::Relation => 0,
            Kind::InverseRelation => 1,
            Kind::Index => 2,
            Kind::SuccessorList => 3,
            Kind::Temp => 4,
            Kind::Output => 5,
        }
    }

    /// Inverse of [`Kind::idx`] (panics on an out-of-range index — a
    /// programming error, not a data condition).
    pub fn from_idx(idx: usize) -> Kind {
        Kind::ALL[idx]
    }

    /// Lower-case name, used in reports and by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Relation => "relation",
            Kind::InverseRelation => "inverse-relation",
            Kind::Index => "index",
            Kind::SuccessorList => "successor-list",
            Kind::Temp => "temp",
            Kind::Output => "output",
        }
    }
}

/// Which fault an armed fault plan injected into a page-transfer attempt
/// (`tc-storage` re-exports this as `FaultKind`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FaultKind {
    /// A read attempt fails; a retry may succeed.
    TransientRead,
    /// A write attempt fails; a retry may succeed.
    TransientWrite,
    /// The page becomes permanently unreadable.
    PermanentRead,
    /// A write silently corrupts the stored image (torn write); detected
    /// by checksum on the next physical read.
    Corrupt,
}

impl FaultKind {
    /// All kinds, in [`FaultKind::code`] order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::TransientRead,
        FaultKind::TransientWrite,
        FaultKind::PermanentRead,
        FaultKind::Corrupt,
    ];

    /// Stable single-byte encoding, used by trace digests. The transient
    /// kinds must stay 0 (read) and 1 (write): pinned transient-fault
    /// streams fold them at those bytes.
    pub fn code(self) -> u8 {
        match self {
            FaultKind::TransientRead => 0,
            FaultKind::TransientWrite => 1,
            FaultKind::PermanentRead => 2,
            FaultKind::Corrupt => 3,
        }
    }

    /// Lower-case name, used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransientRead => "transient-read",
            FaultKind::TransientWrite => "transient-write",
            FaultKind::PermanentRead => "permanent-read",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// The candidate algorithms (paper §3/§4.1) plus the Seminaive baseline
/// (`tc-core` re-exports this; a `RunBegin` names one).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Algorithm {
    /// BTC — the basic graph-based algorithm \[Ioannidis, Ramakrishnan &
    /// Winger\]: reverse-topological expansion of flat successor lists
    /// with the immediate-successor and marking optimizations.
    Btc,
    /// HYB — Agrawal & Jagadish's Hybrid algorithm: BTC plus *blocking*
    /// of successor lists (a pinned diagonal block, dynamic reblocking).
    Hyb,
    /// BJ — Jiang's BFS algorithm: BTC plus the single-parent
    /// optimization on the magic graph (PTC only; identical to BTC for
    /// full closure).
    Bj,
    /// SRCH — per-source search without the immediate-successor
    /// optimization; a k-source query is k single-source searches.
    Srch,
    /// SPN — the Spanning Tree algorithm \[Dar & Jagadish, Jakobsson\]:
    /// successor *trees*, whose unions prune already-present subtrees.
    Spn,
    /// JKB — Jakobsson's Compute_Tree with a single (source-clustered)
    /// relation: special-node predecessor trees; immediate predecessor
    /// lists must be derived the hard way.
    Jkb,
    /// JKB2 — Compute_Tree with the dual representation: an inverse
    /// relation clustered and indexed on the destination attribute.
    Jkb2,
    /// Seminaive delta iteration — the iterative baseline the
    /// graph-based algorithms were shown to dominate (related work, §8).
    Seminaive,
    /// REACHINDEX — the modern chain-decomposition interval-label index
    /// (Kritikakis & Tollis, via `tc-reach`): restructuring builds and
    /// persists O(k·n) labels over the condensation DAG; computation
    /// answers the query by scanning chain suffixes. Not part of the
    /// 1994 study ([`Algorithm::ALL`]); appended last so the discrete
    /// discriminants of the original suite stay stable.
    ReachIndex,
}

impl Algorithm {
    /// All algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Btc,
        Algorithm::Hyb,
        Algorithm::Bj,
        Algorithm::Srch,
        Algorithm::Spn,
        Algorithm::Jkb,
        Algorithm::Jkb2,
        Algorithm::Seminaive,
    ];

    /// The paper's eight algorithms plus the modern reachability index —
    /// every algorithm the engine can run.
    pub const WITH_INDEX: [Algorithm; 9] = [
        Algorithm::Btc,
        Algorithm::Hyb,
        Algorithm::Bj,
        Algorithm::Srch,
        Algorithm::Spn,
        Algorithm::Jkb,
        Algorithm::Jkb2,
        Algorithm::Seminaive,
        Algorithm::ReachIndex,
    ];

    /// The implementation label used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Btc => "BTC",
            Algorithm::Hyb => "HYB",
            Algorithm::Bj => "BJ",
            Algorithm::Srch => "SRCH",
            Algorithm::Spn => "SPN",
            Algorithm::Jkb => "JKB",
            Algorithm::Jkb2 => "JKB2",
            Algorithm::Seminaive => "SEMINAIVE",
            Algorithm::ReachIndex => "REACHINDEX",
        }
    }

    /// Whether the algorithm needs the dual graph representation (an
    /// inverse relation clustered on the destination attribute).
    pub fn needs_inverse(self) -> bool {
        matches!(self, Algorithm::Jkb2)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A malformed trace line.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(reason: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        reason: reason.into(),
    })
}

/// Raw value after `key` (a `"name":` pattern) in `line`, up to the next
/// `,` or closing `}` (string values keep their quotes).
fn raw_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = match rest.strip_prefix('"') {
        Some(inner) => inner.find('"')? + 2,
        None => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

/// The inside of a quoted raw value.
fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// Parses the value after `key` as a `T`.
fn field<T: Field>(line: &str, key: &str) -> Result<T, ParseError> {
    match raw_value(line, key).and_then(T::parse) {
        Some(value) => Ok(value),
        None => err(format!(
            "missing or malformed field {}",
            key.trim_end_matches(':')
        )),
    }
}

/// What differs per field *type* rather than per event: how a value is
/// folded into a digest, printed as a JSON value and parsed back.
trait Field: Sized {
    /// Folds the canonical byte encoding.
    fn fold(self, h: &mut Fnv);
    /// Prints the JSON value. The vocabulary needs no string escaping:
    /// every string is a fixed identifier (algorithm, kind, fault, phase
    /// names).
    fn print<W: Write>(self, w: &mut W) -> io::Result<()>;
    /// Parses a raw JSON value (strings keep their quotes).
    fn parse(raw: &str) -> Option<Self>;
}

/// The four scalars: folded by the `Fnv` method of the same name,
/// printed and parsed by the standard library.
macro_rules! scalar_field {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            #[inline]
            fn fold(self, h: &mut Fnv) {
                h.$ty(self)
            }
            fn print<W: Write>(self, w: &mut W) -> io::Result<()> {
                write!(w, "{self}")
            }
            fn parse(raw: &str) -> Option<$ty> {
                raw.parse().ok()
            }
        }
    )*};
}

scalar_field!(u32, u64, f64, bool);

impl Field for Phase {
    #[inline]
    fn fold(self, h: &mut Fnv) {
        h.byte(self.code())
    }
    fn print<W: Write>(self, w: &mut W) -> io::Result<()> {
        write!(w, "\"{}\"", self.name())
    }
    fn parse(raw: &str) -> Option<Phase> {
        let name = unquote(raw)?;
        [Phase::Restructure, Phase::Compute]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

impl Field for Kind {
    #[inline]
    fn fold(self, h: &mut Fnv) {
        h.byte(self.idx() as u8)
    }
    fn print<W: Write>(self, w: &mut W) -> io::Result<()> {
        write!(w, "\"{}\"", self.name())
    }
    fn parse(raw: &str) -> Option<Kind> {
        let name = unquote(raw)?;
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl Field for FaultKind {
    #[inline]
    fn fold(self, h: &mut Fnv) {
        h.byte(self.code())
    }
    fn print<W: Write>(self, w: &mut W) -> io::Result<()> {
        write!(w, "\"{}\"", self.name())
    }
    fn parse(raw: &str) -> Option<FaultKind> {
        let name = unquote(raw)?;
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl Field for Algorithm {
    #[inline]
    fn fold(self, h: &mut Fnv) {
        h.str(self.name())
    }
    fn print<W: Write>(self, w: &mut W) -> io::Result<()> {
        write!(w, "\"{}\"", self.name())
    }
    fn parse(raw: &str) -> Option<Algorithm> {
        let name = unquote(raw)?;
        Algorithm::WITH_INDEX.into_iter().find(|a| a.name() == name)
    }
}

/// The `"name":` pattern of a field, shared by the encoder and the parser.
macro_rules! key {
    ($field:ident) => {
        concat!("\"", stringify!($field), "\":")
    };
}

/// Generates the vocabulary from one table. Per entry: doc comments, the
/// variant, its JSONL name, and its typed fields in canonical order —
/// the order they are folded and printed in. An entry's position in the
/// table is its digest discriminant byte, so entries are only ever
/// appended: moving one invalidates every pinned trace digest.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal $({
            $( $(#[$fdoc:meta])* $field:ident : $ty:ty ),* $(,)?
        })?
    ),* $(,)?) => {
        /// One traced unit of work.
        ///
        /// Page numbers are raw `u32` values (the storage layer's
        /// `PageId.0`): the crate is dependency-free by design, so it
        /// cannot name the newtypes of the layers above it.
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub enum Event {
            $( $(#[$doc])* $variant $({ $( $(#[$fdoc])* $field: $ty ),* })? ),*
        }

        /// Table positions, which are the digest discriminant bytes.
        enum Position {
            $( $variant ),*
        }

        impl Event {
            /// Every variant's [`Event::name`], in table order.
            pub const NAMES: [&'static str; [$( $name ),*].len()] = [$( $name ),*];

            /// The variant name, as used by the JSONL export's `ev` field.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $name ),*
                }
            }

            /// Writes the event as one JSON object on one line (JSONL):
            /// `ev` first, then every field under its own name.
            pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
                match *self {
                    $( Event::$variant $({ $( $field ),* })? => {
                        w.write_all(concat!("{\"ev\":\"", $name, "\"").as_bytes())?;
                        $($(
                            w.write_all(concat!(",", key!($field)).as_bytes())?;
                            $field.print(w)?;
                        )*)?
                    } )*
                }
                w.write_all(b"}\n")
            }

            /// Parses one JSONL line back into the event that wrote it.
            /// The exporter's dialect is flat and escape-free, so this
            /// parses exactly that, strictly enough to reject garbage
            /// with a typed error (never a panic).
            pub fn parse_jsonl(line: &str) -> Result<Event, ParseError> {
                let line = line.trim();
                if !(line.starts_with('{') && line.ends_with('}')) {
                    return err("not a JSON object");
                }
                let Some(ev) = raw_value(line, key!(ev)).and_then(unquote) else {
                    return err("missing string field \"ev\"");
                };
                match ev {
                    $( $name => Ok(Event::$variant $({
                        $( $field: field(line, key!($field))? ),*
                    })?), )*
                    other => err(format!("unknown event \"{other}\"")),
                }
            }

            /// Folds the canonical encoding: the discriminant byte, then
            /// the fields in declaration order.
            #[inline]
            pub(crate) fn fold(&self, h: &mut Fnv) {
                match *self {
                    $( Event::$variant $({ $( $field ),* })? => {
                        h.byte(Position::$variant as u8);
                        $($( $field.fold(h); )*)?
                    } )*
                }
            }
        }
    };
}

events! {
    // ---- Run structure ----
    /// A query execution started.
    RunBegin = "run_begin" {
        /// The run's algorithm, written as its [`Algorithm::name`]
        /// ("BTC", "SEMINAIVE", ...).
        algorithm: Algorithm,
        /// Configured milliseconds per page transfer (the I/O model).
        ms_per_io: f64,
    },
    /// The execution finished (buffer flushed, counters final).
    RunEnd = "run_end",
    /// A phase started.
    PhaseBegin = "phase_begin" {
        /// Which phase.
        phase: Phase,
    },
    /// A phase ended. The position of `PhaseEnd(Restructure)` in the
    /// stream is exactly where the engine snapshots its counters, so a
    /// replay fold can split per-phase totals at the same boundary.
    PhaseEnd = "phase_end" {
        /// Which phase.
        phase: Phase,
    },
    /// A fixpoint iteration started (Seminaive).
    IterationBegin = "iteration_begin" {
        /// 0-based iteration number.
        i: u64,
    },

    // ---- Physical storage (tc-storage) ----
    /// A successful physical page read.
    PageRead = "page_read" {
        /// Raw page number.
        page: u32,
        /// File kind of the page.
        kind: Kind,
    },
    /// A successful physical page write.
    PageWrite = "page_write" {
        /// Raw page number.
        page: u32,
        /// File kind of the page.
        kind: Kind,
    },
    /// The armed fault plan injected a fault into this transfer attempt
    /// (transient/permanent failure, or a silent torn write). The one
    /// record of a run's faults: the plan keeps no log of its own.
    FaultInjected = "fault_injected" {
        /// Raw page number.
        page: u32,
        /// Which fault.
        fault: FaultKind,
    },
    /// Checksum verification caught a corrupted page image on read.
    CorruptionDetected = "corruption_detected" {
        /// Raw page number.
        page: u32,
    },

    // ---- Buffer manager (tc-buffer) ----
    /// A page request satisfied from the pool.
    BufHit = "buf_hit" {
        /// Raw page number.
        page: u32,
        /// Whether the request was a read access.
        read: bool,
    },
    /// A page request that missed the pool (faulting the page in, or
    /// allocating a fresh page directly in a frame).
    BufMiss = "buf_miss" {
        /// Raw page number.
        page: u32,
        /// Whether the request was a read access.
        read: bool,
    },
    /// A frame eviction.
    Evict = "evict" {
        /// Raw page number of the victim.
        page: u32,
        /// Whether the victim was dirty (forced a write-back).
        dirty: bool,
    },
    /// A dirty page written back by an explicit flush (not an eviction).
    FlushWrite = "flush_write" {
        /// Raw page number.
        page: u32,
    },
    /// A page was pinned into its frame.
    Pin = "pin" {
        /// Raw page number.
        page: u32,
    },
    /// A pin was released.
    Unpin = "unpin" {
        /// Raw page number.
        page: u32,
    },
    /// A page transfer needed `n` re-attempts after transient faults.
    /// The store emits it, after the transfer's own events; it keeps its
    /// place in this table so every variant keeps its encoding.
    Retry = "retry" {
        /// Re-attempts performed.
        n: u64,
        /// Total simulated backoff charged, in milliseconds.
        backoff_ms: u64,
    },

    // ---- Logical work (tc-core) ----
    /// A successor list was fetched.
    ListFetch = "list_fetch",
    /// A successor-list union was performed.
    Union = "union",
    /// One arc was considered for expansion.
    ArcProcessed = "arc" {
        /// Whether the marking optimization skipped it.
        marked: bool,
    },
    /// `n` arcs were considered at once (bulk accounting; none marked).
    ArcsProcessed = "arcs" {
        /// Arc count.
        n: u64,
    },
    /// One entry was read from a successor structure.
    TupleRead = "tuple_read",
    /// `n` entries were read at once (bulk accounting).
    TupleReads = "tuple_reads" {
        /// Entry count.
        n: u64,
    },
    /// A distinct tuple was inserted into a successor structure.
    Generated = "generated" {
        /// Whether it belongs to a source node's result (an `stc` tuple).
        source: bool,
    },
    /// A derivation found its tuple already present.
    Duplicate = "duplicate",
    /// `n` duplicate derivations at once (bulk accounting).
    Duplicates = "duplicates" {
        /// Duplicate count.
        n: u64,
    },
    /// A tree union pruned `n` entries without processing them.
    Pruned = "pruned" {
        /// Pruned-entry count.
        n: u64,
    },
    /// An unmarked arc was expanded at level distance `delta`. Replay
    /// accumulates these in stream order, so the f64 sum is bit-identical
    /// to the engine's.
    Locality = "locality" {
        /// `level(i) − level(j)` of the expanded arc.
        delta: f64,
    },
    /// An answer tuple `(source, node)` was produced.
    TupleEmit = "tuple_emit" {
        /// Source node id.
        source: u32,
        /// Reached node id.
        node: u32,
    },
    /// Final count of entries appended to successor structures
    /// (assignment, not increment — emitted once per run).
    TupleWrites = "tuple_writes" {
        /// Entry count.
        n: u64,
    },
    /// Nodes of the (magic) graph processed (assignment semantics).
    MagicNodes = "magic_nodes" {
        /// Node count.
        n: u64,
    },
    /// Arcs of the (magic) graph processed (assignment semantics).
    MagicArcs = "magic_arcs" {
        /// Arc count.
        n: u64,
    },
    /// Rectangle model of the processed graph (assignment semantics).
    Rect = "rect" {
        /// Mean node level `H(G)`.
        height: f64,
        /// `|G| / H(G)`.
        width: f64,
        /// Maximum node level.
        max_level: u32,
        /// Arc count.
        arcs: u64,
        /// Node count.
        nodes: u64,
    },

    // ---- Page lifecycle (tc-buffer; declared last so the digest
    // discriminants of the original vocabulary stay stable) ----
    /// A fresh page was allocated directly into a buffer frame. This is
    /// the only event that names a page's file kind at birth, so a
    /// profile fold can attribute every later buffer event on the page.
    /// Pure observability: ignored by replay.
    PageAlloc = "page_alloc" {
        /// Raw page number.
        page: u32,
        /// File kind of the page.
        kind: Kind,
    },
    /// A page's file was discarded: the page number may be recycled for
    /// an unrelated file, so any later request of the same number is a
    /// *new* logical page. Emitted for every page of the freed file,
    /// resident or not, in allocation order. Pure observability: ignored
    /// by replay.
    PageFreed = "page_freed" {
        /// Raw page number.
        page: u32,
    },

    // ---- Dynamic maintenance (tc-core's DynamicClosure; appended
    // after the page-lifecycle group for the same digest-stability
    // reason) ----
    /// One arc update (insert or delete) entered the maintenance run.
    /// Pure observability: ignored by replay.
    UpdateApply = "update_apply" {
        /// Whether the update is an insertion (else a deletion).
        insert: bool,
        /// Source node of the updated arc.
        src: u32,
        /// Destination node of the updated arc.
        dst: u32,
    },
    /// The net closure delta of a maintenance run (assignment semantics,
    /// emitted once per `apply`). Pure observability: ignored by replay.
    DeltaApplied = "delta_applied" {
        /// Closure tuples added by the batch.
        inserted: u64,
        /// Closure tuples removed by the batch.
        removed: u64,
    },

    // ---- Reachability index (tc-reach; appended after the dynamic
    // group for the same digest-stability reason) ----
    /// A condensation component was appended to a chain during the
    /// concurrent-chain decomposition. Pure observability: ignored by
    /// replay.
    ChainAssigned = "chain_assigned" {
        /// Component id (condensation node).
        comp: u32,
        /// Chain the component was appended to.
        chain: u32,
        /// Position of the component on that chain.
        pos: u32,
    },
    /// The chain decomposition finished (assignment semantics, emitted
    /// once per build). `chains` is the width parameter k. Pure
    /// observability: ignored by replay.
    ChainsBuilt = "chains_built" {
        /// Number of chains (k).
        chains: u64,
        /// Number of condensation components decomposed.
        components: u64,
    },
    /// The interval-label matrix was persisted (assignment semantics,
    /// emitted once per build). Pure observability: ignored by replay.
    LabelsBuilt = "labels_built" {
        /// Label tuples written (`components × k`, sentinels included).
        entries: u64,
        /// Finite (reachable) label entries among them.
        finite: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_roundtrips() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_idx(k.idx()), k);
        }
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let events = [
            Event::RunBegin {
                algorithm: Algorithm::Btc,
                ms_per_io: 20.0,
            },
            Event::PageRead {
                page: 3,
                kind: Kind::SuccessorList,
            },
            Event::Locality { delta: 1.5 },
            Event::TupleEmit { source: 1, node: 9 },
            Event::RunEnd,
        ];
        let mut buf = Vec::new();
        for e in events {
            e.write_jsonl(&mut buf).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            assert!(
                line.starts_with("{\"ev\":\"") && line.ends_with('}'),
                "{line}"
            );
        }
        assert!(text.contains("\"algorithm\":\"BTC\""));
        assert!(text.contains("\"kind\":\"successor-list\""));
        assert!(text.contains("\"delta\":1.5"));
    }

    #[test]
    fn garbage_is_rejected_with_a_reason() {
        assert!(Event::parse_jsonl("not json").is_err());
        assert!(Event::parse_jsonl("{\"ev\":\"warp\"}").is_err());
        assert!(Event::parse_jsonl("{\"ev\":\"buf_hit\",\"page\":1}").is_err());
        assert!(Event::parse_jsonl("{\"ev\":\"page_read\",\"page\":1,\"kind\":\"nope\"}").is_err());
    }

    #[test]
    fn an_unknown_algorithm_is_a_parse_error() {
        let line = |name: &str| {
            format!("{{\"ev\":\"run_begin\",\"algorithm\":\"{name}\",\"ms_per_io\":20}}")
        };
        assert_eq!(
            Event::parse_jsonl(&line("XTC")),
            Err(ParseError {
                reason: "missing or malformed field \"algorithm\"".into()
            })
        );
        for a in Algorithm::WITH_INDEX {
            assert_eq!(
                Event::parse_jsonl(&line(a.name())),
                Ok(Event::RunBegin {
                    algorithm: a,
                    ms_per_io: 20.0,
                })
            );
        }
    }

    #[test]
    fn algorithm_names_unique() {
        let set: std::collections::HashSet<_> =
            Algorithm::WITH_INDEX.iter().map(|a| a.name()).collect();
        assert_eq!(set.len(), Algorithm::WITH_INDEX.len());
    }

    #[test]
    fn only_jkb2_needs_inverse() {
        for a in Algorithm::WITH_INDEX {
            assert_eq!(a.needs_inverse(), a == Algorithm::Jkb2);
        }
    }

    #[test]
    fn all_is_the_paper_suite_and_with_index_appends() {
        assert_eq!(Algorithm::ALL.len(), 8, "the paper studies eight");
        assert_eq!(&Algorithm::WITH_INDEX[..8], &Algorithm::ALL[..]);
        assert_eq!(Algorithm::WITH_INDEX[8], Algorithm::ReachIndex);
        // Cell-seed discriminants of the original suite must not move.
        assert_eq!(Algorithm::ReachIndex as u64, 8);
    }
}
