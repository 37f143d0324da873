//! Schema pin for the trace vocabulary, independent of the `events!`
//! table that generates it.
//!
//! One hand-written event per variant, with the bytes the *hand-written*
//! encoder, parser and digest fold produced for them at commit 2ff790d
//! (the last tree before the vocabulary became a single table; values
//! recomputed there on a scratch checkout). The generated code must
//! reproduce them exactly, so an edit to the table or to a field impl
//! that moves a discriminant, a field order, a key or a number format
//! fails here even if it is self-consistent. `decode_exactness.rs`
//! (hand-encoded bytes vs `Fnv::event`) is the second, independent
//! oracle and is not derived from this list.
//!
//! A new variant fails `pinned_list_covers_the_whole_vocabulary` until
//! it is appended to [`pinned_events`] and the constants are re-pinned
//! (PINS.md).

use std::io::Write;
use std::sync::{Arc, Mutex};
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::graph::DagGenerator;
use tc_study::profile::profile_jsonl;
use tc_study::trace::{
    digest_events, DigestSink, Event, Fnv, JsonlSink, Kind, ParseError, Phase, TeeSink,
    TraceDigest, Tracer,
};

/// `digest_events` of [`pinned_events`] at 2ff790d.
const PINNED_DIGEST: TraceDigest = TraceDigest {
    hash: 0x26C37A5AB7E19FE2,
    count: 39,
};
/// Length and byte-wise FNV-1a of their concatenated `write_jsonl`
/// lines at 2ff790d, re-pinned once since: `FaultInjected` names its
/// kind (`"fault":"transient-write"` where it said `"write":true`).
const PINNED_JSONL: (usize, u64) = (1388, 0x83486584DA912392);

/// One event per variant. Order and values are part of the pin.
fn pinned_events() -> [Event; 39] {
    [
        Event::RunBegin {
            algorithm: Algorithm::Seminaive,
            ms_per_io: 20.0,
        },
        Event::PhaseBegin {
            phase: Phase::Restructure,
        },
        Event::PhaseEnd {
            phase: Phase::Restructure,
        },
        Event::IterationBegin { i: 3 },
        Event::PageRead {
            page: 7,
            kind: Kind::SuccessorList,
        },
        Event::PageWrite {
            page: 8,
            kind: Kind::Temp,
        },
        Event::PageAlloc {
            page: 9,
            kind: Kind::Output,
        },
        Event::PageFreed { page: 9 },
        Event::FaultInjected {
            page: 1,
            fault: FaultKind::TransientWrite,
        },
        Event::CorruptionDetected { page: 2 },
        Event::BufHit {
            page: 3,
            read: true,
        },
        Event::BufMiss {
            page: 4,
            read: false,
        },
        Event::Evict {
            page: 5,
            dirty: true,
        },
        Event::FlushWrite { page: 6 },
        Event::Pin { page: 1 },
        Event::Unpin { page: 1 },
        Event::Retry {
            n: 2,
            backoff_ms: 30,
        },
        Event::ListFetch,
        Event::Union,
        Event::ArcProcessed { marked: false },
        Event::ArcsProcessed { n: 4 },
        Event::TupleRead,
        Event::TupleReads { n: 5 },
        Event::Generated { source: true },
        Event::Duplicate,
        Event::Duplicates { n: 6 },
        Event::Pruned { n: 7 },
        Event::Locality { delta: -1.5 },
        Event::TupleEmit { source: 1, node: 2 },
        Event::TupleWrites { n: 8 },
        Event::MagicNodes { n: 9 },
        Event::MagicArcs { n: 10 },
        Event::Rect {
            height: 2.5,
            width: 4.0,
            max_level: 5,
            arcs: 11,
            nodes: 12,
        },
        Event::UpdateApply {
            insert: true,
            src: 3,
            dst: 14,
        },
        Event::DeltaApplied {
            inserted: 15,
            removed: 4,
        },
        Event::ChainAssigned {
            comp: 7,
            chain: 1,
            pos: 3,
        },
        Event::ChainsBuilt {
            chains: 2,
            components: 16,
        },
        Event::LabelsBuilt {
            entries: 32,
            finite: 20,
        },
        Event::RunEnd,
    ]
}

fn jsonl_of(events: &[Event]) -> String {
    let mut buf = Vec::new();
    for e in events {
        e.write_jsonl(&mut buf).expect("write to a Vec");
    }
    String::from_utf8(buf).expect("the dialect is ASCII")
}

#[test]
fn generated_encodings_match_the_hand_written_ones() {
    let events = pinned_events();
    assert_eq!(digest_events(&events), PINNED_DIGEST, "digest fold moved");

    let text = jsonl_of(&events);
    assert_eq!(
        (text.len(), Fnv::bytes(text.as_bytes())),
        PINNED_JSONL,
        "JSONL bytes moved:\n{text}"
    );

    let parsed: Vec<Event> = text
        .lines()
        .map(|l| Event::parse_jsonl(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect();
    assert_eq!(parsed, events, "a line did not parse back to its event");
}

#[test]
fn pinned_list_covers_the_whole_vocabulary() {
    let mut pinned = pinned_events().map(|e| e.name());
    let mut all = Event::NAMES;
    pinned.sort_unstable();
    all.sort_unstable();
    assert_eq!(
        pinned, all,
        "append the new variant to pinned_events() and re-pin the constants"
    );
}

/// Byte mutations (flip, delete, insert, truncate) of the pinned lines,
/// every line once per case: the parser returns an event or a typed
/// `ParseError`, never panics, and whatever it accepts is a real event —
/// one that writes a line that parses back to the same line.
#[test]
fn mutated_lines_parse_or_fail_typed() {
    let text = jsonl_of(&pinned_events());
    let mutated = |rng: &mut tc_study::det::Rng, line: &str| {
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..rng.random_range(1..4usize) {
            let at = rng.random_range(0..bytes.len().max(1));
            match rng.random_range(0..4u32) {
                0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.random_range(0..8u32),
                1 if !bytes.is_empty() => drop(bytes.remove(at)),
                2 => bytes.insert(at, rng.next_u32() as u8),
                _ => bytes.truncate(at),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    };
    Checker::new("mutated_lines_parse_or_fail_typed").run(
        |rng| text.lines().map(|l| mutated(rng, l)).collect::<Vec<_>>(),
        check::shrink_vec,
        |lines| {
            for line in lines {
                let parsed = std::panic::catch_unwind(|| Event::parse_jsonl(line))
                    .map_err(|_| format!("parser panicked on {line:?}"))?;
                let Ok(ev) = parsed else {
                    continue;
                };
                let written = jsonl_of(&[ev]);
                let again = Event::parse_jsonl(&written).map_err(|e| {
                    format!("{line:?} parsed to {ev:?}, which wrote {written:?}: {e}")
                })?;
                tc_study::det::require_eq!(jsonl_of(&[again]), written, "{line:?} -> {ev:?}");
            }
            Ok(())
        },
    );
}

/// A fault names its kind: every kind writes a line that parses back to
/// the event that wrote it, and the `write` flag the event carried before
/// it named its kind is a typed error, so a trace exported before that
/// change is refused rather than misread.
#[test]
fn every_fault_kind_round_trips_and_the_old_flag_is_refused() {
    for fault in FaultKind::ALL {
        let ev = Event::FaultInjected { page: 5, fault };
        let line = jsonl_of(&[ev]);
        let name = fault.name();
        assert_eq!(
            line,
            format!("{{\"ev\":\"fault_injected\",\"page\":5,\"fault\":\"{name}\"}}\n")
        );
        assert_eq!(Event::parse_jsonl(&line), Ok(ev), "{line}");
    }
    let old = Event::parse_jsonl("{\"ev\":\"fault_injected\",\"page\":5,\"write\":true}");
    match old {
        Err(ParseError { reason }) => assert!(reason.contains("fault"), "{reason}"),
        Ok(ev) => panic!("the old form parsed as {ev:?}"),
    }
}

/// A `Write` whose bytes stay reachable after a sink takes ownership.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("no writer panicked").write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Regression: the parser interned eight algorithm names while the
/// engine runs nine, so a REACHINDEX trace came back as `"?"`.
#[test]
fn a_reachindex_trace_parses_back_as_itself() {
    let g = DagGenerator::new(300, 3.0, 40).seed(5).generate();
    let mut db = Database::build(&g, false).expect("build");
    let digest = Arc::new(DigestSink::new());
    let buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlSink::new(buf.clone()));
    let tee = TeeSink::new(vec![digest.clone(), jsonl.clone()]);
    let cfg = SystemConfig::with_buffer(10).traced(Tracer::new(Arc::new(tee)));
    db.run(&Query::partial(vec![1, 17]), Algorithm::ReachIndex, &cfg)
        .expect("run");
    jsonl.finish().expect("flush");

    let bytes = buf.0.lock().expect("no writer panicked").clone();
    let text = String::from_utf8(bytes).expect("the dialect is ASCII");
    let parsed: Vec<Event> = text
        .lines()
        .map(|l| Event::parse_jsonl(l).unwrap_or_else(|e| panic!("{l}: {e}")))
        .collect();
    assert_eq!(digest_events(&parsed), digest.digest());
    let profile = profile_jsonl(text.as_bytes()).expect("fold");
    assert_eq!(profile.algorithm.as_deref(), Some("REACHINDEX"));
}
