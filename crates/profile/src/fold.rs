//! The profile fold: one pass over an event stream into a [`Profile`].
//!
//! The fold is **byte-deterministic**: it uses only integer arithmetic,
//! every derived collection is emitted in a canonical order (page-id
//! order, kind-index order, stream order), and nothing depends on
//! wall-clock, process, or scheduling. Folding the same stream twice —
//! or folding it offline after folding it live through a
//! [`crate::ProfileSink`] — produces identical [`Profile`] values, so a
//! rendered report can be pinned by digest exactly like a trace.
//!
//! # Fold semantics
//!
//! *The ledger.* What an event counts is `tc_trace::Counts::on`'s to
//! say: every event is handed to the profile's embedded
//! [`Profile::counts`] first, and this fold adds only what is the
//! profile's own — the finer tables below, the page-state machine behind
//! them, residency and the hot-page histogram.
//!
//! *Physical attribution.* Every `PageRead`/`PageWrite` is attributed to
//! the ledger's current phase (restructuring until
//! `PhaseEnd(Restructure)`, the same boundary the engine snapshots) and
//! to the page's file kind carried by the event; per-iteration segments
//! accumulate the same transfers between `IterationBegin` markers.
//!
//! * *Buffer attribution.* Buffer events carry only raw page numbers, so
//! the fold maintains a page → kind map fed by the three events that
//! name a kind (`PageRead`, `PageWrite`, `PageAlloc`). A hit is
//! attributed immediately (a resident page's kind is always known); a
//! miss is attributed when it *resolves* — see below.
//!
//! *The pending-miss protocol.* Between a `BufMiss{p}` and the event
//! that completes the request, the only things a pool can emit are fault
//! retries and a victim eviction (with its write-back). The fold
//! therefore keeps at most one *pending miss*: `PageRead{p}` or
//! `PageAlloc{p}` resolves it successfully (the page becomes resident);
//! any other non-mid-fetch event resolves it as *failed* (the request
//! errored — e.g. all frames pinned, or an unretryable fault — and the
//! page is not resident). Failed requests are attributed to the page's
//! last known kind.
//!
//! # Miss taxonomy
//!
//! Every miss falls in exactly one class, decided by the missing page's
//! state at the time of the miss:
//!
//! * **cold** — the first request of a logical page: never requested
//!   before, or retired by `PageFreed` since (page ids are recycled
//!   across files, so a freed id's next request is a new logical page).
//! * **capacity** — a re-fetch of a page the replacement policy evicted
//!   to admit a page of a *different* file kind (or of a kind that never
//!   became known).
//! * **self** — a re-fetch of a page evicted to admit a page of the
//!   *same* file kind: the file thrashing against itself, the paper's
//!   successor-list pathology (§6).
//!
//! A victim's class is decided when the miss that evicted it resolves
//! (only then is the admitted page's kind known).

use tc_trace::{BufferStats, Counts, Event, Kind, PhaseIo};

/// Number of kind buckets: the six `tc_trace::Kind`s plus one
/// "unknown" bucket (index [`UNKNOWN`]) for pages whose kind never
/// appeared in the stream (partial traces, failed first requests).
pub const KIND_SLOTS: usize = 7;

/// Bucket index of the "unknown" kind.
pub const UNKNOWN: usize = 6;

/// Label of a kind bucket, for reports.
pub fn kind_label(slot: usize) -> &'static str {
    if slot < Kind::ALL.len() {
        Kind::ALL[slot].name()
    } else {
        "unknown"
    }
}

/// The three-way miss classification (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissClasses {
    /// First request of a logical page.
    pub cold: u64,
    /// Re-fetch after eviction by a different file kind (or unknown).
    pub capacity: u64,
    /// Re-fetch after eviction by the *same* file kind.
    pub self_refetch: u64,
}

impl MissClasses {
    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.cold + self.capacity + self.self_refetch
    }

    fn add(&mut self, class: MissClass) {
        match class {
            MissClass::Cold => self.cold += 1,
            MissClass::Capacity => self.capacity += 1,
            MissClass::SelfRefetch => self.self_refetch += 1,
        }
    }
}

/// One entry of the hot-page histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotPage {
    /// Raw page number (physical slot; recycled ids accumulate).
    pub page: u32,
    /// Kind bucket of the page's last known kind.
    pub kind: usize,
    /// Physical reads of the page.
    pub reads: u64,
    /// Physical writes of the page.
    pub writes: u64,
}

/// One residency-timeline sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidencySample {
    /// Stream position (events folded so far).
    pub event: u64,
    /// Pages resident in the pool at that position.
    pub resident: u64,
}

/// The derived profile of one event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Algorithm name of the first `RunBegin`, if any.
    pub algorithm: Option<String>,
    /// Configured milliseconds per page transfer, from `RunBegin`.
    pub ms_per_io: Option<f64>,
    /// Number of `RunBegin` events (a `tcq` trace may condense sub-runs).
    pub runs: u64,
    /// Events folded.
    pub events: u64,
    /// Physical transfers by phase (0 = restructuring, 1 = computation)
    /// and kind bucket.
    pub attribution: [[PhaseIo; KIND_SLOTS]; 2],
    /// Physical transfers per fixpoint iteration (stream order;
    /// empty for non-iterative algorithms).
    pub iterations: Vec<PhaseIo>,
    /// Top-K pages by physical transfer count (count-descending,
    /// page-id ascending on ties).
    pub hot_pages: Vec<HotPage>,
    /// Buffer-manager counters by kind bucket.
    pub buffer: [BufferStats; KIND_SLOTS],
    /// Miss classification by kind bucket.
    pub misses: [MissClasses; KIND_SLOTS],
    /// Buffer requests whose miss never resolved (the request errored).
    pub failed_requests: u64,
    /// Peak pages resident in the pool.
    pub max_resident: u64,
    /// Stream position where the peak was first reached.
    pub max_resident_at: u64,
    /// Residency timeline, sampled every
    /// [`ProfileFold::with_interval`] events (always includes a final
    /// sample at end of stream).
    pub residency: Vec<ResidencySample>,
    /// The stream's ledger: every counter `tc_trace::replay` would
    /// report for it (logical work, fault tallies, whole-stream page
    /// I/O and buffer totals). The tables above are finer views of the
    /// same events and sum to it.
    pub counts: Counts,
}

impl Profile {
    /// Physical I/O of the restructuring phase.
    pub fn restructure_io(&self) -> PhaseIo {
        sum_row(&self.attribution[0])
    }

    /// Physical I/O of the computation phase.
    pub fn compute_io(&self) -> PhaseIo {
        sum_row(&self.attribution[1])
    }

    /// Whole-run physical I/O by kind bucket.
    pub fn io_by_kind(&self, slot: usize) -> PhaseIo {
        self.attribution[0][slot].plus(&self.attribution[1][slot])
    }

    /// Whole-run physical reads.
    pub fn total_reads(&self) -> u64 {
        self.restructure_io().reads + self.compute_io().reads
    }

    /// Whole-run physical writes.
    pub fn total_writes(&self) -> u64 {
        self.restructure_io().writes + self.compute_io().writes
    }

    /// Whole-run physical page transfers.
    pub fn total_io(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Buffer counters summed over kind buckets.
    pub fn buffer_totals(&self) -> BufferStats {
        self.buffer
            .iter()
            .fold(BufferStats::default(), |t, b| t.plus(b))
    }

    /// Miss classes summed over kind buckets.
    pub fn miss_totals(&self) -> MissClasses {
        let mut t = MissClasses::default();
        for m in &self.misses {
            t.cold += m.cold;
            t.capacity += m.capacity;
            t.self_refetch += m.self_refetch;
        }
        t
    }
}

fn sum_row(row: &[PhaseIo; KIND_SLOTS]) -> PhaseIo {
    row.iter().fold(PhaseIo::default(), |t, c| t.plus(c))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MissClass {
    Cold,
    Capacity,
    SelfRefetch,
}

/// Per-page state machine (see the module docs' miss taxonomy).
#[derive(Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Never requested, or retired by `PageFreed`.
    New,
    /// In the pool.
    Resident,
    /// Evicted; the admitting kind is in the variant.
    Evicted {
        /// Whether the admitted page had the same kind as the victim.
        same_kind: bool,
    },
    /// Evicted while the evicting miss is still pending.
    EvictedPending,
}

#[derive(Clone, Copy)]
struct Slot {
    kind: usize,
    state: PageState,
    io: PhaseIo,
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            kind: UNKNOWN,
            state: PageState::New,
            io: PhaseIo::default(),
        }
    }
}

struct Pending {
    page: u32,
    read: bool,
    class: MissClass,
    kind_hint: usize,
    /// Victims evicted while this miss was pending, classified when the
    /// miss resolves and the admitted kind becomes known.
    victims: Vec<u32>,
}

/// Default residency sampling interval, in events.
pub const DEFAULT_INTERVAL: u64 = 65_536;

/// Default hot-page histogram size.
pub const DEFAULT_TOP_K: usize = 10;

/// Streaming fold of an event stream into a [`Profile`].
pub struct ProfileFold {
    profile: Profile,
    slots: Vec<Slot>,
    pending: Option<Pending>,
    resident: u64,
    interval: u64,
    top_k: usize,
}

impl Default for ProfileFold {
    fn default() -> Self {
        ProfileFold::new()
    }
}

impl ProfileFold {
    /// A fresh fold with the default sampling interval and top-K.
    pub fn new() -> ProfileFold {
        ProfileFold {
            profile: Profile::default(),
            slots: Vec::new(),
            pending: None,
            resident: 0,
            interval: DEFAULT_INTERVAL,
            top_k: DEFAULT_TOP_K,
        }
    }

    /// Sets the residency sampling interval (events per sample; min 1).
    pub fn with_interval(mut self, interval: u64) -> ProfileFold {
        self.interval = interval.max(1);
        self
    }

    /// Sets the hot-page histogram size.
    pub fn with_top_k(mut self, k: usize) -> ProfileFold {
        self.top_k = k;
        self
    }

    fn slot(&mut self, page: u32) -> &mut Slot {
        let i = page as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        &mut self.slots[i]
    }

    fn note_resident(&mut self) {
        self.resident += 1;
        if self.resident > self.profile.max_resident {
            self.profile.max_resident = self.resident;
            self.profile.max_resident_at = self.profile.events;
        }
    }

    /// Classifies `victims` now that the admitting kind is known.
    fn settle_victims(&mut self, victims: &[u32], admitted_kind: usize) {
        for &v in victims {
            let s = self.slot(v);
            if s.state == PageState::EvictedPending {
                s.state = PageState::Evicted {
                    same_kind: admitted_kind != UNKNOWN && s.kind == admitted_kind,
                };
            }
        }
    }

    /// Resolves the pending miss, attributing it to `kind` (and marking
    /// the page resident) on success, or to its last known kind on
    /// failure.
    fn resolve_pending(&mut self, success_kind: Option<usize>) {
        let Some(p) = self.pending.take() else { return };
        let kind = match success_kind {
            Some(k) => k,
            None => p.kind_hint,
        };
        self.profile.buffer[kind].on(&Event::BufMiss {
            page: p.page,
            read: p.read,
        });
        self.profile.misses[kind].add(p.class);
        if let Some(k) = success_kind {
            let s = self.slot(p.page);
            s.kind = k;
            s.state = PageState::Resident;
            self.note_resident();
        } else {
            self.profile.failed_requests += 1;
        }
        self.settle_victims(&p.victims, success_kind.unwrap_or(UNKNOWN));
    }

    /// Attributes one physical transfer to phase, kind, iteration and
    /// the page's histogram slot.
    fn physical(&mut self, page: u32, kind: Kind, write: bool) {
        let k = kind.idx();
        let phase = self.profile.counts.phase().code() as usize;
        self.profile.attribution[phase][k].bump(write);
        if let Some(i) = self.profile.iterations.last_mut() {
            i.bump(write);
        }
        let s = self.slot(page);
        s.kind = k;
        s.io.bump(write);
    }

    /// Folds one event.
    pub fn push(&mut self, ev: Event) {
        // The only events that can occur between a `BufMiss` and the
        // `PageRead`/`PageAlloc` that completes it are fault retries and
        // the victim's eviction (with its write-back). Anything else
        // means the pending request failed.
        let keeps_pending = match ev {
            Event::Retry { .. }
            | Event::FaultInjected { .. }
            | Event::CorruptionDetected { .. }
            | Event::Evict { .. }
            | Event::PageWrite { .. } => true,
            Event::PageRead { page, .. } | Event::PageAlloc { page, .. } => {
                matches!(&self.pending, Some(p) if p.page == page)
            }
            _ => false,
        };
        if !keeps_pending {
            self.resolve_pending(None);
        }

        self.profile.counts.on(&ev);
        match ev {
            Event::RunBegin {
                algorithm,
                ms_per_io,
            } => {
                if self.profile.runs == 0 {
                    self.profile.algorithm = Some(algorithm.to_string());
                    self.profile.ms_per_io = Some(ms_per_io);
                }
                self.profile.runs += 1;
                // A new run means a new pool and a new page space:
                // reset residency and page states (histogram counts are
                // kept — they aggregate across sub-runs).
                if self.profile.runs > 1 {
                    for s in &mut self.slots {
                        s.state = PageState::New;
                        s.kind = UNKNOWN;
                    }
                    self.resident = 0;
                }
            }
            Event::IterationBegin { .. } => {
                self.profile.iterations.push(PhaseIo::default());
            }
            Event::PageRead { page, kind } => {
                if matches!(&self.pending, Some(p) if p.page == page) {
                    self.resolve_pending(Some(kind.idx()));
                }
                self.physical(page, kind, false);
            }
            Event::PageWrite { page, kind } => {
                self.physical(page, kind, true);
            }
            Event::PageAlloc { page, kind } => {
                if matches!(&self.pending, Some(p) if p.page == page) {
                    self.resolve_pending(Some(kind.idx()));
                } else {
                    // Foreign stream: admit the page anyway.
                    let s = self.slot(page);
                    s.kind = kind.idx();
                    let newly = s.state != PageState::Resident;
                    s.state = PageState::Resident;
                    if newly {
                        self.note_resident();
                    }
                }
            }
            Event::BufHit { page, .. } | Event::FlushWrite { page } => {
                let kind = self.slot(page).kind;
                self.profile.buffer[kind].on(&ev);
            }
            Event::BufMiss { page, read } => {
                let s = self.slot(page);
                let class = match s.state {
                    PageState::New => MissClass::Cold,
                    PageState::Evicted { same_kind: true } => MissClass::SelfRefetch,
                    PageState::Evicted { same_kind: false } | PageState::EvictedPending => {
                        MissClass::Capacity
                    }
                    // A miss on a page the model believes resident can
                    // only happen on a partial/foreign stream; treat it
                    // as a fresh page.
                    PageState::Resident => MissClass::Cold,
                };
                let kind_hint = s.kind;
                let was_resident = s.state == PageState::Resident;
                if was_resident {
                    s.state = PageState::New;
                }
                if was_resident {
                    self.resident = self.resident.saturating_sub(1);
                }
                self.pending = Some(Pending {
                    page,
                    read,
                    class,
                    kind_hint,
                    victims: Vec::new(),
                });
            }
            Event::Evict { page, .. } => {
                let (kind, was_resident) = {
                    let s = self.slot(page);
                    let r = (s.kind, s.state == PageState::Resident);
                    s.state = PageState::EvictedPending;
                    r
                };
                if was_resident {
                    self.resident = self.resident.saturating_sub(1);
                }
                self.profile.buffer[kind].on(&ev);
                match &mut self.pending {
                    Some(p) => p.victims.push(page),
                    // No pending miss (foreign stream): the admitting
                    // kind will never be known — classify as capacity.
                    None => self.settle_victims(&[page], UNKNOWN),
                }
            }
            Event::PageFreed { page } => {
                let was_resident = {
                    let s = self.slot(page);
                    let r = s.state == PageState::Resident;
                    s.state = PageState::New;
                    s.kind = UNKNOWN;
                    r
                };
                if was_resident {
                    self.resident = self.resident.saturating_sub(1);
                }
            }
            // Counted by the ledger alone; nothing finer to attribute.
            _ => {}
        }

        self.profile.events += 1;
        if self.profile.events % self.interval == 0 {
            self.profile.residency.push(ResidencySample {
                event: self.profile.events,
                resident: self.resident,
            });
        }
    }

    /// Completes the fold: resolves a dangling pending miss, appends the
    /// final residency sample, and computes the hot-page histogram.
    pub fn finish(mut self) -> Profile {
        self.resolve_pending(None);
        let last_sampled = self
            .profile
            .residency
            .last()
            .map(|s| s.event)
            .unwrap_or(u64::MAX);
        if last_sampled != self.profile.events {
            self.profile.residency.push(ResidencySample {
                event: self.profile.events,
                resident: self.resident,
            });
        }
        let mut hot: Vec<HotPage> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.io.total() > 0)
            .map(|(page, s)| HotPage {
                page: page as u32,
                kind: s.kind,
                reads: s.io.reads,
                writes: s.io.writes,
            })
            .collect();
        hot.sort_by(|a, b| {
            (b.reads + b.writes)
                .cmp(&(a.reads + a.writes))
                .then(a.page.cmp(&b.page))
        });
        hot.truncate(self.top_k);
        self.profile.hot_pages = hot;
        self.profile
    }
}

/// Folds a complete event sequence with default settings.
pub fn profile_events(events: impl IntoIterator<Item = Event>) -> Profile {
    let mut fold = ProfileFold::new();
    for ev in events {
        fold.push(ev);
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_trace::Phase;

    fn k(i: usize) -> Kind {
        Kind::from_idx(i)
    }

    fn fetch(fold: &mut ProfileFold, page: u32, kind: Kind) {
        fold.push(Event::BufMiss { page, read: true });
        fold.push(Event::PageRead { page, kind });
    }

    #[test]
    fn attribution_splits_at_the_phase_boundary() {
        let mut f = ProfileFold::new();
        f.push(Event::RunBegin {
            algorithm: tc_trace::Algorithm::Btc,
            ms_per_io: 20.0,
        });
        fetch(&mut f, 0, k(0));
        f.push(Event::PhaseEnd {
            phase: Phase::Restructure,
        });
        fetch(&mut f, 1, k(3));
        f.push(Event::PageWrite {
            page: 1,
            kind: k(3),
        });
        let p = f.finish();
        assert_eq!(
            p.restructure_io(),
            PhaseIo {
                reads: 1,
                writes: 0
            }
        );
        assert_eq!(
            p.compute_io(),
            PhaseIo {
                reads: 1,
                writes: 1
            }
        );
        assert_eq!(p.attribution[1][3].writes, 1);
        assert_eq!(p.total_io(), 3);
        assert_eq!(p.algorithm.as_deref(), Some("BTC"));
    }

    #[test]
    fn miss_classes_follow_the_taxonomy() {
        let mut f = ProfileFold::new();
        // Cold fetch of page 0 (successor-list).
        fetch(&mut f, 0, k(3));
        // Page 1 (same kind) evicts page 0 -> page 0's next miss is a
        // self-refetch.
        f.push(Event::BufMiss {
            page: 1,
            read: true,
        });
        f.push(Event::Evict {
            page: 0,
            dirty: false,
        });
        f.push(Event::PageRead {
            page: 1,
            kind: k(3),
        });
        fetch(&mut f, 0, k(3));
        // Page 2 (relation) evicts page 1 -> page 1's next miss is a
        // capacity miss.
        f.push(Event::BufMiss {
            page: 2,
            read: true,
        });
        f.push(Event::Evict {
            page: 1,
            dirty: false,
        });
        f.push(Event::PageRead {
            page: 2,
            kind: k(0),
        });
        fetch(&mut f, 1, k(3));
        // Freeing page 2 retires it: its next miss is cold again.
        f.push(Event::PageFreed { page: 2 });
        fetch(&mut f, 2, k(4));
        let p = f.finish();
        let m = p.miss_totals();
        assert_eq!(m.cold, 4); // pages 0, 1, 2, and 2-after-free
        assert_eq!(m.self_refetch, 1);
        assert_eq!(m.capacity, 1);
        assert_eq!(m.total(), p.buffer_totals().misses);
    }

    #[test]
    fn failed_requests_do_not_become_resident() {
        let mut f = ProfileFold::new();
        fetch(&mut f, 0, k(0));
        // A miss that never resolves (e.g. all frames pinned).
        f.push(Event::BufMiss {
            page: 1,
            read: true,
        });
        f.push(Event::BufHit {
            page: 0,
            read: true,
        });
        let p = f.finish();
        assert_eq!(p.failed_requests, 1);
        assert_eq!(p.max_resident, 1);
        let t = p.buffer_totals();
        assert_eq!(t.requests, 3);
        assert_eq!(t.misses, 2);
        assert_eq!(t.hits, 1);
    }

    #[test]
    fn residency_tracks_evictions_and_frees() {
        let mut f = ProfileFold::new().with_interval(1);
        fetch(&mut f, 0, k(0));
        fetch(&mut f, 1, k(0));
        f.push(Event::BufMiss {
            page: 2,
            read: true,
        });
        f.push(Event::Evict {
            page: 0,
            dirty: true,
        });
        f.push(Event::PageRead {
            page: 2,
            kind: k(0),
        });
        f.push(Event::PageFreed { page: 1 });
        let p = f.finish();
        assert_eq!(p.max_resident, 2);
        let last = p.residency.last().copied();
        assert_eq!(last.map(|s| s.resident), Some(1));
        assert_eq!(p.buffer[0].evictions, 1);
        assert_eq!(p.buffer[0].dirty_writebacks, 1);
    }

    #[test]
    fn alloc_resolves_a_non_read_miss() {
        let mut f = ProfileFold::new();
        f.push(Event::BufMiss {
            page: 0,
            read: false,
        });
        f.push(Event::PageAlloc {
            page: 0,
            kind: k(4),
        });
        let p = f.finish();
        assert_eq!(p.buffer[4].misses, 1);
        assert_eq!(p.misses[4].cold, 1);
        assert_eq!(p.max_resident, 1);
        assert_eq!(p.failed_requests, 0);
    }

    #[test]
    fn hot_pages_rank_by_traffic_then_page_id() {
        let mut f = ProfileFold::new().with_top_k(2);
        for _ in 0..3 {
            f.push(Event::PageRead {
                page: 7,
                kind: k(0),
            });
        }
        f.push(Event::PageRead {
            page: 2,
            kind: k(1),
        });
        f.push(Event::PageWrite {
            page: 9,
            kind: k(1),
        });
        let p = f.finish();
        assert_eq!(p.hot_pages.len(), 2);
        assert_eq!(p.hot_pages[0].page, 7);
        assert_eq!(p.hot_pages[0].reads, 3);
        assert_eq!(p.hot_pages[1].page, 2);
    }
}
