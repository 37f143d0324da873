//! Deterministic fault injection for the simulated disk.
//!
//! The paper treats the disk as infallible; a production reachability
//! store cannot. This module lets a test (or an experiment) arm a
//! [`FaultPlan`] on a [`crate::DiskSim`] so that individual page
//! transfers fail or silently corrupt according to a *seeded,
//! bit-reproducible* schedule: the same [`FaultConfig`] replays the same
//! failure trace on every run, because every decision flows from a
//! `tc-det` stream indexed by the global I/O-operation counter.
//!
//! ## Fault kinds
//!
//! * [`FaultKind::TransientRead`] / [`FaultKind::TransientWrite`] — the
//!   attempt fails with [`StorageError::TransientIo`]; an immediate retry
//!   may succeed, and the store retries it (4 attempts in all). The plan
//!   caps consecutive probability-drawn transient failures at
//!   [`FaultConfig::max_transient_streak`]: below the budget they always
//!   clear, at or above it a request can end in
//!   [`StorageError::RetriesExhausted`].
//! * [`FaultKind::PermanentRead`] — the page becomes permanently
//!   unreadable; every subsequent read fails with
//!   [`StorageError::PermanentFault`]. Not retryable.
//! * [`FaultKind::Corrupt`] — the write is *torn*: it reports success but
//!   flips one byte of the stored image without updating the page's
//!   checksum. The next physical read of the page detects the damage and
//!   fails with [`StorageError::ChecksumMismatch`]. Not retryable (the
//!   stored image itself is damaged).
//!
//! ## Determinism contract
//!
//! Faults are decided per *physical page-transfer attempt*, in order: the
//! disk keeps one global op counter covering reads and writes (retries
//! are fresh attempts and consume fresh op indexes). A decision is either
//! an explicit [`ScheduledFault`] match or a single uniform draw from the
//! plan's seeded [`tc_det::Rng`] (one draw per attempt whenever any
//! probability is non-zero). Failed attempts are *not* counted in
//! [`crate::DiskStats`] — those counters keep recording exactly the
//! successful transfers, so a run under a transient-only plan reports the
//! same page-I/O metrics as its fault-free twin, with only the retry
//! counters differing.
//!
//! Every injection (and every checksum detection) is appended to the
//! plan's [`FaultEvent`] trace, which is what the golden fault-trace test
//! pins, and the per-kind breakdown of a run's faults. The plan keeps no
//! counters of its own: the store folds the `FaultInjected` /
//! `CorruptionDetected` events it emits for them into
//! [`crate::DiskStats`], so a run's fault tallies are its `DiskStats`
//! delta, like its page I/O.

use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, PAGE_SIZE};
use std::fmt;
use tc_det::Rng;

/// The kinds of storage fault the plan can inject.
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
    /// Whether this kind applies to read attempts (vs. write attempts).
    fn is_read_kind(self) -> bool {
        matches!(self, FaultKind::TransientRead | FaultKind::PermanentRead)
    }

    /// Stable single-byte encoding, used by trace checksums.
    pub fn code(self) -> u8 {
        match self {
            FaultKind::TransientRead => 0,
            FaultKind::TransientWrite => 1,
            FaultKind::PermanentRead => 2,
            FaultKind::Corrupt => 3,
        }
    }
}

/// What actually happened when a fault fired (or was caught).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FaultOutcome {
    /// The attempt failed with a retryable [`StorageError::TransientIo`].
    FailedTransient,
    /// The attempt failed with [`StorageError::PermanentFault`].
    FailedPermanent,
    /// The write succeeded but the stored image was silently corrupted.
    SilentlyCorrupted,
    /// A read's checksum verification caught a corrupted image and failed
    /// with [`StorageError::ChecksumMismatch`].
    Detected,
}

impl FaultOutcome {
    /// Stable single-byte encoding, used by trace checksums.
    pub fn code(self) -> u8 {
        match self {
            FaultOutcome::FailedTransient => 0,
            FaultOutcome::FailedPermanent => 1,
            FaultOutcome::SilentlyCorrupted => 2,
            FaultOutcome::Detected => 3,
        }
    }
}

/// One entry of a fault trace: what was injected (or detected), where,
/// and at which position of the global I/O-attempt sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Index of the physical page-transfer attempt (reads and writes
    /// share one counter; failed attempts consume indexes too).
    pub op: u64,
    /// The page involved.
    pub page: PageId,
    /// The fault kind.
    pub kind: FaultKind,
    /// What happened.
    pub outcome: FaultOutcome,
}

/// An explicit fault to inject, matched against each attempt.
///
/// `op`/`page` are optional filters: `None` matches any value, so
/// `{op: None, page: Some(p), kind: PermanentRead}` kills page `p` on its
/// first read wherever that falls, while `{op: Some(k), page: None, ..}`
/// targets the `k`-th attempt whatever page it touches. An entry whose
/// kind does not apply to the attempt's direction (e.g. a read-kind fault
/// on a write attempt) is ignored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduledFault {
    /// Attempt index to match (`None` = every attempt).
    pub op: Option<u64>,
    /// Page to match (`None` = every page).
    pub page: Option<PageId>,
    /// What to inject.
    pub kind: FaultKind,
}

/// Configuration of a deterministic fault plan.
///
/// Probabilities are per *attempt*; they may be combined with explicit
/// [`ScheduledFault`] entries (the schedule takes precedence). The same
/// config always replays the same failure trace for the same workload.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the plan's decision stream.
    pub seed: u64,
    /// Probability that a read attempt fails transiently.
    pub p_transient_read: f64,
    /// Probability that a write attempt fails transiently.
    pub p_transient_write: f64,
    /// Probability that a read attempt kills its page permanently.
    pub p_permanent_read: f64,
    /// Probability that a write attempt silently corrupts the page.
    pub p_corrupt_write: f64,
    /// Cap on *consecutive* probability-drawn transient failures. Below
    /// the store's budget of 4 attempts, transient faults always clear on
    /// retry; at 4 or more a request can exhaust it. Scheduled faults are
    /// exempt.
    pub max_transient_streak: u32,
    /// Explicit faults, checked before the probability draw.
    pub schedule: Vec<ScheduledFault>,
}

impl FaultConfig {
    /// A no-fault plan with the given seed (add faults via the builders).
    pub fn new(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            p_transient_read: 0.0,
            p_transient_write: 0.0,
            p_permanent_read: 0.0,
            p_corrupt_write: 0.0,
            max_transient_streak: 2,
            schedule: Vec::new(),
        }
    }

    /// Builder: transient read-failure probability.
    pub fn transient_reads(mut self, p: f64) -> Self {
        self.p_transient_read = p;
        self
    }

    /// Builder: transient write-failure probability.
    pub fn transient_writes(mut self, p: f64) -> Self {
        self.p_transient_write = p;
        self
    }

    /// Builder: permanent page-failure probability (reads).
    pub fn permanent_reads(mut self, p: f64) -> Self {
        self.p_permanent_read = p;
        self
    }

    /// Builder: silent-corruption probability (writes).
    pub fn corrupt_writes(mut self, p: f64) -> Self {
        self.p_corrupt_write = p;
        self
    }

    /// Builder: cap on consecutive probability-drawn transient failures.
    pub fn max_transient_streak(mut self, n: u32) -> Self {
        self.max_transient_streak = n;
        self
    }

    /// Builder: inject `kind` at attempt `op` (any page).
    pub fn at_op(mut self, op: u64, kind: FaultKind) -> Self {
        self.schedule.push(ScheduledFault {
            op: Some(op),
            page: None,
            kind,
        });
        self
    }

    /// Builder: inject `kind` on every attempt touching `page`.
    pub fn on_page(mut self, page: PageId, kind: FaultKind) -> Self {
        self.schedule.push(ScheduledFault {
            op: None,
            page: Some(page),
            kind,
        });
        self
    }

    fn p_read_any(&self) -> f64 {
        self.p_permanent_read + self.p_transient_read
    }

    fn p_write_any(&self) -> f64 {
        self.p_corrupt_write + self.p_transient_write
    }
}

/// A live fault plan, armed on any [`crate::PageStore`] with
/// [`crate::PageStore::set_fault_plan`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Rng,
    op: u64,
    transient_streak: u32,
    dead_pages: Vec<PageId>,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Instantiates a plan from its configuration.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            rng: Rng::from_seed(cfg.seed),
            cfg,
            op: 0,
            transient_streak: 0,
            dead_pages: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The fault trace so far, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Consumes the plan, returning the fault trace.
    pub fn into_events(self) -> Vec<FaultEvent> {
        self.events
    }

    /// Physical page-transfer attempts observed so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    fn scheduled(&self, op: u64, pid: PageId, read: bool) -> Option<FaultKind> {
        self.cfg
            .schedule
            .iter()
            .find(|s| {
                s.kind.is_read_kind() == read
                    && s.op.map_or(true, |o| o == op)
                    && s.page.map_or(true, |p| p == pid)
            })
            .map(|s| s.kind)
    }

    fn record(&mut self, op: u64, page: PageId, kind: FaultKind, outcome: FaultOutcome) {
        self.events.push(FaultEvent {
            op,
            page,
            kind,
            outcome,
        });
    }

    /// Decides the fate of a read attempt on `pid`. Returns the attempt's
    /// op index on success; an injected failure otherwise.
    pub(crate) fn on_read(&mut self, pid: PageId) -> StorageResult<u64> {
        let op = self.op;
        self.op += 1;
        if self.dead_pages.contains(&pid) {
            self.record(
                op,
                pid,
                FaultKind::PermanentRead,
                FaultOutcome::FailedPermanent,
            );
            return Err(StorageError::PermanentFault(pid));
        }
        let scheduled = self.scheduled(op, pid, true);
        let drawn = if self.cfg.p_read_any() > 0.0 {
            // One draw per attempt keeps the stream aligned with the op
            // counter regardless of which branch fires.
            let u = self.rng.f64();
            if u < self.cfg.p_permanent_read {
                Some(FaultKind::PermanentRead)
            } else if u < self.cfg.p_read_any() {
                Some(FaultKind::TransientRead)
            } else {
                None
            }
        } else {
            None
        };
        match (scheduled, drawn) {
            (Some(kind), _) => {
                // Scheduled faults are explicit: exempt from the streak cap.
                self.inject_read(op, pid, kind)
            }
            (None, Some(FaultKind::TransientRead)) => {
                if self.transient_streak >= self.cfg.max_transient_streak {
                    self.transient_streak = 0;
                    Ok(op)
                } else {
                    self.transient_streak += 1;
                    self.inject_read(op, pid, FaultKind::TransientRead)
                }
            }
            (None, Some(kind)) => self.inject_read(op, pid, kind),
            (None, None) => {
                self.transient_streak = 0;
                Ok(op)
            }
        }
    }

    fn inject_read(&mut self, op: u64, pid: PageId, kind: FaultKind) -> StorageResult<u64> {
        match kind {
            FaultKind::TransientRead => {
                self.record(op, pid, kind, FaultOutcome::FailedTransient);
                Err(StorageError::TransientIo { pid, write: false })
            }
            FaultKind::PermanentRead => {
                self.dead_pages.push(pid);
                self.record(op, pid, kind, FaultOutcome::FailedPermanent);
                Err(StorageError::PermanentFault(pid))
            }
            // Write kinds are filtered out by `scheduled` / the read draw.
            _ => Ok(op),
        }
    }

    /// Decides the fate of a write attempt on `pid`. On success returns
    /// the op index and, for a torn write, the byte offset to corrupt.
    pub(crate) fn on_write(&mut self, pid: PageId) -> StorageResult<(u64, Option<usize>)> {
        let op = self.op;
        self.op += 1;
        let scheduled = self.scheduled(op, pid, false);
        let drawn = if self.cfg.p_write_any() > 0.0 {
            let u = self.rng.f64();
            if u < self.cfg.p_corrupt_write {
                Some(FaultKind::Corrupt)
            } else if u < self.cfg.p_write_any() {
                Some(FaultKind::TransientWrite)
            } else {
                None
            }
        } else {
            None
        };
        let kind = match (scheduled, drawn) {
            (Some(kind), _) => Some(kind),
            (None, Some(FaultKind::TransientWrite)) => {
                if self.transient_streak >= self.cfg.max_transient_streak {
                    self.transient_streak = 0;
                    None
                } else {
                    self.transient_streak += 1;
                    Some(FaultKind::TransientWrite)
                }
            }
            (None, drawn) => drawn,
        };
        match kind {
            Some(FaultKind::TransientWrite) => {
                self.record(
                    op,
                    pid,
                    FaultKind::TransientWrite,
                    FaultOutcome::FailedTransient,
                );
                Err(StorageError::TransientIo { pid, write: true })
            }
            Some(FaultKind::Corrupt) => {
                // The write itself succeeds, so it breaks any failure streak.
                self.transient_streak = 0;
                self.record(op, pid, FaultKind::Corrupt, FaultOutcome::SilentlyCorrupted);
                let off = self.rng.random_range(0..PAGE_SIZE);
                Ok((op, Some(off)))
            }
            _ => {
                if scheduled.is_none() {
                    self.transient_streak = 0;
                }
                Ok((op, None))
            }
        }
    }

    /// Records a checksum-verification catch at read attempt `op`.
    pub(crate) fn on_detection(&mut self, op: u64, pid: PageId) {
        self.record(op, pid, FaultKind::Corrupt, FaultOutcome::Detected);
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {} {:?} {:?} -> {:?}",
            self.op, self.page, self.kind, self.outcome
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_op_and_page() {
        let cfg = FaultConfig::new(1)
            .at_op(2, FaultKind::TransientRead)
            .on_page(PageId(7), FaultKind::PermanentRead);
        let mut plan = FaultPlan::new(cfg);
        assert!(plan.on_read(PageId(0)).is_ok()); // op 0
        assert!(plan.on_read(PageId(0)).is_ok()); // op 1
        assert_eq!(
            plan.on_read(PageId(0)), // op 2: scheduled transient
            Err(StorageError::TransientIo {
                pid: PageId(0),
                write: false
            })
        );
        assert_eq!(
            plan.on_read(PageId(7)),
            Err(StorageError::PermanentFault(PageId(7)))
        );
        // Dead pages stay dead even though the schedule entry matched once.
        assert_eq!(
            plan.on_read(PageId(7)),
            Err(StorageError::PermanentFault(PageId(7)))
        );
        let kinds: Vec<FaultKind> = plan.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                FaultKind::TransientRead,
                FaultKind::PermanentRead,
                FaultKind::PermanentRead
            ]
        );
    }

    #[test]
    fn transient_streak_is_capped() {
        let cfg = FaultConfig::new(3)
            .transient_reads(1.0)
            .max_transient_streak(2);
        let mut plan = FaultPlan::new(cfg);
        // p = 1.0: every attempt wants to fail, but the cap forces every
        // third attempt through.
        assert!(plan.on_read(PageId(0)).is_err());
        assert!(plan.on_read(PageId(0)).is_err());
        assert!(plan.on_read(PageId(0)).is_ok());
        assert!(plan.on_read(PageId(0)).is_err());
        assert!(plan.on_read(PageId(0)).is_err());
        assert!(plan.on_read(PageId(0)).is_ok());
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = FaultConfig::new(42)
            .transient_reads(0.3)
            .transient_writes(0.3)
            .corrupt_writes(0.05);
        let run = || {
            let mut plan = FaultPlan::new(cfg.clone());
            let mut log = Vec::new();
            for i in 0..200u32 {
                if i % 3 == 0 {
                    log.push(plan.on_write(PageId(i % 7)).is_ok());
                } else {
                    log.push(plan.on_read(PageId(i % 7)).is_ok());
                }
            }
            (log, plan.into_events())
        };
        let (a, ea) = run();
        let (b, eb) = run();
        assert_eq!(a, b);
        assert_eq!(ea, eb);
    }
}
