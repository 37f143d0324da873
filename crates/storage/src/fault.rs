//! Deterministic fault injection for every page store.
//!
//! The paper treats the disk as infallible; a production reachability
//! store cannot. This module lets a test (or an experiment) arm a
//! [`FaultPlan`] on any [`crate::PageStore`] so that individual page
//! transfers fail or silently corrupt according to a *seeded,
//! bit-reproducible* schedule: the same [`FaultConfig`] replays the same
//! failures on every run, because every decision flows from a `tc-det`
//! stream indexed by the global I/O-operation counter.
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
//! plan keeps one global op counter covering reads and writes (retries
//! are fresh attempts and consume fresh op indexes). A decision is either
//! an explicit [`ScheduledFault`] match or a single uniform draw from the
//! plan's seeded [`tc_det::Rng`] (one draw per attempt whenever any
//! probability is non-zero). Failed attempts are *not* counted in
//! [`crate::DiskStats`] — those counters keep recording exactly the
//! successful transfers, so a run under a transient-only plan reports the
//! same page-I/O metrics as its fault-free twin, with only the retry
//! counters differing.
//!
//! The plan only decides; it records nothing. It hands each injected
//! [`FaultKind`] back to the store, which emits it as the one record of
//! the fault, a `FaultInjected { page, fault }` event (and a checksum
//! catch as `CorruptionDetected`), and folds those events into
//! [`crate::DiskStats`]. A run's faults are therefore its event stream,
//! and its fault tallies its `DiskStats` delta, like its page I/O.

use crate::error::StorageError;
use crate::page::{PageId, PAGE_SIZE};
use tc_det::Rng;

/// The kinds of storage fault the plan can inject: the trace
/// vocabulary's [`tc_trace::FaultKind`], so a `FaultInjected` event names
/// the fault it records.
pub use tc_trace::FaultKind;

/// An injected failure: the fault the plan decided on, and the error the
/// attempt fails with.
pub(crate) type Injected = (FaultKind, StorageError);

/// Whether `kind` strikes write attempts (else read attempts).
fn strikes_writes(kind: FaultKind) -> bool {
    matches!(kind, FaultKind::TransientWrite | FaultKind::Corrupt)
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
        }
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
                strikes_writes(s.kind) != read
                    && s.op.map_or(true, |o| o == op)
                    && s.page.map_or(true, |p| p == pid)
            })
            .map(|s| s.kind)
    }

    /// Decides the fate of a read attempt on `pid`: `Ok` lets it
    /// through, an injected failure comes back with its kind.
    pub(crate) fn on_read(&mut self, pid: PageId) -> Result<(), Injected> {
        let op = self.op;
        self.op += 1;
        if self.dead_pages.contains(&pid) {
            return Err((FaultKind::PermanentRead, StorageError::PermanentFault(pid)));
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
                self.inject_read(pid, kind)
            }
            (None, Some(FaultKind::TransientRead)) => {
                if self.transient_streak >= self.cfg.max_transient_streak {
                    self.transient_streak = 0;
                    Ok(())
                } else {
                    self.transient_streak += 1;
                    self.inject_read(pid, FaultKind::TransientRead)
                }
            }
            (None, Some(kind)) => self.inject_read(pid, kind),
            (None, None) => {
                self.transient_streak = 0;
                Ok(())
            }
        }
    }

    fn inject_read(&mut self, pid: PageId, kind: FaultKind) -> Result<(), Injected> {
        match kind {
            FaultKind::TransientRead => {
                Err((kind, StorageError::TransientIo { pid, write: false }))
            }
            FaultKind::PermanentRead => {
                self.dead_pages.push(pid);
                Err((kind, StorageError::PermanentFault(pid)))
            }
            // Write kinds are filtered out by `scheduled` / the read draw.
            _ => Ok(()),
        }
    }

    /// Decides the fate of a write attempt on `pid`. On success returns,
    /// for a torn write (a [`FaultKind::Corrupt`] injection), the byte
    /// offset to corrupt; an injected failure comes back with its kind.
    pub(crate) fn on_write(&mut self, pid: PageId) -> Result<Option<usize>, Injected> {
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
            Some(kind @ FaultKind::TransientWrite) => {
                Err((kind, StorageError::TransientIo { pid, write: true }))
            }
            Some(FaultKind::Corrupt) => {
                // The write itself succeeds, so it breaks any failure streak.
                self.transient_streak = 0;
                Ok(Some(self.rng.random_range(0..PAGE_SIZE)))
            }
            _ => {
                if scheduled.is_none() {
                    self.transient_streak = 0;
                }
                Ok(None)
            }
        }
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
            Err((
                FaultKind::TransientRead,
                StorageError::TransientIo {
                    pid: PageId(0),
                    write: false
                }
            ))
        );
        let dead = Err((
            FaultKind::PermanentRead,
            StorageError::PermanentFault(PageId(7)),
        ));
        assert_eq!(plan.on_read(PageId(7)), dead);
        // Dead pages stay dead even though the schedule entry matched once.
        assert_eq!(plan.on_read(PageId(7)), dead);
        assert_eq!(plan.ops(), 5);
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
            let log: Vec<Result<Option<usize>, Injected>> = (0..200u32)
                .map(|i| match i % 3 {
                    0 => plan.on_write(PageId(i % 7)),
                    _ => plan.on_read(PageId(i % 7)).map(|()| None),
                })
                .collect();
            log
        };
        let a = run();
        assert!(a
            .iter()
            .any(|d| matches!(d, Err((FaultKind::TransientRead, _)))));
        assert!(a.iter().any(|d| matches!(d, Ok(Some(_)))), "no torn write");
        assert_eq!(a, run());
    }
}
