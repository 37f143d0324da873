//! [`ProfileSink`]: fold a live event stream into a profile.
//!
//! The sink wraps a [`ProfileFold`] in a mutex, so a run can be
//! profiled while it executes — no trace storage, constant memory —
//! and, through `tc_trace::TeeSink`, alongside a digest pin or a JSONL
//! export of the *same* stream. Folding live and folding the recorded
//! stream offline produce identical profiles (the fold is a pure
//! function of the event sequence).
//!
//! `emit` is infallible by contract and performs no I/O — the
//! `JsonlSink` discipline: failures can only arise when the rendered
//! report ([`crate::report::render`]) is finally written, where they
//! surface as ordinary `io::Result`s.

use crate::fold::{Profile, ProfileFold};
use std::sync::{Mutex, MutexGuard};
use tc_trace::{Event, TraceSink};

/// Recovers the data from a possibly-poisoned mutex (same rationale as
/// the `tc-trace` sinks: the fold's counters stay consistent even if a
/// panicking thread abandoned the lock between updates).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A [`TraceSink`] that folds events into a [`Profile`] as they are
/// emitted.
pub struct ProfileSink {
    inner: Mutex<ProfileFold>,
}

impl Default for ProfileSink {
    fn default() -> Self {
        ProfileSink::new()
    }
}

impl ProfileSink {
    /// A sink with default fold settings.
    pub fn new() -> ProfileSink {
        ProfileSink {
            inner: Mutex::new(ProfileFold::new()),
        }
    }

    /// Completes the fold and returns the profile. The sink resets to a
    /// fresh fold, so a shared `Arc` kept by a finished run is inert.
    pub fn finish(&self) -> Profile {
        let mut inner = lock_unpoisoned(&self.inner);
        std::mem::take(&mut *inner).finish()
    }
}

impl TraceSink for ProfileSink {
    fn emit(&self, ev: Event) {
        lock_unpoisoned(&self.inner).push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::profile_events;
    use tc_trace::Kind;

    #[test]
    fn live_fold_equals_offline_fold() {
        let events = [
            Event::RunBegin {
                algorithm: tc_trace::Algorithm::Bj,
                ms_per_io: 20.0,
            },
            Event::BufMiss {
                page: 0,
                read: true,
            },
            Event::PageRead {
                page: 0,
                kind: Kind::Index,
            },
            Event::BufHit {
                page: 0,
                read: true,
            },
            Event::RunEnd,
        ];
        let sink = ProfileSink::new();
        for e in events {
            sink.emit(e);
        }
        assert_eq!(sink.finish(), profile_events(events));
        // After finish the sink is fresh.
        assert_eq!(sink.finish(), profile_events([]));
    }
}
