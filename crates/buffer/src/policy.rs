//! Page replacement policies.
//!
//! The paper varies the page replacement policy as a system parameter
//! (§5.1) and reports results for "the best combination of list and page
//! replacement policies for a given query and buffer size". We provide the
//! standard spectrum: LRU, MRU, FIFO, second-chance Clock, LFU and a
//! (deterministic, seeded) Random policy.
//!
//! Policies track *frames*, not page ids: the pool tells the policy when a
//! frame is admitted, accessed or evicted, and asks it to choose a victim
//! among evictable (unpinned) frames.

/// Which page replacement policy a [`crate::BufferPool`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PagePolicy {
    /// Evict the least recently used frame.
    Lru,
    /// Evict the most recently used frame (good for cyclic scans).
    Mru,
    /// Evict in admission order.
    Fifo,
    /// Second-chance clock approximation of LRU.
    Clock,
    /// Evict the least frequently used frame (ties by admission order).
    Lfu,
    /// Evict a pseudo-random evictable frame (seeded, deterministic).
    Random,
}

impl PagePolicy {
    /// All policies, in reporting order.
    pub const ALL: [PagePolicy; 6] = [
        PagePolicy::Lru,
        PagePolicy::Mru,
        PagePolicy::Fifo,
        PagePolicy::Clock,
        PagePolicy::Lfu,
        PagePolicy::Random,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PagePolicy::Lru => "LRU",
            PagePolicy::Mru => "MRU",
            PagePolicy::Fifo => "FIFO",
            PagePolicy::Clock => "CLOCK",
            PagePolicy::Lfu => "LFU",
            PagePolicy::Random => "RANDOM",
        }
    }

    /// Instantiates the policy for a pool of `capacity` frames.
    pub(crate) fn build(self, capacity: usize) -> ReplacementPolicy {
        use ReplacementPolicy::*;
        match self {
            PagePolicy::Lru => Stamp(StampPolicy::new(capacity, StampMode::Lru)),
            PagePolicy::Mru => Stamp(StampPolicy::new(capacity, StampMode::Mru)),
            PagePolicy::Fifo => Stamp(StampPolicy::new(capacity, StampMode::Fifo)),
            PagePolicy::Clock => Clock(ClockPolicy::new(capacity)),
            PagePolicy::Lfu => Lfu(LfuPolicy::new(capacity)),
            PagePolicy::Random => Random(RandomPolicy::new(capacity)),
        }
    }
}

/// Frame-level replacement state driven by the buffer pool: one variant
/// per policy struct, matched inline so a buffer hit makes no indirect
/// call.
///
/// All policies are plain owned data, which keeps the pool `Send`: a
/// serving session carries its pool to whichever worker thread picks
/// the session up.
pub(crate) enum ReplacementPolicy {
    Stamp(StampPolicy),
    Clock(ClockPolicy),
    Lfu(LfuPolicy),
    Random(RandomPolicy),
}

/// Runs `$call` on whichever policy struct `$policy` holds.
macro_rules! each_policy {
    ($policy:expr, $p:ident => $call:expr) => {
        match $policy {
            ReplacementPolicy::Stamp($p) => $call,
            ReplacementPolicy::Clock($p) => $call,
            ReplacementPolicy::Lfu($p) => $call,
            ReplacementPolicy::Random($p) => $call,
        }
    };
}

impl ReplacementPolicy {
    /// A page was installed in `frame`.
    pub(crate) fn on_admit(&mut self, frame: usize) {
        each_policy!(self, p => p.on_admit(frame))
    }

    /// The page in `frame` was accessed (hit).
    #[inline]
    pub(crate) fn on_access(&mut self, frame: usize) {
        each_policy!(self, p => p.on_access(frame))
    }

    /// The page in `frame` was evicted or invalidated.
    pub(crate) fn on_evict(&mut self, frame: usize) {
        each_policy!(self, p => p.on_evict(frame))
    }

    /// Chooses a victim among frames for which `evictable` returns true.
    ///
    /// Returns `None` if no frame is evictable (everything pinned).
    pub(crate) fn victim(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        each_policy!(self, p => p.victim(evictable))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum StampMode {
    Lru,
    Mru,
    Fifo,
}

/// LRU / MRU / FIFO via per-frame logical timestamps.
///
/// The victim scan is linear in the pool size: the study's pools hold 10
/// to 50 frames, and a pool large enough to matter (`serve_resident`
/// runs 16,384 frames) holds its working set and never evicts.
pub(crate) struct StampPolicy {
    mode: StampMode,
    clock: u64,
    stamps: Vec<u64>,
    occupied: Vec<bool>,
}

impl StampPolicy {
    fn new(capacity: usize, mode: StampMode) -> Self {
        StampPolicy {
            mode,
            clock: 0,
            stamps: vec![0; capacity],
            occupied: vec![false; capacity],
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

impl StampPolicy {
    fn on_admit(&mut self, frame: usize) {
        let t = self.tick();
        self.stamps[frame] = t;
        self.occupied[frame] = true;
    }

    fn on_access(&mut self, frame: usize) {
        if self.mode != StampMode::Fifo {
            let t = self.tick();
            self.stamps[frame] = t;
        }
    }

    fn on_evict(&mut self, frame: usize) {
        self.occupied[frame] = false;
    }

    fn victim(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for f in 0..self.stamps.len() {
            if !self.occupied[f] || !evictable(f) {
                continue;
            }
            let s = self.stamps[f];
            let better = match (self.mode, best) {
                (_, None) => true,
                (StampMode::Mru, Some((bs, _))) => s > bs,
                (_, Some((bs, _))) => s < bs, // LRU and FIFO: oldest stamp
            };
            if better {
                best = Some((s, f));
            }
        }
        best.map(|(_, f)| f)
    }
}

/// Second-chance clock.
pub(crate) struct ClockPolicy {
    referenced: Vec<bool>,
    occupied: Vec<bool>,
    hand: usize,
}

impl ClockPolicy {
    fn new(capacity: usize) -> Self {
        ClockPolicy {
            referenced: vec![false; capacity],
            occupied: vec![false; capacity],
            hand: 0,
        }
    }
}

impl ClockPolicy {
    fn on_admit(&mut self, frame: usize) {
        self.occupied[frame] = true;
        self.referenced[frame] = true;
    }

    fn on_access(&mut self, frame: usize) {
        self.referenced[frame] = true;
    }

    fn on_evict(&mut self, frame: usize) {
        self.occupied[frame] = false;
        self.referenced[frame] = false;
    }

    fn victim(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        let n = self.referenced.len();
        if n == 0 {
            return None;
        }
        // Up to two sweeps: the first clears reference bits, the second
        // must find a victim unless everything is pinned.
        for _ in 0..2 * n {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            if !self.occupied[f] || !evictable(f) {
                continue;
            }
            if self.referenced[f] {
                self.referenced[f] = false;
            } else {
                return Some(f);
            }
        }
        // Everything evictable was referenced in both sweeps; fall back to
        // the current hand position among evictable frames.
        (0..n).find(|&f| self.occupied[f] && evictable(f))
    }
}

/// Least-frequently-used with admission-order tie-breaking.
pub(crate) struct LfuPolicy {
    counts: Vec<u64>,
    admitted: Vec<u64>,
    occupied: Vec<bool>,
    clock: u64,
}

impl LfuPolicy {
    fn new(capacity: usize) -> Self {
        LfuPolicy {
            counts: vec![0; capacity],
            admitted: vec![0; capacity],
            occupied: vec![false; capacity],
            clock: 0,
        }
    }
}

impl LfuPolicy {
    fn on_admit(&mut self, frame: usize) {
        self.clock += 1;
        self.counts[frame] = 1;
        self.admitted[frame] = self.clock;
        self.occupied[frame] = true;
    }

    fn on_access(&mut self, frame: usize) {
        self.counts[frame] += 1;
    }

    fn on_evict(&mut self, frame: usize) {
        self.occupied[frame] = false;
        self.counts[frame] = 0;
    }

    fn victim(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(u64, u64, usize)> = None;
        for f in 0..self.counts.len() {
            if !self.occupied[f] || !evictable(f) {
                continue;
            }
            let key = (self.counts[f], self.admitted[f]);
            if best.is_none_or(|(c, a, _)| key < (c, a)) {
                best = Some((key.0, key.1, f));
            }
        }
        best.map(|(_, _, f)| f)
    }
}

/// Seeded pseudo-random eviction (deterministic across runs).
pub(crate) struct RandomPolicy {
    occupied: Vec<bool>,
    rng: tc_det::Rng,
}

impl RandomPolicy {
    /// Fixed seed: every pool run draws the same eviction stream, so
    /// simulated I/O counts under RANDOM are reproducible.
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new(capacity: usize) -> Self {
        RandomPolicy {
            occupied: vec![false; capacity],
            rng: tc_det::Rng::from_seed(Self::SEED),
        }
    }
}

impl RandomPolicy {
    fn on_admit(&mut self, frame: usize) {
        self.occupied[frame] = true;
    }

    fn on_access(&mut self, _frame: usize) {}

    fn on_evict(&mut self, frame: usize) {
        self.occupied[frame] = false;
    }

    fn victim(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        // Two walks instead of a candidate list: one draw per eviction,
        // the same as ever, so the eviction stream is unchanged.
        let occupied = &self.occupied;
        let candidates = || (0..occupied.len()).filter(|&f| occupied[f] && evictable(f));
        let count = candidates().count();
        if count == 0 {
            return None;
        }
        candidates().nth(self.rng.random_range(0..count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(_: usize) -> bool {
        true
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = PagePolicy::Lru.build(3);
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_access(0); // 1 is now least recent
        assert_eq!(p.victim(all), Some(1));
    }

    #[test]
    fn mru_evicts_most_recent() {
        let mut p = PagePolicy::Mru.build(3);
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_access(0); // 0 is now most recent
        assert_eq!(p.victim(all), Some(0));
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = PagePolicy::Fifo.build(3);
        p.on_admit(0);
        p.on_admit(1);
        p.on_access(0);
        p.on_access(0);
        assert_eq!(p.victim(all), Some(0));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = PagePolicy::Clock.build(3);
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        // All referenced; first sweep clears bits, victim is frame 0.
        assert_eq!(p.victim(all), Some(0));
        p.on_evict(0);
        // 1 and 2 now have cleared bits; accessing 1 re-references it.
        p.on_access(1);
        assert_eq!(p.victim(all), Some(2));
    }

    #[test]
    fn lfu_evicts_cold_frame() {
        let mut p = PagePolicy::Lfu.build(3);
        p.on_admit(0);
        p.on_admit(1);
        p.on_admit(2);
        p.on_access(0);
        p.on_access(2);
        p.on_access(2);
        assert_eq!(p.victim(all), Some(1));
    }

    #[test]
    fn policies_respect_pins() {
        for kind in PagePolicy::ALL {
            let mut p = kind.build(2);
            p.on_admit(0);
            p.on_admit(1);
            assert_eq!(p.victim(|f| f == 1), Some(1), "{}", kind.name());
            assert_eq!(p.victim(|_| false), None, "{}", kind.name());
        }
    }

    #[test]
    fn random_is_deterministic() {
        let run = || {
            let mut p = PagePolicy::Random.build(8);
            for f in 0..8 {
                p.on_admit(f);
            }
            (0..4).map(|_| p.victim(all).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn evicted_frames_not_chosen() {
        for kind in PagePolicy::ALL {
            let mut p = kind.build(2);
            p.on_admit(0);
            p.on_admit(1);
            p.on_evict(0);
            assert_eq!(p.victim(all), Some(1), "{}", kind.name());
        }
    }
}
