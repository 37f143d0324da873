//! The reference kernel: a fixed piece of benchmark-owned work, timed
//! beside every measured operation, that tells how fast the machine is
//! running *right now*.
//!
//! The sandbox is a few cores of a shared host, and what the neighbours
//! do changes its speed by 15-50 % for seconds to minutes at a time. A
//! wall time read there says as much about the neighbours as about the
//! program: ten runs of the same code spread by 30-58 % of their median.
//! So every timed operation stands between two runs of this kernel, and
//! its time is reported at the kernel's *nominal* speed:
//! `wall * NOMINAL_NS / kernel_ns`.
//!
//! The kernel is not the program's code, and a change that claims a gain
//! may not edit the benchmark, so the factor depends on the machine
//! alone. Nothing is hidden: an untraced run prints every timing as the
//! clock read it and the factor (`raw ...` lines) beside the reported
//! ones, and the traced run reports the factor as `bench.speed_factor`.
//!
//! The kernel has five parts of about equal time, one for each way a
//! neighbour on the same host slows ordinary code: a dependent
//! arithmetic chain with data-dependent branches over a table inside L1
//! (a slower clock); four independent chains at once (a busy sibling
//! hardware thread takes issue slots from code that could use them);
//! random reads and writes over 1 MB (the private L2 the sibling also
//! fills), over 8 MB and over 32 MB (the shared last-level cache and the
//! memory behind it). The mix was measured: 23 runs of every workload on
//! one seed, eight candidate parts timed after every round, while the
//! host's load came and went. Round times moved by 7-13 % of their mean
//! from run to run; divided by this mix, by 2.4-5 %. No single part did
//! as well on every workload, and the low-IPC chain alone answers a
//! slowdown of 1.6x with 1.35x.
//!
//! A run is 400 slices of 100 us, every part in every slice, and is read
//! two ways ([`Speed`]), because the neighbours slow the machine in two
//! ways. Its whole time scales the operations that take tenths of a
//! second (rounds, set-ups). The median slice scales the quantiles of
//! requests that take microseconds: when the virtual CPU is taken away
//! for milliseconds at a time, a round is 1.6x slower and the median
//! request 1.3x (measured in the same runs). A request is a few cache
//! misses and copies of a 2 KB page, which crowded caches slow more than
//! they slow the kernel's mix: over 150 runs of the three workloads that
//! answer requests the request quantiles rose as the 1.4th to 1.9th power
//! of the median slice, so they are divided by its `SHORT_EXPONENT`th
//! power. Two sets of `update_publish` runs whose request quantiles the
//! clock read 38-40 % apart (the kernel 23 %) are 4-5 % apart that way,
//! where the plain ratio left 11-14 %.

use std::time::Instant;

/// What one kernel run takes on the box the benchmark was sized on when
/// nothing else runs. Reported times are "at this speed".
pub const NOMINAL_NS: f64 = 43_000_000.0;
/// A run is this many equal slices, each timed on its own.
const SLICES: usize = 400;
/// How much more a request of microseconds feels the neighbours than the
/// kernel's median slice does, as a power (see the module comment).
const SHORT_EXPONENT: f64 = 1.5;

/// Table sizes in u32 entries: 32 KB, 1 MB, 8 MB, 32 MB.
const L1: usize = 1 << 13;
const L2: usize = 1 << 18;
const LLC: usize = 1 << 21;
const MEM: usize = 1 << 23;
/// Steps of each part in one slice, sized to about 20 us each.
const L1_STEPS: usize = 2_800;
const WIDE_STEPS: usize = 4_400;
const L2_STEPS: usize = 2_150;
const LLC_STEPS: usize = 1_130;
const MEM_STEPS: usize = 630;

pub struct Kernel {
    l1: Vec<u32>,
    l2: Vec<u32>,
    llc: Vec<u32>,
    mem: Vec<u32>,
    state: u64,
    slice_ns: Vec<u64>,
}

/// One kernel run, read two ways.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    /// The whole run. Everything that slows a long operation is in it:
    /// a slower clock, crowded caches, and the virtual CPU taken away
    /// for milliseconds at a time.
    pub total_ns: u64,
    /// The median slice, times the number of slices. A descheduled CPU
    /// hits a few slices and leaves the median alone, as it leaves alone
    /// the median (and the p99) of requests that take microseconds.
    pub steady_ns: u64,
}

fn xorshift(x: &mut u64) -> usize {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x as usize
}

/// One dependent step: a random read, a data-dependent branch with a
/// second read that depends on the first, and a write.
fn step(table: &mut [u32], x: &mut u64, acc: &mut u32) {
    let mask = table.len() - 1;
    let i = xorshift(x) & mask;
    let v = table[i];
    if v & 1 == 0 {
        *acc = acc.wrapping_add(table[(v as usize) & mask]);
    } else {
        *acc = acc.rotate_left(5) ^ v;
    }
    table[i] = v.wrapping_add(*acc);
}

/// Four independent chains over the L1 table: work a core can overlap.
fn wide(table: &mut [u32], x: &mut u64, acc: &mut u32) {
    let mask = table.len() - 1;
    let seed = *x;
    let mut chains = [
        seed | 1,
        seed.rotate_left(17) | 1,
        seed.rotate_left(31) | 1,
        seed.rotate_left(47) | 1,
    ];
    let mut sums = [0u32; 4];
    for _ in 0..WIDE_STEPS {
        let [a, b, c, d] = chains.each_mut().map(xorshift);
        sums[0] = sums[0].wrapping_add(table[a & mask]);
        sums[1] ^= table[b & mask];
        sums[2] = sums[2].wrapping_add(table[c & mask]).rotate_left(3);
        sums[3] = sums[3].wrapping_mul(31).wrapping_add(table[d & mask]);
        table[(a >> 13) & mask] = sums[0] ^ sums[3];
    }
    *acc ^= sums[0] ^ sums[1] ^ sums[2] ^ sums[3];
    *x ^= chains[0] ^ chains[1] ^ chains[2] ^ chains[3];
}

impl Kernel {
    pub fn new() -> Kernel {
        let fill = |n: usize| {
            (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect()
        };
        let mut k = Kernel {
            l1: fill(L1),
            l2: fill(L2),
            llc: fill(LLC),
            mem: fill(MEM),
            state: 0x9E37_79B9_7F4A_7C15,
            slice_ns: Vec::with_capacity(SLICES),
        };
        // Settle the branch predictors and the page tables.
        k.run();
        k
    }

    /// Bytes of the kernel's tables, which a run's peak memory contains
    /// and the reported `peak_rss_mb` leaves out.
    pub fn footprint_mb() -> f64 {
        ((L1 + L2 + LLC + MEM) * 4) as f64 / (1 << 20) as f64
    }

    pub fn run(&mut self) -> Speed {
        let (mut x, mut acc) = (self.state, 0u32);
        self.slice_ns.clear();
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..SLICES {
            for _ in 0..L1_STEPS {
                step(&mut self.l1, &mut x, &mut acc);
            }
            wide(&mut self.l1, &mut x, &mut acc);
            for _ in 0..L2_STEPS {
                step(&mut self.l2, &mut x, &mut acc);
            }
            for _ in 0..LLC_STEPS {
                step(&mut self.llc, &mut x, &mut acc);
            }
            for _ in 0..MEM_STEPS {
                step(&mut self.mem, &mut x, &mut acc);
            }
            let now = Instant::now();
            self.slice_ns
                .push(now.duration_since(last).as_nanos() as u64);
            last = now;
        }
        self.state = x ^ u64::from(acc);
        let total_ns = last.duration_since(t0).as_nanos().max(1) as u64;
        let median = crate::stats::quantile(&mut self.slice_ns, 50.0);
        Speed {
            total_ns,
            steady_ns: (median * SLICES as u64).max(1),
        }
    }
}

/// The kernel runs just before and just after a timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Bracket {
    pub before: Speed,
    pub after: Speed,
}

impl Bracket {
    /// Machine speed around the operation, as a long operation feels it:
    /// kernel time over nominal kernel time. Above 1 the machine ran
    /// slower than nominal.
    pub fn factor(self) -> f64 {
        (self.before.total_ns + self.after.total_ns) as f64 / 2.0 / NOMINAL_NS
    }

    /// The same as an operation of microseconds feels it.
    pub fn steady_factor(self) -> f64 {
        (self.before.steady_ns + self.after.steady_ns) as f64 / 2.0 / NOMINAL_NS
    }

    /// A round or a set-up timed inside the bracket, at nominal speed.
    pub fn at_nominal(self, ns: f64) -> f64 {
        ns / self.factor()
    }

    /// A quantile of the requests answered inside the bracket, at
    /// nominal speed.
    pub fn short_at_nominal(self, ns: f64) -> f64 {
        ns / self.steady_factor().powf(SHORT_EXPONENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_machine_is_divided_out() {
        let nominal = NOMINAL_NS as u64;
        let speed = |total_ns, steady_ns| Speed {
            total_ns,
            steady_ns,
        };
        let quiet = Bracket {
            before: speed(nominal, nominal),
            after: speed(nominal, nominal),
        };
        assert_eq!(quiet.at_nominal(1e6), 1e6);
        assert_eq!(quiet.short_at_nominal(1e3), 1e3);
        // The clock 10 % slower, and the CPU away a fifth of the time:
        // a round feels both, a request of a microsecond only the first.
        let slow = Bracket {
            before: speed(nominal * 13 / 10, nominal * 11 / 10),
            after: speed(nominal * 14 / 10, nominal * 11 / 10),
        };
        assert!((slow.at_nominal(1.35e6) - 1e6).abs() < 1.0);
        let slowed = 1e3 * 1.1f64.powf(SHORT_EXPONENT);
        assert!((slow.short_at_nominal(slowed) - 1e3).abs() < 1e-3);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        for _ in 0..2 {
            a.run();
            b.run();
        }
        assert_eq!(a.state, b.state);
        assert_eq!(a.mem, b.mem);
    }
}
