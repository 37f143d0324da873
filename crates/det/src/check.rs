//! A miniature property-testing harness (seeded, deterministic).
//!
//! Replaces the external `proptest` dependency for this workspace's
//! needs: a seeded case loop, tunable case count, simple value
//! generators, failing-seed reporting and greedy input shrinking.
//!
//! A property is a closure `Fn(&T) -> Result<(), String>` over a
//! generated input `T`; assertions inside it use the
//! [`require!`](crate::require!) / [`require_eq!`](crate::require_eq!)
//! macros (which return an `Err` instead of panicking, so the harness
//! can shrink the input before reporting).
//!
//! ```
//! use tc_det::check::{shrink_vec, Checker};
//! use tc_det::{require, Rng};
//!
//! Checker::new("reverse_is_involutive").cases(32).run(
//!     |rng| tc_det::check::vec_of(rng, 0..20, |r| r.next_u32()),
//!     shrink_vec,
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         require!(&w == v, "double reverse changed {v:?}");
//!         Ok(())
//!     },
//! );
//! ```
//!
//! Environment knobs (both optional):
//!
//! * `TC_DET_CASES` — override the per-property case count.
//! * `TC_DET_SEED`  — replay a single failing case seed, as printed in a
//!   failure report.

use crate::rng::{splitmix64, Rng, SampleRange};
use std::fmt::Debug;

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// Runs one property over many seeded random cases.
pub struct Checker {
    name: &'static str,
    cases: u32,
    seed: u64,
    max_shrink_steps: u32,
}

impl Checker {
    /// A checker named after the property (used in failure reports).
    pub fn new(name: &'static str) -> Checker {
        Checker {
            name,
            cases: env_u64("TC_DET_CASES")
                .map(|c| c as u32)
                .unwrap_or(DEFAULT_CASES),
            seed: 0xDA12_1994, // Dar & Ramakrishnan, SIGMOD 1994
            max_shrink_steps: 2000,
        }
    }

    /// Sets the case count (overridden by `TC_DET_CASES`).
    pub fn cases(mut self, cases: u32) -> Checker {
        if env_u64("TC_DET_CASES").is_none() {
            self.cases = cases;
        }
        self
    }

    /// Sets the base seed from which all case seeds are derived.
    pub fn seed(mut self, seed: u64) -> Checker {
        self.seed = seed;
        self
    }

    /// Runs the property: generate with `generate`, on failure greedily
    /// shrink via `shrink` (candidate simpler inputs; first failing
    /// candidate is adopted, repeated to a fixpoint), then panic with the
    /// minimal input, the error, and the failing case seed.
    pub fn run<T, G, S, P>(&self, generate: G, shrink: S, prop: P)
    where
        T: Clone + Debug,
        G: Fn(&mut Rng) -> T,
        S: Fn(&T) -> Vec<T>,
        P: Fn(&T) -> Result<(), String>,
    {
        if let Some(replay) = env_u64("TC_DET_SEED") {
            self.run_case(replay, 0, &generate, &shrink, &prop);
            return;
        }
        let mut state = self.seed;
        for case in 0..self.cases {
            let case_seed = splitmix64(&mut state);
            self.run_case(case_seed, case, &generate, &shrink, &prop);
        }
    }

    fn run_case<T, G, S, P>(&self, case_seed: u64, case: u32, generate: &G, shrink: &S, prop: &P)
    where
        T: Clone + Debug,
        G: Fn(&mut Rng) -> T,
        S: Fn(&T) -> Vec<T>,
        P: Fn(&T) -> Result<(), String>,
    {
        let mut rng = Rng::from_seed(case_seed);
        let input = generate(&mut rng);
        let Err(first_err) = prop(&input) else {
            return;
        };
        // Greedy shrink: walk to a locally minimal failing input.
        let mut best = input;
        let mut best_err = first_err.clone();
        let mut steps = 0;
        'outer: while steps < self.max_shrink_steps {
            for candidate in shrink(&best) {
                steps += 1;
                if let Err(e) = prop(&candidate) {
                    best = candidate;
                    best_err = e;
                    continue 'outer;
                }
                if steps >= self.max_shrink_steps {
                    break;
                }
            }
            break;
        }
        panic!(
            "property `{}` failed at case {case} (after {steps} shrink steps)\n\
             minimal input: {best:?}\n\
             error: {best_err}\n\
             original error: {first_err}\n\
             replay with: TC_DET_SEED={case_seed} cargo test -q {}",
            self.name, self.name,
        );
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A vector with length drawn from `len` and elements from `element`.
pub fn vec_of<T, R, F>(rng: &mut Rng, len: R, mut element: F) -> Vec<T>
where
    R: SampleRange<usize>,
    F: FnMut(&mut Rng) -> T,
{
    let n = rng.random_range(len);
    (0..n).map(|_| element(rng)).collect()
}

/// A random arc list over `0..n`: up to `max_arcs` uniform `(u, v)` pairs
/// (self-loops and duplicates included — filter in the property if the
/// graph under test needs a DAG).
pub fn arc_list(rng: &mut Rng, n: u32, max_arcs: usize) -> Vec<(u32, u32)> {
    vec_of(rng, 0..max_arcs.max(1), |r| {
        (r.random_range(0..n), r.random_range(0..n))
    })
}

// ---------------------------------------------------------------------
// Shrinkers
// ---------------------------------------------------------------------

/// No shrinking (for inputs that are already scalar-simple).
pub fn shrink_none<T>(_: &T) -> Vec<T> {
    Vec::new()
}

/// Shrink candidates for a vector: drop the back half, the front half,
/// and each of up to 24 evenly spaced single elements. Greedy iteration
/// in [`Checker::run`] drives this to a locally minimal failing vector.
pub fn shrink_vec<T: Clone>(v: &Vec<T>) -> Vec<Vec<T>> {
    let n = v.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    if n > 1 {
        out.push(v[..n / 2].to_vec());
        out.push(v[n - n / 2..].to_vec());
    }
    let stride = (n / 24).max(1);
    for i in (0..n).step_by(stride) {
        let mut w = v.clone();
        w.remove(i);
        out.push(w);
    }
    out
}

/// Asserts a condition inside a property, formatting the message lazily.
#[macro_export]
macro_rules! require {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("requirement failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property, showing both sides on failure.
#[macro_export]
macro_rules! require_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{} != {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        Checker::new("count").cases(17).run(
            |rng| rng.next_u64(),
            |_| Vec::new(),
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        assert_eq!(counter.get(), 17);
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        // Property "no vector contains an element >= 100" fails; the
        // minimal counterexample is a single offending element.
        let caught = std::panic::catch_unwind(|| {
            Checker::new("shrinks").cases(50).run(
                |rng| vec_of(rng, 0..40, |r| r.random_range(0..200u32)),
                shrink_vec,
                |v| {
                    require!(v.iter().all(|&x| x < 100), "element >= 100 in {v:?}");
                    Ok(())
                },
            );
        });
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal input: ["), "{msg}");
        assert!(msg.contains("TC_DET_SEED="), "{msg}");
        // Locally minimal = exactly one element survives shrinking.
        let inner = msg.split("minimal input: [").nth(1).unwrap();
        let list = inner.split(']').next().unwrap();
        assert_eq!(list.split(',').count(), 1, "not minimal: [{list}]");
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let v = std::cell::RefCell::new(Vec::new());
            Checker::new("det").cases(8).run(
                |rng| rng.next_u64(),
                shrink_none,
                |x| {
                    v.borrow_mut().push(*x);
                    Ok(())
                },
            );
            v.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn generators_cover_shapes() {
        let mut rng = Rng::from_seed(1);
        let arcs = arc_list(&mut rng, 10, 50);
        assert!(arcs.iter().all(|&(u, v)| u < 10 && v < 10));
        let v = vec_of(&mut rng, 5..6, |r| r.next_u32());
        assert_eq!(v.len(), 5);
    }
}
