//! Property test: `AnswerCollector` under an id bound.
//!
//! With a bound the collector switches from its pair list to a bit
//! matrix while tuples arrive, the moment the matrix is no larger than
//! the list; without one it keeps the list. Either way `into_pairs` must
//! equal a comparison sort of the emitted multiset.
//! The streams: dense full closures (the switch falls mid-stream), sparse
//! selections (it may never fall), arbitrary pairs, repeats before and
//! after the switch, any emission order, bounds 0 and 1, and now and then
//! a tuple outside the bound. Replay a failure with the printed
//! `TC_DET_SEED=...`.

use tc_study::core::algorithms::AnswerCollector;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require_eq, Rng};

/// The id bound and the tuples, in emission order.
type Case = (u32, Vec<(u32, u32)>);

fn generate(rng: &mut Rng) -> Case {
    let n = [0, 1, 2, 63, 64, 65, rng.random_range(2..200u32)][rng.random_range(0..7usize)];
    let mut pairs = Vec::new();
    if n > 0 {
        match rng.random_range(0..3u32) {
            // A full closure: every source, most successors, in source runs.
            0 => {
                let density = [0.3, 0.7, 1.0][rng.random_range(0..3usize)];
                for s in 0..n {
                    pairs.extend((0..n).filter(|_| rng.random_bool(density)).map(|x| (s, x)));
                }
            }
            // A selection: a few sources, few successors each.
            1 => {
                for _ in 0..rng.random_range(1..6u32) {
                    let s = rng.random_range(0..n);
                    pairs.extend((0..n).filter(|_| rng.random_bool(0.1)).map(|x| (s, x)));
                }
            }
            // Anything, repeats included.
            _ => pairs = check::arc_list(rng, n, 600),
        }
    }
    // Repeats anywhere in the stream, and one at the very end: on a dense
    // stream the early ones fall before the switch and the late ones after.
    if !pairs.is_empty() {
        for _ in 0..rng.random_range(0..4usize) {
            let (i, at) = (
                rng.random_range(0..pairs.len()),
                rng.random_range(0..pairs.len() + 1),
            );
            pairs.insert(at, pairs[i]);
        }
        if rng.random_bool(0.5) {
            pairs.push(pairs[rng.random_range(0..pairs.len())]);
        }
    }
    match rng.random_range(0..3u32) {
        0 => {}
        1 => rng.shuffle(&mut pairs),
        _ => pairs.sort_by_key(|&(_, x)| x),
    }
    if rng.random_bool(0.1) {
        let stray = (rng.random_range(n..n + 70), rng.random_range(0..n + 70));
        let at = rng.random_range(0..pairs.len() + 1);
        pairs.insert(at, stray);
    }
    (n, pairs)
}

fn shrink((n, pairs): &Case) -> Vec<Case> {
    check::shrink_vec(pairs)
        .into_iter()
        .map(|p| (*n, p))
        .collect()
}

/// Emits `pairs` into a collecting collector, with the bound `n` or
/// without one.
fn collected(bound: Option<u32>, pairs: &[(u32, u32)]) -> (u64, Vec<(u32, u32)>) {
    let mut a = AnswerCollector::new(true);
    if let Some(n) = bound {
        a = a.with_id_bound(n as usize);
    }
    for &(s, x) in pairs {
        a.emit(s, x);
    }
    (a.count(), a.into_pairs())
}

#[test]
fn into_pairs_is_the_sorted_multiset_of_the_emitted_tuples() {
    Checker::new("answer_collector_switch")
        .cases(128)
        .run(generate, shrink, |(n, pairs)| {
            let mut expect = pairs.clone();
            expect.sort_unstable();
            for bound in [Some(*n), None] {
                let (count, got) = collected(bound, pairs);
                require_eq!(count, pairs.len() as u64, "bound {bound:?}: count");
                require_eq!(got, expect, "bound {bound:?}");
            }
            Ok(())
        });
}

#[test]
fn the_smallest_bounds_keep_every_tuple() {
    assert!(collected(Some(0), &[]).1.is_empty());
    // Bound 0: no tuple fits the matrix, all stay in the pair list.
    assert_eq!(
        collected(Some(0), &[(1, 0), (0, 0)]).1,
        vec![(0, 0), (1, 0)]
    );
    // Bound 1: the switch falls at the first tuple; the repeat after it
    // stays in the pair list.
    assert_eq!(
        collected(Some(1), &[(0, 0), (0, 0)]),
        (2, vec![(0, 0), (0, 0)])
    );
    // A collector that does not collect only counts.
    let mut quiet = AnswerCollector::new(false).with_id_bound(4);
    quiet.emit(1, 2);
    assert_eq!(quiet.count(), 1);
    assert!(quiet.into_pairs().is_empty());
}
