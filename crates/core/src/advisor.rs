//! Algorithm selection from the rectangle model — the query-optimizer
//! hook the paper sketches as future work.
//!
//! §5.3: "While our model is not sophisticated enough to allow a query
//! optimizer to choose the \[best algorithm\], there is a qualitative
//! correlation between the 'shape' of a DAG as measured by this model and
//! the relative performance of some of the algorithms." §6 then gives the
//! decision inputs: query selectivity (SRCH wins at very small `s`, §6.3),
//! graph *width* (Compute_Tree wins below the crossover, loses above —
//! Table 4), and otherwise BJ ≈ BTC with a small edge to BJ (§6.3).
//!
//! [`Advisor`] encodes those rules. Crucially, every input is available
//! *before* the computation phase: the rectangle model is collected
//! during restructuring "at no additional cost" (Theorem 2), and the
//! selectivity is part of the query. The thresholds default to the
//! crossovers measured by this reproduction's own Table 4 / Figure 8
//! benches and can be tuned.

use crate::query::Query;
use crate::Algorithm;
use tc_graph::RectangleModel;

/// Inputs the advisor decides on: all cheaply available at
/// restructuring time.
#[derive(Clone, Debug)]
pub struct WorkloadProfile {
    /// Rectangle model of the (magic) graph.
    pub rect: RectangleModel,
    /// Number of source nodes (`usize::MAX`-free: full closure = node count).
    pub selectivity: usize,
    /// Whether this is a full-closure query.
    pub full_closure: bool,
    /// Whether the database has the inverse relation (JKB2's requirement).
    pub has_inverse: bool,
}

impl WorkloadProfile {
    /// Builds a profile from a graph's model and a query.
    pub fn new(rect: RectangleModel, query: &Query, n: usize, has_inverse: bool) -> Self {
        WorkloadProfile {
            rect,
            selectivity: query.selectivity(n),
            full_closure: query.is_full(),
            has_inverse,
        }
    }
}

/// Tunable decision thresholds.
#[derive(Clone, Debug)]
pub struct Advisor {
    /// Use SRCH when the source count is at most this.
    pub search_max_sources: usize,
    /// Also use SRCH at moderate selectivity (`s ≤ nodes/8`) when the
    /// graph is *shallow*: a search's cost repeats per source and scales
    /// with the height it has to walk, so shallow graphs keep re-walking
    /// cheap (measured: the crossover sits near the corpus's deep
    /// locality-20 families).
    pub search_max_height: f64,
    /// Prefer Compute_Tree (JKB2) when the width is below this (the
    /// Table 4 crossover) — and the query is selective.
    pub jkb_max_width: f64,
    /// JKB2 only pays off while the query is selective: require
    /// `s ≤ jkb_max_selectivity_fraction × nodes`.
    pub jkb_max_selectivity_fraction: f64,
    /// Prefer the chain-decomposition index (`REACHINDEX`) when the
    /// graph's width is at most this. The index builds in O(k·(n+m))
    /// and answers from O(k·n) labels, so its whole cost story is the
    /// rectangle model's `W`: narrow graphs decompose into few chains
    /// and the index wins outright; wide graphs inflate both label
    /// space and probe cost, and the 1994 algorithms take over. The
    /// default `0.0` disables the rule (width is always positive), so
    /// the advisor keeps recommending exactly the paper's suite unless
    /// a caller opts in.
    pub reach_max_width: f64,
}

impl Default for Advisor {
    fn default() -> Self {
        Advisor {
            search_max_sources: 10,
            search_max_height: 250.0,
            jkb_max_width: 250.0,
            jkb_max_selectivity_fraction: 0.10,
            reach_max_width: 0.0,
        }
    }
}

impl Advisor {
    /// Recommends an algorithm for the profile.
    ///
    /// The rules, in order (paper section in parentheses):
    ///
    /// 0. Opt-in: narrow graph (`width ≤ reach_max_width`, when the
    ///    threshold is enabled) → `REACHINDEX`. Checked before
    ///    everything else because the index wins on narrow graphs for
    ///    *any* selectivity, full closure included: k chains bound both
    ///    the label space and the per-source probe cost.
    /// 1. Full closure → `BTC` (§6.2: beats HYB, SPN, JKB, JKB2).
    /// 2. Very few sources → `SRCH` (§6.3.1: best at high selectivity,
    ///    deteriorating rapidly with `s`).
    /// 3. Moderately selective query on a *shallow* graph → still `SRCH`
    ///    (measured extension of §6.3.1: re-walking a shallow reachable
    ///    region per source stays cheap).
    /// 4. Narrow graph + selective query + dual representation → `JKB2`
    ///    (§6.3.4 / Table 4: wins when the width is low).
    /// 5. Otherwise → `BJ` (§6.3: "the I/O cost of BJ is slightly lower
    ///    than that of BTC").
    pub fn recommend(&self, p: &WorkloadProfile) -> Algorithm {
        if self.reach_max_width > 0.0 && p.rect.width <= self.reach_max_width {
            return Algorithm::ReachIndex;
        }
        if p.full_closure {
            return Algorithm::Btc;
        }
        if p.selectivity <= self.search_max_sources {
            return Algorithm::Srch;
        }
        let nodes = p.rect.nodes.max(1) as f64;
        if (p.selectivity as f64) <= nodes / 8.0 && p.rect.height <= self.search_max_height {
            return Algorithm::Srch;
        }
        let selective = (p.selectivity as f64) <= self.jkb_max_selectivity_fraction * nodes;
        if p.has_inverse && selective && p.rect.width <= self.jkb_max_width {
            return Algorithm::Jkb2;
        }
        Algorithm::Bj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(width: f64, nodes: usize) -> RectangleModel {
        RectangleModel {
            height: 400.0,
            width,
            max_level: 100,
            arcs: (width * 50.0) as usize,
            nodes,
        }
    }

    fn profile(width: f64, s: usize, full: bool, inverse: bool) -> WorkloadProfile {
        WorkloadProfile {
            rect: rect(width, 2000),
            selectivity: s,
            full_closure: full,
            has_inverse: inverse,
        }
    }

    #[test]
    fn full_closure_gets_btc() {
        let a = Advisor::default();
        assert_eq!(
            a.recommend(&profile(30.0, 2000, true, true)),
            Algorithm::Btc
        );
        assert_eq!(
            a.recommend(&profile(500.0, 2000, true, false)),
            Algorithm::Btc
        );
    }

    #[test]
    fn tiny_source_sets_get_search() {
        let a = Advisor::default();
        assert_eq!(a.recommend(&profile(30.0, 2, false, true)), Algorithm::Srch);
        assert_eq!(
            a.recommend(&profile(500.0, 5, false, false)),
            Algorithm::Srch
        );
    }

    #[test]
    fn narrow_selective_gets_jkb2_when_possible() {
        let a = Advisor::default();
        assert_eq!(
            a.recommend(&profile(40.0, 50, false, true)),
            Algorithm::Jkb2
        );
        // No inverse relation: fall back to BJ.
        assert_eq!(a.recommend(&profile(40.0, 50, false, false)), Algorithm::Bj);
    }

    #[test]
    fn wide_or_unselective_gets_bj() {
        let a = Advisor::default();
        assert_eq!(a.recommend(&profile(400.0, 50, false, true)), Algorithm::Bj);
        assert_eq!(
            a.recommend(&profile(40.0, 1000, false, true)),
            Algorithm::Bj
        );
    }

    #[test]
    fn shallow_graphs_extend_search_range() {
        let a = Advisor::default();
        let mut p = profile(400.0, 100, false, true);
        p.rect.height = 20.0; // shallow: SRCH stays cheap
        assert_eq!(a.recommend(&p), Algorithm::Srch);
        p.rect.height = 600.0; // deep: fall through
        assert_eq!(a.recommend(&p), Algorithm::Bj);
    }

    #[test]
    fn thresholds_are_tunable() {
        let a = Advisor {
            search_max_sources: 0,
            search_max_height: 0.0,
            jkb_max_width: 1e9,
            jkb_max_selectivity_fraction: 1.0,
            reach_max_width: 0.0,
        };
        assert_eq!(
            a.recommend(&profile(400.0, 2, false, true)),
            Algorithm::Jkb2
        );
    }

    #[test]
    fn reach_rule_is_off_by_default() {
        // The default advisor must keep recommending exactly the
        // paper's suite: the pinned `advisor` report section depends on
        // it.
        let a = Advisor::default();
        for &(w, s, full, inv) in &[
            (1.0, 2000, true, true),
            (1.0, 2, false, true),
            (1.0, 50, false, true),
        ] {
            assert_ne!(
                a.recommend(&profile(w, s, full, inv)),
                Algorithm::ReachIndex
            );
        }
    }

    #[test]
    fn narrow_graphs_get_the_index_when_enabled() {
        let a = Advisor {
            reach_max_width: 60.0,
            ..Advisor::default()
        };
        // Narrow: the index wins regardless of selectivity — even full
        // closure, even when JKB2/SRCH would otherwise fire.
        assert_eq!(
            a.recommend(&profile(40.0, 2000, true, true)),
            Algorithm::ReachIndex
        );
        assert_eq!(
            a.recommend(&profile(40.0, 2, false, true)),
            Algorithm::ReachIndex
        );
        // Wide: the cascade proceeds untouched.
        assert_eq!(
            a.recommend(&profile(400.0, 2000, true, true)),
            Algorithm::Btc
        );
        assert_eq!(
            a.recommend(&profile(400.0, 2, false, true)),
            Algorithm::Srch
        );
    }
}
