//! The algorithm suite under study.

use std::fmt;

/// The candidate algorithms (paper §3/§4.1) plus the Seminaive baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Algorithm {
    /// BTC — the basic graph-based algorithm \[Ioannidis, Ramakrishnan &
    /// Winger\]: reverse-topological expansion of flat successor lists
    /// with the immediate-successor and marking optimizations.
    Btc,
    /// HYB — Agrawal & Jagadish's Hybrid algorithm: BTC plus *blocking*
    /// of successor lists (a pinned diagonal block, dynamic reblocking).
    Hyb,
    /// BJ — Jiang's BFS algorithm: BTC plus the single-parent
    /// optimization on the magic graph (PTC only; identical to BTC for
    /// full closure).
    Bj,
    /// SRCH — per-source search without the immediate-successor
    /// optimization; a k-source query is k single-source searches.
    Srch,
    /// SPN — the Spanning Tree algorithm \[Dar & Jagadish, Jakobsson\]:
    /// successor *trees*, whose unions prune already-present subtrees.
    Spn,
    /// JKB — Jakobsson's Compute_Tree with a single (source-clustered)
    /// relation: special-node predecessor trees; immediate predecessor
    /// lists must be derived the hard way.
    Jkb,
    /// JKB2 — Compute_Tree with the dual representation: an inverse
    /// relation clustered and indexed on the destination attribute.
    Jkb2,
    /// Seminaive delta iteration — the iterative baseline the
    /// graph-based algorithms were shown to dominate (related work, §8).
    Seminaive,
    /// REACHINDEX — the modern chain-decomposition interval-label index
    /// (Kritikakis & Tollis, via `tc-reach`): restructuring builds and
    /// persists O(k·n) labels over the condensation DAG; computation
    /// answers the query by scanning chain suffixes. Not part of the
    /// 1994 study ([`Algorithm::ALL`]); appended last so the discrete
    /// discriminants of the original suite stay stable.
    ReachIndex,
}

impl Algorithm {
    /// All algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Btc,
        Algorithm::Hyb,
        Algorithm::Bj,
        Algorithm::Srch,
        Algorithm::Spn,
        Algorithm::Jkb,
        Algorithm::Jkb2,
        Algorithm::Seminaive,
    ];

    /// The paper's eight algorithms plus the modern reachability index —
    /// every algorithm the engine can run.
    pub const WITH_INDEX: [Algorithm; 9] = [
        Algorithm::Btc,
        Algorithm::Hyb,
        Algorithm::Bj,
        Algorithm::Srch,
        Algorithm::Spn,
        Algorithm::Jkb,
        Algorithm::Jkb2,
        Algorithm::Seminaive,
        Algorithm::ReachIndex,
    ];

    /// The implementation label used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Btc => "BTC",
            Algorithm::Hyb => "HYB",
            Algorithm::Bj => "BJ",
            Algorithm::Srch => "SRCH",
            Algorithm::Spn => "SPN",
            Algorithm::Jkb => "JKB",
            Algorithm::Jkb2 => "JKB2",
            Algorithm::Seminaive => "SEMINAIVE",
            Algorithm::ReachIndex => "REACHINDEX",
        }
    }

    /// Whether the algorithm needs the dual graph representation (an
    /// inverse relation clustered on the destination attribute).
    pub fn needs_inverse(self) -> bool {
        matches!(self, Algorithm::Jkb2)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let set: std::collections::HashSet<_> =
            Algorithm::WITH_INDEX.iter().map(|a| a.name()).collect();
        assert_eq!(set.len(), Algorithm::WITH_INDEX.len());
    }

    #[test]
    fn trace_parser_interns_exactly_these_names() {
        // A name missing there parses back from a JSONL trace as "?".
        assert_eq!(
            tc_trace::ALGORITHM_NAMES,
            Algorithm::WITH_INDEX.map(Algorithm::name)
        );
    }

    #[test]
    fn only_jkb2_needs_inverse() {
        for a in Algorithm::WITH_INDEX {
            assert_eq!(a.needs_inverse(), a == Algorithm::Jkb2);
        }
    }

    #[test]
    fn all_is_the_paper_suite_and_with_index_appends() {
        assert_eq!(Algorithm::ALL.len(), 8, "the paper studies eight");
        assert_eq!(&Algorithm::WITH_INDEX[..8], &Algorithm::ALL[..]);
        assert_eq!(Algorithm::WITH_INDEX[8], Algorithm::ReachIndex);
        // Cell-seed discriminants of the original suite must not move.
        assert_eq!(Algorithm::ReachIndex as u64, 8);
    }
}
