//! The study's graph corpus: G1–G12 (paper Table 1/Table 2).
//!
//! All graphs have `n = 2000` nodes; the families sweep the average
//! out-degree `F ∈ {2, 5, 20, 50}` against the generation locality
//! `l ∈ {20, 200, 2000}`. Five seeded instances are generated per family
//! when the paper's full averaging is requested.

use tc_det::splitmix64;
use tc_graph::{DagGenerator, Graph, NodeId};

/// The canonical workload: the one G5 instance, source set and update
/// stream that every golden, differential and overhead suite under
/// `tests/` runs, so two suites that must agree on a pinned number run
/// the same workload by construction. PINS.md lists what is pinned on
/// it. (`examples/quickstart.rs` spells the same graph and sources out
/// for the reader; `golden_seed` pins the arc list.)
pub mod canonical {
    use tc_core::Query;
    use tc_graph::{DagGenerator, Graph, NodeId, StreamKind, UpdateStream};

    /// The partial-closure source set.
    pub const SOURCES: [NodeId; 3] = [11, 503, 977];

    /// The G5 instance: n = 2000, F = 5, l = 200, seed 7.
    pub fn graph() -> Graph {
        DagGenerator::new(2000, 5.0, 200).seed(7).generate()
    }

    /// Partial closure from [`SOURCES`].
    pub fn query() -> Query {
        Query::partial(SOURCES.to_vec())
    }

    /// The update stream over [`graph`]: mixed churn, 2 batches of 8
    /// ops, locality 200 (the family's `l`), pinned seed.
    pub fn update_stream(g: &Graph) -> UpdateStream {
        UpdateStream::generate(g, StreamKind::Mixed, 2, 8, 200, 0xD41A_0007)
    }
}

/// Number of nodes in every corpus graph (paper Table 1).
pub const N_NODES: usize = 2000;

/// One row of the corpus: a (F, l) family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphFamily {
    /// The paper's name (G1–G12).
    pub name: &'static str,
    /// Average out-degree `F`.
    pub f: f64,
    /// Generation locality `l`.
    pub l: usize,
}

/// The twelve families of Table 2, in order.
pub const FAMILIES: [GraphFamily; 12] = [
    GraphFamily {
        name: "G1",
        f: 2.0,
        l: 20,
    },
    GraphFamily {
        name: "G2",
        f: 2.0,
        l: 200,
    },
    GraphFamily {
        name: "G3",
        f: 2.0,
        l: 2000,
    },
    GraphFamily {
        name: "G4",
        f: 5.0,
        l: 20,
    },
    GraphFamily {
        name: "G5",
        f: 5.0,
        l: 200,
    },
    GraphFamily {
        name: "G6",
        f: 5.0,
        l: 2000,
    },
    GraphFamily {
        name: "G7",
        f: 20.0,
        l: 20,
    },
    GraphFamily {
        name: "G8",
        f: 20.0,
        l: 200,
    },
    GraphFamily {
        name: "G9",
        f: 20.0,
        l: 2000,
    },
    GraphFamily {
        name: "G10",
        f: 50.0,
        l: 20,
    },
    GraphFamily {
        name: "G11",
        f: 50.0,
        l: 200,
    },
    GraphFamily {
        name: "G12",
        f: 50.0,
        l: 2000,
    },
];

/// Looks a family up by name (`"G7"`).
pub fn family(name: &str) -> &'static GraphFamily {
    FAMILIES
        .iter()
        .find(|f| f.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("unknown graph family {name}"))
}

/// Builds instance `instance` (0-based) of a family.
///
/// Instances use distinct deterministic seeds so that "5 graphs of each
/// family" is reproducible.
pub fn build_graph(fam: &GraphFamily, instance: u64) -> Graph {
    DagGenerator::new(N_NODES, fam.f, fam.l)
        .seed(0xC0FFEE + 1000 * instance + fam.l as u64 + (fam.f * 10.0) as u64)
        .generate()
}

/// Draws the `set`-th deterministic source set of size `s` for a family
/// instance (uniform over node ids, without replacement).
pub fn source_set(s: usize, instance: u64, set: u64) -> Vec<NodeId> {
    // splitmix64 stream, rejection-free reservoir-ish selection.
    let mut state = 0x9E3779B97F4A7C15u64 ^ (instance << 32) ^ (set << 16) ^ s as u64;
    let mut out: Vec<NodeId> = Vec::with_capacity(s);
    while out.len() < s.min(N_NODES) {
        let v = (splitmix64(&mut state) % N_NODES as u64) as NodeId;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_families_match_table_1() {
        assert_eq!(FAMILIES.len(), 12);
        assert_eq!(family("G6").f, 5.0);
        assert_eq!(family("g6").l, 2000);
    }

    #[test]
    fn instances_are_deterministic_and_distinct() {
        let a = build_graph(family("G1"), 0);
        let b = build_graph(family("G1"), 0);
        let c = build_graph(family("G1"), 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.n(), N_NODES);
    }

    #[test]
    fn source_sets_are_deterministic_sorted_unique() {
        let a = source_set(20, 0, 0);
        let b = source_set(20, 0, 0);
        let c = source_set(20, 0, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn source_set_caps_at_n() {
        let s = source_set(2000, 0, 0);
        assert_eq!(s.len(), 2000);
    }

    #[test]
    #[should_panic(expected = "unknown graph family")]
    fn unknown_family_panics() {
        let _ = family("G13");
    }
}
