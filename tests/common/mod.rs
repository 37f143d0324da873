//! Helpers shared by the property suites, each of which says `mod
//! common;`. Not a suite: cargo builds only the top-level files of
//! `tests/`.

#![allow(dead_code)] // each suite uses some of them

use std::cmp::Ordering;
use tc_study::graph::Graph;

/// Points the pair from the lower to the higher `key` (`None` when the
/// keys tie, so self-loops are dropped): arcs pointed this way never
/// close a cycle.
pub fn orient_by<K: Ord>(key: impl Fn(u32) -> K, a: u32, b: u32) -> Option<(u32, u32)> {
    match key(a).cmp(&key(b)) {
        Ordering::Less => Some((a, b)),
        Ordering::Greater => Some((b, a)),
        Ordering::Equal => None,
    }
}

/// Orients the pair ascending (self-loops dropped), so a graph and every
/// generated insert stay acyclic by construction.
pub fn orient(a: u32, b: u32) -> Option<(u32, u32)> {
    orient_by(|v| v, a, b)
}

/// The DAG on `n` nodes of the raw pairs, each oriented ascending.
pub fn dag_of(&(n, ref pairs): &(usize, Vec<(u32, u32)>)) -> Graph {
    Graph::from_arcs(n, pairs.iter().filter_map(|&(a, b)| orient(a, b)))
}
