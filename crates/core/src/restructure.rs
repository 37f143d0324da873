//! The restructuring phase (paper §4, phase 1) — common to all
//! algorithms.
//!
//! During restructuring the engine:
//!
//! 1. reads the (magic sub)graph from the paged relation — a sequential
//!    scan for full closure, an index-driven forward search from the
//!    source nodes for selection queries;
//! 2. topologically sorts the nodes;
//! 3. converts tuples into the paged successor-list format, laying lists
//!    out in topological order (inter-list clustering) with each node's
//!    children stored in topological order;
//! 4. collects the rectangle model and level statistics "at no additional
//!    cost" in the same pass (Theorem 2).
//!
//! All relation/index page accesses go through the buffer pool and are
//! charged to the restructuring phase.

use crate::database::Database;
use crate::metrics::CostMetrics;
use crate::query::Query;
use tc_buffer::BufferPool;
use tc_graph::{topo, Graph, NodeId, RectangleModel};
use tc_storage::{StorageResult, SuccEntry};
use tc_succ::{ListPolicy, SuccStore};

/// The output of the restructuring phase: everything the computation
/// phase needs.
pub struct Restructured {
    /// Paged successor lists, initialized with immediate successors.
    pub store: SuccStore,
    /// The magic nodes in topological order (all nodes for full closure).
    pub order: Vec<NodeId>,
    /// Topological position per node (`usize::MAX` for non-magic nodes).
    pub pos: Vec<usize>,
    /// In-memory adjacency of the (magic) graph, children sorted by
    /// topological position — the orchestration bookkeeping (node table)
    /// the paper's implementation also keeps in memory.
    pub children: Vec<Vec<NodeId>>,
    /// Node levels within the (magic) graph (0 for non-magic nodes).
    pub levels: Vec<u32>,
    /// Rectangle model of the (magic) graph.
    pub rect: RectangleModel,
    /// Source-node mask (every node for full closure).
    pub is_source: Vec<bool>,
    /// The sources in ascending order.
    pub sources: Vec<NodeId>,
    /// Number of arcs in the (magic) graph.
    pub arcs: usize,
}

impl Restructured {
    /// Children of `u` (already sorted by topological position).
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.children[u as usize]
    }

    /// Arc locality `level(i) − level(j)` (§5.3).
    pub fn arc_locality(&self, i: NodeId, j: NodeId) -> f64 {
        self.levels[i as usize] as f64 - self.levels[j as usize] as f64
    }
}

/// Options controlling restructuring variants.
pub struct RestructureOptions {
    /// Apply Jiang's single-parent reduction to the magic graph (BJ).
    pub single_parent_reduction: bool,
    /// Build the initial successor lists (everything except SRCH, which
    /// has no list-expansion phase, wants this off).
    pub build_lists: bool,
    /// Store the initial lists in tree format (plain entries, no flat
    /// end-of-list negation) so tree scans read them correctly (SPN).
    pub tree_format: bool,
    /// List replacement policy for the store.
    pub list_policy: ListPolicy,
}

/// Runs the restructuring phase.
///
/// Reads the graph through `pool` (charging relation and index I/O),
/// producing the successor-list store and the in-memory node table.
pub fn restructure(
    db: &Database,
    pool: &mut BufferPool,
    query: &Query,
    opts: &RestructureOptions,
    metrics: &mut CostMetrics,
) -> StorageResult<Restructured> {
    let n = db.graph.n();

    // ---- 1. Read the (magic sub)graph from disk. ----
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut in_magic = vec![false; n];
    let sources: Vec<NodeId>;

    if query.is_full() {
        // Sequential scan of the whole relation.
        sources = (0..n as NodeId).collect();
        in_magic.iter_mut().for_each(|b| *b = true);
        db.relation.tuples().scan_pages(pool, &mut |tuples| {
            for &(u, v) in tuples {
                children[u as usize].push(v);
            }
        })?;
    } else {
        // Forward search from the sources via the clustered index.
        sources = query.sources().expect("partial query").to_vec();
        let mut stack: Vec<NodeId> = Vec::new();
        for &s in &sources {
            if !in_magic[s as usize] {
                in_magic[s as usize] = true;
                stack.push(s);
            }
        }
        while let Some(u) = stack.pop() {
            let mut kids: Vec<u32> = Vec::new();
            db.relation.children(pool, u, &mut kids)?;
            for &v in &kids {
                if !in_magic[v as usize] {
                    in_magic[v as usize] = true;
                    stack.push(v);
                }
            }
            children[u as usize] = kids;
        }
    }

    // ---- 1b. Optional single-parent reduction (BJ, §3.3). ----
    if opts.single_parent_reduction && !query.is_full() {
        single_parent_reduce(&mut children, &in_magic, &sources, n);
    }

    let arcs: usize = children.iter().map(Vec::len).sum();

    // ---- 2. Topological sort of the magic graph. ----
    let magic_graph = Graph::from_arcs(
        n,
        children
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as NodeId, v))),
    );
    let full_order = topo::topological_order(&magic_graph)
        .expect("the study's inputs are DAGs (condense cyclic graphs first)");
    let order: Vec<NodeId> = full_order
        .into_iter()
        .filter(|&u| in_magic[u as usize])
        .collect();
    let mut pos = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        pos[u as usize] = i;
    }

    // Children in topological order (the marking optimization's contract).
    for kids in children.iter_mut() {
        kids.sort_unstable_by_key(|&v| pos[v as usize]);
    }

    // ---- 3 + 4. Build initial lists and collect statistics. ----
    let mut levels = vec![0u32; n];
    for &u in order.iter().rev() {
        let mut l = 1;
        for &v in &children[u as usize] {
            l = l.max(levels[v as usize] + 1);
        }
        levels[u as usize] = l;
    }
    let level_sum: f64 = order.iter().map(|&u| levels[u as usize] as f64).sum();
    let height = if order.is_empty() {
        0.0
    } else {
        level_sum / order.len() as f64
    };
    let rect = RectangleModel {
        height,
        width: if height == 0.0 {
            0.0
        } else {
            arcs as f64 / height
        },
        max_level: order.iter().map(|&u| levels[u as usize]).max().unwrap_or(0),
        arcs,
        nodes: order.len(),
    };

    let mut is_source = vec![false; n];
    for &s in &sources {
        is_source[s as usize] = true;
    }

    let mut store = SuccStore::new(pool, n, opts.list_policy);
    if opts.build_lists {
        // One run per node; a tree starts as its root-level children.
        let mut roots: Vec<SuccEntry> = Vec::new();
        for &u in &order {
            let kids = &children[u as usize];
            let before = store.len(u);
            let written = if opts.tree_format {
                roots.clear();
                roots.extend(kids.iter().map(|&v| SuccEntry::plain(v)));
                store.extend(pool, u, &roots)
            } else {
                store.extend_flat(pool, u, kids)
            };
            // The immediate successors are result tuples too, counted
            // once they are on a page.
            for _ in before..store.len(u) {
                metrics.count_generated(is_source[u as usize]);
            }
            written?;
        }
    }

    metrics.set_magic_nodes(order.len() as u64);
    metrics.set_magic_arcs(arcs as u64);
    metrics.set_rect(rect.clone());

    Ok(Restructured {
        store,
        order,
        pos,
        children,
        levels,
        rect,
        is_source,
        sources,
        arcs,
    })
}

/// Jiang's single-parent optimization (§3.3): a non-source magic node
/// with exactly one parent (in the magic graph) is reduced to a sink —
/// its children are adopted by the parent and its outgoing arcs deleted.
///
/// The reducible set is determined once, on the magic graph as given
/// (re-deriving in-degrees after each adoption would cascade far beyond
/// Jiang's optimization, which the paper found to give only a *small*
/// improvement). Chains of reducible nodes collapse into their nearest
/// irreducible ancestor, matching the paper's Figure 3 example where the
/// children of single-parent nodes `d` and `k` are adopted by `a` and
/// `g`.
fn single_parent_reduce(
    children: &mut [Vec<NodeId>],
    in_magic: &[bool],
    sources: &[NodeId],
    n: usize,
) {
    let mut is_source = vec![false; n];
    for &s in sources {
        is_source[s as usize] = true;
    }
    // In-degrees and unique parents within the magic graph, computed once.
    let mut indeg = vec![0u32; n];
    let mut parent = vec![NodeId::MAX; n];
    for (u, kids) in children.iter().enumerate() {
        for &v in kids {
            indeg[v as usize] += 1;
            parent[v as usize] = u as NodeId;
        }
    }
    let reducible: Vec<bool> = (0..n)
        .map(|v| in_magic[v] && !is_source[v] && indeg[v] == 1 && !children[v].is_empty())
        .collect();
    // Nearest irreducible ancestor of a reducible node (chains collapse).
    let adopter = |v: NodeId| -> NodeId {
        let mut p = parent[v as usize];
        while reducible[p as usize] {
            p = parent[p as usize];
        }
        p
    };
    for v in 0..n as NodeId {
        if !reducible[v as usize] {
            continue;
        }
        let top = adopter(v);
        let grandkids = std::mem::take(&mut children[v as usize]);
        for g in grandkids {
            if g != top && !children[top as usize].contains(&g) {
                children[top as usize].push(g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use tc_buffer::PagePolicy;
    use tc_graph::{closure, DagGenerator};

    fn setup(
        g: &tc_graph::Graph,
        query: &Query,
        single_parent: bool,
    ) -> (Restructured, CostMetrics, BufferPool) {
        let mut db = Database::build(g, false).unwrap();
        let disk = db.store.take().unwrap();
        let mut pool = BufferPool::with_store(disk, 10, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(Algorithm::Btc);
        let r = restructure(
            &db,
            &mut pool,
            query,
            &RestructureOptions {
                single_parent_reduction: single_parent,
                build_lists: true,
                tree_format: false,
                list_policy: ListPolicy::Spill,
            },
            &mut metrics,
        )
        .unwrap();
        (r, metrics, pool)
    }

    #[test]
    fn full_scan_builds_all_lists() {
        let g = DagGenerator::new(200, 3.0, 50).seed(4).generate();
        let (r, m, mut pool) = setup(&g, &Query::full(), false);
        assert_eq!(r.order.len(), 200);
        assert_eq!(r.arcs, g.arc_count());
        assert_eq!(m.magic_arcs as usize, g.arc_count());
        // Lists hold exactly the immediate children.
        for u in 0..200u32 {
            let got = tc_succ::ListCursor::new(&r.store, u)
                .collect_nodes(&mut pool)
                .unwrap();
            let mut expect: Vec<u32> = g.children(u).to_vec();
            expect.sort_unstable_by_key(|&v| r.pos[v as usize]);
            assert_eq!(got, expect);
        }
        // Restructuring charged the relation scan.
        assert!(pool.store().stats().reads_by_kind[tc_storage::FileKind::Relation.idx()] > 0);
    }

    #[test]
    fn magic_search_restricts_to_reachable() {
        let g = tc_graph::Graph::from_arcs(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (r, _, _) = setup(&g, &Query::partial(vec![0]), false);
        assert_eq!(r.order, vec![0, 1, 2]);
        assert!(r.is_source[0] && !r.is_source[1]);
        assert_eq!(r.arcs, 2);
    }

    #[test]
    fn levels_match_graph_crate() {
        let g = DagGenerator::new(300, 4.0, 70).seed(9).generate();
        let (r, _, _) = setup(&g, &Query::full(), false);
        assert_eq!(r.levels, tc_graph::model::node_levels(&g));
        let direct = RectangleModel::of(&g);
        assert!((r.rect.height - direct.height).abs() < 1e-9);
        assert!((r.rect.width - direct.width).abs() < 1e-9);
    }

    #[test]
    fn single_parent_reduction_preserves_source_reachability() {
        let g = DagGenerator::new(300, 2.0, 40).seed(11).generate();
        let sources = vec![1, 7, 42];
        let (r, _, _) = setup(&g, &Query::partial(sources.clone()), true);
        // Successor sets of the sources must be unchanged by reduction.
        let reduced = Graph::from_arcs(
            300,
            r.children
                .iter()
                .enumerate()
                .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v))),
        );
        for &s in &sources {
            assert_eq!(
                closure::successors_of(&reduced, s),
                closure::successors_of(&g, s),
                "source {s}"
            );
        }
    }

    #[test]
    fn single_parent_reduction_shrinks_work() {
        // A chain below the source: all chain nodes are single-parent.
        let g = tc_graph::Graph::from_arcs(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (r, _, _) = setup(&g, &Query::partial(vec![0]), true);
        // After reduction node 0 has adopted everything.
        assert_eq!(r.children(0), &[1, 2, 3, 4]);
        for v in 1..5u32 {
            assert!(r.children(v).is_empty(), "node {v} reduced to a sink");
        }
    }

    #[test]
    fn empty_source_set() {
        let g = DagGenerator::new(50, 2.0, 10).seed(1).generate();
        let (r, _, _) = setup(&g, &Query::partial(vec![]), false);
        assert!(r.order.is_empty());
        assert_eq!(r.arcs, 0);
        assert_eq!(r.rect.height, 0.0);
    }
}
