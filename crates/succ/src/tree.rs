//! Successor spanning-tree encoding and scanning (paper §3.5, §4.1).
//!
//! "Successor spanning trees are represented by storing each parent
//! (internal node) once, followed by a list of its children. Parent nodes
//! are distinguished by negating their values."
//!
//! In store terms: a tree list is a sequence of entries where a *tagged*
//! entry opens a group (the parent) and the following plain entries are
//! that parent's children; plain entries before the first tagged entry
//! are children of the list's owner (the tree root, which is not stored).
//!
//! The Spanning Tree algorithm's union exploits the structure: when a
//! scanned node is already present in the target tree, its entire subtree
//! is *pruned* — those entries are not processed (no bit-vector tests, no
//! appends, no duplicates generated). The pages holding them are still
//! fetched, because group boundaries are only discoverable by reading —
//! which is precisely the paper's finding that tuple-I/O savings do not
//! become page-I/O savings (§6.2).
//!
//! The same encoding stores Compute_Tree's special-node predecessor trees.
//!
//! Trees are written through a [`TreeAppender`]: SPN `push`es a union's
//! new children and `flush`es them as one run when the union ends; JKB
//! calls `append` (a push and a flush) per entry, because its tree writes
//! interleave with writes to its answer file and deferring them would
//! reorder page requests, not merge them.

use crate::bitvec::NodeBitVec;
use crate::store::SuccStore;
use tc_storage::layout::succ::SuccEntry;
use tc_storage::{Pager, StorageResult};

/// Incremental writer of tree-encoded lists: groups consecutive children
/// by parent, encoding one tagged parent marker per group.
///
/// [`TreeAppender::push`] encodes into a pending buffer and
/// [`TreeAppender::flush`] writes the buffer as one run
/// ([`SuccStore::extend`]), so a union that pushes its new children and
/// flushes once costs a pager request per block, not two per entry. The
/// buffer is cleared, not dropped, so one appender reuses its allocation.
pub struct TreeAppender {
    owner: u32,
    current_parent: Option<u32>,
    any_group: bool,
    pending: Vec<SuccEntry>,
}

impl TreeAppender {
    /// Starts appending to `owner`'s tree.
    pub fn new(owner: u32) -> TreeAppender {
        TreeAppender {
            owner,
            current_parent: None,
            any_group: false,
            pending: Vec::new(),
        }
    }

    /// Encodes `value` as a child of `parent` in `owner`'s tree list (a
    /// group marker first when `parent` opens a new group); nothing is
    /// written until [`TreeAppender::flush`].
    pub fn push(&mut self, parent: u32, value: u32) {
        let need_marker = match self.current_parent {
            Some(p) => p != parent,
            // Children of the owner need no marker while we are still in
            // the implicit leading root group.
            None => parent != self.owner || self.any_group,
        };
        if need_marker {
            self.pending.push(SuccEntry::tagged(parent));
            self.any_group = true;
        }
        self.current_parent = Some(parent);
        self.pending.push(SuccEntry::plain(value));
    }

    /// Writes the pushed entries to `owner`'s list as one run. On an
    /// error the entries the run did not write are dropped with the rest.
    pub fn flush<P: Pager>(&mut self, pager: &mut P, store: &mut SuccStore) -> StorageResult<()> {
        let written = store.extend(pager, self.owner, &self.pending);
        self.pending.clear();
        written
    }

    /// Appends `value` as a child of `parent` and writes it at once:
    /// [`TreeAppender::push`] then [`TreeAppender::flush`].
    pub fn append<P: Pager>(
        &mut self,
        pager: &mut P,
        store: &mut SuccStore,
        parent: u32,
        value: u32,
    ) -> StorageResult<()> {
        self.push(parent, value);
        self.flush(pager, store)
    }
}

/// One step of a tree scan: what a raw entry turned out to be.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeStep {
    /// A parent marker (structural; nothing to process).
    Marker,
    /// A child entry pruned because its group's parent is skipped; the
    /// node id is reported so callers can count the saving.
    Pruned(u32),
    /// A child entry to process: `(parent, node)`.
    Visit {
        /// The group's parent (the tree owner for root-level entries).
        parent: u32,
        /// The scanned node.
        node: u32,
    },
}

/// Caller-driven tree-scan state machine.
///
/// The algorithms drive the scan themselves (they append to the target
/// tree through the same pager), feeding a list's raw entries in stream
/// order through [`TreeScanState::step`]. Skip feedback flows through the
/// shared `skips` bit vector: when the caller decides a visited node's
/// subtree is redundant it inserts the node into `skips`, and any later
/// group opened by that node is pruned.
pub struct TreeScanState {
    current_parent: u32,
    group_skipped: bool,
}

impl TreeScanState {
    /// Starts scanning `owner`'s tree (root-level entries report `owner`
    /// as their parent).
    pub fn new(owner: u32) -> TreeScanState {
        TreeScanState {
            current_parent: owner,
            group_skipped: false,
        }
    }

    /// Classifies the next raw entry.
    #[inline]
    pub fn step(&mut self, e: SuccEntry, skips: &mut NodeBitVec) -> TreeStep {
        if e.tagged {
            self.current_parent = e.node;
            self.group_skipped = skips.contains(e.node);
            return TreeStep::Marker;
        }
        if self.group_skipped {
            skips.insert(e.node);
            return TreeStep::Pruned(e.node);
        }
        TreeStep::Visit {
            parent: self.current_parent,
            node: e.node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::ListCursor;
    use crate::policy::ListPolicy;
    use tc_storage::{DiskSim, PageStore};

    /// Reads `owner`'s whole tree into `(parent, child)` pairs.
    fn read_tree<P: Pager>(store: &SuccStore, pager: &mut P, owner: u32) -> Vec<(u32, u32)> {
        let mut parent = owner;
        let mut out = Vec::new();
        for e in ListCursor::new(store, owner)
            .collect_entries(pager)
            .unwrap()
        {
            if e.tagged {
                parent = e.node;
            } else {
                out.push((parent, e.node));
            }
        }
        out
    }

    fn setup() -> (DiskSim, SuccStore) {
        let mut disk = DiskSim::new();
        let store = SuccStore::new(&mut disk, 32, ListPolicy::Spill);
        (disk, store)
    }

    #[test]
    fn appender_groups_by_parent() {
        let (mut disk, mut store) = setup();
        let mut app = TreeAppender::new(0);
        // Root children 1, 2; then 1's children 3, 4; then 2's child 5.
        for (p, v) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)] {
            app.append(&mut disk, &mut store, p, v).unwrap();
        }
        assert_eq!(
            read_tree(&store, &mut disk, 0),
            vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]
        );
        // Storage: 2 root entries + marker(1) + 2 + marker(2) + 1 = 7.
        assert_eq!(store.len(0), 7);
    }

    #[test]
    fn one_flush_writes_what_appends_write() {
        let (mut disk, mut store) = setup();
        let pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (0, 6)];
        let (mut one, mut each) = (TreeAppender::new(0), TreeAppender::new(9));
        for (p, v) in pairs {
            one.push(p, v);
            each.append(&mut disk, &mut store, if p == 0 { 9 } else { p }, v)
                .unwrap();
        }
        assert_eq!(store.len(0), 0, "nothing written before the flush");
        one.flush(&mut disk, &mut store).unwrap();
        one.flush(&mut disk, &mut store).unwrap();
        assert_eq!(read_tree(&store, &mut disk, 0), pairs.to_vec());
        assert_eq!(store.len(0), store.len(9));
    }

    #[test]
    fn late_root_children_get_explicit_marker() {
        let (mut disk, mut store) = setup();
        let mut app = TreeAppender::new(7);
        app.append(&mut disk, &mut store, 7, 1).unwrap();
        app.append(&mut disk, &mut store, 1, 2).unwrap();
        app.append(&mut disk, &mut store, 7, 3).unwrap(); // back to root
        assert_eq!(
            read_tree(&store, &mut disk, 7),
            vec![(7, 1), (1, 2), (7, 3)]
        );
    }

    /// Drives `owner`'s tree through [`TreeScanState::step`] as the
    /// engines do, skipping each visited node listed in `skip`: the
    /// visits, the pruned nodes and the number of entries read.
    fn scan(
        disk: &mut DiskSim,
        store: &SuccStore,
        owner: u32,
        skip: &[u32],
    ) -> (Vec<(u32, u32)>, Vec<u32>, usize) {
        let entries = ListCursor::new(store, owner).collect_entries(disk).unwrap();
        let (mut skips, mut state) = (NodeBitVec::new(32), TreeScanState::new(owner));
        let (mut visits, mut pruned) = (Vec::new(), Vec::new());
        for &e in &entries {
            match state.step(e, &mut skips) {
                TreeStep::Marker => {}
                TreeStep::Pruned(v) => pruned.push(v),
                TreeStep::Visit { parent, node } => {
                    visits.push((parent, node));
                    if skip.contains(&node) {
                        skips.insert(node);
                    }
                }
            }
        }
        (visits, pruned, entries.len())
    }

    fn tree(arcs: &[(u32, u32)]) -> (DiskSim, SuccStore) {
        let (mut disk, mut store) = setup();
        let mut app = TreeAppender::new(0);
        for &(p, v) in arcs {
            app.append(&mut disk, &mut store, p, v).unwrap();
        }
        (disk, store)
    }

    #[test]
    fn scan_without_skips_visits_everything() {
        let (mut disk, store) = tree(&[(0, 1), (0, 2), (1, 3), (3, 4)]);
        let (visits, pruned, read) = scan(&mut disk, &store, 0, &[]);
        assert_eq!(visits, vec![(0, 1), (0, 2), (1, 3), (3, 4)]);
        assert!(pruned.is_empty());
        // 4 children + 2 markers read.
        assert_eq!(read, 6);
    }

    #[test]
    fn skipping_a_node_prunes_its_subtree() {
        // 0 -> {1, 2}; 1 -> {3}; 3 -> {4, 5}; 2 -> {6}.
        let (mut disk, store) = tree(&[(0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (2, 6)]);
        let (visits, pruned, _) = scan(&mut disk, &store, 0, &[3]);
        assert_eq!(visits, vec![(0, 1), (0, 2), (1, 3), (2, 6)]);
        assert_eq!(pruned, vec![4, 5]);
    }

    #[test]
    fn pruning_cascades_through_descendant_groups() {
        // 0 -> 1 -> 2 -> 3 (deep chain).
        let (mut disk, store) = tree(&[(0, 1), (1, 2), (2, 3)]);
        let (visits, pruned, _) = scan(&mut disk, &store, 0, &[1]);
        assert_eq!(visits, vec![(0, 1)], "only node 1 offered");
        assert_eq!(pruned, vec![2, 3], "2 and 3 pruned transitively");
    }

    #[test]
    fn pages_still_fetched_when_everything_pruned() {
        // The paper's key SPN observation: pruning saves entry reads, not
        // page reads. Everything sits under node 1, over several pages.
        let arcs: Vec<(u32, u32)> = [(0, 1)]
            .into_iter()
            .chain((2..600u32).map(|v| (1, v % 32)))
            .collect();
        let (mut disk, store) = tree(&arcs);
        let pages = store.pages_of(0).len();
        assert!(pages >= 2);
        disk.reset_stats();
        let (visits, pruned, _) = scan(&mut disk, &store, 0, &[1]);
        assert_eq!((visits.len(), pruned.len()), (1, 598));
        assert_eq!(
            disk.stats().reads,
            pages as u64,
            "every page fetched despite pruning"
        );
    }
}
