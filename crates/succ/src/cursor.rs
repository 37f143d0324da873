//! Sequential readers over stored successor lists.
//!
//! A [`ListCursor`] walks one node's block chain in order, fetching each
//! page once per contiguous run of blocks (the access pattern the paper's
//! clustering is designed for) and yielding the entries of that run as a
//! batch. The snapshot is taken at construction, so the common pattern of
//! scanning a list's original prefix while appending expanded successors
//! to the *same* list (BTC expanding `S_i` over `S_i`'s own immediate
//! children) is well-defined. The engines read a list whole and only then
//! write: a union collects its new entries while it reads and writes them
//! as one run ([`SuccStore::extend_flat`]) when the read is done.

use crate::store::SuccStore;
use tc_storage::layout::succ::{SuccEntry, SuccPage, ENTRIES_PER_BLOCK};
use tc_storage::{Page, Pager, StorageResult, SuccBlockRef};

/// A page-batched cursor over one list.
pub struct ListCursor {
    /// (block, entries-in-block) in chain order.
    blocks: Vec<(SuccBlockRef, u8)>,
    /// Next chain position to read.
    pos: usize,
}

impl ListCursor {
    /// Snapshots `node`'s current list in `store`.
    pub fn new(store: &SuccStore, node: u32) -> ListCursor {
        let chain = store.chain(node);
        let len = store.len(node);
        let blocks = chain
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let used = len
                    .saturating_sub(i * ENTRIES_PER_BLOCK)
                    .min(ENTRIES_PER_BLOCK);
                (r, used as u8)
            })
            .collect();
        ListCursor { blocks, pos: 0 }
    }

    /// Total entries the cursor will yield.
    pub fn remaining_entries(&self) -> usize {
        self.blocks[self.pos..]
            .iter()
            .map(|&(_, u)| u as usize)
            .sum()
    }

    /// Reads the next contiguous same-page run of blocks; returns `None`
    /// at end of list. One pager access per call.
    pub fn next_batch<P: Pager>(&mut self, pager: &mut P) -> StorageResult<Option<Vec<SuccEntry>>> {
        let mut out = Vec::new();
        Ok(self.read_run(pager, &mut out)?.then_some(out))
    }

    /// Appends the entries of the next same-page run of blocks to `out`
    /// (one pager access); `false` at end of list.
    fn read_run<P: Pager>(
        &mut self,
        pager: &mut P,
        out: &mut Vec<SuccEntry>,
    ) -> StorageResult<bool> {
        if self.pos >= self.blocks.len() {
            return Ok(false);
        }
        let page = self.blocks[self.pos].0.page;
        let mut end = self.pos;
        while end < self.blocks.len() && self.blocks[end].0.page == page {
            end += 1;
        }
        let run = &self.blocks[self.pos..end];
        out.reserve(run.iter().map(|&(_, used)| used as usize).sum());
        pager.with_page(page, |pg: &Page| {
            for &(r, used) in run {
                out.extend(SuccPage::entries(pg, r.block as usize, used as usize));
            }
        })?;
        self.pos = end;
        Ok(true)
    }

    /// Convenience: drains the cursor into a vector of node ids (tags
    /// dropped).
    pub fn collect_nodes<P: Pager>(self, pager: &mut P) -> StorageResult<Vec<u32>> {
        let entries = self.collect_entries(pager)?;
        Ok(entries.iter().map(|e| e.node).collect())
    }

    /// Drains the cursor into raw entries (tags preserved).
    ///
    /// The algorithms *materialize* a list before unioning it into a
    /// growing target, because a union's writes follow its read: the new
    /// entries go out as one run once the list has been read, and that
    /// run may split pages and relocate any list's blocks — including the
    /// one just read. Materializing first (still one pager access per
    /// page, charged identically) keeps the entries the union works on
    /// independent of where the blocks end up.
    pub fn collect_entries<P: Pager>(self, pager: &mut P) -> StorageResult<Vec<SuccEntry>> {
        let mut out = Vec::new();
        self.collect_into(pager, &mut out)?;
        Ok(out)
    }

    /// [`ListCursor::collect_entries`] into a caller-owned buffer (cleared
    /// first), so a loop of unions reuses one allocation.
    pub fn collect_into<P: Pager>(
        mut self,
        pager: &mut P,
        out: &mut Vec<SuccEntry>,
    ) -> StorageResult<()> {
        out.clear();
        out.reserve(self.remaining_entries());
        while self.read_run(pager, out)? {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ListPolicy;
    use tc_storage::{DiskSim, PageStore};

    #[test]
    fn batches_group_same_page_blocks() {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, 4, ListPolicy::Spill);
        // 100 entries = 7 blocks, all on one page.
        for v in 0..100u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        disk.reset_stats();
        let mut cur = ListCursor::new(&store, 0);
        assert_eq!(cur.remaining_entries(), 100);
        let batch = cur.next_batch(&mut disk).unwrap().unwrap();
        assert_eq!(batch.len(), 100, "single page read in one batch");
        assert!(cur.next_batch(&mut disk).unwrap().is_none());
        assert_eq!(disk.stats().reads, 1);
    }

    #[test]
    fn empty_list_yields_nothing() {
        let mut disk = DiskSim::new();
        let store = SuccStore::new(&mut disk, 2, ListPolicy::Spill);
        let mut cur = ListCursor::new(&store, 1);
        assert!(cur.next_batch(&mut disk).unwrap().is_none());
        assert_eq!(cur.remaining_entries(), 0);
    }

    #[test]
    fn snapshot_ignores_later_appends() {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, 2, ListPolicy::Spill);
        for v in 0..5u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        let cur = ListCursor::new(&store, 0);
        for v in 5..10u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        assert_eq!(cur.collect_nodes(&mut disk).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn multi_page_lists_batch_per_page() {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, 2, ListPolicy::Spill);
        for v in 0..900u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        let mut cur = ListCursor::new(&store, 0);
        let mut batches = 0;
        let mut total = 0;
        while let Some(b) = cur.next_batch(&mut disk).unwrap() {
            batches += 1;
            total += b.len();
        }
        assert_eq!(total, 900);
        assert_eq!(batches, 2, "two pages, two batches");
    }

    #[test]
    fn preserves_tags() {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, 2, ListPolicy::Spill);
        store.append(&mut disk, 0, SuccEntry::tagged(5)).unwrap();
        store.append(&mut disk, 0, SuccEntry::plain(6)).unwrap();
        let mut cur = ListCursor::new(&store, 0);
        let batch = cur.next_batch(&mut disk).unwrap().unwrap();
        assert_eq!(batch, vec![SuccEntry::tagged(5), SuccEntry::plain(6)]);
    }

    #[test]
    fn collect_into_replaces_the_buffer_contents() {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, 2, ListPolicy::Spill);
        for v in 0..500u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        store.append(&mut disk, 1, SuccEntry::tagged(7)).unwrap();
        let mut buf = Vec::new();
        for node in [0, 1, 0] {
            ListCursor::new(&store, node)
                .collect_into(&mut disk, &mut buf)
                .unwrap();
            let fresh = ListCursor::new(&store, node)
                .collect_entries(&mut disk)
                .unwrap();
            assert_eq!(buf, fresh, "node {node}");
        }
        assert_eq!(buf.len(), 500);
    }
}
