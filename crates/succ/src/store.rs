//! The paged successor-list store.

use crate::policy::ListPolicy;
use std::collections::BTreeMap;
use tc_storage::layout::succ::{SuccEntry, SuccPage, BLOCKS_PER_PAGE, ENTRIES_PER_BLOCK};
use tc_storage::{
    FileId, FileKind, Page, PageId, Pager, StorageError, StorageResult, SuccBlockRef,
};

/// Allocation and maintenance counters of a [`SuccStore`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct SuccStats {
    /// Entries appended to lists.
    pub entries_written: u64,
    /// Blocks allocated.
    pub blocks_allocated: u64,
    /// Pages allocated for the store.
    pub pages_allocated: u64,
    /// Page splits performed by the list replacement policy.
    pub page_splits: u64,
    /// Blocks copied to another page during splits.
    pub blocks_moved: u64,
}

#[derive(Clone, Default, Debug)]
struct ListMeta {
    blocks: Vec<SuccBlockRef>,
    len: u32,
}

/// A store of per-node successor lists in the paper's 30-block page
/// format, allocated through a [`Pager`] so every touch is charged to the
/// buffer pool.
///
/// The store keeps a small in-memory catalog (block chains and lengths
/// per node, a free-block mask per page) — the moral equivalent of the
/// node table the paper's implementation keeps in memory — while all
/// entry data lives on pages.
///
/// Lists grow by runs ([`SuccStore::extend`], [`SuccStore::extend_flat`];
/// an append is a run of one), a block per pager request. Intra-list
/// clustering: a list prefers free blocks on its current tail page.
/// Inter-list clustering: first blocks are packed onto a shared fill
/// page in creation (topological) order. When a list must grow past a
/// full page, the [`ListPolicy`] decides how the page is split.
pub struct SuccStore {
    file: FileId,
    dir: Vec<ListMeta>,
    fill_page: Option<PageId>,
    /// Free blocks per page as a mask by page id, bit `b` set iff block `b`
    /// is free (0 for pages of other files, which this store never asks
    /// about). Its lowest set bit is the block [`SuccPage::find_free_block`]
    /// would find, so claims need no page scan (`take_free_block`).
    free_cache: Vec<u32>,
    policy: ListPolicy,
    stats: SuccStats,
}

impl SuccStore {
    /// Creates a store for nodes `0..n` backed by a fresh file.
    pub fn new<P: Pager>(pager: &mut P, n: usize, policy: ListPolicy) -> SuccStore {
        let file = pager.create_file(FileKind::SuccessorList);
        SuccStore {
            file,
            dir: vec![ListMeta::default(); n],
            fill_page: None,
            free_cache: Vec::new(),
            policy,
            stats: SuccStats::default(),
        }
    }

    /// The backing file.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Entries currently in `node`'s list.
    pub fn len(&self, node: u32) -> usize {
        self.dir[node as usize].len as usize
    }

    /// Whether `node`'s list is empty.
    pub fn is_empty(&self, node: u32) -> bool {
        self.len(node) == 0
    }

    /// The distinct pages holding `node`'s list, in chain order.
    pub fn pages_of(&self, node: u32) -> Vec<PageId> {
        let mut out: Vec<PageId> = Vec::new();
        self.add_pages_of(node, &mut out);
        out
    }

    /// Appends to `pages` the pages holding `node`'s list that `pages`
    /// does not list yet, in chain order (the set-union form of
    /// [`SuccStore::pages_of`], for callers gathering the pages of many
    /// lists into one buffer).
    pub fn add_pages_of(&self, node: u32, pages: &mut Vec<PageId>) {
        for b in &self.dir[node as usize].blocks {
            if pages.last() != Some(&b.page) && !pages.contains(&b.page) {
                pages.push(b.page);
            }
        }
    }

    /// The block chain of `node` (for cursors).
    pub(crate) fn chain(&self, node: u32) -> &[SuccBlockRef] {
        &self.dir[node as usize].blocks
    }

    /// Allocation counters.
    pub fn stats(&self) -> &SuccStats {
        &self.stats
    }

    /// Exhaustively cross-checks the in-memory catalog against the
    /// on-page state: every chain block must be owned by its node with a
    /// used count matching the chain position, and every owned block on
    /// every page must appear in exactly one chain. Intended for tests
    /// and debugging; reads every page of the store through `pager`. A
    /// disagreement is a [`StorageError::CorruptFile`] naming the store's
    /// file and the rule broken.
    pub fn verify_integrity<P: Pager>(&self, pager: &mut P) -> StorageResult<()> {
        let corrupt = |what| StorageError::CorruptFile {
            file: self.file.0,
            what,
        };
        let mut chained: BTreeMap<(PageId, u8), u32> = BTreeMap::new();
        for node in 0..self.dir.len() as u32 {
            let meta = &self.dir[node as usize];
            let len = meta.len as usize;
            if len > meta.blocks.len() * ENTRIES_PER_BLOCK {
                return Err(corrupt("length exceeds chain capacity"));
            }
            if !meta.blocks.is_empty() && len <= (meta.blocks.len() - 1) * ENTRIES_PER_BLOCK {
                return Err(corrupt("dangling tail block"));
            }
            for (i, &r) in meta.blocks.iter().enumerate() {
                if chained.insert((r.page, r.block), node).is_some() {
                    return Err(corrupt("block in two chains"));
                }
                let expect_used = (len - i * ENTRIES_PER_BLOCK).min(ENTRIES_PER_BLOCK);
                pager.with_page(r.page, |pg: &Page| {
                    if SuccPage::owner(pg, r.block as usize) != Some(node) {
                        Err(corrupt("block owned by another node"))
                    } else if SuccPage::used(pg, r.block as usize) != expect_used {
                        Err(corrupt("used count disagrees with the chain"))
                    } else {
                        Ok(())
                    }
                })??;
            }
        }
        // Reverse direction: owned blocks on pages must be chained, and
        // the free mask must agree with the pages bit for bit.
        for page in pager.file_page_ids(self.file)? {
            let free = self.free_mask(page);
            pager.with_page(page, |pg: &Page| {
                let orphan = (0..BLOCKS_PER_PAGE).any(|b| {
                    SuccPage::owner(pg, b)
                        .is_some_and(|owner| chained.get(&(page, b as u8)) != Some(&owner))
                });
                if orphan {
                    Err(corrupt("owned block in no chain"))
                } else if SuccPage::free_mask(pg) != free {
                    Err(corrupt("free cache disagrees with the page"))
                } else {
                    Ok(())
                }
            })??;
        }
        Ok(())
    }

    /// Appends `entry` to `node`'s list: a run of one.
    pub fn append<P: Pager>(
        &mut self,
        pager: &mut P,
        node: u32,
        entry: SuccEntry,
    ) -> StorageResult<()> {
        self.extend(pager, node, &[entry])
    }

    /// Appends a *flat-list* entry, maintaining the paper's convention
    /// that the last entry of a list is stored negated: a run of one.
    pub fn append_flat<P: Pager>(
        &mut self,
        pager: &mut P,
        node: u32,
        value: u32,
    ) -> StorageResult<()> {
        self.extend_flat(pager, node, &[value])
    }

    /// Appends `entries` to `node`'s list as one run (see
    /// [`SuccStore::extend_flat`] for the requests it makes).
    pub fn extend<P: Pager>(
        &mut self,
        pager: &mut P,
        node: u32,
        entries: &[SuccEntry],
    ) -> StorageResult<()> {
        self.write_run(pager, node, entries, |_, e| e)
    }

    /// Appends `values` to `node`'s *flat* list as one run: the previous
    /// last entry is untagged and the run's last entry is stored negated.
    ///
    /// A run makes the requests a loop of one-entry appends would, in the
    /// same order, with each stretch of consecutive requests to one page
    /// merged into one: the untag, then per block one `with_page_mut`
    /// that writes every entry the block takes, preceded by
    /// [`SuccStore`]'s allocation requests when the block is new. On an
    /// error, the entries written so far stay (`len` counts them) and the
    /// rest are not written.
    pub fn extend_flat<P: Pager>(
        &mut self,
        pager: &mut P,
        node: u32,
        values: &[u32],
    ) -> StorageResult<()> {
        if values.is_empty() {
            return Ok(());
        }
        let len = self.dir[node as usize].len as usize;
        if len > 0 {
            // Untag the previous last entry (a buffer hit: it is on the
            // page the run starts on, or the one before it).
            let prev = self.dir[node as usize].blocks[(len - 1) / ENTRIES_PER_BLOCK];
            pager.with_page_mut(prev.page, |pg: &mut Page| {
                SuccPage::untag_entry(pg, prev.block as usize, (len - 1) % ENTRIES_PER_BLOCK)
            })?;
        }
        let last = values.len() - 1;
        self.write_run(pager, node, values, |i, v| SuccEntry {
            node: v,
            tagged: i == last,
        })
    }

    /// Writes `entry(i, items[i])` for every item after `node`'s last
    /// entry: the tail block's free slots first, then blocks from
    /// [`SuccStore::alloc_block`], one `with_page_mut` per block.
    fn write_run<P: Pager, T: Copy>(
        &mut self,
        pager: &mut P,
        node: u32,
        items: &[T],
        entry: impl Fn(usize, T) -> SuccEntry,
    ) -> StorageResult<()> {
        let mut done = 0;
        while done < items.len() {
            let meta = &self.dir[node as usize];
            let (len, slot) = (meta.len as usize, meta.len as usize % ENTRIES_PER_BLOCK);
            let (target, claimed) = match meta.blocks.last() {
                Some(&tail) if len < meta.blocks.len() * ENTRIES_PER_BLOCK => (tail, false),
                _ => (self.alloc_block(pager, node)?, true),
            };
            let take = (ENTRIES_PER_BLOCK - slot).min(items.len() - done);
            let run = items[done..done + take].iter().zip(done..);
            let run = run.map(|(&x, i)| entry(i, x));
            let written = pager.with_page_mut(target.page, |pg: &mut Page| {
                SuccPage::fill(pg, target.block as usize, slot, run)
            });
            if let Err(e) = written {
                // No chain may end in an empty block: give it back.
                // Should that request fail too, the block stays claimed
                // and empty, and the next run fills it.
                if claimed && self.unclaim(pager, target).is_ok() {
                    self.dir[node as usize].blocks.pop();
                    self.stats.blocks_allocated -= 1;
                }
                return Err(e);
            }
            self.dir[node as usize].len += take as u32;
            self.stats.entries_written += take as u64;
            done += take;
        }
        Ok(())
    }

    /// Frees the claimed block `r` on its page: the undo of a claim whose
    /// next request failed, so that a single failed request leaves the
    /// catalog and the pages agreeing.
    fn unclaim<P: Pager>(&mut self, pager: &mut P, r: SuccBlockRef) -> StorageResult<()> {
        pager.with_page_mut(r.page, |pg: &mut Page| {
            SuccPage::free_block(pg, r.block as usize)
        })?;
        self.free_cache[r.page.index()] |= 1 << r.block;
        Ok(())
    }

    /// Allocates the next block for `node` per the clustering rules and
    /// the list replacement policy.
    fn alloc_block<P: Pager>(&mut self, pager: &mut P, node: u32) -> StorageResult<SuccBlockRef> {
        let Some(&tail) = self.dir[node as usize].blocks.last() else {
            // First block: inter-list clustering on the shared fill page.
            return self.alloc_on_fill_page(pager, node);
        };
        // Intra-list clustering: stay on the tail page if possible.
        if self.free_mask(tail.page) != 0 {
            return self.claim_block(pager, tail.page, node);
        }
        // Tail page full: list replacement policy decides.
        match self.policy {
            ListPolicy::Spill => self.alloc_on_fill_page(pager, node),
            ListPolicy::MoveShortest => self.split_move_shortest(pager, tail.page, node),
            ListPolicy::MoveGrowing => self.split_move_growing(pager, tail.page, node),
        }
    }

    fn free_mask(&self, page: PageId) -> u32 {
        self.free_cache.get(page.index()).copied().unwrap_or(0)
    }

    /// Takes the mask's lowest free block on `page` and hands it to
    /// `place` inside one `with_page_mut`. Only that block's owner word is
    /// read: when it is not zero the mask is stale, and the result is
    /// [`StorageError::PageFull`] with the page and the catalog unchanged.
    fn take_free_block<P: Pager>(
        &mut self,
        pager: &mut P,
        page: PageId,
        place: impl FnOnce(&mut Page, usize),
    ) -> StorageResult<SuccBlockRef> {
        let mask = self.free_mask(page);
        let block = mask.trailing_zeros() as u8;
        let b = block as usize;
        let taken = mask != 0
            && pager.with_page_mut(page, |pg: &mut Page| {
                let free = SuccPage::owner(pg, b).is_none();
                if free {
                    debug_assert_eq!(SuccPage::find_free_block(pg), Some(b));
                    place(pg, b);
                }
                free
            })?;
        if !taken {
            return Err(StorageError::PageFull(page));
        }
        self.free_cache[page.index()] &= !(1 << b);
        Ok(SuccBlockRef { page, block })
    }

    /// Claims a free block on `page` for `node`.
    fn claim_block<P: Pager>(
        &mut self,
        pager: &mut P,
        page: PageId,
        node: u32,
    ) -> StorageResult<SuccBlockRef> {
        let r = self.take_free_block(pager, page, |pg, b| SuccPage::set_owner(pg, b, node))?;
        self.dir[node as usize].blocks.push(r);
        self.stats.blocks_allocated += 1;
        Ok(r)
    }

    /// Allocates on the shared fill page, opening a new one when full.
    fn alloc_on_fill_page<P: Pager>(
        &mut self,
        pager: &mut P,
        node: u32,
    ) -> StorageResult<SuccBlockRef> {
        let page = self.fill_page_with_room(pager, None)?;
        self.claim_block(pager, page, node)
    }

    /// The shared fill page if it has a free block and is not `avoid`,
    /// else a fresh page that becomes the fill page.
    fn fill_page_with_room<P: Pager>(
        &mut self,
        pager: &mut P,
        avoid: Option<PageId>,
    ) -> StorageResult<PageId> {
        match self.fill_page {
            Some(p) if self.free_mask(p) != 0 && Some(p) != avoid => Ok(p),
            _ => {
                let p = self.fresh_page(pager)?;
                self.fill_page = Some(p);
                Ok(p)
            }
        }
    }

    fn fresh_page<P: Pager>(&mut self, pager: &mut P) -> StorageResult<PageId> {
        let p = pager.alloc_page(self.file)?;
        if p.index() >= self.free_cache.len() {
            self.free_cache.resize(p.index() + 1, 0);
        }
        self.free_cache[p.index()] = (1 << BLOCKS_PER_PAGE) - 1;
        self.stats.pages_allocated += 1;
        Ok(p)
    }

    /// MOVE-SHORTEST split: relocate the shortest other list on `page`,
    /// then grow into a freed block. Falls back to the fill page when the
    /// page holds only the growing list.
    fn split_move_shortest<P: Pager>(
        &mut self,
        pager: &mut P,
        page: PageId,
        node: u32,
    ) -> StorageResult<SuccBlockRef> {
        // Inventory the page's other owners, one slot per block.
        let mut owners = [0u32; BLOCKS_PER_PAGE];
        let mut others = 0;
        pager.with_page(page, |pg: &Page| {
            for b in 0..BLOCKS_PER_PAGE {
                if let Some(o) = SuccPage::owner(pg, b).filter(|&o| o != node) {
                    owners[others] = o;
                    others += 1;
                }
            }
        })?;
        // Sorted, each owner is one run; its length is its block count.
        let owners = &mut owners[..others];
        owners.sort_unstable();
        let victim = owners
            .chunk_by(|a, b| a == b)
            .min_by_key(|run| (run.len(), run[0]))
            .map(|run| run[0]);
        let Some(victim) = victim else {
            // Page holds only the growing list.
            return self.alloc_on_fill_page(pager, node);
        };
        self.relocate_blocks(pager, victim, page, None)?;
        self.stats.page_splits += 1;
        self.claim_block(pager, page, node)
    }

    /// MOVE-GROWING split: relocate the growing list's blocks on `page`
    /// to a dedicated fresh page and grow there.
    fn split_move_growing<P: Pager>(
        &mut self,
        pager: &mut P,
        page: PageId,
        node: u32,
    ) -> StorageResult<SuccBlockRef> {
        let ours_on_page = self.dir[node as usize]
            .blocks
            .iter()
            .filter(|r| r.page == page)
            .count();
        if ours_on_page >= BLOCKS_PER_PAGE {
            // The page is entirely ours; nothing to split — continue the
            // list on a dedicated fresh page (still intra-clustered).
            let p = self.fresh_page(pager)?;
            return self.claim_block(pager, p, node);
        }
        let dest = self.fresh_page(pager)?;
        self.relocate_blocks(pager, node, page, Some(dest))?;
        self.stats.page_splits += 1;
        self.claim_block(pager, dest, node)
    }

    /// Moves all of `owner`'s blocks that live on `from` to the page
    /// `to`, or to fill-page space when there is none.
    fn relocate_blocks<P: Pager>(
        &mut self,
        pager: &mut P,
        owner: u32,
        from: PageId,
        to: Option<PageId>,
    ) -> StorageResult<()> {
        // A moved block never lands on `from`, so one walk of the chain
        // meets each of its blocks there exactly once.
        for pos in 0..self.dir[owner as usize].blocks.len() {
            let old = self.dir[owner as usize].blocks[pos];
            if old.page != from {
                continue;
            }
            let dest_page = match to {
                Some(p) => p,
                // `from` gains a free block with every move; keep off it.
                None => self.fill_page_with_room(pager, Some(from))?,
            };
            let new = self.move_block(pager, owner, old, dest_page)?;
            self.dir[owner as usize].blocks[pos] = new;
        }
        Ok(())
    }

    /// Copies one block to `dest_page` as bytes, freeing the original.
    /// Returns the new block ref; the caller updates the chain.
    fn move_block<P: Pager>(
        &mut self,
        pager: &mut P,
        owner: u32,
        old: SuccBlockRef,
        dest_page: PageId,
    ) -> StorageResult<SuccBlockRef> {
        let mut raw = [0; ENTRIES_PER_BLOCK * 4];
        let used = pager.with_page(old.page, |pg: &Page| {
            SuccPage::read_block(pg, old.block as usize, &mut raw)
        })?;
        let new = self.take_free_block(pager, dest_page, |pg, b| {
            SuccPage::place_block(pg, b, owner, &raw[..used * 4])
        })?;
        // Free the original; should that fail, drop the copy instead, so
        // the block is in one place only.
        let freed = pager.with_page_mut(old.page, |pg: &mut Page| {
            SuccPage::free_block(pg, old.block as usize);
        });
        if let Err(e) = freed {
            let _ = self.unclaim(pager, new);
            return Err(e);
        }
        self.free_cache[old.page.index()] |= 1 << old.block;
        self.stats.blocks_moved += 1;
        Ok(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::ListCursor;
    use tc_storage::DiskSim;

    fn store_with(policy: ListPolicy, n: usize) -> (DiskSim, SuccStore) {
        let mut disk = DiskSim::new();
        let store = SuccStore::new(&mut disk, n, policy);
        (disk, store)
    }

    fn read_all(disk: &mut DiskSim, store: &SuccStore, node: u32) -> Vec<u32> {
        ListCursor::new(store, node).collect_nodes(disk).unwrap()
    }

    #[test]
    fn append_and_read_round_trip() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 4);
        for v in 0..40u32 {
            store.append(&mut disk, 1, SuccEntry::plain(v)).unwrap();
        }
        assert_eq!(store.len(1), 40);
        assert_eq!(store.dir[1].blocks.len(), 3); // ceil(40/15)
        assert_eq!(read_all(&mut disk, &store, 1), (0..40).collect::<Vec<_>>());
        assert_eq!(read_all(&mut disk, &store, 0), Vec::<u32>::new());
    }

    #[test]
    fn inter_list_clustering_packs_small_lists() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 100);
        // 30 single-entry lists must share one page.
        for node in 0..30u32 {
            store
                .append(&mut disk, node, SuccEntry::plain(node))
                .unwrap();
        }
        assert_eq!(store.stats.pages_allocated, 1);
        store.append(&mut disk, 30, SuccEntry::plain(1)).unwrap();
        assert_eq!(store.stats.pages_allocated, 2);
    }

    #[test]
    fn intra_list_clustering_prefers_tail_page() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 10);
        // One list growing alone stays on one page for 450 entries.
        for v in 0..450u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        assert_eq!(store.stats.pages_allocated, 1);
        assert_eq!(store.pages_of(0).len(), 1);
        store.append(&mut disk, 0, SuccEntry::plain(999)).unwrap();
        assert_eq!(store.pages_of(0).len(), 2);
    }

    #[test]
    fn flat_append_maintains_negation_convention() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 4);
        for v in [7u32, 8, 9] {
            store.append_flat(&mut disk, 2, v).unwrap();
        }
        let entries = ListCursor::new(&store, 2)
            .collect_entries(&mut disk)
            .unwrap();
        assert_eq!(entries.len(), 3);
        assert!(!entries[0].tagged && !entries[1].tagged);
        assert!(entries[2].tagged, "last entry must be negated");
        assert_eq!(entries[2].node, 9);
    }

    #[test]
    fn spill_policy_spills_without_moving() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 10);
        // Fill page 0 with two lists (15 blocks each = 225 entries each).
        for v in 0..225u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        for v in 0..225u32 {
            store.append(&mut disk, 1, SuccEntry::plain(v)).unwrap();
        }
        assert_eq!(store.stats.pages_allocated, 1);
        // Growing list 0 must spill to a new page; nothing moves.
        store.append(&mut disk, 0, SuccEntry::plain(999)).unwrap();
        assert_eq!(store.stats().blocks_moved, 0);
        assert_eq!(store.stats().page_splits, 0);
        assert_eq!(store.pages_of(0).len(), 2);
        assert_eq!(store.pages_of(1).len(), 1);
        assert_eq!(read_all(&mut disk, &store, 0).len(), 226);
    }

    #[test]
    fn move_shortest_relocates_victim() {
        let (mut disk, mut store) = store_with(ListPolicy::MoveShortest, 10);
        for v in 0..420u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        for v in 0..30u32 {
            store
                .append(&mut disk, 1, SuccEntry::plain(100 + v))
                .unwrap();
        }
        assert_eq!(
            store.stats.pages_allocated, 1,
            "28 + 2 blocks share the page"
        );
        // Growing list 0 past its page forces list 1 (the shortest other)
        // off the page.
        for v in 0..60u32 {
            store
                .append(&mut disk, 0, SuccEntry::plain(500 + v))
                .unwrap();
        }
        assert!(store.stats().page_splits >= 1);
        assert!(store.stats().blocks_moved >= 2);
        // Both lists still read back intact.
        assert_eq!(read_all(&mut disk, &store, 0).len(), 480);
        assert_eq!(
            read_all(&mut disk, &store, 1),
            (100..130).collect::<Vec<_>>()
        );
        // List 0 stayed on its page (fully clustered).
        assert_eq!(store.pages_of(0).len(), 2); // 480 entries = 32 blocks > 30
    }

    #[test]
    fn move_growing_relocates_self() {
        let (mut disk, mut store) = store_with(ListPolicy::MoveGrowing, 10);
        // Two lists interleaved on page 0.
        for v in 0..210u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        for v in 0..240u32 {
            store
                .append(&mut disk, 1, SuccEntry::plain(1000 + v))
                .unwrap();
        }
        assert_eq!(store.stats.pages_allocated, 1);
        // Growing list 0 moves itself to a fresh page.
        store.append(&mut disk, 0, SuccEntry::plain(9999)).unwrap();
        assert!(store.stats().blocks_moved >= 14);
        assert_eq!(store.pages_of(0).len(), 1, "list 0 fully on its new page");
        assert_eq!(read_all(&mut disk, &store, 0).len(), 211);
        assert_eq!(read_all(&mut disk, &store, 1).len(), 240);
    }

    #[test]
    fn many_lists_many_policies_round_trip() {
        for policy in ListPolicy::ALL {
            let (mut disk, mut store) = store_with(policy, 50);
            // Deterministic interleaved growth.
            let mut x = 7u64;
            let mut expect: Vec<Vec<u32>> = vec![Vec::new(); 50];
            for i in 0..5000u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let node = (x >> 33) as u32 % 50;
                store.append(&mut disk, node, SuccEntry::plain(i)).unwrap();
                expect[node as usize].push(i);
            }
            for node in 0..50u32 {
                assert_eq!(
                    read_all(&mut disk, &store, node),
                    expect[node as usize],
                    "{} node {node}",
                    policy.name()
                );
            }
            store.verify_integrity(&mut disk).unwrap();
        }
    }

    #[test]
    fn verify_integrity_names_the_file_of_a_foreign_owner() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 4);
        store.extend_flat(&mut disk, 1, &[5, 6, 7]).unwrap();
        store.verify_integrity(&mut disk).unwrap();
        let page = store.pages_of(1)[0];
        disk.with_page_mut(page, |pg: &mut Page| SuccPage::set_owner(pg, 0, 2))
            .unwrap();
        assert_eq!(
            store.verify_integrity(&mut disk),
            Err(StorageError::CorruptFile {
                file: store.file_id().0,
                what: "block owned by another node",
            })
        );
    }

    #[test]
    fn verify_integrity_compares_the_free_mask_bit_for_bit() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 4);
        store.extend_flat(&mut disk, 1, &[5, 6, 7]).unwrap();
        let page = store.pages_of(1)[0];
        // Block 0 is owned and block 1 free: swapping their bits keeps
        // the free count and breaks the mask.
        store.free_cache[page.index()] ^= 0b11;
        assert_eq!(
            store.verify_integrity(&mut disk),
            Err(StorageError::CorruptFile {
                file: store.file_id().0,
                what: "free cache disagrees with the page",
            })
        );
    }

    #[test]
    fn a_stale_free_mask_is_page_full_and_changes_nothing() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 4);
        store.extend_flat(&mut disk, 1, &[5, 6, 7]).unwrap();
        let page = store.pages_of(1)[0];
        // Block 1 is the mask's next pick: give it an owner behind the
        // store's back.
        disk.with_page_mut(page, |pg: &mut Page| SuccPage::set_owner(pg, 1, 3))
            .unwrap();
        let (mask, stats) = (store.free_cache.clone(), store.stats().clone());
        assert_eq!(
            store.extend_flat(&mut disk, 2, &[9]),
            Err(StorageError::PageFull(page))
        );
        assert_eq!(store.free_cache, mask);
        assert_eq!(store.stats(), &stats);
        assert_eq!((store.len(2), store.dir[2].blocks.len()), (0, 0));
        assert_eq!(read_all(&mut disk, &store, 1), vec![5, 6, 7]);
    }

    #[test]
    fn stats_track_allocation() {
        let (mut disk, mut store) = store_with(ListPolicy::Spill, 4);
        for v in 0..31u32 {
            store.append(&mut disk, 0, SuccEntry::plain(v)).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.entries_written, 31);
        assert_eq!(s.blocks_allocated, 3);
        assert_eq!(s.pages_allocated, 1);
    }
}
