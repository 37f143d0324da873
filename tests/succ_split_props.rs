//! Property test: the allocation-free successor-store write path
//! against the code it replaced.
//!
//! `SuccStore`'s append, page-split, relocate and move-block code was
//! rewritten to run on fixed arrays (no `HashMap` inventory, no
//! position lists, no entry `Vec`). The rewrite must be invisible to
//! everything the study counts, so the replaced code is kept here
//! verbatim as [`RefStore`], the oracle. One random stream of
//! interleaved `append` / `append_flat` calls drives both, each behind
//! its own buffer pool, for all three list policies, every page policy
//! and pool sizes 2 to 40. Afterwards the list contents (also checked
//! against a plain in-memory model), `SuccStats`, `BufferStats`,
//! `DiskStats` and the digest of the pager event stream must be equal —
//! the same `with_page` / `with_page_mut` / `alloc_page` requests in the
//! same order. A third copy of the new store runs the same stream on a
//! bare disk and has `verify_integrity` called after every step (that
//! check reads pages, so it cannot share a pool whose counts are
//! compared). Replay a failure with the printed `TC_DET_SEED=...`.

use std::collections::HashMap;
use std::sync::Arc;
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::det::check::{self, Checker};
use tc_study::det::{require_eq, Rng};
use tc_study::storage::{
    DiskSim, FileId, FileKind, Page, PageId, Pager, StorageResult, SuccBlockRef, SuccEntry,
    SuccPage, BLOCKS_PER_PAGE, ENTRIES_PER_BLOCK,
};
use tc_study::succ::{ListCursor, ListPolicy, SuccStats, SuccStore};
use tc_study::trace::{DigestSink, Tracer};

#[derive(Clone, Default, Debug)]
struct ListMeta {
    blocks: Vec<SuccBlockRef>,
    len: u32,
}

/// The successor store's write path as it stood before the rewrite,
/// copied unchanged (only the struct's name differs).
struct RefStore {
    file: FileId,
    dir: Vec<ListMeta>,
    fill_page: Option<PageId>,
    free_cache: Vec<u8>,
    policy: ListPolicy,
    stats: SuccStats,
}

// Verbatim includes the `&mut |pg| ..` closures the pager took as trait
// objects; they still compile against its generic signature.
#[allow(
    clippy::needless_borrows_for_generic_args,
    clippy::manual_is_multiple_of
)]
impl RefStore {
    fn new<P: Pager>(pager: &mut P, n: usize, policy: ListPolicy) -> RefStore {
        let file = pager.create_file(FileKind::SuccessorList);
        RefStore {
            file,
            dir: vec![ListMeta::default(); n],
            fill_page: None,
            free_cache: Vec::new(),
            policy,
            stats: SuccStats::default(),
        }
    }

    /// `node`'s list, read block by block along its chain.
    fn read<P: Pager>(&self, pager: &mut P, node: u32) -> StorageResult<Vec<SuccEntry>> {
        let mut out = Vec::new();
        for r in &self.dir[node as usize].blocks {
            pager.with_page(r.page, &mut |pg: &Page| {
                for k in 0..SuccPage::used(pg, r.block as usize) {
                    out.push(SuccPage::entry(pg, r.block as usize, k));
                }
            })?;
        }
        Ok(out)
    }

    /// Appends `entry` to `node`'s list.
    pub fn append<P: Pager>(
        &mut self,
        pager: &mut P,
        node: u32,
        entry: SuccEntry,
    ) -> StorageResult<()> {
        let meta = &self.dir[node as usize];
        // A new block is needed for the first entry and at every
        // 15-entry boundary thereafter.
        let needs_block = meta.blocks.is_empty() || (meta.len as usize) % ENTRIES_PER_BLOCK == 0;
        let target = if needs_block {
            self.alloc_block(pager, node)?
        } else {
            *meta.blocks.last().expect("non-empty chain")
        };
        let slot = (self.dir[node as usize].len as usize) % ENTRIES_PER_BLOCK;
        pager.with_page_mut(target.page, &mut |pg: &mut Page| {
            SuccPage::set_entry(pg, target.block as usize, slot, entry);
            SuccPage::set_used(pg, target.block as usize, slot + 1);
        })?;
        self.dir[node as usize].len += 1;
        self.stats.entries_written += 1;
        Ok(())
    }

    /// Appends a *flat-list* entry, maintaining the paper's convention
    /// that the last entry of a list is stored negated: the new entry is
    /// written tagged and the previous tail is untagged.
    pub fn append_flat<P: Pager>(
        &mut self,
        pager: &mut P,
        node: u32,
        value: u32,
    ) -> StorageResult<()> {
        let len = self.dir[node as usize].len as usize;
        if len > 0 {
            // Untag the previous last entry (almost always a buffer hit:
            // it is on the page we are about to append to, or the one
            // before it).
            let prev_block = self.dir[node as usize].blocks[(len - 1) / ENTRIES_PER_BLOCK];
            let prev_slot = (len - 1) % ENTRIES_PER_BLOCK;
            pager.with_page_mut(prev_block.page, &mut |pg: &mut Page| {
                let e = SuccPage::entry(pg, prev_block.block as usize, prev_slot);
                SuccPage::set_entry(
                    pg,
                    prev_block.block as usize,
                    prev_slot,
                    SuccEntry::plain(e.node),
                );
            })?;
        }
        self.append(pager, node, SuccEntry::tagged(value))
    }

    /// Allocates the next block for `node` per the clustering rules and
    /// the list replacement policy.
    fn alloc_block<P: Pager>(&mut self, pager: &mut P, node: u32) -> StorageResult<SuccBlockRef> {
        if let Some(&tail) = self.dir[node as usize].blocks.last() {
            // Intra-list clustering: stay on the tail page if possible.
            if self.free_on(tail.page) > 0 {
                return self.claim_block(pager, tail.page, node);
            }
            // Tail page full: list replacement policy decides.
            match self.policy {
                ListPolicy::Spill => self.alloc_on_fill_page(pager, node),
                ListPolicy::MoveShortest => self.split_move_shortest(pager, tail.page, node),
                ListPolicy::MoveGrowing => self.split_move_growing(pager, tail.page, node),
            }
        } else {
            // First block: inter-list clustering on the shared fill page.
            self.alloc_on_fill_page(pager, node)
        }
    }

    fn free_on(&self, page: PageId) -> u8 {
        self.free_cache.get(page.index()).copied().unwrap_or(0)
    }

    /// Claims a free block on `page` for `node`.
    fn claim_block<P: Pager>(
        &mut self,
        pager: &mut P,
        page: PageId,
        node: u32,
    ) -> StorageResult<SuccBlockRef> {
        debug_assert!(self.free_on(page) > 0);
        let block = pager.with_page_mut(page, &mut |pg: &mut Page| {
            let b = SuccPage::find_free_block(pg).expect("free cache out of sync");
            SuccPage::set_owner(pg, b, node);
            b as u8
        })?;
        self.free_cache[page.index()] -= 1;
        let r = SuccBlockRef { page, block };
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
        let page = match self.fill_page {
            Some(p) if self.free_on(p) > 0 => p,
            _ => {
                let p = self.fresh_page(pager)?;
                self.fill_page = Some(p);
                p
            }
        };
        self.claim_block(pager, page, node)
    }

    fn fresh_page<P: Pager>(&mut self, pager: &mut P) -> StorageResult<PageId> {
        let p = pager.alloc_page(self.file)?;
        if p.index() >= self.free_cache.len() {
            self.free_cache.resize(p.index() + 1, 0);
        }
        self.free_cache[p.index()] = BLOCKS_PER_PAGE as u8;
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
        // Inventory the page's owners.
        let mut by_owner: HashMap<u32, Vec<u8>> = HashMap::new();
        pager.with_page(page, &mut |pg: &Page| {
            for b in 0..BLOCKS_PER_PAGE {
                if let Some(o) = SuccPage::owner(pg, b) {
                    by_owner.entry(o).or_default().push(b as u8);
                }
            }
        })?;
        by_owner.remove(&node);
        let victim = by_owner
            .iter()
            .min_by_key(|(o, blocks)| (blocks.len(), **o))
            .map(|(&o, _)| o);
        let Some(victim) = victim else {
            // Page holds only the growing list.
            return self.alloc_on_fill_page(pager, node);
        };
        self.relocate_blocks(pager, victim, page)?;
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
        self.relocate_blocks_to(pager, node, page, dest)?;
        self.stats.page_splits += 1;
        self.claim_block(pager, dest, node)
    }

    /// Moves all of `owner`'s blocks that live on `from` to fill-page
    /// space.
    fn relocate_blocks<P: Pager>(
        &mut self,
        pager: &mut P,
        owner: u32,
        from: PageId,
    ) -> StorageResult<()> {
        let positions: Vec<usize> = self.dir[owner as usize]
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.page == from)
            .map(|(i, _)| i)
            .collect();
        for pos in positions {
            let old = self.dir[owner as usize].blocks[pos];
            // Destination: fill page (never `from`, which has no free
            // blocks).
            let dest_page = match self.fill_page {
                Some(p) if self.free_on(p) > 0 && p != from => p,
                _ => {
                    let p = self.fresh_page(pager)?;
                    self.fill_page = Some(p);
                    p
                }
            };
            let new = self.move_block(pager, owner, old, dest_page)?;
            self.dir[owner as usize].blocks[pos] = new;
        }
        Ok(())
    }

    /// Moves all of `owner`'s blocks on `from` to the specific page `to`.
    fn relocate_blocks_to<P: Pager>(
        &mut self,
        pager: &mut P,
        owner: u32,
        from: PageId,
        to: PageId,
    ) -> StorageResult<()> {
        let positions: Vec<usize> = self.dir[owner as usize]
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, r)| r.page == from)
            .map(|(i, _)| i)
            .collect();
        for pos in positions {
            let old = self.dir[owner as usize].blocks[pos];
            let new = self.move_block(pager, owner, old, to)?;
            self.dir[owner as usize].blocks[pos] = new;
        }
        Ok(())
    }

    /// Copies one block to `dest_page`, freeing the original. Returns the
    /// new block ref. Does not touch the chain (caller updates it).
    fn move_block<P: Pager>(
        &mut self,
        pager: &mut P,
        owner: u32,
        old: SuccBlockRef,
        dest_page: PageId,
    ) -> StorageResult<SuccBlockRef> {
        debug_assert!(self.free_on(dest_page) > 0);
        // Read the old block.
        let mut entries: Vec<SuccEntry> = Vec::with_capacity(ENTRIES_PER_BLOCK);
        let mut used = 0usize;
        pager.with_page(old.page, &mut |pg: &Page| {
            used = SuccPage::used(pg, old.block as usize);
            entries.clear();
            for k in 0..used {
                entries.push(SuccPage::entry(pg, old.block as usize, k));
            }
        })?;
        // Write it to the destination.
        let new_block = pager.with_page_mut(dest_page, &mut |pg: &mut Page| {
            let b = SuccPage::find_free_block(pg).expect("free cache out of sync");
            SuccPage::set_owner(pg, b, owner);
            SuccPage::set_used(pg, b, used);
            for (k, &e) in entries.iter().enumerate() {
                SuccPage::set_entry(pg, b, k, e);
            }
            b as u8
        })?;
        self.free_cache[dest_page.index()] -= 1;
        // Free the original.
        pager.with_page_mut(old.page, &mut |pg: &mut Page| {
            SuccPage::free_block(pg, old.block as usize);
        })?;
        self.free_cache[old.page.index()] += 1;
        self.stats.blocks_moved += 1;
        Ok(SuccBlockRef {
            page: dest_page,
            block: new_block,
        })
    }
}

/// One call on the store under test.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `count` calls of `append` on `node`, every `tag_every`-th entry
    /// tagged (0: none) — the spanning-tree writer's pattern.
    Append {
        node: u32,
        count: u32,
        tag_every: u32,
    },
    /// `count` calls of `append_flat` on `node`.
    Flat { node: u32, count: u32 },
}

/// List policy, page policy, pool frames, node count and the stream.
#[derive(Clone, Debug)]
struct Case {
    list_policy: ListPolicy,
    page_policy: PagePolicy,
    frames: usize,
    nodes: u32,
    ops: Vec<Op>,
}

fn generate(rng: &mut Rng) -> Case {
    let nodes = rng.random_range(1..10u32);
    // Long bursts fill pages (a page is 450 entries) and force splits;
    // short ones interleave the lists block by block.
    let longest = [4, 40, 200][rng.random_range(0..3usize)];
    let ops = check::vec_of(rng, 1..120, |r| {
        let (node, count) = (r.random_range(0..nodes), r.random_range(1..longest + 1));
        match r.random_range(0..3u32) {
            0 => Op::Append {
                node,
                count,
                tag_every: r.random_range(0..4u32),
            },
            _ => Op::Flat { node, count },
        }
    });
    Case {
        list_policy: ListPolicy::ALL[rng.random_range(0..ListPolicy::ALL.len())],
        page_policy: PagePolicy::ALL[rng.random_range(0..PagePolicy::ALL.len())],
        frames: rng.random_range(2..41usize),
        nodes,
        ops,
    }
}

fn shrink(case: &Case) -> Vec<Case> {
    let mut out: Vec<Case> = check::shrink_vec(&case.ops)
        .into_iter()
        .map(|ops| Case {
            ops,
            ..case.clone()
        })
        .collect();
    if case.frames > 2 {
        out.push(Case {
            frames: (case.frames / 2).max(2),
            ..case.clone()
        });
    }
    out
}

/// A pool over a fresh simulated disk, its event stream digested.
fn pool(case: &Case) -> (BufferPool, Arc<DigestSink>) {
    let mut pool = BufferPool::new(DiskSim::new(), case.frames, case.page_policy);
    let events = Arc::new(DigestSink::new());
    pool.set_tracer(Tracer::new(events.clone()));
    (pool, events)
}

/// Drives the new store, the replaced code and the audited copy with
/// `case`'s stream and compares everything the study counts.
fn differential(case: &Case) -> Result<(), String> {
    let err = |e| format!("{e}");
    let n = case.nodes as usize;
    let (mut new_pool, new_events) = pool(case);
    let (mut old_pool, old_events) = pool(case);
    let mut bare = DiskSim::new();
    let mut new = SuccStore::new(&mut new_pool, n, case.list_policy);
    let mut old = RefStore::new(&mut old_pool, n, case.list_policy);
    let mut audited = SuccStore::new(&mut bare, n, case.list_policy);
    let mut model: Vec<Vec<SuccEntry>> = vec![Vec::new(); n];

    let mut written = 0u32;
    for (step, &op) in case.ops.iter().enumerate() {
        let (node, count) = match op {
            Op::Append { node, count, .. } | Op::Flat { node, count } => (node, count),
        };
        for _ in 0..count {
            written += 1;
            match op {
                Op::Append { tag_every, .. } => {
                    let entry = SuccEntry {
                        node: written,
                        tagged: tag_every != 0 && written.is_multiple_of(tag_every),
                    };
                    new.append(&mut new_pool, node, entry).map_err(err)?;
                    old.append(&mut old_pool, node, entry).map_err(err)?;
                    audited.append(&mut bare, node, entry).map_err(err)?;
                    model[node as usize].push(entry);
                }
                Op::Flat { .. } => {
                    new.append_flat(&mut new_pool, node, written).map_err(err)?;
                    old.append_flat(&mut old_pool, node, written).map_err(err)?;
                    audited.append_flat(&mut bare, node, written).map_err(err)?;
                    if let Some(last) = model[node as usize].last_mut() {
                        last.tagged = false;
                    }
                    model[node as usize].push(SuccEntry::tagged(written));
                }
            }
        }
        audited.verify_integrity(&mut bare).map_err(err)?;
        require_eq!(new.stats(), &old.stats, "after step {step} ({op:?})");
        require_eq!(
            new_pool.stats(),
            old_pool.stats(),
            "after step {step} ({op:?})"
        );
    }
    require_eq!(new_pool.store().stats(), old_pool.store().stats());
    require_eq!(new_events.digest(), old_events.digest());
    require_eq!(audited.stats(), new.stats());
    new_pool.check_invariants()?;

    // Contents last: reading goes through the pools by different paths.
    for node in 0..case.nodes {
        let expect = &model[node as usize];
        let got = ListCursor::new(&new, node).collect_entries(&mut new_pool);
        require_eq!(&got.map_err(err)?, expect, "new store, list {node}");
        let got = old.read(&mut old_pool, node).map_err(err)?;
        require_eq!(&got, expect, "replaced code, list {node}");
        let got = ListCursor::new(&audited, node).collect_entries(&mut bare);
        require_eq!(&got.map_err(err)?, expect, "audited store, list {node}");
        require_eq!(new.pages_of(node).len(), audited.pages_of(node).len());
    }
    new.verify_integrity(&mut new_pool).map_err(err)
}

#[test]
fn split_path_matches_the_code_it_replaced() {
    Checker::new("succ_split_differential")
        .cases(48)
        .run(generate, shrink, differential);
}

/// The corners a random stream seldom lands on exactly, under every
/// list policy and at both ends of the pool range.
#[test]
fn split_corners_match_the_code_it_replaced() {
    let full_block = ENTRIES_PER_BLOCK as u32;
    let full_page = (BLOCKS_PER_PAGE * ENTRIES_PER_BLOCK) as u32;
    let flat = |node, count| Op::Flat { node, count };
    let streams: [(&str, Vec<Op>); 4] = [
        // Lists 1 and 2 hold two blocks each beside list 0's 26: growing
        // list 0 must evict the lower id of the two, and then the other.
        (
            "victim tie",
            vec![
                flat(1, 2 * full_block),
                flat(2, 2 * full_block),
                flat(0, 26 * full_block),
                flat(0, 5 * full_block),
            ],
        ),
        // The same tie with the victims' blocks laid out in the other
        // order on the page: the choice is by (count, id), not position.
        (
            "victim tie, reversed layout",
            vec![
                flat(2, 2 * full_block),
                flat(1, 2 * full_block),
                flat(0, 26 * full_block + 1),
            ],
        ),
        // One list alone on its page: there is nobody to move.
        (
            "page owned by the growing list",
            vec![flat(0, full_page), flat(0, full_page + 1)],
        ),
        // The growing list shares its page with the fill page's tenants
        // and outgrows two pages.
        (
            "growing across the fill page",
            vec![
                flat(1, 1),
                flat(0, full_page - full_block),
                flat(2, 1),
                flat(0, full_page),
                flat(1, 3 * full_block),
            ],
        ),
    ];
    for (name, ops) in streams {
        for list_policy in ListPolicy::ALL {
            for frames in [2, 40] {
                let case = Case {
                    list_policy,
                    page_policy: PagePolicy::Lru,
                    frames,
                    nodes: 3,
                    ops: ops.clone(),
                };
                if let Err(e) = differential(&case) {
                    panic!("{name}, {}, {frames} frames: {e}", list_policy.name());
                }
            }
        }
    }
}

/// The tie itself, asserted directly: of two equally short lists the
/// lower id leaves the page and the other stays.
#[test]
fn move_shortest_breaks_a_tie_by_the_lower_id() {
    let full_block = ENTRIES_PER_BLOCK as u32;
    for order in [[1, 2], [2, 1]] {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, 3, ListPolicy::MoveShortest);
        for node in order {
            for v in 0..2 * full_block {
                store.append_flat(&mut disk, node, v).unwrap();
            }
        }
        for v in 0..26 * full_block {
            store.append_flat(&mut disk, 0, v).unwrap();
        }
        let shared = store.pages_of(0);
        assert_eq!(store.pages_of(1), shared);
        assert_eq!(store.pages_of(2), shared);
        store.append_flat(&mut disk, 0, 9_999).unwrap();
        assert_eq!(store.stats().page_splits, 1);
        assert_eq!(store.stats().blocks_moved, 2);
        assert_eq!(store.pages_of(0), shared, "the growing list stays");
        assert_eq!(store.pages_of(2), shared, "the higher id stays");
        assert_ne!(store.pages_of(1), shared, "the lower id moves");
        store.verify_integrity(&mut disk).unwrap();
    }
}
