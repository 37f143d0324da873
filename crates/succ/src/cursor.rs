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
//!
//! The engines read with [`ListCursor::collect_into`], which copies each
//! block's slots as stored words ([`SuccWord`], 4 bytes) and leaves the
//! decoding to the loop that classifies them; `collect_entries` and
//! `collect_nodes` decode inside the same read loop.

use crate::store::SuccStore;
use tc_storage::layout::succ::{SuccEntry, SuccPage, SuccWord, ENTRIES_PER_BLOCK};
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
    fn remaining_entries(&self) -> usize {
        self.blocks[self.pos..]
            .iter()
            .map(|&(_, u)| u as usize)
            .sum()
    }

    /// Appends the slots of the next same-page run of blocks to `out`,
    /// each stored word passed through `decode` (one pager access);
    /// `false` at end of list. Every read of a list goes through here.
    #[inline]
    fn read_run<P: Pager, T>(
        &mut self,
        pager: &mut P,
        out: &mut Vec<T>,
        decode: impl Fn(SuccWord) -> T,
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
                out.extend(SuccPage::words(pg, r.block as usize, used as usize).map(&decode));
            }
        })?;
        self.pos = end;
        Ok(true)
    }

    /// Drains the cursor through `decode` into `out` (cleared first).
    fn drain_into<P: Pager, T>(
        mut self,
        pager: &mut P,
        out: &mut Vec<T>,
        decode: impl Fn(SuccWord) -> T,
    ) -> StorageResult<()> {
        out.clear();
        out.reserve(self.remaining_entries());
        while self.read_run(pager, out, &decode)? {}
        Ok(())
    }

    /// Convenience: drains the cursor into a vector of node ids (tags
    /// dropped).
    pub fn collect_nodes<P: Pager>(self, pager: &mut P) -> StorageResult<Vec<u32>> {
        let mut out = Vec::new();
        self.drain_into(pager, &mut out, SuccWord::node)?;
        Ok(out)
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
        self.drain_into(pager, &mut out, SuccWord::entry)?;
        Ok(out)
    }

    /// [`ListCursor::collect_entries`] as stored words, undecoded, into a
    /// caller-owned buffer (cleared first), so a loop of unions reuses one
    /// allocation and decodes each word where it classifies it.
    pub fn collect_into<P: Pager>(
        self,
        pager: &mut P,
        out: &mut Vec<SuccWord>,
    ) -> StorageResult<()> {
        self.drain_into(pager, out, |w| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ListPolicy;
    use tc_det::check::{self, Checker};
    use tc_det::{require, require_eq, Rng};
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
        let cur = ListCursor::new(&store, 0);
        assert_eq!(cur.remaining_entries(), 100);
        let entries = cur.collect_entries(&mut disk).unwrap();
        assert_eq!(entries.len(), 100, "single page read in one batch");
        assert_eq!(disk.stats().reads, 1);
    }

    #[test]
    fn empty_list_yields_nothing() {
        let mut disk = DiskSim::new();
        let store = SuccStore::new(&mut disk, 2, ListPolicy::Spill);
        let cur = ListCursor::new(&store, 1);
        assert_eq!(cur.remaining_entries(), 0);
        assert!(cur.collect_entries(&mut disk).unwrap().is_empty());
        assert_eq!(disk.stats().reads, 0);
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
        disk.reset_stats();
        let nodes = ListCursor::new(&store, 0).collect_nodes(&mut disk).unwrap();
        assert_eq!(nodes, (0..900).collect::<Vec<_>>());
        assert_eq!(disk.stats().reads, 2, "two pages, two batches");
    }

    #[test]
    fn preserves_tags() {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, 2, ListPolicy::Spill);
        store.append(&mut disk, 0, SuccEntry::tagged(5)).unwrap();
        store.append(&mut disk, 0, SuccEntry::plain(6)).unwrap();
        let entries = ListCursor::new(&store, 0).collect_entries(&mut disk);
        assert_eq!(
            entries.unwrap(),
            vec![SuccEntry::tagged(5), SuccEntry::plain(6)]
        );
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

    /// One run written to a list.
    #[derive(Clone, Debug)]
    enum Run {
        /// Entries with their tags as given, the way a tree list holds
        /// parent markers.
        Tree(u32, Vec<SuccEntry>),
        /// A flat run: the list's old last entry is untagged and the run's
        /// last is stored negated.
        Flat(u32, Vec<u32>),
    }

    /// Runs written under one list policy to a store of `lists` lists.
    #[derive(Clone, Debug)]
    struct Script {
        policy: ListPolicy,
        lists: u32,
        runs: Vec<Run>,
    }

    fn script(rng: &mut Rng) -> Script {
        let policy = *rng.choose(&ListPolicy::ALL).unwrap();
        let lists = rng.random_range(1..7u32);
        let runs = check::vec_of(rng, 1..30, |r| {
            let node = r.random_range(0..lists);
            // Mostly a few blocks; sometimes more than a page (450 entries).
            let len = if r.random_bool(0.15) {
                r.random_range(100..700usize)
            } else {
                r.random_range(1..60usize)
            };
            if r.random_bool(0.5) {
                Run::Flat(
                    node,
                    (0..len).map(|_| r.random_range(0..100_000u32)).collect(),
                )
            } else {
                let entry = |r: &mut Rng| SuccEntry {
                    node: r.random_range(0..100_000u32),
                    tagged: r.random_bool(0.2),
                };
                Run::Tree(node, (0..len).map(|_| entry(r)).collect())
            }
        });
        Script {
            policy,
            lists,
            runs,
        }
    }

    /// Writes the script's runs; the store, its disk, and every list as
    /// the runs define it.
    fn write(s: &Script) -> (DiskSim, SuccStore, Vec<Vec<SuccEntry>>) {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, s.lists as usize, s.policy);
        let mut model = vec![Vec::new(); s.lists as usize];
        for run in &s.runs {
            match run {
                Run::Tree(node, entries) => {
                    store.extend(&mut disk, *node, entries).unwrap();
                    model[*node as usize].extend_from_slice(entries);
                }
                Run::Flat(node, values) => {
                    store.extend_flat(&mut disk, *node, values).unwrap();
                    let list = &mut model[*node as usize];
                    if let Some(last) = list.last_mut() {
                        last.tagged = false;
                    }
                    list.extend(values.iter().map(|&v| SuccEntry::plain(v)));
                    list.last_mut().unwrap().tagged = true;
                }
            }
        }
        (disk, store, model)
    }

    #[test]
    fn collect_into_decodes_to_collect_entries() {
        Checker::new("collect_into_decodes_to_collect_entries").run(
            script,
            |s: &Script| {
                check::shrink_vec(&s.runs)
                    .into_iter()
                    .map(|runs| Script { runs, ..s.clone() })
                    .collect()
            },
            |s| {
                let (mut disk, store, model) = write(s);
                // One buffer for every list, as the engines reuse theirs.
                let mut words = Vec::new();
                for (node, want) in (0..s.lists).zip(&model) {
                    let entries = ListCursor::new(&store, node)
                        .collect_entries(&mut disk)
                        .unwrap();
                    require_eq!(&entries, want, "list {node}");
                    ListCursor::new(&store, node)
                        .collect_into(&mut disk, &mut words)
                        .unwrap();
                    let decoded: Vec<SuccEntry> = words.iter().map(|w| w.entry()).collect();
                    require_eq!(decoded, entries, "words of list {node}");
                    require!(
                        words
                            .iter()
                            .zip(&entries)
                            .all(|(w, e)| w.node() == e.node && w.is_tagged() == e.tagged),
                        "node or tag of list {node}"
                    );
                    let nodes = ListCursor::new(&store, node)
                        .collect_nodes(&mut disk)
                        .unwrap();
                    require!(
                        nodes.iter().eq(entries.iter().map(|e| &e.node)),
                        "nodes of list {node}"
                    );
                }
                Ok(())
            },
        );
    }

    /// The scripts above reach what the property is about: chains over
    /// several pages, and lists moved by both splitting policies.
    #[test]
    fn word_read_scripts_span_pages_and_split_under_both_move_policies() {
        let (mut multi_page, mut split) = (false, [false; 2]);
        for seed in 0..64 {
            let s = script(&mut Rng::from_seed(seed));
            let (_, store, _) = write(&s);
            multi_page |= (0..s.lists).any(|v| store.pages_of(v).len() > 1);
            let moved = store.stats().page_splits > 0 && store.stats().blocks_moved > 0;
            match s.policy {
                ListPolicy::MoveShortest => split[0] |= moved,
                ListPolicy::MoveGrowing => split[1] |= moved,
                ListPolicy::Spill => {}
            }
        }
        assert!(multi_page, "no list spans two pages");
        assert_eq!(
            split, [true; 2],
            "[MOVE-SHORTEST, MOVE-GROWING] moved a list"
        );
    }
}
