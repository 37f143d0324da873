//! The buffer pool.

use crate::policy::{PagePolicy, ReplacementPolicy};
use tc_storage::{FileId, FileKind, Page, PageId, PageStore, Pager, StorageError, StorageResult};
use tc_trace::{BufferStats, Event, Tracer};

struct Frame {
    pid: PageId,
    /// The frame's own copy of the page; `None` over a store that lends
    /// its images, where a frame is residency bookkeeping only.
    page: Option<Page>,
    dirty: bool,
    pins: u32,
}

/// Page-table entry of a page with no resident frame.
const NO_FRAME: u32 = u32::MAX;

/// A fixed-capacity buffer pool wrapping a [`PageStore`] backend.
///
/// All page traffic of a query run goes through the pool: logical requests
/// are counted in [`BufferStats`], misses read from the wrapped store
/// (counting physical reads), and evicted dirty frames are written back
/// (counting physical writes). The pool is backend-agnostic: the store may
/// be the simulated counting disk or the real file-backed store — the
/// pool's behaviour (and therefore the paper's metrics) is identical. Pages can be *pinned* to keep
/// them resident — the Hybrid algorithm pins its diagonal block, and the
/// pool refuses to evict pinned frames, failing with
/// [`StorageError::AllFramesPinned`] when nothing is evictable (the signal
/// Hybrid uses to trigger dynamic reblocking).
///
/// Over a store whose medium lends its pages (a frozen capture:
/// immutable and in memory) the pool owns no page images. Every request
/// is counted, admitted, evicted and traced by the same code;
/// only the byte move of a miss is gone, and writing through such a pool
/// is refused with [`StorageError::ReadOnlyStore`].
pub struct BufferPool {
    store: Box<dyn PageStore>,
    capacity: usize,
    frames: Vec<Frame>,
    /// Whether the store lends its pages ([`PageStore::lent`]): frames
    /// then hold no image, a miss admits the read without moving bytes,
    /// and readers borrow the store's own image.
    lends: bool,
    /// The page table: frame index per page id, [`NO_FRAME`] when the
    /// page is not resident. Stores hand out page ids densely from 0
    /// and recycle them, so a request is one indexed load instead of a
    /// hash probe, and a walk of the table visits pages in id order.
    /// Only pages the store has produced are ever entered, so the table
    /// never outgrows the store's page count.
    table: Vec<u32>,
    free: Vec<usize>,
    policy: ReplacementPolicy,
    stats: BufferStats,
    /// Event tracer; disabled (free) unless a run arms one. Every
    /// counted buffer operation emits exactly one event, and `stats` is
    /// the fold of those events ([`BufferPool::note`]).
    tracer: Tracer,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `store` with the given
    /// replacement policy.
    pub fn new(store: impl PageStore + 'static, capacity: usize, policy: PagePolicy) -> BufferPool {
        BufferPool::with_store(Box::new(store), capacity, policy)
    }

    /// Creates a pool over an already-boxed [`PageStore`] (the engine
    /// threads backend-selected stores through this).
    pub fn with_store(
        store: Box<dyn PageStore>,
        capacity: usize,
        policy: PagePolicy,
    ) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            lends: store.lent().is_some(),
            table: Vec::new(),
            free: Vec::new(),
            policy: policy.build(capacity),
            stats: BufferStats::default(),
            tracer: Tracer::disabled(),
            store,
        }
    }

    /// Attaches the event tracer to the pool *and* the wrapped store, so
    /// logical (hit/miss/evict/flush) and physical (page read/write)
    /// events interleave in one stream. Pass a disabled tracer to detach
    /// both.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.store.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Pool capacity in frames (the paper's `M`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        // Every frame is either mapped or on the free list.
        self.frames.len() - self.free.len()
    }

    /// Logical request statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    /// The wrapped store (for physical I/O counters and file metadata).
    pub fn store(&self) -> &dyn PageStore {
        self.store.as_ref()
    }

    /// Returns the wrapped store *without* flushing dirty frames.
    ///
    /// Used when a run's scratch state (e.g. non-source successor lists of
    /// a partial-closure query) is deliberately discarded rather than
    /// written out.
    pub fn into_store_discard(self) -> Box<dyn PageStore> {
        self.store
    }

    /// Pins page `pid`, faulting it in if necessary. Pinned pages are
    /// never evicted. Pins nest; each `pin` needs a matching `unpin`.
    pub fn pin(&mut self, pid: PageId) -> StorageResult<()> {
        let f = self.fetch(pid)?;
        self.frames[f].pins += 1;
        self.note(Event::Pin { page: pid.0 });
        Ok(())
    }

    /// Releases one pin on `pid`. Panics if the page is not resident or
    /// not pinned (a bookkeeping bug, not a data condition).
    pub fn unpin(&mut self, pid: PageId) {
        let Some(f) = self.frame_of(pid) else {
            panic!("unpin of non-resident page {pid:?}");
        };
        assert!(self.frames[f].pins > 0, "unpin of unpinned page");
        self.frames[f].pins -= 1;
        self.note(Event::Unpin { page: pid.0 });
    }

    /// Number of frames currently holding at least one pin.
    pub fn pinned_frames(&self) -> usize {
        self.frames.iter().filter(|fr| fr.pins > 0).count()
    }

    /// Verifies the pool's structural invariants, returning a description
    /// of the first violation found.
    ///
    /// Checked: the pool never exceeds its capacity; every frame holds a
    /// page image, or none does over a store that lends; every frame is
    /// accounted for exactly once (resident in the page table or on the
    /// free list); table entries point at frames holding that page; and
    /// free frames are unpinned and clean (an error path must never drop a
    /// dirty page or leak a pin). The fault-injection property test runs
    /// this after every operation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.frames.len() > self.capacity {
            return Err(format!(
                "{} frames exceed capacity {}",
                self.frames.len(),
                self.capacity
            ));
        }
        if let Some(f) = self
            .frames
            .iter()
            .position(|fr| fr.page.is_none() != self.lends)
        {
            return Err(format!(
                "frame {f} {} a page image (lends: {})",
                if self.lends { "holds" } else { "lacks" },
                self.lends
            ));
        }
        let mapped = self.table.iter().filter(|&&f| f != NO_FRAME).count();
        if mapped + self.free.len() != self.frames.len() {
            return Err(format!(
                "{mapped} mapped + {} free != {} frames",
                self.free.len(),
                self.frames.len()
            ));
        }
        let mut seen = vec![false; self.frames.len()];
        for (i, &f) in self.table.iter().enumerate() {
            if f == NO_FRAME {
                continue;
            }
            let (pid, f) = (PageId(i as u32), f as usize);
            if f >= self.frames.len() {
                return Err(format!("map entry {pid:?} -> frame {f} out of range"));
            }
            if seen[f] {
                return Err(format!("frame {f} referenced twice"));
            }
            seen[f] = true;
            if self.frames[f].pid != pid {
                return Err(format!(
                    "map says frame {f} holds {pid:?} but frame says {:?}",
                    self.frames[f].pid
                ));
            }
        }
        for &f in &self.free {
            if f >= self.frames.len() {
                return Err(format!("free-list frame {f} out of range"));
            }
            if seen[f] {
                return Err(format!("frame {f} both resident and free"));
            }
            seen[f] = true;
            if self.frames[f].pins > 0 {
                return Err(format!("free frame {f} still pinned"));
            }
            if self.frames[f].dirty {
                return Err(format!("free frame {f} holds a dropped dirty page"));
            }
        }
        if let Some(f) = seen.iter().position(|&s| !s) {
            return Err(format!("frame {f} neither resident nor free"));
        }
        Ok(())
    }

    /// Whether `pid` is currently resident.
    pub fn is_resident(&self, pid: PageId) -> bool {
        self.frame_of(pid).is_some()
    }

    /// Whether `pid` is currently pinned.
    pub fn is_pinned(&self, pid: PageId) -> bool {
        self.frame_of(pid).is_some_and(|f| self.frames[f].pins > 0)
    }

    /// The frame holding `pid`, if it is resident.
    #[inline]
    fn frame_of(&self, pid: PageId) -> Option<usize> {
        match self.table.get(pid.index()) {
            Some(&f) if f != NO_FRAME => Some(f as usize),
            _ => None,
        }
    }

    /// Enters `pid -> f` into the page table, growing it to cover `pid`.
    fn map_page(&mut self, pid: PageId, f: usize) {
        if pid.index() >= self.table.len() {
            self.table.resize(pid.index() + 1, NO_FRAME);
        }
        self.table[pid.index()] = f as u32;
    }

    /// Physically reads `pid` into frame `f` (the store retries
    /// transient faults). A frame with no image of its own (the store
    /// lends them) has the read admitted in place.
    fn read_into(&mut self, pid: PageId, f: usize) -> StorageResult<()> {
        self.store.admit_read(pid, self.frames[f].page.as_mut())
    }

    /// Physically writes frame `f` back to its page (the store retries
    /// transient faults). The caller decides what to do with the dirty
    /// bit.
    fn write_back(&mut self, f: usize) -> StorageResult<()> {
        let frame = &self.frames[f];
        let page = frame.page.as_ref().ok_or(StorageError::ReadOnlyStore)?;
        self.store.write_page(frame.pid, page)
    }

    /// Counts and emits one event: the pool's counters are the fold of
    /// the events it emits, [`BufferStats::on`], and nothing else.
    #[inline(always)]
    fn note(&mut self, ev: Event) {
        self.stats.on(&ev);
        self.tracer.emit(ev);
    }

    /// Writes dirty frame `f` back and marks it clean: one flush write.
    fn flush_frame(&mut self, f: usize) -> StorageResult<()> {
        self.write_back(f)?;
        self.frames[f].dirty = false;
        let page = self.frames[f].pid.0;
        self.note(Event::FlushWrite { page });
        Ok(())
    }

    /// Writes all dirty frames back to disk (they stay resident and clean).
    pub fn flush_all(&mut self) -> StorageResult<()> {
        for f in 0..self.frames.len() {
            if self.frames[f].dirty {
                self.flush_frame(f)?;
            }
        }
        Ok(())
    }

    /// Writes back the listed pages if resident and dirty (the
    /// partial-closure write-out: "only the expanded lists of the query
    /// source nodes are written out").
    pub fn flush_pages(&mut self, pages: &[PageId]) -> StorageResult<()> {
        for &pid in pages {
            if let Some(f) = self.frame_of(pid) {
                if self.frames[f].dirty {
                    self.flush_frame(f)?;
                }
            }
        }
        Ok(())
    }

    /// Writes back dirty frames belonging to `file` only.
    pub fn flush_file(&mut self, file: FileId) -> StorageResult<()> {
        for f in 0..self.frames.len() {
            if self.frames[f].dirty && self.store.page_file(self.frames[f].pid)? == file {
                self.flush_frame(f)?;
            }
        }
        Ok(())
    }

    /// Deletes `file`: evicts its resident frames without write-back,
    /// then releases the pages in the store for reuse.
    pub fn free_file(&mut self, file: FileId) -> StorageResult<()> {
        // Victims leave in page-id order (the order of the table), so the
        // free-stack order (and thus future frame placement and policy
        // state) is a pure function of the request stream.
        for i in 0..self.table.len() {
            let pid = PageId(i as u32);
            let Some(f) = self.frame_of(pid) else {
                continue;
            };
            if self.store.page_file(pid) != Ok(file) {
                continue;
            }
            assert_eq!(self.frames[f].pins, 0, "freeing a pinned page");
            self.table[pid.index()] = NO_FRAME;
            self.frames[f].dirty = false;
            self.policy.on_evict(f);
            self.free.push(f);
        }
        // Retire every page of the file (resident or not) in allocation
        // order: the ids may be recycled for an unrelated file, so a
        // profile fold must treat any later request as a new page.
        if self.tracer.is_enabled() {
            for pid in self.store.file_pages(file)?.to_vec() {
                self.note(Event::PageFreed { page: pid.0 });
            }
        }
        self.store.drop_file(file)
    }

    /// Drops dirty frames of `file` without writing them back (discarding
    /// scratch state). The frames become clean so later eviction is free.
    pub fn discard_file(&mut self, file: FileId) -> StorageResult<()> {
        for f in 0..self.frames.len() {
            if self.frames[f].dirty && self.store.page_file(self.frames[f].pid)? == file {
                self.frames[f].dirty = false;
            }
        }
        Ok(())
    }

    /// Faults `pid` into a frame (or finds it resident) and returns the
    /// frame index. Counts the logical request (`read` distinguishes
    /// read-only requests for the paper's Figure-13 hit ratio). The hit
    /// inlines into the caller; the miss is a call.
    #[inline]
    fn fetch_counted(&mut self, pid: PageId, read: bool) -> StorageResult<usize> {
        if let Some(f) = self.frame_of(pid) {
            self.note(Event::BufHit { page: pid.0, read });
            self.policy.on_access(f);
            return Ok(f);
        }
        self.fetch_miss(pid, read)
    }

    /// The miss half of [`BufferPool::fetch_counted`].
    #[cold]
    fn fetch_miss(&mut self, pid: PageId, read: bool) -> StorageResult<usize> {
        // The miss is counted (and traced) even if the physical read
        // below fails: the request happened.
        self.note(Event::BufMiss { page: pid.0, read });
        let f = self.take_frame()?;
        if let Err(e) = self.read_into(pid, f) {
            // Return the frame to the free list so a failed fetch leaks
            // neither the frame nor a stale mapping.
            self.frames[f].pid = PageId(u32::MAX);
            self.frames[f].dirty = false;
            self.frames[f].pins = 0;
            self.free.push(f);
            return Err(e);
        }
        self.frames[f].pid = pid;
        self.frames[f].dirty = false;
        self.frames[f].pins = 0;
        self.map_page(pid, f);
        self.policy.on_admit(f);
        Ok(f)
    }

    fn fetch(&mut self, pid: PageId) -> StorageResult<usize> {
        self.fetch_counted(pid, false)
    }

    /// Obtains an empty frame: grows the pool up to capacity, reuses a
    /// free frame, or evicts a victim.
    fn take_frame(&mut self) -> StorageResult<usize> {
        if let Some(f) = self.free.pop() {
            return Ok(f);
        }
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                pid: PageId(u32::MAX),
                page: (!self.lends).then(Page::new),
                dirty: false,
                pins: 0,
            });
            return Ok(self.frames.len() - 1);
        }
        // Evict.
        let frames = &self.frames;
        let victim = self
            .policy
            .victim(|f| frames[f].pins == 0)
            .ok_or(StorageError::AllFramesPinned)?;
        debug_assert_eq!(self.frames[victim].pins, 0);
        let old_pid = self.frames[victim].pid;
        let was_dirty = self.frames[victim].dirty;
        if was_dirty {
            // On failure the victim stays resident and dirty; nothing is
            // lost and the caller sees the error.
            self.write_back(victim)?;
            self.frames[victim].dirty = false;
        }
        self.note(Event::Evict {
            page: old_pid.0,
            dirty: was_dirty,
        });
        self.table[old_pid.index()] = NO_FRAME;
        self.policy.on_evict(victim);
        Ok(victim)
    }
}

impl Pager for BufferPool {
    #[inline]
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let fr = self.fetch_counted(pid, true)?;
        let page = match &self.frames[fr].page {
            Some(page) => page,
            None => {
                let lent = self.store.lent().and_then(|set| set.page(pid));
                lent.ok_or(StorageError::PageOutOfBounds(pid))?
            }
        };
        Ok(f(page))
    }

    #[inline]
    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        if self.lends {
            return Err(StorageError::ReadOnlyStore);
        }
        let fr = self.fetch(pid)?;
        let frame = &mut self.frames[fr];
        let page = frame.page.as_mut().ok_or(StorageError::ReadOnlyStore)?;
        frame.dirty = true;
        Ok(f(page))
    }

    /// Allocates a page in the store and materializes it dirty in the
    /// pool, so the physical write is charged when the page is evicted or
    /// flushed (matching how a real buffer manager defers new-page writes).
    fn alloc_page(&mut self, file: FileId) -> StorageResult<PageId> {
        let pid = self.store.alloc(file)?;
        let kind = self.store.file_kind(file)?;
        // Install a zeroed frame without reading from disk. The request
        // counts as a non-read miss (no physical transfer yet — the
        // write is charged on eviction or flush).
        self.note(Event::BufMiss {
            page: pid.0,
            read: false,
        });
        let f = self.take_frame()?;
        if let Some(page) = &mut self.frames[f].page {
            page.clear();
        }
        self.frames[f].pid = pid;
        self.frames[f].dirty = true;
        self.frames[f].pins = 0;
        self.map_page(pid, f);
        self.policy.on_admit(f);
        self.note(Event::PageAlloc { page: pid.0, kind });
        Ok(pid)
    }

    fn create_file(&mut self, kind: FileKind) -> FileId {
        self.store.new_file(kind)
    }

    fn free_file(&mut self, file: FileId) -> StorageResult<()> {
        BufferPool::free_file(self, file)
    }

    fn file_page_ids(&self, file: FileId) -> StorageResult<Vec<PageId>> {
        self.store.file_pages(file).map(<[PageId]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_storage::DiskSim;

    fn setup(pages: usize) -> (BufferPool, Vec<PageId>) {
        let mut disk = DiskSim::new();
        let file = disk.new_file(FileKind::Temp);
        let mut pids = Vec::new();
        for i in 0..pages {
            let pid = disk.alloc(file).unwrap();
            let mut p = Page::new();
            p.put_u32(0, i as u32);
            disk.write_page(pid, &p).unwrap();
            pids.push(pid);
        }
        disk.reset_stats();
        (BufferPool::new(disk, 3, PagePolicy::Lru), pids)
    }

    #[test]
    fn hits_and_misses() {
        let (mut pool, pids) = setup(2);
        let v = pool.with_page(pids[0], |p: &Page| p.get_u32(0)).unwrap();
        assert_eq!(v, 0);
        pool.with_page(pids[0], |_p: &Page| ()).unwrap();
        pool.with_page(pids[1], |_p: &Page| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(pool.store().stats().reads, 2);
    }

    #[test]
    fn capacity_is_respected_and_lru_evicts() {
        let (mut pool, pids) = setup(5);
        for &pid in &pids[..4] {
            pool.with_page(pid, |_p: &Page| ()).unwrap();
        }
        assert_eq!(pool.resident(), 3);
        assert!(!pool.is_resident(pids[0]), "LRU should have evicted page 0");
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn dirty_pages_write_back_on_eviction() {
        let (mut pool, pids) = setup(5);
        pool.with_page_mut(pids[0], |p: &mut Page| p.put_u32(0, 99))
            .unwrap();
        for &pid in &pids[1..4] {
            pool.with_page(pid, |_p: &Page| ()).unwrap();
        }
        assert_eq!(pool.stats().dirty_writebacks, 1);
        assert_eq!(pool.store().stats().writes, 1);
        // Refetching sees the written-back value.
        let v = pool.with_page(pids[0], |p: &Page| p.get_u32(0)).unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn clean_evictions_cost_no_write() {
        let (mut pool, pids) = setup(5);
        for &pid in &pids {
            pool.with_page(pid, |_p: &Page| ()).unwrap();
        }
        assert_eq!(pool.store().stats().writes, 0);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let (mut pool, pids) = setup(5);
        pool.pin(pids[0]).unwrap();
        for &pid in &pids[1..5] {
            pool.with_page(pid, |_p: &Page| ()).unwrap();
        }
        assert!(pool.is_resident(pids[0]));
        pool.unpin(pids[0]);
        for &pid in &pids[1..5] {
            pool.with_page(pid, |_p: &Page| ()).unwrap();
        }
        assert!(!pool.is_resident(pids[0]));
    }

    #[test]
    fn all_pinned_errors() {
        let (mut pool, pids) = setup(4);
        pool.pin(pids[0]).unwrap();
        pool.pin(pids[1]).unwrap();
        pool.pin(pids[2]).unwrap();
        let err = pool.with_page(pids[3], |_p: &Page| ()).unwrap_err();
        assert_eq!(err, StorageError::AllFramesPinned);
    }

    #[test]
    fn nested_pins() {
        let (mut pool, pids) = setup(1);
        pool.pin(pids[0]).unwrap();
        pool.pin(pids[0]).unwrap();
        pool.unpin(pids[0]);
        assert!(pool.is_pinned(pids[0]));
        pool.unpin(pids[0]);
        assert!(!pool.is_pinned(pids[0]));
    }

    #[test]
    fn flush_all_writes_dirty_frames_once() {
        let (mut pool, pids) = setup(2);
        pool.with_page_mut(pids[0], |p: &mut Page| p.put_u32(4, 1))
            .unwrap();
        pool.with_page_mut(pids[1], |p: &mut Page| p.put_u32(4, 2))
            .unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.store().stats().writes, 2);
        pool.flush_all().unwrap();
        assert_eq!(pool.store().stats().writes, 2, "clean frames not rewritten");
    }

    #[test]
    fn alloc_page_defers_physical_write() {
        let (mut pool, _) = setup(0);
        let file = pool.create_file(FileKind::SuccessorList);
        let pid = pool.alloc_page(file).unwrap();
        assert_eq!(pool.store().stats().writes, 0);
        pool.with_page_mut(pid, |p: &mut Page| p.put_u32(0, 7))
            .unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.store().stats().writes, 1);
    }

    #[test]
    fn discard_file_drops_dirty_state() {
        let (mut pool, _) = setup(0);
        let file = pool.create_file(FileKind::SuccessorList);
        let pid = pool.alloc_page(file).unwrap();
        pool.with_page_mut(pid, |p: &mut Page| p.put_u32(0, 7))
            .unwrap();
        pool.discard_file(file).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.store().stats().writes, 0);
    }

    #[test]
    fn works_with_every_policy() {
        for policy in PagePolicy::ALL {
            let mut disk = DiskSim::new();
            let file = disk.new_file(FileKind::Temp);
            let mut pids = Vec::new();
            for i in 0..20 {
                let pid = disk.alloc(file).unwrap();
                let mut p = Page::new();
                p.put_u32(0, i);
                disk.write_page(pid, &p).unwrap();
                pids.push(pid);
            }
            let mut pool = BufferPool::new(disk, 4, policy);
            // Mixed access pattern; every read must return the right data.
            for round in 0..3 {
                for (i, &pid) in pids.iter().enumerate() {
                    if (i + round) % 3 == 0 {
                        let v = pool.with_page(pid, |p: &Page| p.get_u32(0)).unwrap();
                        assert_eq!(v, i as u32, "{}", policy.name());
                    }
                }
            }
            assert!(pool.resident() <= 4);
        }
    }
}
