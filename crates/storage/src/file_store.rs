//! [`FileStore`]: the real, file-backed [`PageStore`] implementation.
//!
//! Where [`crate::DiskSim`] *counts* page transfers in memory, this
//! backend performs them against an actual file, with a crash-safety
//! story modeled on small page-store engines (per-page CRC, persistent
//! free list, atomic metadata replacement):
//!
//! # On-disk layout
//!
//! A store directory holds exactly two files:
//!
//! * **`pages.tcs`** — the page segment. Page `p` lives in slot `p` at
//!   byte offset `p * 2064`. Each slot is a 16-byte header followed by
//!   the 2048-byte page image:
//!
//!   ```text
//!   offset  size  field
//!        0     4  magic "TCP1" (little-endian u32)
//!        4     4  page id (must equal the slot index)
//!        8     8  FNV-1a 64 checksum of the 2048 payload bytes
//!       16  2048  page image
//!   ```
//!
//!   The checksum is byte-wise FNV-1a, fixed by the on-disk format; the
//!   simulator's in-memory [`Page::checksum`] folds 8-byte words. Either
//!   detects any single flipped byte, so both backends agree on what
//!   "corrupt" means. Reads *always* verify header and checksum; a
//!   mismatch (or a slot truncated by a crash mid-write) surfaces as
//!   [`StorageError::ChecksumMismatch`] — the same typed error the
//!   simulator raises under fault injection.
//!
//! * **`manifest.tcm`** — the store metadata: the file directory (kind +
//!   page list per file), the page→file map and the persistent free-page
//!   list, finished by an FNV-1a checksum of the manifest bytes. It is
//!   replaced atomically on [`PageStore::sync`] (write to `manifest.tmp`,
//!   fsync, rename), so a crash leaves either the old or the new
//!   manifest, never a torn one.
//!
//! # Recovery
//!
//! [`FileStore::open`] reads the manifest (rejecting one whose checksum
//! does not match) and then scans every allocated slot, classifying
//! damage into a [`RecoveryReport`]: *torn* pages (slot cut short by a
//! crash — the segment ends mid-slot) and *corrupt* pages (slot present
//! but header or CRC wrong, e.g. a bit flip). Damaged pages stay
//! readable-as-errors: accessing one returns the typed error rather than
//! absorbing bad bytes into query answers.
//!
//! # Counting contract
//!
//! The store mirrors [`crate::DiskSim`]'s bookkeeping *exactly* — LIFO
//! free-page reuse, uncounted alloc/free, one counted transfer and one
//! trace event per successful read/write, fault-plan hooks in the same
//! order — so a query run produces bit-identical [`DiskStats`] and trace
//! digests on either backend (`tests/backend_differential.rs`).

use crate::disk::{DiskSim, DiskStats, FileId, FileKind};
use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultPlan, RetryPolicy, RetryTally};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::store::PageStore;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tc_trace::{Event, Kind, Tracer};

/// Slot header magic: `"TCP1"` (transitive-closure page, format 1).
const PAGE_MAGIC: u32 = u32::from_le_bytes(*b"TCP1");
/// Manifest magic: `"TCM1"`.
const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"TCM1");
/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;
/// Slot header size: magic (4) + page id (4) + checksum (8).
pub const HEADER_SIZE: usize = 16;
/// On-disk slot size: header + page image.
pub const SLOT_SIZE: usize = HEADER_SIZE + PAGE_SIZE;

/// Segment file name inside a store directory.
pub const SEGMENT_FILE: &str = "pages.tcs";
/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.tcm";

/// Byte-wise FNV-1a 64 over an arbitrary byte slice: the on-disk
/// checksum of slot payloads and of the manifest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Maps an OS-level I/O failure to the typed backend error.
fn os_err(op: &'static str, e: std::io::Error) -> StorageError {
    StorageError::Backend {
        op,
        detail: e.to_string(),
    }
}

/// A uniquely named temporary directory, removed (with its contents) on
/// drop.
///
/// Used for `--backend file` runs that do not name a directory, and by
/// the test suites so file-backend stores are cleaned up whether the
/// test passes or fails (the guard drops during unwind too).
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

/// Disambiguates directories created by one process in the same tick.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    /// Creates a fresh directory under the system temp dir. The name
    /// embeds the process id and a per-process sequence number, so
    /// concurrent test processes and repeated calls never collide;
    /// a stale leftover with the same name is skipped, not reused.
    pub fn new(prefix: &str) -> StorageResult<TempDir> {
        let base = std::env::temp_dir();
        let pid = std::process::id();
        loop {
            let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = base.join(format!("{prefix}-{pid}-{seq}"));
            match fs::create_dir_all(path.parent().unwrap_or(&base))
                .and_then(|()| fs::create_dir(&path))
            {
                Ok(()) => return Ok(TempDir { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(os_err("create temp directory", e)),
            }
        }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a failed cleanup must not turn into a panic
        // during unwind.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// What [`FileStore::open`] found while scanning the segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Pages whose slot is present but fails header or CRC
    /// verification (bit rot, torn write that completed the slot).
    pub corrupt_pages: Vec<PageId>,
    /// Pages whose slot extends past the end of the segment — the
    /// signature of a crash between extending the file and completing
    /// the slot write.
    pub torn_pages: Vec<PageId>,
}

impl RecoveryReport {
    /// True when the scan found every allocated page intact.
    pub fn is_clean(&self) -> bool {
        self.corrupt_pages.is_empty() && self.torn_pages.is_empty()
    }
}

struct FileEntry {
    kind: FileKind,
    pages: Vec<PageId>,
}

/// The file-backed page store. See the module docs for the on-disk
/// format and recovery protocol.
pub struct FileStore {
    dir: PathBuf,
    segment: File,
    files: Vec<FileEntry>,
    page_file: Vec<FileId>,
    free_pages: Vec<PageId>,
    stats: DiskStats,
    fault: Option<FaultPlan>,
    retry: RetryPolicy,
    retry_tally: RetryTally,
    tracer: Tracer,
    recovery: RecoveryReport,
    /// Present when the store owns an auto-cleaned temp directory.
    temp: Option<TempDir>,
}

impl FileStore {
    /// Creates a *fresh, empty* store in `dir` (created if missing;
    /// existing segment/manifest files are truncated).
    pub fn create(dir: impl AsRef<Path>) -> StorageResult<FileStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| os_err("create store directory", e))?;
        let segment = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(SEGMENT_FILE))
            .map_err(|e| os_err("create segment", e))?;
        let mut store = FileStore {
            dir,
            segment,
            files: Vec::new(),
            page_file: Vec::new(),
            free_pages: Vec::new(),
            stats: DiskStats::default(),
            fault: None,
            retry: RetryPolicy::default(),
            retry_tally: RetryTally::default(),
            tracer: Tracer::disabled(),
            recovery: RecoveryReport::default(),
            temp: None,
        };
        // An empty manifest makes a freshly created directory openable
        // even if the process stops before the first sync.
        store.write_manifest()?;
        Ok(store)
    }

    /// Creates a fresh store inside an owned [`TempDir`]; the directory
    /// (and everything in it) is removed when the store is dropped.
    pub fn create_in(temp: TempDir) -> StorageResult<FileStore> {
        let mut store = FileStore::create(temp.path())?;
        store.temp = Some(temp);
        Ok(store)
    }

    /// Opens an existing store, verifying the manifest checksum and
    /// scanning every allocated page slot for torn or corrupt data (see
    /// [`RecoveryReport`]). Damaged pages are reported here and produce
    /// [`StorageError::ChecksumMismatch`] when read.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<FileStore> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = fs::read(dir.join(MANIFEST_FILE)).map_err(|e| os_err("read manifest", e))?;
        let (files, page_file, free_pages) = decode_manifest(&manifest)?;
        let segment = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(SEGMENT_FILE))
            .map_err(|e| os_err("open segment", e))?;
        let mut store = FileStore {
            dir,
            segment,
            files,
            page_file,
            free_pages,
            stats: DiskStats::default(),
            fault: None,
            retry: RetryPolicy::default(),
            retry_tally: RetryTally::default(),
            tracer: Tracer::disabled(),
            recovery: RecoveryReport::default(),
            temp: None,
        };
        store.recovery = store.scan_segment()?;
        Ok(store)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The recovery scan result from [`FileStore::open`] (empty for a
    /// freshly created store).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Reads slot `pid` into `buf` (sized [`SLOT_SIZE`]). Bytes past the
    /// end of the segment read as zero; `Ok(false)` reports that the slot
    /// was cut short (torn), `Ok(true)` that it was fully present.
    fn read_slot(&mut self, pid: PageId, buf: &mut [u8]) -> StorageResult<bool> {
        let off = pid.index() as u64 * SLOT_SIZE as u64;
        self.segment
            .seek(SeekFrom::Start(off))
            .map_err(|e| os_err("seek segment", e))?;
        buf.fill(0);
        let mut filled = 0;
        while filled < buf.len() {
            match self.segment.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(os_err("read segment", e)),
            }
        }
        Ok(filled == buf.len())
    }

    /// Writes a fully formed slot image for `pid`.
    fn write_slot(&mut self, pid: PageId, slot: &[u8]) -> StorageResult<()> {
        let off = pid.index() as u64 * SLOT_SIZE as u64;
        self.segment
            .seek(SeekFrom::Start(off))
            .map_err(|e| os_err("seek segment", e))?;
        self.segment
            .write_all(slot)
            .map_err(|e| os_err("write segment", e))
    }

    /// Builds the on-disk slot image for `pid` with `payload`.
    fn encode_slot(pid: PageId, payload: &[u8; PAGE_SIZE]) -> Vec<u8> {
        let mut slot = Vec::with_capacity(SLOT_SIZE);
        slot.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        slot.extend_from_slice(&pid.0.to_le_bytes());
        slot.extend_from_slice(&fnv1a(payload).to_le_bytes());
        slot.extend_from_slice(payload);
        slot
    }

    /// Verifies a slot image; on success returns the payload offset.
    /// `Err((stored, computed))` carries the checksums for the typed
    /// error (a bad magic or page id reports the raw header checksum
    /// field as `stored`).
    fn verify_slot(pid: PageId, slot: &[u8]) -> Result<(), (u64, u64)> {
        let magic = u32::from_le_bytes([slot[0], slot[1], slot[2], slot[3]]);
        let hdr_pid = u32::from_le_bytes([slot[4], slot[5], slot[6], slot[7]]);
        let stored = u64::from_le_bytes([
            slot[8], slot[9], slot[10], slot[11], slot[12], slot[13], slot[14], slot[15],
        ]);
        let computed = fnv1a(&slot[HEADER_SIZE..]);
        if magic != PAGE_MAGIC || hdr_pid != pid.0 || stored != computed {
            return Err((stored, computed));
        }
        Ok(())
    }

    /// Scans every allocated slot, classifying damage. Uncounted: this
    /// is recovery, not query I/O.
    fn scan_segment(&mut self) -> StorageResult<RecoveryReport> {
        let len = self
            .segment
            .metadata()
            .map_err(|e| os_err("stat segment", e))?
            .len();
        let mut report = RecoveryReport::default();
        let mut slot = vec![0u8; SLOT_SIZE];
        for i in 0..self.page_file.len() {
            let pid = PageId(i as u32);
            let end = (i as u64 + 1) * SLOT_SIZE as u64;
            if end > len {
                report.torn_pages.push(pid);
                continue;
            }
            self.read_slot(pid, &mut slot)?;
            if FileStore::verify_slot(pid, &slot).is_err() {
                report.corrupt_pages.push(pid);
            }
        }
        Ok(report)
    }

    /// Serializes and atomically replaces the manifest, fsyncing the
    /// segment first so the manifest never describes pages that have not
    /// reached the disk.
    fn write_manifest(&mut self) -> StorageResult<()> {
        self.segment
            .sync_all()
            .map_err(|e| os_err("sync segment", e))?;
        let mut buf = Vec::new();
        buf.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.page_file.len() as u32).to_le_bytes());
        for f in &self.page_file {
            buf.extend_from_slice(&f.0.to_le_bytes());
        }
        buf.extend_from_slice(&(self.free_pages.len() as u32).to_le_bytes());
        for p in &self.free_pages {
            buf.extend_from_slice(&p.0.to_le_bytes());
        }
        buf.extend_from_slice(&(self.files.len() as u32).to_le_bytes());
        for file in &self.files {
            buf.push(file.kind.idx() as u8);
            buf.extend_from_slice(&(file.pages.len() as u32).to_le_bytes());
            for p in &file.pages {
                buf.extend_from_slice(&p.0.to_le_bytes());
            }
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());

        let tmp = self.dir.join("manifest.tmp");
        let final_path = self.dir.join(MANIFEST_FILE);
        let mut out = File::create(&tmp).map_err(|e| os_err("create manifest", e))?;
        out.write_all(&buf)
            .map_err(|e| os_err("write manifest", e))?;
        out.sync_all().map_err(|e| os_err("sync manifest", e))?;
        fs::rename(&tmp, &final_path).map_err(|e| os_err("install manifest", e))?;
        // Make the rename itself durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Reads a little-endian `u32` at `*pos`, advancing it.
fn take_u32(buf: &[u8], pos: &mut usize) -> StorageResult<u32> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= buf.len())
        .ok_or(StorageError::Backend {
            op: "decode manifest",
            detail: "truncated field".into(),
        })?;
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u32::from_le_bytes(b))
}

/// Decodes and checksum-verifies a manifest image.
#[allow(clippy::type_complexity)]
fn decode_manifest(buf: &[u8]) -> StorageResult<(Vec<FileEntry>, Vec<FileId>, Vec<PageId>)> {
    let bad = |detail: &str| StorageError::Backend {
        op: "decode manifest",
        detail: detail.to_string(),
    };
    if buf.len() < 8 + 8 {
        return Err(bad("file too short"));
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(tail);
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(bad(&format!(
            "checksum mismatch: stored {stored:#018X}, computed {computed:#018X}"
        )));
    }
    let mut pos = 0usize;
    if take_u32(body, &mut pos)? != MANIFEST_MAGIC {
        return Err(bad("bad magic"));
    }
    if take_u32(body, &mut pos)? != MANIFEST_VERSION {
        return Err(bad("unsupported version"));
    }
    let page_total = take_u32(body, &mut pos)? as usize;
    let mut page_file = Vec::with_capacity(page_total);
    for _ in 0..page_total {
        page_file.push(FileId(take_u32(body, &mut pos)?));
    }
    let free_len = take_u32(body, &mut pos)? as usize;
    let mut free_pages = Vec::with_capacity(free_len);
    for _ in 0..free_len {
        let p = take_u32(body, &mut pos)?;
        if p as usize >= page_total {
            return Err(bad("free page out of range"));
        }
        free_pages.push(PageId(p));
    }
    let file_count = take_u32(body, &mut pos)? as usize;
    let mut files = Vec::with_capacity(file_count);
    for _ in 0..file_count {
        if pos >= body.len() {
            return Err(bad("truncated file entry"));
        }
        let kind_idx = body[pos] as usize;
        pos += 1;
        let kind = *FileKind::ALL
            .get(kind_idx)
            .ok_or_else(|| bad("unknown file kind"))?;
        let n = take_u32(body, &mut pos)? as usize;
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            let p = take_u32(body, &mut pos)?;
            if p as usize >= page_total {
                return Err(bad("file page out of range"));
            }
            pages.push(PageId(p));
        }
        files.push(FileEntry { kind, pages });
    }
    for f in &page_file {
        if f.0 as usize >= files.len() {
            return Err(bad("page mapped to unknown file"));
        }
    }
    if pos != body.len() {
        return Err(bad("trailing bytes"));
    }
    Ok((files, page_file, free_pages))
}

impl PageStore for FileStore {
    fn new_file(&mut self, kind: FileKind) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(FileEntry {
            kind,
            pages: Vec::new(),
        });
        id
    }

    /// Mirrors the simulator bit for bit: LIFO reuse of freed slots, a
    /// zeroed (valid-CRC) slot materialized on disk, nothing counted.
    fn alloc(&mut self, file: FileId) -> StorageResult<PageId> {
        if file.0 as usize >= self.files.len() {
            return Err(StorageError::UnknownFile(file.0));
        }
        let pid = if let Some(pid) = self.free_pages.pop() {
            self.page_file[pid.index()] = file;
            pid
        } else {
            let pid = PageId(self.page_file.len() as u32);
            self.page_file.push(file);
            pid
        };
        let zeroes = [0u8; PAGE_SIZE];
        let slot = FileStore::encode_slot(pid, &zeroes);
        self.write_slot(pid, &slot)?;
        self.files[file.0 as usize].pages.push(pid);
        Ok(pid)
    }

    fn drop_file(&mut self, file: FileId) -> StorageResult<()> {
        let meta = self
            .files
            .get_mut(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file.0))?;
        self.free_pages.append(&mut meta.pages);
        Ok(())
    }

    fn read_page(&mut self, pid: PageId, out: &mut Page) -> StorageResult<()> {
        if pid.index() >= self.page_file.len() {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        let op = match self.fault.as_mut() {
            Some(plan) => match plan.on_read(pid) {
                Ok(op) => Some(op),
                Err(e) => {
                    self.tracer.emit(Event::FaultInjected {
                        page: pid.0,
                        write: false,
                    });
                    return Err(e);
                }
            },
            None => None,
        };
        let mut slot = vec![0u8; SLOT_SIZE];
        self.read_slot(pid, &mut slot)?;
        // Unlike the simulator (which trusts its own memory unless a
        // fault plan is armed), real bytes are *always* verified: a
        // truncated slot read back zero-padded fails the magic check, a
        // flipped bit fails the CRC.
        if let Err((stored, computed)) = FileStore::verify_slot(pid, &slot) {
            if let (Some(op), Some(plan)) = (op, self.fault.as_mut()) {
                plan.on_detection(op, pid);
            }
            self.tracer.emit(Event::CorruptionDetected { page: pid.0 });
            return Err(StorageError::ChecksumMismatch {
                pid,
                stored,
                computed,
            });
        }
        out.bytes_mut().copy_from_slice(&slot[HEADER_SIZE..]);
        self.stats.reads += 1;
        let file = self.page_file[pid.index()];
        let kind = self.files[file.0 as usize].kind;
        self.stats.reads_by_kind[kind.idx()] += 1;
        self.tracer.emit(Event::PageRead {
            page: pid.0,
            kind: Kind::from_idx(kind.idx()),
        });
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, data: &Page) -> StorageResult<()> {
        if pid.index() >= self.page_file.len() {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        let corrupt_at = match self.fault.as_mut() {
            Some(plan) => match plan.on_write(pid) {
                Ok((_, off)) => off,
                Err(e) => {
                    self.tracer.emit(Event::FaultInjected {
                        page: pid.0,
                        write: true,
                    });
                    return Err(e);
                }
            },
            None => None,
        };
        // The header checksum always describes the *intended* payload; a
        // torn-write injection flips a stored byte afterwards, so the
        // next read detects the damage — same semantics as the sim.
        let mut slot = FileStore::encode_slot(pid, data.bytes());
        if let Some(off) = corrupt_at {
            slot[HEADER_SIZE + off] ^= 0xFF;
        }
        self.write_slot(pid, &slot)?;
        if corrupt_at.is_some() {
            self.tracer.emit(Event::FaultInjected {
                page: pid.0,
                write: true,
            });
        }
        self.stats.writes += 1;
        let file = self.page_file[pid.index()];
        let kind = self.files[file.0 as usize].kind;
        self.stats.writes_by_kind[kind.idx()] += 1;
        self.tracer.emit(Event::PageWrite {
            page: pid.0,
            kind: Kind::from_idx(kind.idx()),
        });
        Ok(())
    }

    /// Durability point: fsync the segment, then atomically replace the
    /// manifest. After a successful `sync`, [`FileStore::open`] recovers
    /// the exact file directory and free list.
    fn sync(&mut self) -> StorageResult<()> {
        self.write_manifest()
    }

    fn file_pages(&self, file: FileId) -> &[PageId] {
        &self.files[file.0 as usize].pages
    }

    fn file_kind(&self, file: FileId) -> FileKind {
        self.files[file.0 as usize].kind
    }

    fn page_file(&self, pid: PageId) -> StorageResult<FileId> {
        self.page_file
            .get(pid.index())
            .copied()
            .ok_or(StorageError::PageOutOfBounds(pid))
    }

    fn page_count(&self) -> usize {
        self.page_file.len()
    }

    fn stats(&self) -> &DiskStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    fn note_retries(&mut self, tally: RetryTally) {
        self.retry_tally.absorb(tally);
    }

    fn retry_tally(&self) -> RetryTally {
        self.retry_tally
    }

    fn backend_name(&self) -> &'static str {
        "file"
    }
}

/// A `FileStore` mirrors the simulator's allocator state; this check
/// (used by tests) asserts the two stay in lockstep after the same
/// operation sequence.
pub fn allocator_state_matches(sim: &DiskSim, file: &FileStore) -> bool {
    sim.page_count() == file.page_count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store() -> FileStore {
        FileStore::create_in(TempDir::new("tc-filestore-test").unwrap()).unwrap()
    }

    #[test]
    fn round_trip_and_counting() {
        let mut s = temp_store();
        let f = s.new_file(FileKind::Relation);
        let pid = s.alloc(f).unwrap();
        assert_eq!(s.stats().total(), 0, "allocation is free");
        let mut p = Page::new();
        p.put_u32(0, 0xBEEF);
        s.write_page(pid, &p).unwrap();
        let mut back = Page::new();
        s.read_page(pid, &mut back).unwrap();
        assert_eq!(back.get_u32(0), 0xBEEF);
        assert_eq!(s.stats().reads, 1);
        assert_eq!(s.stats().writes, 1);
        assert_eq!(s.stats().reads_by_kind[FileKind::Relation.idx()], 1);
    }

    #[test]
    fn fresh_page_reads_zeroed() {
        let mut s = temp_store();
        let f = s.new_file(FileKind::Temp);
        let pid = s.alloc(f).unwrap();
        let mut p = Page::new();
        p.put_u32(0, 1);
        s.read_page(pid, &mut p).unwrap();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn free_pages_reused_lifo_like_sim() {
        let mut sim = DiskSim::new();
        let mut fil = temp_store();
        for store in [
            &mut sim as &mut dyn PageStore,
            &mut fil as &mut dyn PageStore,
        ] {
            let a = store.new_file(FileKind::Temp);
            let pids: Vec<_> = (0..3).map(|_| store.alloc(a).unwrap()).collect();
            store.drop_file(a).unwrap();
            let b = store.new_file(FileKind::Output);
            // LIFO: the most recently allocated page comes back first.
            assert_eq!(store.alloc(b).unwrap(), pids[2]);
            assert_eq!(store.alloc(b).unwrap(), pids[1]);
            assert_eq!(store.alloc(b).unwrap(), pids[0]);
            // Only after the free list drains does the store grow.
            assert_eq!(store.alloc(b).unwrap(), PageId(3));
            assert_eq!(store.page_count(), 4);
        }
        assert!(allocator_state_matches(&sim, &fil));
    }

    #[test]
    fn sync_then_open_recovers_directory() {
        let tmp = TempDir::new("tc-filestore-reopen").unwrap();
        let dir = tmp.path().to_path_buf();
        let (f, pid) = {
            let mut s = FileStore::create(&dir).unwrap();
            let f = s.new_file(FileKind::SuccessorList);
            let pid = s.alloc(f).unwrap();
            let mut p = Page::new();
            p.put_i32(0, -42);
            s.write_page(pid, &p).unwrap();
            s.sync().unwrap();
            (f, pid)
        };
        let mut s = FileStore::open(&dir).unwrap();
        assert!(s.recovery().is_clean());
        assert_eq!(s.file_kind(f), FileKind::SuccessorList);
        assert_eq!(s.file_pages(f), &[pid]);
        let mut p = Page::new();
        s.read_page(pid, &mut p).unwrap();
        assert_eq!(p.get_i32(0), -42);
    }

    #[test]
    fn manifest_corruption_is_rejected() {
        let tmp = TempDir::new("tc-filestore-manifest").unwrap();
        let dir = tmp.path().to_path_buf();
        {
            let mut s = FileStore::create(&dir).unwrap();
            let f = s.new_file(FileKind::Temp);
            s.alloc(f).unwrap();
            s.sync().unwrap();
        }
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match FileStore::open(&dir) {
            Err(StorageError::Backend { op, .. }) => assert_eq!(op, "decode manifest"),
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("expected manifest rejection, got a store"),
        }
    }

    #[test]
    fn temp_dir_removed_on_drop() {
        let path = {
            let t = TempDir::new("tc-tempdir-test").unwrap();
            assert!(t.path().is_dir());
            t.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
