//! [`FileStore`]: the accounting core over a real file ([`Segment`]).
//!
//! Where [`crate::DiskSim`] keeps page images in memory, this medium
//! moves them to and from an actual file, with a crash-safety story
//! modeled on small page-store engines (per-page CRC, persistent free
//! list, atomic metadata replacement):
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
//!        0     4  magic "TCP2" (little-endian u32)
//!        4     4  page id (must equal the slot index)
//!        8     8  [`Page::checksum`] of the page image
//!       16  2048  page image
//!   ```
//!
//!   All media use one function: the header holds the same
//!   [`Page::checksum`] the in-memory media record, so "corrupt" means
//!   the same thing everywhere and a page costs one lane-parallel fold,
//!   not a byte-serial hash. Reads *always* verify magic, page id and
//!   checksum; a mismatch (or a slot truncated by a crash mid-write)
//!   surfaces as [`StorageError::ChecksumMismatch`] — the same typed
//!   error the simulator raises under fault injection. A page moves
//!   with one positional syscall (`pread`/`pwrite` through
//!   [`std::os::unix::fs::FileExt`]); this module is Unix-only, like the
//!   platforms the repository builds and tests on, and has no fallback
//!   path.
//!
//! * **`manifest.tcm`** — the store metadata: magic `"TCM1"`, format
//!   version 2, the file directory (kind + page list per file), the
//!   page→file map and the persistent free-page list, finished by a
//!   byte-wise FNV-1a checksum of the manifest bytes. It is replaced
//!   atomically on [`PageStore::sync`] (write to `manifest.tmp`, fsync,
//!   rename), so a crash leaves either the old or the new manifest,
//!   never a torn one.
//!
//! Format 1 (slot magic `"TCP1"`, byte-wise FNV-1a slot checksums,
//! manifest version 1) has no reader: [`FileStore::open`] refuses such a
//! directory by its manifest version before it looks at any slot.
//!
//! # Recovery
//!
//! [`FileStore::open`] reads the manifest (rejecting one whose checksum
//! or version does not match) and then scans every allocated slot, in
//! sequential chunks of whole slots, classifying damage into a
//! [`RecoveryReport`]: *torn* pages (slot cut short by a crash — the
//! segment ends mid-slot) and *corrupt* pages (slot present but header
//! or checksum wrong, e.g. a bit flip). Damaged pages stay
//! readable-as-errors: accessing one returns the typed error rather than
//! absorbing bad bytes into query answers.
//!
//! # Counting contract
//!
//! None of its own: allocation, counting, fault hooks and tracing are
//! [`Store`]'s, the same code that runs over every other medium. This
//! file holds only what is specific to bytes on disk.

use crate::disk::{FileId, FileKind};
use crate::error::{StorageError, StorageResult};
use crate::medium::{Catalog, FileMeta, Medium};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::store::{PageStore, Store};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tc_trace::Fnv;

/// Slot header magic: `"TCP2"` (transitive-closure page, format 2).
const PAGE_MAGIC: u32 = u32::from_le_bytes(*b"TCP2");
/// Manifest magic: `"TCM1"`.
const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"TCM1");
/// Manifest format version; names the slot format beside it.
const MANIFEST_VERSION: u32 = 2;
/// Slot header size: magic (4) + page id (4) + checksum (8).
pub const HEADER_SIZE: usize = 16;
/// On-disk slot size: header + page image.
pub const SLOT_SIZE: usize = HEADER_SIZE + PAGE_SIZE;
/// Slots the recovery scan reads per syscall (a buffer under 256 KB).
const SCAN_SLOTS: usize = (256 << 10) / SLOT_SIZE;

/// Segment file name inside a store directory.
pub const SEGMENT_FILE: &str = "pages.tcs";
/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.tcm";

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

/// The file medium: the page segment of one store directory, plus what
/// it takes to persist and recover the catalog beside it.
pub struct Segment {
    dir: PathBuf,
    file: File,
    /// The one slot image every read, write and zero goes through.
    slot: [u8; SLOT_SIZE],
    recovery: RecoveryReport,
    /// Present when the store owns an auto-cleaned temp directory.
    temp: Option<TempDir>,
}

impl Segment {
    /// Opens `dir`'s segment file; `fresh` creates or truncates it.
    fn open(dir: &Path, fresh: bool) -> StorageResult<Segment> {
        let op = if fresh {
            "create segment"
        } else {
            "open segment"
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(fresh)
            .truncate(fresh)
            .open(dir.join(SEGMENT_FILE))
            .map_err(|e| os_err(op, e))?;
        Ok(Segment {
            dir: dir.to_path_buf(),
            file,
            slot: [0u8; SLOT_SIZE],
            recovery: RecoveryReport::default(),
            temp: None,
        })
    }

    /// Reads slot `pid` into `self.slot`. A slot the segment ends before
    /// or inside is torn whatever its surviving bytes say (a lost tail of
    /// zeros would otherwise read back "intact"): it loads as all zero,
    /// which has no valid magic, so verification reports it.
    fn load_slot(&mut self, pid: PageId) -> StorageResult<()> {
        match self.file.read_exact_at(&mut self.slot, slot_offset(pid)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                self.slot.fill(0);
                Ok(())
            }
            Err(e) => Err(os_err("read segment", e)),
        }
    }

    /// Builds the on-disk image of `pid` in `self.slot`: `payload` under
    /// a header that carries `checksum`.
    fn encode_slot(&mut self, pid: PageId, payload: &[u8; PAGE_SIZE], checksum: u64) {
        self.slot[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        self.slot[4..8].copy_from_slice(&pid.0.to_le_bytes());
        self.slot[8..16].copy_from_slice(&checksum.to_le_bytes());
        self.slot[HEADER_SIZE..].copy_from_slice(payload);
    }

    /// Writes `self.slot` as slot `pid`.
    fn store_slot(&mut self, pid: PageId) -> StorageResult<()> {
        self.file
            .write_all_at(&self.slot, slot_offset(pid))
            .map_err(|e| os_err("write segment", e))
    }

    /// Scans the first `pages` slots, classifying damage: a slot the
    /// segment ends before or inside is torn, a whole one that fails
    /// [`verify_slot`] is corrupt. Uncounted: this is recovery, not
    /// query I/O.
    fn scan(&self, pages: usize) -> StorageResult<RecoveryReport> {
        let len = self
            .file
            .metadata()
            .map_err(|e| os_err("stat segment", e))?
            .len();
        let whole = (len / SLOT_SIZE as u64).min(pages as u64) as usize;
        let mut report = RecoveryReport::default();
        let mut chunk = vec![0u8; SCAN_SLOTS.min(whole) * SLOT_SIZE];
        for first in (0..whole).step_by(SCAN_SLOTS) {
            let slots = SCAN_SLOTS.min(whole - first);
            let chunk = &mut chunk[..slots * SLOT_SIZE];
            self.file
                .read_exact_at(chunk, (first * SLOT_SIZE) as u64)
                .map_err(|e| os_err("read segment", e))?;
            for (i, slot) in chunk.chunks_exact(SLOT_SIZE).enumerate() {
                let pid = PageId((first + i) as u32);
                if verify_slot(slot, pid).is_err() {
                    report.corrupt_pages.push(pid);
                }
            }
        }
        report
            .torn_pages
            .extend((whole..pages).map(|i| PageId(i as u32)));
        Ok(report)
    }
}

/// Byte offset of slot `pid` in the segment.
fn slot_offset(pid: PageId) -> u64 {
    pid.index() as u64 * SLOT_SIZE as u64
}

/// Verifies the [`SLOT_SIZE`] bytes of `slot` as the image of `pid`:
/// magic, page id and checksum. The error carries the checksums (a bad
/// magic or page id reports the raw header checksum field as `stored`).
fn verify_slot(slot: &[u8], pid: PageId) -> StorageResult<()> {
    let magic = u32::from_le_bytes([slot[0], slot[1], slot[2], slot[3]]);
    let hdr_pid = u32::from_le_bytes([slot[4], slot[5], slot[6], slot[7]]);
    let stored = u64::from_le_bytes([
        slot[8], slot[9], slot[10], slot[11], slot[12], slot[13], slot[14], slot[15],
    ]);
    let computed = Page::checksum_of(&slot[HEADER_SIZE..]);
    if magic != PAGE_MAGIC || hdr_pid != pid.0 || stored != computed {
        return Err(StorageError::ChecksumMismatch {
            pid,
            stored,
            computed,
        });
    }
    Ok(())
}

impl Medium for Segment {
    /// Unlike the in-memory media (which trust their own memory unless a
    /// fault plan is armed), real bytes are *always* verified: a
    /// truncated slot loads as zeros and fails the magic check, a
    /// flipped bit fails the checksum.
    fn read(&mut self, pid: PageId, out: &mut Page, _verify: bool) -> StorageResult<()> {
        self.load_slot(pid)?;
        verify_slot(&self.slot, pid)?;
        out.bytes_mut().copy_from_slice(&self.slot[HEADER_SIZE..]);
        Ok(())
    }

    /// The header checksum always describes the *intended* payload; a
    /// torn write flips a stored byte afterwards, so the next read
    /// detects the damage.
    fn write(&mut self, pid: PageId, data: &Page, tear_at: Option<usize>) -> StorageResult<()> {
        self.encode_slot(pid, data.bytes(), data.checksum());
        if let Some(off) = tear_at {
            self.slot[HEADER_SIZE + off] ^= 0xFF;
        }
        self.store_slot(pid)
    }

    fn zero(&mut self, pid: PageId) -> StorageResult<()> {
        self.encode_slot(pid, &[0u8; PAGE_SIZE], Page::ZERO_CHECKSUM);
        self.store_slot(pid)
    }

    /// Fsyncs the segment, then atomically replaces the manifest, so the
    /// manifest never describes pages that have not reached the disk.
    /// After a successful `sync`, [`FileStore::open`] recovers the exact
    /// file directory and free list.
    fn sync(&mut self, catalog: &Catalog) -> StorageResult<()> {
        self.file
            .sync_all()
            .map_err(|e| os_err("sync segment", e))?;
        let tmp = self.dir.join("manifest.tmp");
        let mut out = File::create(&tmp).map_err(|e| os_err("create manifest", e))?;
        out.write_all(&encode_manifest(catalog))
            .map_err(|e| os_err("write manifest", e))?;
        out.sync_all().map_err(|e| os_err("sync manifest", e))?;
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))
            .map_err(|e| os_err("install manifest", e))?;
        // Make the rename itself durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "file"
    }
}

/// Appends a count-prefixed list of ids.
fn put_ids(buf: &mut Vec<u8>, ids: impl Iterator<Item = u32>) {
    let at = buf.len();
    buf.extend_from_slice(&0u32.to_le_bytes());
    let mut count = 0u32;
    for id in ids {
        buf.extend_from_slice(&id.to_le_bytes());
        count += 1;
    }
    buf[at..at + 4].copy_from_slice(&count.to_le_bytes());
}

/// Serializes `catalog` in the manifest format, checksum last.
fn encode_manifest(catalog: &Catalog) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    put_ids(&mut buf, catalog.page_file.iter().map(|f| f.0));
    // Held pages are free in a manifest: once it is durable, no synced
    // catalog gives them to a file.
    let free = catalog.free_pages.iter().chain(&catalog.held_pages);
    put_ids(&mut buf, free.map(|p| p.0));
    buf.extend_from_slice(&(catalog.files.len() as u32).to_le_bytes());
    for file in &catalog.files {
        buf.push(file.kind.idx() as u8);
        put_ids(&mut buf, file.pages.iter().map(|p| p.0));
    }
    let checksum = Fnv::bytes(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

fn bad_manifest(detail: impl Into<String>) -> StorageError {
    StorageError::Backend {
        op: "decode manifest",
        detail: detail.into(),
    }
}

/// Reads a little-endian `u32` at `*pos`, advancing it.
fn take_u32(buf: &[u8], pos: &mut usize) -> StorageResult<u32> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| bad_manifest("truncated field"))?;
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(u32::from_le_bytes(b))
}

/// Reads a count-prefixed list of ids, each below `limit`.
fn take_ids<T>(
    buf: &[u8],
    pos: &mut usize,
    limit: usize,
    id: fn(u32) -> T,
) -> StorageResult<Vec<T>> {
    let n = take_u32(buf, pos)? as usize;
    let mut ids = Vec::with_capacity(n.min(buf.len() / 4));
    for _ in 0..n {
        let raw = take_u32(buf, pos)?;
        if raw as usize >= limit {
            return Err(bad_manifest("page id out of range"));
        }
        ids.push(id(raw));
    }
    Ok(ids)
}

/// Decodes and checksum-verifies a manifest image.
fn decode_manifest(buf: &[u8]) -> StorageResult<Catalog> {
    if buf.len() < 8 + 8 {
        return Err(bad_manifest("file too short"));
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(tail);
    let stored = u64::from_le_bytes(stored);
    let computed = Fnv::bytes(body);
    if stored != computed {
        return Err(bad_manifest(format!(
            "checksum mismatch: stored {stored:#018X}, computed {computed:#018X}"
        )));
    }
    let mut pos = 0usize;
    if take_u32(body, &mut pos)? != MANIFEST_MAGIC {
        return Err(bad_manifest("bad magic"));
    }
    let version = take_u32(body, &mut pos)?;
    if version != MANIFEST_VERSION {
        return Err(bad_manifest(format!(
            "unsupported version {version} (this build reads {MANIFEST_VERSION})"
        )));
    }
    // Owners are checked against the file table once it is known.
    let page_file = take_ids(body, &mut pos, usize::MAX, FileId)?;
    let free_pages = take_ids(body, &mut pos, page_file.len(), PageId)?;
    let file_count = take_u32(body, &mut pos)? as usize;
    // A file takes at least 5 bytes, so the body bounds what to reserve:
    // an untrusted count must not size an allocation.
    let mut files = Vec::with_capacity(file_count.min(body.len() / 5));
    for _ in 0..file_count {
        let kind = body
            .get(pos)
            .and_then(|&idx| FileKind::ALL.get(idx as usize))
            .ok_or_else(|| bad_manifest("truncated or unknown file kind"))?;
        pos += 1;
        let pages = take_ids(body, &mut pos, page_file.len(), PageId)?;
        files.push(FileMeta { kind: *kind, pages });
    }
    if page_file.iter().any(|f| f.0 as usize >= files.len()) {
        return Err(bad_manifest("page mapped to unknown file"));
    }
    if pos != body.len() {
        return Err(bad_manifest("trailing bytes"));
    }
    // A store only writes catalogs in which every slot is held exactly
    // once: by the file its owner entry names, or by the free list (a
    // free slot keeps its last owner). Else two files could share a page.
    let mut held = vec![false; page_file.len()];
    let mut hold = |pid: PageId| !std::mem::replace(&mut held[pid.index()], true);
    let owned = files.iter().zip(0..).all(|(meta, f)| {
        meta.pages
            .iter()
            .all(|&p| page_file[p.index()] == FileId(f) && hold(p))
    });
    if !owned || !free_pages.iter().all(|&p| hold(p)) || held.contains(&false) {
        return Err(bad_manifest(
            "a page held twice, by no file or not by its owner",
        ));
    }
    Ok(Catalog {
        files,
        page_file,
        free_pages,
        held_pages: Vec::new(),
    })
}

/// The file-backed page store. See the module docs for the on-disk
/// format and recovery protocol.
pub type FileStore = Store<Segment>;

impl FileStore {
    /// Creates a *fresh, empty* store in `dir` (created if missing;
    /// existing segment/manifest files are truncated).
    pub fn create(dir: impl AsRef<Path>) -> StorageResult<FileStore> {
        FileStore::create_with(dir.as_ref(), None)
    }

    /// Creates a fresh store inside an owned [`TempDir`]; the directory
    /// (and everything in it) is removed when the store is dropped.
    pub fn create_in(temp: TempDir) -> StorageResult<FileStore> {
        let dir = temp.path().to_path_buf();
        FileStore::create_with(&dir, Some(temp))
    }

    fn create_with(dir: &Path, temp: Option<TempDir>) -> StorageResult<FileStore> {
        fs::create_dir_all(dir).map_err(|e| os_err("create store directory", e))?;
        let mut segment = Segment::open(dir, true)?;
        segment.temp = temp;
        let mut store = Store::over(segment);
        // An empty manifest makes a freshly created directory openable
        // even if the process stops before the first sync.
        store.sync()?;
        Ok(store)
    }

    /// Opens an existing store, verifying the manifest checksum and
    /// scanning every allocated page slot for torn or corrupt data (see
    /// [`RecoveryReport`]). Damaged pages are reported here and produce
    /// [`StorageError::ChecksumMismatch`] when read.
    pub fn open(dir: impl AsRef<Path>) -> StorageResult<FileStore> {
        let dir = dir.as_ref();
        let manifest = fs::read(dir.join(MANIFEST_FILE)).map_err(|e| os_err("read manifest", e))?;
        let catalog = decode_manifest(&manifest)?;
        let mut segment = Segment::open(dir, false)?;
        segment.recovery = segment.scan(catalog.page_file.len())?;
        Ok(Store::with_catalog(segment, Arc::new(catalog)))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.medium().dir
    }

    /// The recovery scan result from [`FileStore::open`] (empty for a
    /// freshly created store).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.medium().recovery
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(s.file_kind(f), Ok(FileKind::SuccessorList));
        assert_eq!(s.file_pages(f), Ok(&[pid][..]));
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
