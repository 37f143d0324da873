//! Crash-safety tests for the file-backed store against *real* files:
//! CRC detection of bit rot, torn-write detection on reopen, free-page
//! reuse keeping the segment from growing, a clean reopen over slots
//! that were freed before any write reached them, refusal of the retired
//! format 1, the chunked recovery scan against a per-slot oracle, and
//! byte mutations of a synced manifest.
//!
//! Every test works in a `TempDir`, so the on-disk artifacts vanish on
//! drop — pass or fail; `file_backend_temp_dir_is_cleaned_up` checks
//! that for a whole database.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::core::prelude::*;
use tc_study::det::check::{shrink_vec, vec_of, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::graph::DagGenerator;
use tc_study::storage::file_store::{MANIFEST_FILE, SEGMENT_FILE};
use tc_study::storage::{
    Backend, Catalog, FileId, FileKind, FileStore, Page, PageId, PageStore, Pager, RecoveryReport,
    StorageError, TempDir, FILE_STORE_HEADER_SIZE, FILE_STORE_SLOT_SIZE, PAGE_SIZE,
};
use tc_study::trace::Fnv;

/// Creates a store in `dir`, writes one recognizable page, syncs, and
/// returns the page id's slot index.
fn seed_store(dir: &std::path::Path) -> usize {
    let mut store = FileStore::create(dir).expect("create");
    let f = store.new_file(FileKind::Relation);
    let pid = store.alloc(f).expect("alloc");
    let mut page = Page::new();
    for i in 0..(PAGE_SIZE / 4) {
        page.put_u32(i * 4, 0xC0DE_0000 | i as u32);
    }
    store.write_page(pid, &page).expect("write");
    store.sync().expect("sync");
    pid.index()
}

#[test]
fn bit_flip_is_detected_as_checksum_mismatch() {
    let tmp = TempDir::new("tc-recovery-flip").expect("tempdir");
    let slot = seed_store(tmp.path());

    // Flip one payload byte in the slot, past the header.
    let seg = tmp.path().join(SEGMENT_FILE);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&seg)
        .expect("open segment");
    let off = slot as u64 * FILE_STORE_SLOT_SIZE as u64 + FILE_STORE_HEADER_SIZE as u64 + 100;
    let mut b = [0u8; 1];
    file.seek(SeekFrom::Start(off)).unwrap();
    file.read_exact(&mut b).unwrap();
    b[0] ^= 0x01;
    file.seek(SeekFrom::Start(off)).unwrap();
    file.write_all(&b).unwrap();
    file.sync_all().unwrap();
    drop(file);

    // Open-time recovery classifies the page as corrupt…
    let mut store = FileStore::open(tmp.path()).expect("open");
    let report = store.recovery().clone();
    assert_eq!(report.corrupt_pages.len(), 1, "{report:?}");
    assert_eq!(report.corrupt_pages[0].index(), slot);
    assert!(report.torn_pages.is_empty(), "{report:?}");

    // …and reading it surfaces the existing typed error.
    let pid = report.corrupt_pages[0];
    let mut page = Page::new();
    match store.read_page(pid, &mut page) {
        Err(StorageError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn truncation_mid_slot_is_detected_as_torn_write() {
    let tmp = TempDir::new("tc-recovery-torn").expect("tempdir");
    let slot = seed_store(tmp.path());

    // Simulate a crash between extending the segment and completing the
    // slot write: cut the file in the middle of the page image.
    let seg = tmp.path().join(SEGMENT_FILE);
    let file = OpenOptions::new().write(true).open(&seg).expect("open");
    let cut = slot as u64 * FILE_STORE_SLOT_SIZE as u64 + FILE_STORE_SLOT_SIZE as u64 / 2;
    file.set_len(cut).expect("truncate");
    file.sync_all().unwrap();
    drop(file);

    let mut store = FileStore::open(tmp.path()).expect("open");
    let report = store.recovery().clone();
    assert_eq!(report.torn_pages.len(), 1, "{report:?}");
    assert_eq!(report.torn_pages[0].index(), slot);

    // The truncated slot reads back zero-padded, which cannot carry a
    // valid header, so the read is a typed failure, not silent zeros.
    let pid = report.torn_pages[0];
    let mut page = Page::new();
    assert!(
        matches!(
            store.read_page(pid, &mut page),
            Err(StorageError::ChecksumMismatch { .. })
        ),
        "torn slot must fail verification on read"
    );
}

/// Length of the segment file in `dir`.
fn segment_len(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join(SEGMENT_FILE))
        .expect("segment")
        .len()
}

#[test]
fn freed_pages_are_reused_before_the_segment_grows() {
    // Pages a synced manifest gives to a file are not reused before the
    // next sync: until then a crash reopens that manifest, and its file
    // must still hold its own images. After the sync they are reused
    // LIFO, like every freed page, before the segment grows.
    let tmp = TempDir::new("tc-recovery-reuse").expect("tempdir");
    let mut store = FileStore::create(tmp.path()).expect("create");
    let scratch = store.new_file(FileKind::Temp);
    let mut first: Vec<_> = Vec::new();
    for _ in 0..8 {
        first.push(store.alloc(scratch).expect("alloc"));
    }
    let page = Page::new();
    for &pid in &first {
        store.write_page(pid, &page).expect("write");
    }
    store.sync().expect("sync");
    let grown = segment_len(tmp.path());

    // Before the sync: the dropped file's pages are held, none is
    // reused, and the segment grows by the new file.
    store.drop_file(scratch).expect("drop_file");
    assert_eq!(store.catalog().held_pages(), &first[..]);
    assert!(store.catalog().free_pages().is_empty());
    let again = store.new_file(FileKind::Temp);
    let mut second = Vec::new();
    for _ in 0..8 {
        second.push(store.alloc(again).expect("alloc"));
    }
    assert!(
        second.iter().all(|pid| !first.contains(pid)),
        "a page the synced manifest gives to a file was reused before the sync: {second:?}"
    );
    for &pid in &second {
        store.write_page(pid, &page).expect("write");
    }
    store.sync().expect("sync");
    let regrown = segment_len(tmp.path());
    assert_eq!(regrown, 2 * grown, "the new file must take new slots");

    // After the sync: the held pages are free, in the order they were
    // freed, and come back LIFO while the segment stays as it is.
    assert!(store.catalog().held_pages().is_empty());
    assert_eq!(store.catalog().free_pages(), &first[..]);
    let third = store.new_file(FileKind::Temp);
    let mut reused = Vec::new();
    for _ in 0..8 {
        reused.push(store.alloc(third).expect("realloc"));
    }
    let mut expected = first.clone();
    expected.reverse();
    assert_eq!(reused, expected, "free list must be reused LIFO");
    for &pid in &reused {
        store.write_page(pid, &page).expect("rewrite");
    }
    store.sync().expect("sync");
    assert_eq!(
        segment_len(tmp.path()),
        regrown,
        "segment grew despite a full free list"
    );
}

#[test]
fn a_crash_after_a_drop_reopens_the_dropped_files_own_images() {
    // File A writes two pages and syncs; A is dropped; file B allocates a
    // page and writes it; the process stops before the next sync. The
    // manifest on disk still gives A both pages, so B must not have
    // written over either of them.
    let tmp = TempDir::new("tc-recovery-drop-crash").expect("tempdir");
    let stamp = |tag: u32| {
        let mut page = Page::new();
        for i in 0..(PAGE_SIZE / 4) {
            page.put_u32(i * 4, tag ^ i as u32);
        }
        page
    };
    let a = {
        let mut store = FileStore::create(tmp.path()).expect("create");
        let a = store.new_file(FileKind::Output);
        for tag in [0xA000, 0xA001] {
            let pid = store.alloc(a).expect("alloc");
            store.write_page(pid, &stamp(tag)).expect("write");
        }
        store.sync().expect("sync");
        store.drop_file(a).expect("drop_file");
        let b = store.new_file(FileKind::Output);
        let pid = store.alloc(b).expect("alloc");
        store.write_page(pid, &stamp(0xB000)).expect("write");
        a
    };
    let mut store = FileStore::open(tmp.path()).expect("open");
    assert!(store.recovery().is_clean(), "{:?}", store.recovery());
    let pages = store
        .file_pages(a)
        .expect("A is in the synced manifest")
        .to_vec();
    assert_eq!(pages.len(), 2);
    for (pid, tag) in pages.into_iter().zip([0xA000, 0xA001]) {
        let mut image = Page::new();
        store.read_page(pid, &mut image).expect("read");
        assert!(
            image == stamp(tag),
            "A's page {pid:?} holds another file's image"
        );
    }
}

#[test]
fn a_page_freed_before_its_first_write_reopens_clean() {
    // An engine that discards a scratch file it never flushed leaves
    // slots that no write ever reached, yet the catalog still addresses
    // them as free pages: only the image `alloc` zeroes in lets the
    // recovery scan accept them.
    let tmp = TempDir::new("tc-recovery-unwritten").expect("tempdir");
    let store = FileStore::create(tmp.path()).expect("create");
    let mut pool = BufferPool::new(store, 4, PagePolicy::Lru);
    let scratch = pool.create_file(FileKind::Temp);
    for _ in 0..3 {
        pool.alloc_page(scratch).expect("alloc");
    }
    pool.free_file(scratch).expect("free_file");
    pool.into_store_discard().sync().expect("sync");
    let store = FileStore::open(tmp.path()).expect("open");
    assert!(store.recovery().is_clean(), "{:?}", store.recovery());
    assert_eq!(store.page_count(), 3);
}

#[test]
fn clean_reopen_round_trips_the_directory() {
    let tmp = TempDir::new("tc-recovery-reopen").expect("tempdir");
    let (pid, kind) = {
        let mut store = FileStore::create(tmp.path()).expect("create");
        let f = store.new_file(FileKind::Index);
        let pid = store.alloc(f).expect("alloc");
        let mut page = Page::new();
        page.put_u32(0, 0xFEED_BEEF);
        store.write_page(pid, &page).expect("write");
        store.sync().expect("sync");
        (pid, store.file_kind(f).expect("kind"))
    };
    let mut store = FileStore::open(tmp.path()).expect("open");
    assert!(store.recovery().is_clean());
    assert_eq!(kind, FileKind::Index);
    let mut page = Page::new();
    store.read_page(pid, &mut page).expect("read");
    assert_eq!(page.get_u32(0), 0xFEED_BEEF);
    // The backend keeps its name stable for diagnostics.
    assert_eq!(store.backend_name(), "file");
    assert_eq!(Backend::file_temp().name(), "file");
}

#[test]
fn format_1_manifest_is_refused_by_name() {
    // The empty format-1 manifest, built by hand: magic, version 1, no
    // pages, no free pages, no files, checksum. There is no segment
    // beside it, so a refusal that came after the manifest check would
    // be an "open segment" error instead.
    let tmp = TempDir::new("tc-recovery-format1").expect("tempdir");
    let mut manifest = Vec::new();
    manifest.extend_from_slice(b"TCM1");
    for field in [1u32, 0, 0, 0] {
        manifest.extend_from_slice(&field.to_le_bytes());
    }
    // The manifest checksum (and format 1's slot checksum) is byte-wise
    // FNV-1a 64.
    let checksum = Fnv::bytes(&manifest);
    manifest.extend_from_slice(&checksum.to_le_bytes());
    assert_eq!(manifest.len(), 28);
    std::fs::write(tmp.path().join(MANIFEST_FILE), &manifest).expect("write manifest");

    match FileStore::open(tmp.path()) {
        Err(StorageError::Backend { op, detail }) => {
            assert_eq!(op, "decode manifest");
            assert_eq!(detail, "unsupported version 1 (this build reads 2)");
        }
        Err(other) => panic!("wrong error: {other:?}"),
        Ok(_) => panic!("a format-1 store was opened"),
    }
}

#[test]
fn format_1_slot_under_a_format_2_manifest_is_corrupt() {
    let tmp = TempDir::new("tc-recovery-tcp1").expect("tempdir");
    let slot = seed_store(tmp.path());

    // Rewrite the slot header as format 1 wrote it: magic "TCP1" and the
    // byte-wise FNV-1a of the (unchanged) payload.
    let seg = tmp.path().join(SEGMENT_FILE);
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let at = slot * FILE_STORE_SLOT_SIZE;
    let checksum = Fnv::bytes(&bytes[at + FILE_STORE_HEADER_SIZE..at + FILE_STORE_SLOT_SIZE]);
    bytes[at..at + 4].copy_from_slice(b"TCP1");
    bytes[at + 8..at + 16].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&seg, &bytes).expect("write segment");

    let mut store = FileStore::open(tmp.path()).expect("open");
    let pid = PageId(slot as u32);
    assert_eq!(store.recovery().corrupt_pages, [pid]);
    assert!(store.recovery().torn_pages.is_empty());
    let mut page = Page::new();
    assert!(matches!(
        store.read_page(pid, &mut page),
        Err(StorageError::ChecksumMismatch { .. })
    ));
}

/// Slots `FileStore::open` reads per chunk (private there): page counts
/// around its multiples put damage on both sides of a chunk boundary.
const SCAN_SLOTS: usize = (256 << 10) / FILE_STORE_SLOT_SIZE;

/// One damaged store: `pages` pages, then byte flips, then a cut.
#[derive(Clone, Debug)]
struct Damage {
    pages: usize,
    /// `(position, mask)`: the byte at `position % segment length` is
    /// xor-ed with `mask` (never zero).
    flips: Vec<(u64, u8)>,
    /// `(slot, offset)`: the segment is cut at `offset` bytes into slot
    /// `slot % pages`.
    cut: Option<(usize, usize)>,
}

fn gen_damage(rng: &mut Rng) -> Damage {
    let pages = if rng.random_bool(0.25) {
        // An exact multiple of the chunk, one short, one over.
        SCAN_SLOTS * rng.random_range(1..=2usize) + rng.random_range(0..3usize) - 1
    } else {
        rng.random_range(1..=300usize)
    };
    let flips = vec_of(rng, 0..12, |r| {
        let slot = r.random_range(0..pages);
        // Half the flips land in the 16 header bytes.
        let within = if r.random_bool(0.5) {
            r.random_range(0..FILE_STORE_HEADER_SIZE)
        } else {
            r.random_range(FILE_STORE_HEADER_SIZE..FILE_STORE_SLOT_SIZE)
        };
        let pos = (slot * FILE_STORE_SLOT_SIZE + within) as u64;
        (pos, r.random_range(1..=255u32) as u8)
    });
    let cut = rng.random_bool(0.5).then(|| {
        let offset = match rng.random_range(0..3u32) {
            0 => 0,
            1 => rng.random_range(1..FILE_STORE_HEADER_SIZE),
            _ => rng.random_range(FILE_STORE_HEADER_SIZE..FILE_STORE_SLOT_SIZE),
        };
        (rng.random_range(0..pages), offset)
    });
    Damage { pages, flips, cut }
}

fn shrink_damage(d: &Damage) -> Vec<Damage> {
    let mut out = Vec::new();
    if d.cut.is_some() {
        out.push(Damage {
            cut: None,
            ..d.clone()
        });
    }
    out.extend(
        shrink_vec(&d.flips)
            .into_iter()
            .map(|flips| Damage { flips, ..d.clone() }),
    );
    for pages in [d.pages / 2, d.pages - 1] {
        if pages >= 1 && pages < d.pages {
            out.push(Damage { pages, ..d.clone() });
        }
    }
    out
}

/// Every fifth page of the property's store is never written and stays
/// as `alloc` zeroed it.
fn is_written(i: usize) -> bool {
    i % 5 != 0
}

/// What page `i` of the property's store holds.
fn expected_page(i: usize) -> Page {
    let mut page = Page::new();
    if is_written(i) {
        for w in 0..(PAGE_SIZE / 4) {
            page.put_u32(w * 4, (i as u32 + 1).wrapping_mul(0x9E37_79B9) ^ w as u32);
        }
    }
    page
}

/// The oracle: is `slot`, looked at alone, a valid format-2 image of
/// page `i`?
fn slot_is_valid(slot: &[u8], i: usize) -> bool {
    let mut payload = Page::new();
    payload
        .bytes_mut()
        .copy_from_slice(&slot[FILE_STORE_HEADER_SIZE..]);
    slot[0..4] == *b"TCP2"
        && slot[4..8] == (i as u32).to_le_bytes()
        && slot[8..16] == payload.checksum().to_le_bytes()
}

#[test]
fn recovery_scan_matches_a_per_slot_oracle() {
    Checker::new("recovery_scan_matches_a_per_slot_oracle").run(gen_damage, shrink_damage, |d| {
        let tmp = TempDir::new("tc-recovery-oracle").map_err(|e| e.to_string())?;
        {
            let mut store = FileStore::create(tmp.path()).map_err(|e| e.to_string())?;
            let f = store.new_file(FileKind::Relation);
            for i in 0..d.pages {
                let pid = store.alloc(f).map_err(|e| e.to_string())?;
                require_eq!(pid.index(), i);
                if is_written(i) {
                    store
                        .write_page(pid, &expected_page(i))
                        .map_err(|e| e.to_string())?;
                }
            }
            store.sync().map_err(|e| e.to_string())?;
        }
        let seg = tmp.path().join(SEGMENT_FILE);
        let pristine = std::fs::read(&seg).map_err(|e| e.to_string())?;
        require_eq!(pristine.len(), d.pages * FILE_STORE_SLOT_SIZE);
        let mut damaged = pristine.clone();
        for &(pos, mask) in &d.flips {
            damaged[pos as usize % pristine.len()] ^= mask;
        }
        if let Some((slot, offset)) = d.cut {
            damaged.truncate(slot % d.pages * FILE_STORE_SLOT_SIZE + offset);
        }
        std::fs::write(&seg, &damaged).map_err(|e| e.to_string())?;

        let mut oracle = RecoveryReport::default();
        for i in 0..d.pages {
            let (from, to) = (i * FILE_STORE_SLOT_SIZE, (i + 1) * FILE_STORE_SLOT_SIZE);
            if to > damaged.len() {
                oracle.torn_pages.push(PageId(i as u32));
                continue;
            }
            let valid = slot_is_valid(&damaged[from..to], i);
            // The format oracle agrees with the ground truth: a
            // whole slot is valid exactly when no byte of it moved.
            require_eq!(valid, damaged[from..to] == pristine[from..to], "slot {i}");
            if !valid {
                oracle.corrupt_pages.push(PageId(i as u32));
            }
        }

        let mut store = FileStore::open(tmp.path()).map_err(|e| e.to_string())?;
        require_eq!(store.recovery(), &oracle);
        let mut page = Page::new();
        for i in 0..d.pages {
            let pid = PageId(i as u32);
            let read = store.read_page(pid, &mut page);
            if oracle.torn_pages.contains(&pid) || oracle.corrupt_pages.contains(&pid) {
                require!(
                    matches!(read, Err(StorageError::ChecksumMismatch { .. })),
                    "damaged page {i} read as {read:?}"
                );
            } else {
                require!(read.is_ok(), "intact page {i} read as {read:?}");
                require!(page == expected_page(i), "intact page {i} read back wrong");
            }
        }
        Ok(())
    });
}

#[test]
fn file_backend_temp_dir_is_cleaned_up() {
    // The auto-cleaning temp directory is what makes every file-backend
    // experiment cell leave nothing behind, pass or fail. Capture the
    // directory, drop the database, and check the directory is gone.
    let g = DagGenerator::new(120, 3.0, 30).seed(5).generate();
    let cfg = SystemConfig::with_buffer(10);
    let tmp = TempDir::new("tc-diff").expect("temp dir");
    let dir = tmp.path().to_path_buf();
    let store = FileStore::create_in(tmp).expect("create store");
    let mut db = Database::build_on(&g, false, Box::new(store)).expect("build");
    assert!(dir.exists(), "store directory missing while database lives");
    db.run(&Query::partial(vec![1]), Algorithm::Btc, &cfg)
        .expect("run");
    drop(db);
    assert!(
        !dir.exists(),
        "temp store directory survived database drop: {}",
        dir.display()
    );
}

/// A synced store with every part of a catalog populated: live files of
/// several kinds, a dropped file, reused and still-free slots. Returns
/// its segment bytes, its manifest bytes and the catalog it synced.
fn synced_store() -> (Vec<u8>, Vec<u8>, Catalog) {
    let tmp = TempDir::new("tc-manifest-base").expect("tempdir");
    let mut store = FileStore::create(tmp.path()).expect("create");
    let fill = |store: &mut FileStore, kind, pages: usize| {
        let f = store.new_file(kind);
        for i in 0..pages {
            let pid = store.alloc(f).expect("alloc");
            let mut page = Page::new();
            page.put_u32(0, 0xF00D_0000 | i as u32);
            store.write_page(pid, &page).expect("write");
        }
        f
    };
    fill(&mut store, FileKind::Relation, 6);
    fill(&mut store, FileKind::Index, 3);
    let scratch = fill(&mut store, FileKind::Temp, 4);
    store.drop_file(scratch).expect("drop");
    fill(&mut store, FileKind::SuccessorList, 2);
    store.sync().expect("sync");
    let catalog = store.catalog().clone();
    drop(store);
    let read = |name| std::fs::read(tmp.path().join(name)).expect("read store file");
    (read(SEGMENT_FILE), read(MANIFEST_FILE), catalog)
}

/// Byte edits of a manifest, applied in order: `(op, at, byte)` flips a
/// bit, deletes, inserts or truncates at `at % len`, as
/// `event_schema_pin` mutates its lines. With `reseal` the checksum is
/// recomputed over the edited body, so the edits reach the structural
/// decoder instead of stopping at the checksum.
#[derive(Clone, Debug)]
struct ManifestEdits {
    edits: Vec<(u32, usize, u8)>,
    reseal: bool,
}

fn gen_manifest_edits(rng: &mut Rng) -> ManifestEdits {
    ManifestEdits {
        edits: vec_of(rng, 1..4, |r| {
            (
                r.random_range(0..4u32),
                r.random_range(0..1 << 16usize),
                r.next_u32() as u8,
            )
        }),
        reseal: rng.random_bool(0.5),
    }
}

fn shrink_manifest_edits(m: &ManifestEdits) -> Vec<ManifestEdits> {
    shrink_vec(&m.edits)
        .into_iter()
        .map(|edits| ManifestEdits { edits, ..m.clone() })
        .collect()
}

fn edited(manifest: &[u8], m: &ManifestEdits) -> Vec<u8> {
    let mut bytes = manifest.to_vec();
    for &(op, at, byte) in &m.edits {
        let at = at % bytes.len().max(1);
        match op {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << (byte % 8),
            1 if !bytes.is_empty() => drop(bytes.remove(at)),
            2 => bytes.insert(at, byte),
            _ => bytes.truncate(at),
        }
    }
    if m.reseal && bytes.len() >= 8 {
        let body = bytes.len() - 8;
        let checksum = Fnv::bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    }
    bytes
}

/// The oracle of a resealed manifest that opened: the catalog is one a
/// store could have written. Every slot is held exactly once — by the
/// file that owns it, or by the free list — and every page reads back
/// as an image or a typed error.
fn require_consistent(store: &mut FileStore) -> Result<(), String> {
    let mut held = vec![0u32; store.page_count()];
    let mut f = 0;
    while let Ok(pages) = store.file_pages(FileId(f)) {
        for &pid in pages {
            require!(pid.index() < held.len(), "file {f} lists {pid:?}");
            require_eq!(store.page_file(pid), Ok(FileId(f)), "owner of {pid:?}");
            held[pid.index()] += 1;
        }
        f += 1;
    }
    for &pid in store.catalog().free_pages() {
        require!(pid.index() < held.len(), "free list names {pid:?}");
        held[pid.index()] += 1;
    }
    require!(
        held.iter().all(|&n| n == 1),
        "slots not held exactly once: {held:?}"
    );
    let mut page = Page::new();
    for i in 0..held.len() {
        // Ok or a typed error; a panic is caught by the caller.
        let _ = store.read_page(PageId(i as u32), &mut page);
    }
    Ok(())
}

/// Opens a store whose manifest is `manifest` beside `segment`: a typed
/// refusal by the manifest decoder, or a store. Unedited bytes (up to a
/// checksum collision) can only be the synced catalog; resealed ones
/// must at least be a consistent one.
fn open_edited(
    segment: &[u8],
    manifest: &[u8],
    synced: &Catalog,
    resealed: bool,
) -> Result<(), String> {
    let tmp = TempDir::new("tc-manifest-fuzz").map_err(|e| e.to_string())?;
    std::fs::write(tmp.path().join(SEGMENT_FILE), segment).map_err(|e| e.to_string())?;
    std::fs::write(tmp.path().join(MANIFEST_FILE), manifest).map_err(|e| e.to_string())?;
    let dir = tmp.path().to_path_buf();
    let outcome = std::panic::catch_unwind(move || {
        let mut store = match FileStore::open(&dir) {
            Err(StorageError::Backend {
                op: "decode manifest",
                ..
            }) => return Ok(()),
            Err(other) => return Err(format!("not a manifest refusal: {other}")),
            Ok(store) => store,
        };
        if resealed {
            require_consistent(&mut store)
        } else {
            require_eq!(store.catalog(), synced, "an edited manifest opened");
            Ok(())
        }
    });
    outcome.map_err(|_| "opening the edited manifest panicked".to_string())?
}

#[test]
fn mutated_manifests_open_as_the_synced_catalog_or_fail_typed() {
    let (segment, manifest, synced) = synced_store();
    Checker::new("mutated_manifests_open_as_the_synced_catalog_or_fail_typed").run(
        gen_manifest_edits,
        shrink_manifest_edits,
        |m| open_edited(&segment, &edited(&manifest, m), &synced, m.reseal),
    );
}

/// The failing seed of the property above, replayed on every run. One
/// resealed bit flip turned a page of the successor-list file into a
/// page the free list also held: two owners of one slot, and the decoder
/// accepted it.
#[test]
fn pinned_manifest_mutation_stays_refused() {
    let (segment, manifest, synced) = synced_store();
    let seed = 11806110439225856078;
    let m = gen_manifest_edits(&mut Rng::from_seed(seed));
    let outcome = open_edited(&segment, &edited(&manifest, &m), &synced, m.reseal);
    assert_eq!(outcome, Ok(()), "seed {seed}: {m:?}");
}

#[test]
fn a_manifest_count_sizes_no_allocation() {
    // A well-sealed manifest claiming u32::MAX files: the count must be
    // refused as truncated, not reserved (≈ 137 GB of file entries).
    let tmp = TempDir::new("tc-manifest-count").expect("tempdir");
    let mut manifest = b"TCM1".to_vec();
    for field in [2u32, 0, 0, u32::MAX] {
        manifest.extend_from_slice(&field.to_le_bytes());
    }
    let checksum = Fnv::bytes(&manifest);
    manifest.extend_from_slice(&checksum.to_le_bytes());
    std::fs::write(tmp.path().join(MANIFEST_FILE), &manifest).expect("write manifest");
    match FileStore::open(tmp.path()) {
        Err(StorageError::Backend { op, detail }) => {
            assert_eq!(op, "decode manifest");
            assert_eq!(detail, "truncated or unknown file kind");
        }
        Err(other) => panic!("wrong error: {other:?}"),
        Ok(_) => panic!("a manifest of u32::MAX files opened"),
    }
}
