//! On-disk format pin for the file-backed store.
//!
//! A canonical three-file store is driven through every catalog
//! transition (alloc, write, drop, LIFO realloc, sync) and the bytes of
//! `pages.tcs` and `manifest.tcm` are digested. The constants were taken
//! at the commit *before* the three page stores were folded into one
//! `Store<M>` (this file uses only API that exists on both sides), so
//! moving the slot and manifest encoders behind the medium cannot drift
//! the format silently. A deliberate format change bumps the magic and
//! re-pins here, with a CHANGES.md note.

use tc_study::storage::file_store::{MANIFEST_FILE, SEGMENT_FILE};
use tc_study::storage::{FileKind, FileStore, Page, PageStore, TempDir, PAGE_SIZE};

/// Byte-wise FNV-1a 64.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A page whose every word depends on `tag`.
fn stamped(tag: u32) -> Page {
    let mut page = Page::new();
    for i in 0..(PAGE_SIZE / 4) {
        page.put_u32(i * 4, tag.wrapping_mul(0x9E37_79B9) ^ i as u32);
    }
    page
}

const SEGMENT_DIGEST: (usize, u64) = (12_384, 0xB1832AA67AB16BDD);
const MANIFEST_DIGEST: (usize, u64) = (91, 0xEF0A034E8A15AE3D);

#[test]
fn segment_and_manifest_bytes_are_pinned() {
    let tmp = TempDir::new("tc-format-pin").expect("tempdir");
    let mut store = FileStore::create(tmp.path()).expect("create");
    let rel = store.new_file(FileKind::Relation);
    let scratch = store.new_file(FileKind::Temp);
    let lists = store.new_file(FileKind::SuccessorList);
    let mut tag = 0;
    for file in [rel, scratch, lists, scratch, rel, scratch] {
        let pid = store.alloc(file).expect("alloc");
        tag += 1;
        store.write_page(pid, &stamped(tag)).expect("write");
    }
    // Three freed slots; two come back (LIFO, zeroed on disk), one is
    // rewritten, one stays on the persistent free list.
    store.drop_file(scratch).expect("drop");
    let reused = store.alloc(lists).expect("realloc");
    store.alloc(rel).expect("realloc");
    store.write_page(reused, &stamped(99)).expect("write");
    store.sync().expect("sync");

    let digest = |name: &str| {
        let bytes = std::fs::read(tmp.path().join(name)).expect("read store file");
        (bytes.len(), fnv1a(&bytes))
    };
    assert_eq!(
        (digest(SEGMENT_FILE), digest(MANIFEST_FILE)),
        (SEGMENT_DIGEST, MANIFEST_DIGEST),
        "on-disk bytes changed (segment, manifest) as (len, fnv1a)"
    );
}
