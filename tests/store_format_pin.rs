//! On-disk format pin for the file-backed store.
//!
//! A canonical three-file store is driven through every catalog
//! transition (alloc, write, drop, LIFO realloc, sync) and the bytes of
//! `pages.tcs` and `manifest.tcm` are digested, so moving or rewriting
//! the slot and manifest encoders cannot drift the format silently. A
//! deliberate format change bumps the magic and re-pins here, by the
//! protocol in PINS.md.
//!
//! Pinned format: **2**. Against format 1 the slot magic is `TCP2` (was
//! `TCP1`), the slot header's checksum field holds `Page::checksum` (the
//! four-lane word fold every medium uses; was a byte-wise FNV-1a that
//! cost more than the page transfer it guarded) and the manifest says
//! version 2 (was 1). Nothing moved or changed size: a slot is still 16
//! + 2,048 bytes and the manifest layout is the same, which the lengths
//! below pin separately from the digests so a size change cannot hide in
//! a re-pin.

use tc_study::storage::file_store::{MANIFEST_FILE, SEGMENT_FILE};
use tc_study::storage::{FileKind, FileStore, Page, PageStore, TempDir, PAGE_SIZE};
use tc_study::trace::Fnv;

/// A page whose every word depends on `tag`.
fn stamped(tag: u32) -> Page {
    let mut page = Page::new();
    for i in 0..(PAGE_SIZE / 4) {
        page.put_u32(i * 4, tag.wrapping_mul(0x9E37_79B9) ^ i as u32);
    }
    page
}

/// Six slots of 2,064 bytes; the canonical manifest.
const SEGMENT_LEN: usize = 12_384;
const MANIFEST_LEN: usize = 91;
const SEGMENT_DIGEST: u64 = 0xCAF1BAF85189EE65;
const MANIFEST_DIGEST: u64 = 0x3EBF578225CCA6D7;

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

    let bytes = |name: &str| std::fs::read(tmp.path().join(name)).expect("read store file");
    let (segment, manifest) = (bytes(SEGMENT_FILE), bytes(MANIFEST_FILE));
    assert_eq!(
        (segment.len(), manifest.len()),
        (SEGMENT_LEN, MANIFEST_LEN),
        "on-disk sizes changed (segment, manifest)"
    );
    let digests = (Fnv::bytes(&segment), Fnv::bytes(&manifest));
    assert_eq!(
        digests,
        (SEGMENT_DIGEST, MANIFEST_DIGEST),
        "on-disk bytes changed (segment, manifest) as fnv1a: {digests:#018X?}"
    );
}
