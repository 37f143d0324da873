//! Byte-exact page layouts for the study's on-disk formats.
//!
//! Three formats serve every file:
//!
//! * **Tuple pages** — the input relation stores 8-byte tuples (two
//!   integers), 256 per 2048-byte page (§5.1, [`mod@tuple`]).
//! * **Successor-list pages** — after restructuring, "450 successors may be
//!   stored on each page. (A successor list page is divided into 30 blocks,
//!   each holding up to 15 successor nodes.)" ([`succ`]).
//! * **Value pages** — bare values, each in the fewest whole bytes (1 to
//!   4) that hold its file's bound, `⌊2048 / width⌋` to a page, for the
//!   files addressed by position rather than by key: the sparse
//!   clustered index (the first key of each data page, found by the
//!   page's number), a materialized closure read through its row table,
//!   label columns, chains ([`value`]).
//!
//! The layout types are zero-cost *views*: they borrow a [`crate::Page`]
//! and interpret its bytes. The tuple and successor-list capacities are
//! compile-time constants so the harness numbers line up with the
//! paper's; a value page's is its file's, [`ValuePage::per_page`].

pub mod succ;
pub mod tuple;
pub mod value;

pub use succ::{
    SuccBlockRef, SuccEntry, SuccPage, SuccWord, BLOCKS_PER_PAGE, ENTRIES_PER_BLOCK,
    SUCCESSORS_PER_PAGE,
};
pub use tuple::{TuplePage, TUPLES_PER_PAGE};
pub use value::ValuePage;
