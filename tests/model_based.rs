//! Model-based property tests: the stateful substrates (buffer pool,
//! successor store, closure rows) against trivial in-memory reference
//! models under randomized operation sequences, on the `tc-det` harness.

use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::core::closure_file::TupleRows;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::graph::BitRow;
use tc_study::storage::{DiskSim, FileKind, Page, PageId, PageStore, Pager, SuccEntry};
use tc_study::succ::{ListCursor, ListPolicy, SuccStore};

// ---------------------------------------------------------------------
// Buffer pool vs. a flat array of page images.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PoolOp {
    Write { page: usize, value: u32 },
    Read { page: usize },
    Pin { page: usize },
    UnpinAll,
    Flush,
}

fn pool_op(rng: &mut Rng, pages: usize) -> PoolOp {
    match rng.random_range(0..5u32) {
        0 => PoolOp::Write {
            page: rng.random_range(0..pages),
            value: rng.next_u32(),
        },
        1 => PoolOp::Read {
            page: rng.random_range(0..pages),
        },
        2 => PoolOp::Pin {
            page: rng.random_range(0..pages),
        },
        3 => PoolOp::UnpinAll,
        _ => PoolOp::Flush,
    }
}

/// Under any op sequence and any policy, reads observe exactly the
/// model's values, capacity is never exceeded, and counters stay
/// consistent.
#[test]
fn buffer_pool_refines_flat_memory() {
    Checker::new("buffer_pool_refines_flat_memory")
        .cases(64)
        .run(
            |rng| {
                let ops = check::vec_of(rng, 1..120, |r| pool_op(r, 12));
                let policy_idx = rng.random_range(0..PagePolicy::ALL.len());
                let capacity = rng.random_range(2..6usize);
                (ops, policy_idx, capacity)
            },
            |(ops, policy_idx, capacity)| {
                check::shrink_vec(ops)
                    .into_iter()
                    .filter(|o| !o.is_empty())
                    .map(|o| (o, *policy_idx, *capacity))
                    .collect()
            },
            |(ops, policy_idx, capacity)| {
                let (policy_idx, capacity) = (*policy_idx, *capacity);
                let policy = PagePolicy::ALL[policy_idx];
                let mut disk = DiskSim::new();
                let file = disk.create_file(FileKind::Temp);
                let pids: Vec<PageId> = (0..12).map(|_| disk.alloc(file).unwrap()).collect();
                let mut pool = BufferPool::new(disk, capacity, PagePolicy::ALL[policy_idx]);
                let mut model = vec![0u32; 12];
                let mut pinned: Vec<PageId> = Vec::new();

                for op in ops {
                    match *op {
                        PoolOp::Write { page, value } => {
                            pool.with_page_mut(pids[page], |p: &mut Page| p.put_u32(0, value))
                                .unwrap();
                            model[page] = value;
                        }
                        PoolOp::Read { page } => {
                            let v = pool.with_page(pids[page], |p: &Page| p.get_u32(0)).unwrap();
                            require_eq!(v, model[page], "policy {}", policy.name());
                        }
                        PoolOp::Pin { page } => {
                            // Keep one frame spare so progress stays possible.
                            if pinned.len() + 1 < capacity && !pinned.contains(&pids[page]) {
                                pool.pin(pids[page]).unwrap();
                                pinned.push(pids[page]);
                            }
                        }
                        PoolOp::UnpinAll => {
                            for p in pinned.drain(..) {
                                pool.unpin(p);
                            }
                        }
                        PoolOp::Flush => pool.flush_all().unwrap(),
                    }
                    require!(pool.resident() <= capacity, "capacity exceeded");
                    let s = pool.stats();
                    require_eq!(s.hits + s.misses, s.requests);
                    require!(s.read_hits <= s.read_requests, "read hit accounting");
                }
                // Pinned pages must still be resident at the end.
                for &p in &pinned {
                    require!(pool.is_resident(p), "pinned page {p:?} evicted");
                }
                // After a full flush, the disk itself holds the model's values.
                for p in pinned.drain(..) {
                    pool.unpin(p);
                }
                pool.flush_all().unwrap();
                let mut disk = pool.into_store_discard();
                for (i, &pid) in pids.iter().enumerate() {
                    let mut page = Page::new();
                    disk.read_page(pid, &mut page).unwrap();
                    require_eq!(page.get_u32(0), model[i]);
                }
                Ok(())
            },
        );
}

// ---------------------------------------------------------------------
// Page table vs. a BTreeMap of live pages, with recycled page ids.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FileOp {
    Alloc { slot: usize },
    Write { slot: usize, k: usize, value: u32 },
    Read { slot: usize, k: usize },
    FreeFile { slot: usize },
    Flush,
}

fn file_op(rng: &mut Rng) -> FileOp {
    let slot = rng.random_range(0..3usize);
    let k = rng.random_range(0..8usize);
    match rng.random_range(0..10u32) {
        0..=2 => FileOp::Alloc { slot },
        3..=5 => FileOp::Write {
            slot,
            k,
            value: rng.next_u32(),
        },
        6..=7 => FileOp::Read { slot, k },
        8 => FileOp::FreeFile { slot },
        _ => FileOp::Flush,
    }
}

/// Files come and go through the pool, so the store recycles page ids
/// (LIFO after `drop_file`) for unrelated files while the page table
/// still has entries from their previous life. The table must agree
/// with a `BTreeMap` of the live pages at every step: a freed page is
/// never resident, a recycled id starts out zeroed, reads see the
/// model's values across evictions, and the structural invariants hold.
#[test]
fn page_table_refines_btreemap_under_recycled_ids() {
    use std::collections::BTreeMap;
    Checker::new("page_table_refines_btreemap_under_recycled_ids")
        .cases(64)
        .run(
            |rng| {
                let ops = check::vec_of(rng, 1..160, file_op);
                let policy_idx = rng.random_range(0..PagePolicy::ALL.len());
                let capacity = rng.random_range(1..5usize);
                (ops, policy_idx, capacity)
            },
            |(ops, policy_idx, capacity)| {
                check::shrink_vec(ops)
                    .into_iter()
                    .filter(|o| !o.is_empty())
                    .map(|o| (o, *policy_idx, *capacity))
                    .collect()
            },
            |(ops, policy_idx, capacity)| {
                let mut pool =
                    BufferPool::new(DiskSim::new(), *capacity, PagePolicy::ALL[*policy_idx]);
                let mut files: Vec<_> = (0..3).map(|_| pool.create_file(FileKind::Temp)).collect();
                let mut pages: Vec<Vec<PageId>> = vec![Vec::new(); 3];
                let mut live: BTreeMap<PageId, u32> = BTreeMap::new();
                let mut ever_freed: Vec<PageId> = Vec::new();

                for op in ops {
                    match *op {
                        FileOp::Alloc { slot } => {
                            let pid = pool.alloc_page(files[slot]).unwrap();
                            require!(
                                live.insert(pid, 0).is_none(),
                                "store handed out live page {pid:?}"
                            );
                            require!(pool.is_resident(pid), "fresh page {pid:?} not resident");
                            pages[slot].push(pid);
                        }
                        FileOp::Write { slot, k, value } => {
                            let Some(&pid) = pages[slot].get(k) else {
                                continue;
                            };
                            pool.with_page_mut(pid, |p: &mut Page| p.put_u32(0, value))
                                .unwrap();
                            live.insert(pid, value);
                        }
                        FileOp::Read { slot, k } => {
                            let Some(&pid) = pages[slot].get(k) else {
                                continue;
                            };
                            let v = pool.with_page(pid, |p: &Page| p.get_u32(0)).unwrap();
                            require_eq!(v, live[&pid], "page {:?}", pid);
                            require!(pool.is_resident(pid), "read page {pid:?} not resident");
                        }
                        FileOp::FreeFile { slot } => {
                            Pager::free_file(&mut pool, files[slot]).unwrap();
                            for pid in pages[slot].drain(..) {
                                live.remove(&pid);
                                ever_freed.push(pid);
                            }
                            files[slot] = pool.create_file(FileKind::Temp);
                        }
                        FileOp::Flush => pool.flush_all().unwrap(),
                    }
                    pool.check_invariants()?;
                    require!(pool.resident() <= *capacity, "capacity exceeded");
                    require!(pool.resident() <= live.len(), "more resident than live");
                    for &pid in &ever_freed {
                        require!(
                            live.contains_key(&pid) || !pool.is_resident(pid),
                            "freed page {pid:?} still resident"
                        );
                    }
                }
                // The disk agrees with the model for every live page.
                pool.flush_all().unwrap();
                let mut disk = pool.into_store_discard();
                for (&pid, &value) in &live {
                    let mut page = Page::new();
                    disk.read_page(pid, &mut page).unwrap();
                    require_eq!(page.get_u32(0), value, "page {:?}", pid);
                }
                Ok(())
            },
        );
}

// ---------------------------------------------------------------------
// Successor store vs. Vec<Vec<u32>>.
// ---------------------------------------------------------------------

/// Interleaved appends across lists, under every list policy, always
/// read back as the per-list append sequences; the catalog matches
/// the on-page state throughout.
#[test]
fn succ_store_refines_vec_of_vecs() {
    Checker::new("succ_store_refines_vec_of_vecs")
        .cases(48)
        .run(
            |rng| {
                let appends = check::vec_of(rng, 1..400, |r| {
                    (r.random_range(0..20u32), r.random_range(0..2000u32))
                });
                let policy_idx = rng.random_range(0..ListPolicy::ALL.len());
                let check_every = rng.random_range(50..120usize);
                (appends, policy_idx, check_every)
            },
            |(appends, policy_idx, check_every)| {
                check::shrink_vec(appends)
                    .into_iter()
                    .filter(|a| !a.is_empty())
                    .map(|a| (a, *policy_idx, *check_every))
                    .collect()
            },
            |(appends, policy_idx, check_every)| {
                let policy = ListPolicy::ALL[*policy_idx];
                let mut disk = DiskSim::new();
                let mut store = SuccStore::new(&mut disk, 20, policy);
                let mut model: Vec<Vec<u32>> = vec![Vec::new(); 20];
                for (i, &(node, value)) in appends.iter().enumerate() {
                    store
                        .append(&mut disk, node, SuccEntry::plain(value))
                        .unwrap();
                    model[node as usize].push(value);
                    if i % check_every == 0 {
                        store.verify_integrity(&mut disk).unwrap();
                    }
                }
                store.verify_integrity(&mut disk).unwrap();
                for node in 0..20u32 {
                    let got = ListCursor::new(&store, node)
                        .collect_nodes(&mut disk)
                        .unwrap();
                    require_eq!(
                        &got,
                        &model[node as usize],
                        "{} node {}",
                        policy.name(),
                        node
                    );
                    require_eq!(store.len(node), model[node as usize].len());
                }
                Ok(())
            },
        );
}

/// The flat-list negation convention holds under interleaving: the
/// last entry of every non-empty list is tagged, all others plain.
#[test]
fn flat_tag_invariant() {
    Checker::new("flat_tag_invariant").cases(48).run(
        |rng| {
            check::vec_of(rng, 1..200, |r| {
                (r.random_range(0..8u32), r.random_range(0..500u32))
            })
        },
        |appends| {
            check::shrink_vec(appends)
                .into_iter()
                .filter(|a| !a.is_empty())
                .collect()
        },
        |appends| {
            let mut disk = DiskSim::new();
            let mut store = SuccStore::new(&mut disk, 8, ListPolicy::MoveShortest);
            for &(node, value) in appends {
                store.append_flat(&mut disk, node, value).unwrap();
            }
            for node in 0..8u32 {
                let entries = ListCursor::new(&store, node)
                    .collect_entries(&mut disk)
                    .unwrap();
                if let Some((last, rest)) = entries.split_last() {
                    require!(last.tagged, "last entry of node {node} untagged");
                    require!(rest.iter().all(|e| !e.tagged), "non-last entry tagged");
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Closure rows vs. BTreeSet<(u32, u32)>.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RowOp {
    /// ORs one row into the case's scratch `BitRow`.
    OrRow(u32),
    /// Sets one row to the given successors — or, if the flag is set,
    /// to what it already holds.
    SetRow(u32, Vec<u32>, bool),
}

/// Over a random sorted base list, any sequence of whole-row reads and
/// writes through a scratch `BitRow` answers like a `BTreeSet`, reads
/// back as the model's column and row offsets, counts its delta against
/// the base, and gives a bit row to exactly the sources an effective
/// write went to. Sizes sit on and around the word boundary; sparse
/// bases leave empty rows and sources that occur only as destinations.
#[test]
fn tuple_rows_refine_btreeset() {
    use std::collections::BTreeSet;
    Checker::new("tuple_rows_refine_btreeset").cases(96).run(
        |rng| {
            let n = match rng.random_range(0..8u32) {
                0 => 0,
                1 => 1,
                2 => 63,
                3 => 64,
                4 => 65,
                _ => rng.random_range(2..140usize),
            };
            let id = |r: &mut Rng| r.random_range(0..n.max(1)) as u32;
            // Half the cases draw sources from a few nodes only, so most
            // rows start empty and many nodes are destinations only.
            let few = rng.random_range(0..2u32) == 0;
            let src = |r: &mut Rng| if few { id(r) % 5 } else { id(r) };
            let base: BTreeSet<(u32, u32)> = if n == 0 {
                BTreeSet::new()
            } else {
                check::vec_of(rng, 0..300, |r| (src(r), id(r)))
                    .into_iter()
                    .collect()
            };
            let ops = if n == 0 {
                Vec::new()
            } else {
                check::vec_of(rng, 0..200, |r| match r.random_range(0..3u32) {
                    0 => RowOp::OrRow(src(r)),
                    _ => RowOp::SetRow(src(r), check::vec_of(r, 0..12, &id), r.random_bool(0.5)),
                })
            };
            (n, base.into_iter().collect::<Vec<_>>(), ops)
        },
        |(n, base, ops)| {
            check::shrink_vec(ops)
                .into_iter()
                .map(|o| (*n, base.clone(), o))
                .collect()
        },
        |(n, base, ops)| {
            let n = *n;
            // Row `s` of a sorted tuple list starts at its first tuple
            // whose source is not below `s`.
            let offsets_of = |tuples: &[(u32, u32)]| -> Vec<u32> {
                (0..=n)
                    .map(|s| tuples.partition_point(|t| (t.0 as usize) < s) as u32)
                    .collect()
            };
            let mut rows =
                TupleRows::from_rows(offsets_of(base), base.iter().map(|t| t.1).collect());
            let mut model: BTreeSet<(u32, u32)> = base.iter().copied().collect();
            let mut written: BTreeSet<u32> = BTreeSet::new();
            let model_row = |model: &BTreeSet<(u32, u32)>, s: u32| -> Vec<u32> {
                model.range((s, 0)..=(s, u32::MAX)).map(|t| t.1).collect()
            };
            let mut scratch = BitRow::new(n);
            let mut scratch_model: BTreeSet<u32> = BTreeSet::new();
            for op in ops {
                match *op {
                    RowOp::OrRow(s) => {
                        let row = model_row(&model, s);
                        require_eq!(rows.row_len(s), row.len(), "row_len {}", s);
                        require_eq!(rows.is_written(s), written.contains(&s), "row {}", s);
                        rows.or_row_into(s, &mut scratch);
                        scratch_model.extend(row);
                        require_eq!(
                            scratch.ones().collect::<Vec<_>>(),
                            scratch_model.iter().copied().collect::<Vec<_>>(),
                            "scratch after OR of row {}",
                            s
                        );
                    }
                    RowOp::SetRow(s, ref dsts, same) => {
                        let held = model_row(&model, s);
                        let mut to: Vec<u32> = if same { held.clone() } else { dsts.clone() };
                        to.sort_unstable();
                        to.dedup();
                        let mut bits = BitRow::new(n);
                        for &d in &to {
                            bits.set(d);
                        }
                        require_eq!(rows.set_row(s, &bits), to != held, "set_row {}", s);
                        if to != held {
                            written.insert(s);
                            model.retain(|t| t.0 != s);
                            model.extend(to.iter().map(|&d| (s, d)));
                        }
                    }
                }
            }
            let expected: Vec<(u32, u32)> = model.iter().copied().collect();
            let mut column: Vec<u32> = Vec::new();
            rows.column_runs(|run| {
                column.extend_from_slice(run);
                Ok::<(), ()>(())
            })
            .unwrap();
            require_eq!(column, expected.iter().map(|t| t.1).collect::<Vec<_>>());
            require_eq!(rows.row_offsets(), offsets_of(&expected));
            let inserted = expected.iter().filter(|t| base.binary_search(t).is_err());
            let removed = base.iter().filter(|t| !model.contains(t));
            require_eq!(
                rows.delta(),
                (inserted.count() as u64, removed.count() as u64)
            );
            require_eq!(
                (0..n as u32)
                    .filter(|&s| rows.is_written(s))
                    .collect::<Vec<_>>(),
                written.into_iter().collect::<Vec<_>>(),
                "bit rows exist for exactly the written sources"
            );
            Ok(())
        },
    );
}
