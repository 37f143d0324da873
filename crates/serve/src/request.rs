//! The typed request/reply protocol of the query service.
//!
//! Three point-query shapes, matching what the frozen snapshot answers
//! cheaply: `reach(u, v)` from the reachability-index labels, `ptc(u)`
//! from the materialized closure row, and `path(u, v)` by the guided
//! index walk. Replies carry their full answer; [`Reply::digest`] hashes
//! it a word at a time with the workspace's [`LaneHash`] so reply
//! streams can be pinned and compared byte-for-byte across worker counts
//! and backends.

use tc_graph::NodeId;
use tc_trace::{Fnv, LaneHash};

/// One point query against a frozen snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Request {
    /// Does `u` reach `v` by a non-empty path?
    Reach {
        /// Source vertex.
        u: NodeId,
        /// Destination vertex.
        v: NodeId,
    },
    /// Every vertex reachable from `u` (ascending).
    Ptc {
        /// Source vertex.
        u: NodeId,
    },
    /// One concrete `u → … → v` path, if any.
    Path {
        /// Source vertex.
        u: NodeId,
        /// Destination vertex.
        v: NodeId,
    },
}

impl Request {
    /// The request kinds' names, indexed by [`Request::kind`]: the order
    /// of every per-kind count and metric label.
    pub const KINDS: [&'static str; 3] = ["reach", "ptc", "path"];

    /// The request's kind, as an index into [`Request::KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            Request::Reach { .. } => 0,
            Request::Ptc { .. } => 1,
            Request::Path { .. } => 2,
        }
    }

    /// The source vertex the request is keyed on (what the hot-source
    /// cache and the Zipf load skew operate over).
    pub fn source(&self) -> NodeId {
        match *self {
            Request::Reach { u, .. } | Request::Ptc { u } | Request::Path { u, .. } => u,
        }
    }

    /// Folds the request through its canonical encoding (discriminant
    /// byte, then fields).
    pub fn fold(&self, h: &mut Fnv) {
        match *self {
            Request::Reach { u, v } => {
                h.byte(0);
                h.u32(u);
                h.u32(v);
            }
            Request::Ptc { u } => {
                h.byte(1);
                h.u32(u);
            }
            Request::Path { u, v } => {
                h.byte(2);
                h.u32(u);
                h.u32(v);
            }
        }
    }
}

/// The service's answer to one [`Request`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Reply {
    /// Answer to [`Request::Reach`].
    Reach(bool),
    /// Answer to [`Request::Ptc`]: the reachable set, ascending.
    Ptc(Vec<NodeId>),
    /// Answer to [`Request::Path`]: the hops `u..=v`, or `None` when
    /// `v` is unreachable.
    Path(Option<Vec<NodeId>>),
}

impl Reply {
    /// The reply's digest: [`LaneHash`] over its ids packed in pairs
    /// into little-endian words, finished with a tag that holds the id
    /// count above the shape (`Reach(false)` 0, `Reach(true)` 1, `Ptc`
    /// 2, `Path(None)` 3, `Path(Some)` 4). Changing any one id always
    /// changes it: that id's word is the only one that moves.
    pub fn digest(&self) -> u64 {
        let (shape, ids): (u64, &[NodeId]) = match self {
            Reply::Reach(b) => (u64::from(*b), &[]),
            Reply::Ptc(row) => (2, row),
            Reply::Path(None) => (3, &[]),
            Reply::Path(Some(hops)) => (4, hops),
        };
        LaneHash::new()
            .u32_pairs(ids)
            .finish((ids.len() as u64) << 3 | shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_det::check::{shrink_vec, vec_of, Checker};
    use tc_det::{require, Rng};

    #[test]
    fn digests_distinguish_shape_and_content() {
        let a = Reply::Reach(true);
        let b = Reply::Reach(false);
        let c = Reply::Ptc(vec![]);
        let d = Reply::Ptc(vec![1, 2]);
        let e = Reply::Path(None);
        let f = Reply::Path(Some(vec![1, 2]));
        // The fifth empty shape: a path of no hops.
        let g = Reply::Path(Some(vec![]));
        let ds: Vec<u64> = [&a, &b, &c, &d, &e, &f, &g]
            .iter()
            .map(|r| r.digest())
            .collect();
        for i in 0..ds.len() {
            for j in i + 1..ds.len() {
                assert_ne!(ds[i], ds[j], "collision between {i} and {j}");
            }
        }
        assert_eq!(a.digest(), Reply::Reach(true).digest());
    }

    /// An id of any magnitude, small ones (and so repeats) most often.
    fn id(rng: &mut Rng) -> NodeId {
        rng.next_u32() >> rng.random_range(0..32u32)
    }

    #[test]
    fn reply_digest_sees_every_id() {
        Checker::new("reply_digest_sees_every_id").run(
            |rng| {
                // Mostly short payloads; now and then a full `ptc` row.
                let len = if rng.random_bool(0.1) { 0..1300 } else { 0..40 };
                (rng.random_bool(0.5), vec_of(rng, len, id), rng.next_u64())
            },
            |(path, ids, seed)| {
                shrink_vec(ids)
                    .into_iter()
                    .map(|ids| (*path, ids, *seed))
                    .collect()
            },
            |(path, ids, seed)| {
                let digest = |path: bool, ids: &[NodeId]| match path {
                    true => Reply::Path(Some(ids.to_vec())).digest(),
                    false => Reply::Ptc(ids.to_vec()).digest(),
                };
                let clean = digest(*path, ids);
                let mut rng = Rng::from_seed(*seed);
                // One changed id moves one word: never the same digest.
                for i in 0..ids.len() {
                    let mut w = ids.clone();
                    w[i] = w[i].wrapping_add(rng.random_range(1..u32::MAX));
                    require!(digest(*path, &w) != clean, "changing id {i} went unseen");
                }
                for _ in 0..ids.len().min(8) {
                    let (i, j) = (
                        rng.random_range(0..ids.len()),
                        rng.random_range(0..ids.len()),
                    );
                    if ids[i] != ids[j] {
                        let mut w = ids.clone();
                        w.swap(i, j);
                        require!(digest(*path, &w) != clean, "swapping {i}, {j} went unseen");
                    }
                }
                let mut w = ids.clone();
                w.push(0);
                require!(digest(*path, &w) != clean, "a trailing 0 went unseen");
                require!(digest(!*path, ids) != clean, "the shape went unseen");
                Ok(())
            },
        );
    }

    #[test]
    fn request_fold_is_canonical() {
        let fold = |r: &Request| {
            let mut h = Fnv::new();
            r.fold(&mut h);
            h.finish()
        };
        assert_eq!(
            fold(&Request::Reach { u: 1, v: 2 }),
            fold(&Request::Reach { u: 1, v: 2 })
        );
        assert_ne!(
            fold(&Request::Reach { u: 1, v: 2 }),
            fold(&Request::Path { u: 1, v: 2 })
        );
        assert_eq!(Request::Path { u: 7, v: 9 }.source(), 7);
    }
}
