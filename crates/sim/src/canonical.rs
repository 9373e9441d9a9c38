//! The canonical merge of per-shard telemetry rings, shared by
//! [`ProbeSink::merge_canonical`](crate::probe::ProbeSink::merge_canonical)
//! and [`SeriesSink::merge_canonical`](crate::series::SeriesSink::merge_canonical).
//!
//! The canonical stream is defined as the stable sort, by a record key that
//! starts with the record's time, of the sinks' streams concatenated in sink
//! order. Sinks record inside the deterministic event loop, so each sink's
//! stream is already in time order, and the sort reduces to two linear
//! steps:
//!
//! 1. a k-way merge of the streams by time, ties to the lower sink index.
//!    That is exactly the stable sort by time of the concatenation;
//! 2. a stable sort of each same-instant run by the full key. Records of
//!    equal key kept their concatenation order through step 1, and the key
//!    refines time, so this completes the stable sort by the full key.
//!
//! One sink needs no merge: its ring is rotated in place and its buffer
//! becomes the result, so a single-shard harvest copies nothing. A stream
//! that is not in time order (hand-built, not recorded by an event loop)
//! falls back to the general stable sort, which gives the same result.

use crate::time::SimTime;

/// A record the canonical merge can order.
pub(crate) trait Canonical: Copy {
    /// The full sort key; its first component is [`Canonical::time`].
    type Key: Ord;
    /// Simulated time of the record.
    fn time(&self) -> SimTime;
    /// The canonical sort key.
    fn key(&self) -> Self::Key;
    /// Overwrite the record's sequence number.
    fn set_seq(&mut self, seq: u64);
}

/// Merge ring buffers, each given as `(storage, index of its oldest
/// record)`, into one canonical stream with `seq` renumbered from 0.
pub(crate) fn merge<T: Canonical>(mut rings: Vec<(Vec<T>, usize)>) -> Vec<T> {
    for (buf, head) in &mut rings {
        let head = (*head).min(buf.len());
        buf.rotate_left(head);
    }
    let time_ordered = rings.iter().all(|(buf, _)| buf.is_sorted_by_key(T::time));
    let mut out = if rings.len() == 1 {
        rings.pop().expect("one ring").0
    } else if time_ordered {
        merge_by_time(&rings)
    } else {
        rings.into_iter().flat_map(|(buf, _)| buf).collect()
    };
    if time_ordered {
        for run in out.chunk_by_mut(|a, b| a.time() == b.time()) {
            if !run.is_sorted_by_key(T::key) {
                run.sort_by_key(T::key);
            }
        }
    } else {
        out.sort_by_key(T::key);
    }
    for (i, r) in out.iter_mut().enumerate() {
        r.set_seq(i as u64);
    }
    out
}

/// K-way merge of time-ordered streams by time, ties to the lower index.
/// Each step copies the longest prefix of the ring with the earliest head
/// that precedes every other ring's head.
fn merge_by_time<T: Canonical>(rings: &[(Vec<T>, usize)]) -> Vec<T> {
    let mut out = Vec::with_capacity(rings.iter().map(|(buf, _)| buf.len()).sum());
    let mut rest: Vec<&[T]> = rings.iter().map(|(buf, _)| buf.as_slice()).collect();
    while let Some(i) = (0..rest.len())
        .filter(|&i| !rest[i].is_empty())
        .min_by_key(|&i| (rest[i][0].time(), i))
    {
        // A record goes before a lower ring's head only if strictly
        // earlier, and before a higher ring's head if not later.
        let head = |j: usize| rest[j].first().map(T::time);
        let before = (0..i).filter_map(head).min();
        let not_after = (i + 1..rest.len()).filter_map(head).min();
        let n = rest[i]
            .iter()
            .take_while(|r| {
                before.is_none_or(|t| r.time() < t) && not_after.is_none_or(|t| r.time() <= t)
            })
            .count();
        out.extend_from_slice(&rest[i][..n]);
        rest[i] = &rest[i][n..];
    }
    out
}
