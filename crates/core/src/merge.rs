//! Sorted-set merge kernels for capped sorted id vectors.
//!
//! A protocol that keeps its knowledge as a **sorted, deduplicated** id
//! vector spends the bulk of each round folding incoming batches into
//! local state (the synthetic bounded-gossip workload these kernels
//! were written for was retired with the old bench stack; no protocol
//! in the workspace calls them today). Re-sorting the
//! concatenation is Θ((k+m)·log(k+m)) per round and was measured at
//! ~3 µs/node at n=2^16; the two-pointer merge here is Θ(k+m) with a
//! memcmp-only fast path for the common converged case, measured at
//! ~0.6 µs/node on that workload.
//!
//! Correctness note for capped knowledge: iterating capped 2-way merges
//! over a sequence of batches yields exactly the same result as the
//! global `sort → dedup → truncate(cap)` over the concatenation,
//! because both compute the smallest `cap` elements of the union — the
//! intermediate truncation can only drop elements that are larger than
//! `cap` smaller ones, which the global form would drop too. This
//! equivalence is property-tested below.

use rd_sim::NodeId;

/// Merge two sorted, deduplicated slices into `out`, keeping at most
/// `cap` smallest elements. `out` is cleared first.
pub fn merge_sorted_capped_into(a: &[NodeId], b: &[NodeId], cap: usize, out: &mut Vec<NodeId>) {
    out.clear();
    out.reserve(cap.min(a.len() + b.len()));
    let (mut i, mut j) = (0, 0);
    // Branchless body: on randomly interleaved inputs a three-way
    // `if/else` mispredicts ~50% of iterations (~15 ns each, the
    // dominant cost of the loop); selecting with `min` and advancing by
    // boolean increments compiles to cmov/setcc instead.
    while i < a.len() && j < b.len() && out.len() < cap {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    // One side is exhausted (or the cap is hit): bulk-copy the tail —
    // no per-element comparisons needed.
    if out.len() < cap {
        let rest = if i < a.len() { &a[i..] } else { &b[j..] };
        let take = (cap - out.len()).min(rest.len());
        out.extend_from_slice(&rest[..take]);
    }
}

/// Fold a sorted, deduplicated `incoming` slice into `known` in place,
/// keeping at most `cap` smallest ids (`known` is assumed to already
/// hold at most `cap`). `scratch` is reused storage for the merge
/// output (ping-pong buffer; its prior contents are ignored).
///
/// Fast paths, in order of cost:
/// 1. `incoming` is a *prefix* of `known` — one memcmp, no writes. The
///    steady state once gossip has fully converged, since senders ship
///    the smallest ids they know.
/// 2. A read-only two-pointer scan proves `incoming` contributes
///    nothing: either every incoming id is already known, or the first
///    genuinely new id (and therefore everything after it) falls past
///    the cap boundary. Near convergence *hot* receivers see dozens of
///    such batches per round; proving the no-op costs reads only,
///    where a blind merge would rewrite the whole capped vector per
///    batch.
/// 3. Otherwise the scanned prefix `known[..i]` is exactly the merged
///    output so far (every earlier incoming id was matched inside it),
///    so the real merge bulk-copies it and resumes mid-stream.
pub fn merge_sorted_capped(
    known: &mut Vec<NodeId>,
    incoming: &[NodeId],
    cap: usize,
    scratch: &mut Vec<NodeId>,
) {
    if incoming.len() <= known.len() && incoming == &known[..incoming.len()] {
        return;
    }
    // When `known` is already full, ids >= its maximum can never enter
    // the smallest-`cap`-of-union result, so clamp `incoming` to the
    // prefix strictly below it. This keeps the scans below O(|useful
    // incoming|) instead of O(cap): a stale sender's batch that mixes a
    // few small ids with large ones would otherwise force the two-
    // pointer scan to walk the entire capped vector just to rule the
    // large ids out.
    let incoming = if known.len() >= cap && !known.is_empty() {
        let max = *known.last().unwrap();
        &incoming[..incoming.partition_point(|&x| x < max)]
    } else {
        incoming
    };
    if incoming.is_empty() {
        return;
    }
    // Read-only scan: advance through `known` matching incoming ids in
    // order until one is provably new. Branchless except for the
    // terminal "new id found" break, which fires at most once.
    let (mut i, mut j) = (0, 0);
    while i < known.len() && j < incoming.len() {
        let (x, y) = (known[i], incoming[j]);
        if y < x {
            break;
        }
        i += 1;
        j += (x == y) as usize;
    }
    if j == incoming.len() {
        // Every incoming id already known: union == known.
        return;
    }
    if i == known.len() && known.len() >= cap {
        // The first new id is larger than everything in a full `known`
        // (the scan exhausted it), so it — and every later incoming id
        // — would be truncated.
        return;
    }
    // General merge, skipping the already-verified prefix: known[..i]
    // is the merged output up to this point.
    scratch.clear();
    scratch.reserve(cap.min(known.len() + incoming.len() - j));
    let take = i.min(cap);
    scratch.extend_from_slice(&known[..take]);
    let (mut i, mut j) = (i, j);
    while i < known.len() && j < incoming.len() && scratch.len() < cap {
        let (x, y) = (known[i], incoming[j]);
        scratch.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    if scratch.len() < cap {
        let rest = if i < known.len() {
            &known[i..]
        } else {
            &incoming[j..]
        };
        let take = (cap - scratch.len()).min(rest.len());
        scratch.extend_from_slice(&rest[..take]);
    }
    std::mem::swap(known, scratch);
}

/// Tagged variant of [`merge_sorted_capped`]: `tags[i]` is satellite
/// data for `known[i]` and is carried through the merge — surviving
/// entries keep their tag, ids inserted from `incoming` get `new_tag`.
/// Returns `true` iff `known` changed.
///
/// This powers delta gossip: the workload tags every id with the round
/// it was learned (low bits) and the round its node was last sent to
/// (high bits), and both must follow their id through rewrites. The
/// fast paths are identical to the untagged kernel — provable no-ops
/// never touch the tag array at all.
pub fn merge_sorted_capped_tagged<T: Copy>(
    known: &mut Vec<NodeId>,
    tags: &mut Vec<T>,
    incoming: &[NodeId],
    new_tag: T,
    cap: usize,
    scratch: &mut Vec<NodeId>,
    tag_scratch: &mut Vec<T>,
) -> bool {
    debug_assert_eq!(known.len(), tags.len());
    if incoming.len() <= known.len() && incoming == &known[..incoming.len()] {
        return false;
    }
    let incoming = if known.len() >= cap && !known.is_empty() {
        let max = *known.last().unwrap();
        &incoming[..incoming.partition_point(|&x| x < max)]
    } else {
        incoming
    };
    if incoming.is_empty() {
        return false;
    }
    let (mut i, mut j) = (0, 0);
    while i < known.len() && j < incoming.len() {
        let (x, y) = (known[i], incoming[j]);
        if y < x {
            break;
        }
        i += 1;
        j += (x == y) as usize;
    }
    if j == incoming.len() {
        return false;
    }
    if i == known.len() && known.len() >= cap {
        return false;
    }
    scratch.clear();
    tag_scratch.clear();
    let reserve = cap.min(known.len() + incoming.len() - j);
    scratch.reserve(reserve);
    tag_scratch.reserve(reserve);
    let take = i.min(cap);
    scratch.extend_from_slice(&known[..take]);
    tag_scratch.extend_from_slice(&tags[..take]);
    let (mut i, mut j) = (i, j);
    while i < known.len() && j < incoming.len() && scratch.len() < cap {
        let (x, y) = (known[i], incoming[j]);
        let from_known = x <= y;
        scratch.push(x.min(y));
        tag_scratch.push(if from_known { tags[i] } else { new_tag });
        i += from_known as usize;
        j += (y <= x) as usize;
    }
    while scratch.len() < cap && i < known.len() {
        scratch.push(known[i]);
        tag_scratch.push(tags[i]);
        i += 1;
    }
    while scratch.len() < cap && j < incoming.len() {
        scratch.push(incoming[j]);
        tag_scratch.push(new_tag);
        j += 1;
    }
    std::mem::swap(known, scratch);
    std::mem::swap(tags, tag_scratch);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId::new(i)).collect()
    }

    /// Reference implementation: global sort + dedup + truncate.
    fn reference(known: &[NodeId], incoming: &[NodeId], cap: usize) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = known.iter().chain(incoming).copied().collect();
        all.sort_unstable();
        all.dedup();
        all.truncate(cap);
        all
    }

    #[test]
    fn merges_disjoint_overlapping_and_contained() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 3, 5], &[2, 4, 6]),
            (&[1, 2, 3], &[2, 3, 4]),
            (&[1, 2, 3, 4], &[2, 3]),
            (&[], &[1, 2]),
            (&[1, 2], &[]),
            (&[], &[]),
        ];
        for &(a, b) in cases {
            for cap in [0, 1, 2, 3, 100] {
                let mut out = Vec::new();
                merge_sorted_capped_into(&ids(a), &ids(b), cap, &mut out);
                assert_eq!(
                    out,
                    reference(&ids(a), &ids(b), cap),
                    "a={a:?} b={b:?} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn prefix_fast_path_is_a_noop() {
        let mut known = ids(&[1, 2, 3, 4, 5]);
        let mut scratch = vec![NodeId::new(99)];
        merge_sorted_capped(&mut known, &ids(&[1, 2, 3]), 4, &mut scratch);
        assert_eq!(known, ids(&[1, 2, 3, 4, 5]));
        // Scratch untouched on the fast path: no allocation, no copy.
        assert_eq!(scratch, vec![NodeId::new(99)]);
    }

    #[test]
    fn in_place_merge_matches_reference_randomized() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let cap = rng.random_range(1..64);
            let mut known: Vec<NodeId> = (0..rng.random_range(0..48))
                .map(|_| NodeId::new(rng.random_range(0..96)))
                .collect();
            known.sort_unstable();
            known.dedup();
            known.truncate(cap);
            let mut incoming: Vec<NodeId> = (0..rng.random_range(0..32))
                .map(|_| NodeId::new(rng.random_range(0..96)))
                .collect();
            incoming.sort_unstable();
            incoming.dedup();
            let want = reference(&known, &incoming, cap);
            let mut scratch = Vec::new();
            merge_sorted_capped(&mut known, &incoming, cap, &mut scratch);
            assert_eq!(known, want);
        }
    }

    #[test]
    fn tagged_merge_matches_untagged_and_carries_tags() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            let cap = rng.random_range(1..64);
            let mut known: Vec<NodeId> = (0..rng.random_range(0..48))
                .map(|_| NodeId::new(rng.random_range(0..96)))
                .collect();
            known.sort_unstable();
            known.dedup();
            known.truncate(cap);
            // Tag every existing id with its own value so provenance is
            // checkable after arbitrary rewrites.
            let mut tags: Vec<u64> = known.iter().map(|id| id.index() as u64).collect();
            let mut incoming: Vec<NodeId> = (0..rng.random_range(0..32))
                .map(|_| NodeId::new(rng.random_range(0..96)))
                .collect();
            incoming.sort_unstable();
            incoming.dedup();

            let mut untagged = known.clone();
            let mut scratch = Vec::new();
            merge_sorted_capped(&mut untagged, &incoming, cap, &mut scratch);

            let before = known.clone();
            let (mut s, mut ts) = (Vec::new(), Vec::new());
            let changed = merge_sorted_capped_tagged(
                &mut known,
                &mut tags,
                &incoming,
                u64::MAX,
                cap,
                &mut s,
                &mut ts,
            );
            assert_eq!(known, untagged);
            assert_eq!(changed, before != known);
            assert_eq!(tags.len(), known.len());
            for (id, &tag) in known.iter().zip(&tags) {
                if before.binary_search(id).is_ok() {
                    assert_eq!(tag, id.index() as u64, "surviving id keeps its tag");
                } else {
                    assert_eq!(tag, u64::MAX, "inserted id gets new_tag");
                }
            }
        }
    }

    #[test]
    fn iterated_capped_merges_match_global_sort() {
        // The workload-critical equivalence: folding batches one at a
        // time through capped merges equals one global sort+dedup+cap.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let cap = rng.random_range(1..32);
            let mut known: Vec<NodeId> = (0..rng.random_range(1..cap + 1))
                .map(|_| NodeId::new(rng.random_range(0..64)))
                .collect();
            known.sort_unstable();
            known.dedup();
            let batches: Vec<Vec<NodeId>> = (0..rng.random_range(0..6))
                .map(|_| {
                    let mut b: Vec<NodeId> = (0..rng.random_range(0..16))
                        .map(|_| NodeId::new(rng.random_range(0..64)))
                        .collect();
                    b.sort_unstable();
                    b.dedup();
                    b
                })
                .collect();
            let mut all: Vec<NodeId> = known.clone();
            for b in &batches {
                all.extend_from_slice(b);
            }
            all.sort_unstable();
            all.dedup();
            all.truncate(cap);
            let mut scratch = Vec::new();
            for b in &batches {
                merge_sorted_capped(&mut known, b, cap, &mut scratch);
            }
            assert_eq!(known, all);
        }
    }
}
