//! Property tests for the knowledge-set kernels the payload-bound path
//! runs on:
//!
//! 1. the bulk payload merge ([`KnowledgeSet::extend_from_slice`]) is
//!    the per-id [`insert`](KnowledgeSet::insert) loop — same learning
//!    order, same fresh window, same newly-learned count — in the
//!    sorted tier, across both of its spills (where a set's ids come to
//!    outnumber its bitmap's words, on narrow id ranges and at strides
//!    62–66 around one id a word; and at 511/512/513 ids, the cap, on
//!    ranges of stride 128 or more, where density never spills it), in
//!    the bitmap tier, and for payloads that repeat ids;
//! 2. the word-level [`covers`](KnowledgeSet::covers) is `knows` of
//!    every set bit, on either tier and for masks longer or shorter
//!    than the set's own bitmap;
//! 3. any interleaving of `insert`, bulk merge, `adopt` (shared and
//!    not), `take_fresh`, `skip_fresh`, `mark`, `since`, `sample_other`,
//!    `list`, `snapshot` and `clone` agrees with a `BTreeSet` + order-`Vec`
//!    model and with a twin that merged every payload on arrival, so
//!    the window and the marks can share one set and holding a
//!    broadcast by reference is invisible;
//! 4. a [`snapshot`](KnowledgeSet::snapshot) is the set's list and
//!    membership at the moment it was taken, and adopting one — from a
//!    sender on either side of the spill boundary, which decides
//!    whether it brings its bitmap — is merging the sender's list; the
//!    settle that stops once the ids counted at adoption are appended
//!    never stops short, whatever a payload repeats;
//! 5. settling a payload that brought its bitmap — order in one pass
//!    against a mask, membership by words — is per-id `insert` in
//!    payload order, on the sorted tier, across its spill and on the
//!    bitmap, wherever the payload's new ids sit;
//! 6. a set that starts with one to seven ids, held in place, agrees
//!    with the model of 3 while `insert`, bulk merge, `adopt` and its
//!    settle, `snapshot`, and the `take_fresh` and `mark` windows carry
//!    it across seven and eight ids; and one that starts with up to 40
//!    ids, sparse or about level with its words, agrees with it while
//!    the same ops carry it across 32 and 33 ids, where the scanned list
//!    stops being the index and the sorted index is built;
//! 7. a set whose snapshots are prefixes of its own list — payloads
//!    held by receivers that adopted them or by nobody, kept across
//!    appends and across the copy into a buffer of twice the room, or
//!    dropped in any order — is a set whose snapshots copy: same list,
//!    membership and samples, every payload the prefix it was sent as,
//!    with that prefix's bitmap, and a clone never sees the other's
//!    appends; and it counts one buffer in `resident_bytes`, exactly
//!    what a twin whose snapshots are all dropped at once counts;
//! 8. the completion predicates of [`LiveMask`], which answer a node of
//!    a fully live instance from its count and largest id, are the
//!    word-level `covers` they ask otherwise — on sets of every tier,
//!    sets holding an adopted roster, sets with a fabricated id ≥ n,
//!    and sets one id short.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_core::problem::LiveMask;
use rd_core::{KnowledgeSet, KnowledgeView};
use rd_sim::{NodeId, PointerList};
use std::collections::BTreeSet;

fn ids(raw: &[u32]) -> Vec<NodeId> {
    raw.iter().map(|&i| NodeId::new(i)).collect()
}

/// Id lists that keep sets sorted, spill them where their ids come to
/// outnumber their bitmap's words or where they pass the 512 cap, push
/// them well past both, or repeat a handful of ids.
fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        // Small sorted set over a wide id range.
        proptest::collection::vec(0u32..100_000, 0..40),
        // Up to 60 ids over 32 words: straddles ids == words.
        proptest::collection::vec(0u32..2_048, 0..60),
        // Around the 512 cap at stride 128: 8 000 words, so the set is
        // still sorted when the cap spills it.
        proptest::collection::vec(0u32..4_000, 400..700)
            .prop_map(|raw| raw.into_iter().map(|i| i * 128).collect()),
        // As many ids over a narrow range: a bitmap long before 512.
        proptest::collection::vec(0u32..4_000, 400..700),
        // Comfortably dense.
        proptest::collection::vec(0u32..10_000, 600..1200),
        // Mostly internal duplicates.
        proptest::collection::vec(0u32..24, 0..700),
    ]
}

/// `len` draws from `0..range`, first occurrences only: distinct ids in
/// no particular order, which is what a payload that offers a bitmap
/// lists.
fn arb_distinct(range: u32, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..range, len).prop_map(|raw| {
        let mut seen = BTreeSet::new();
        raw.into_iter().filter(|&i| seen.insert(i)).collect()
    })
}

/// A payload dense enough for a bitmap: small enough to leave a wide
/// receiver on the sorted tier; as wide as a payload with a bitmap gets,
/// one id a word or a little more (stride 48–63, in turned order), so
/// that with a receiver's ids it straddles ids == words; reaching four
/// times past any receiver's last word; and past 512 ids, so that a
/// sender's snapshot of it brings the sender's own bitmap.
fn arb_teaching_payload() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        arb_distinct(1_500, 40..200),
        (8u32..200, 48u32..64, any::<usize>()).prop_map(|(len, stride, turn)| {
            let mut ids: Vec<u32> = (0..len).map(|i| i * stride).collect();
            ids.rotate_left(turn % len as usize);
            ids
        }),
        arb_distinct(6_000, 150..700),
        arb_distinct(4_000, 700..1_300),
    ]
}

/// What the per-id oracle must agree with the bulk merge on.
fn assert_same(bulk: &mut KnowledgeSet, per_id: &mut KnowledgeSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(bulk.list(), per_id.list(), "learning order diverged");
    prop_assert_eq!(bulk.max_id(), per_id.max_id());
    prop_assert_eq!(
        bulk.take_fresh(),
        per_id.take_fresh(),
        "fresh window diverged"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bulk merge ≡ per-id insert loop, whatever tier either starts in.
    #[test]
    fn bulk_merge_matches_per_id_inserts(
        start in arb_ids(),
        payloads in proptest::collection::vec(arb_ids(), 1..4),
        own in 0u32..100_000,
        drain_first in any::<bool>(),
    ) {
        let mut bulk = KnowledgeSet::new(NodeId::new(own));
        bulk.extend(ids(&start));
        if drain_first {
            bulk.take_fresh();
        }
        let mut per_id = bulk.clone();
        for payload in &payloads {
            let payload = ids(payload);
            let mut expected = 0;
            for &id in &payload {
                expected += usize::from(per_id.insert(id));
            }
            prop_assert_eq!(bulk.extend_from_slice(&payload), expected, "newly-learned count diverged");
            prop_assert_eq!(bulk.extend_from_slice(&payload), 0, "second merge must be a no-op");
        }
        assert_same(&mut bulk, &mut per_id)?;
    }

    /// The same equivalence pinned at the spill thresholds: a set of
    /// 509 to 515 distinct ids is reached by one bulk merge, by two,
    /// and by per-id inserts, and all three agree. At stride 65 or
    /// more the set is sorted up to the 512 cap (at 128 or more with
    /// room to spare); at stride 64 it has exactly as many ids as
    /// words all the way, the density boundary itself; narrower, its
    /// second id already outnumbers its words.
    #[test]
    fn bulk_merge_agrees_at_the_spill_boundary(
        total in 509usize..516,
        split in 0usize..516,
        stride in prop_oneof![1u32..50, 62u32..67, 128u32..400],
    ) {
        let payload: Vec<NodeId> =
            (0..total as u32).map(|i| NodeId::new((1 + i) * stride)).collect();
        let split = split.min(total);
        let mut per_id = KnowledgeSet::new(NodeId::new(0));
        for &id in &payload {
            per_id.insert(id);
        }
        let mut once = KnowledgeSet::new(NodeId::new(0));
        prop_assert_eq!(once.extend_from_slice(&payload), total);
        let mut twice = KnowledgeSet::new(NodeId::new(0));
        prop_assert_eq!(twice.extend_from_slice(&payload[..split]), split);
        // The second payload overlaps the first: only its tail is new.
        prop_assert_eq!(twice.extend_from_slice(&payload[split / 2..]), total - split);
        assert_same(&mut once, &mut per_id.clone())?;
        assert_same(&mut twice, &mut per_id)?;
    }

    /// `covers(mask)` ≡ every set bit is known.
    #[test]
    fn covers_matches_per_id_knows(
        known in arb_ids(),
        extra_words in 0usize..4,
        probes in proptest::collection::vec((0usize..2_000, any::<u64>()), 0..6),
        subset in any::<bool>(),
    ) {
        let set: KnowledgeSet = ids(&known).into_iter().collect();
        let top = known.iter().copied().max().unwrap_or(0) as usize;
        // From shorter than the set's bitmap to past its end.
        let words = (top / 64 + 1 + extra_words).saturating_sub(2).max(1);
        let mut mask = vec![0u64; words];
        if subset {
            // Start from a mask the set does cover, so `true` is reachable.
            for &i in known.iter().step_by(3) {
                if (i as usize) / 64 < words {
                    mask[i as usize / 64] |= 1 << (i % 64);
                }
            }
        }
        for &(word, bits) in &probes {
            // Sparse random bits: a dense random word is never covered.
            mask[word % words] |= bits & bits.rotate_left(17) & bits.rotate_left(31);
        }
        let expected = (0..words * 64)
            .filter(|i| mask[i / 64] >> (i % 64) & 1 == 1)
            .all(|i| set.contains(NodeId::new(i as u32)));
        prop_assert_eq!(set.covers(&mask), expected);
    }
}

/// One step of the reference-model test.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    /// Per-id `extend`.
    Extend(Vec<u32>),
    Merge(Vec<u32>),
    /// Receive a payload through `adopt`: shared (held by reference
    /// until the set settles, if it is dense enough to have a bitmap)
    /// or not (merged on the spot).
    Adopt {
        payload: Vec<u32>,
        shared: bool,
    },
    TakeFresh,
    /// Close the fresh window without reading it.
    SkipFresh,
    Mark,
    /// Read `since` at the `n`-th recorded mark (modulo how many exist).
    Since(usize),
    /// Draw `sample_other` under a fixed generator.
    Sample(u64),
    /// Read the whole list (which settles).
    List,
    /// Take a snapshot and keep it: it must be the model's order and
    /// set now, and still be that after whatever comes next.
    Snapshot,
    /// Continue on a clone: window, marks and adopted payloads must
    /// carry over.
    Fork,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let arb_payload = || {
        prop_oneof![
            // Overlapping payloads, dense enough to have a bitmap from
            // about two dozen ids up: a second one adopted on top of a
            // first must settle it and count only what neither brought.
            proptest::collection::vec(0u32..1_500, 0..300),
            // A broadcast roster: contiguous, in order, large enough to
            // carry a small receiver over the spill threshold, and
            // often reaching past the receiver's own bitmap.
            (0u32..900, 5u32..700).prop_map(|(from, len)| (from..from + len).collect()),
            (0u32..18_000, 300u32..600).prop_map(|(from, len)| (from..from + len).collect()),
            // A few ids from a wide range: shared, but too sparse for a
            // bitmap.
            proptest::collection::vec(0u32..1_000_000, 0..12),
        ]
    };
    prop_oneof![
        (0u32..1_500).prop_map(Op::Insert),
        // Mostly ids the set has: an insert that must not settle.
        (0u32..40).prop_map(Op::Insert),
        arb_payload().prop_map(Op::Merge),
        proptest::collection::vec(0u32..1_500, 0..40).prop_map(Op::Extend),
        (arb_payload(), any::<bool>()).prop_map(|(payload, shared)| Op::Adopt { payload, shared }),
        (arb_payload(), Just(true)).prop_map(|(payload, shared)| Op::Adopt { payload, shared }),
        Just(Op::TakeFresh),
        Just(Op::SkipFresh),
        Just(Op::Mark),
        (0usize..64).prop_map(Op::Since),
        any::<u64>().prop_map(Op::Sample),
        Just(Op::List),
        Just(Op::Snapshot),
        Just(Op::Fork),
    ]
}

/// The membership bitmap of `members`, `extra` empty words longer than
/// it needs to be.
fn mask_of(members: &BTreeSet<u32>, extra: usize) -> Vec<u64> {
    let top = members.last().map_or(0, |&i| i as usize / 64 + 1);
    let mut mask = vec![0u64; top + extra];
    for &i in members {
        mask[i as usize / 64] |= 1 << (i % 64);
    }
    mask
}

/// Ops that keep a set near its small tier: single ids, and payloads
/// of a few ids — within one word (so a shared one of two or more
/// distinct ids has a bitmap and is adopted), spread too wide for one,
/// or a short contiguous run.
fn arb_small_op() -> impl Strategy<Value = Op> {
    let arb_payload = || {
        prop_oneof![
            proptest::collection::vec(0u32..64, 0..10),
            proptest::collection::vec(0u32..100_000, 0..10),
            (0u32..300, 1u32..12).prop_map(|(from, len)| (from..from + len).collect()),
        ]
    };
    prop_oneof![
        (0u32..64).prop_map(Op::Insert),
        (0u32..100_000).prop_map(Op::Insert),
        arb_payload().prop_map(Op::Merge),
        arb_payload().prop_map(Op::Extend),
        (arb_payload(), any::<bool>()).prop_map(|(payload, shared)| Op::Adopt { payload, shared }),
        Just(Op::TakeFresh),
        Just(Op::SkipFresh),
        Just(Op::Mark),
        (0usize..64).prop_map(Op::Since),
        any::<u64>().prop_map(Op::Sample),
        Just(Op::List),
        Just(Op::Snapshot),
        Just(Op::Fork),
    ]
}

/// Runs `ops` on a set built from `start` (its window empty) against the
/// `BTreeSet` + order-`Vec` + cursor model and an eager twin.
fn agrees_with_the_model(start: &[u32], ops: &[Op]) -> Result<(), TestCaseError> {
    let mut set: KnowledgeSet = ids(start).into_iter().collect();
    let mut eager = set.clone();
    let mut members = BTreeSet::new();
    let order: Vec<u32> = start
        .iter()
        .copied()
        .filter(|&id| members.insert(id))
        .collect();
    let mut order = order;
    let mut drained = order.len();
    let mut marks: Vec<usize> = Vec::new();
    let mut snapshots: Vec<(PointerList, usize)> = Vec::new();
    let learn = |members: &mut BTreeSet<u32>, order: &mut Vec<u32>, id: u32| {
        let new = members.insert(id);
        if new {
            order.push(id);
        }
        new
    };
    for op in ops {
        let mut probes: &[u32] = &[];
        match op {
            Op::Insert(id) => {
                let new = learn(&mut members, &mut order, *id);
                prop_assert_eq!(set.insert(NodeId::new(*id)), new);
                eager.insert(NodeId::new(*id));
                probes = std::slice::from_ref(id);
            }
            Op::Extend(payload) => {
                let new = payload
                    .iter()
                    .filter(|&&id| learn(&mut members, &mut order, id))
                    .count();
                prop_assert_eq!(set.extend(ids(payload)), new);
                eager.extend(ids(payload));
                probes = payload;
            }
            Op::Merge(payload) => {
                let new = payload
                    .iter()
                    .filter(|&&id| learn(&mut members, &mut order, id))
                    .count();
                prop_assert_eq!(set.extend_from_slice(&ids(payload)), new);
                eager.extend_from_slice(&ids(payload));
                probes = payload;
            }
            Op::Adopt { payload, shared } => {
                let new = payload
                    .iter()
                    .filter(|&&id| learn(&mut members, &mut order, id))
                    .count();
                let list = if *shared {
                    PointerList::shared(&ids(payload))
                } else {
                    PointerList::from(ids(payload))
                };
                prop_assert_eq!(set.adopt(&list), new);
                prop_assert_eq!(eager.extend_from_slice(&list.to_vec()), new);
                probes = payload;
            }
            Op::TakeFresh => {
                prop_assert_eq!(set.take_fresh(), ids(&order[drained..]));
                eager.take_fresh();
                drained = order.len();
            }
            Op::SkipFresh => {
                set.skip_fresh();
                eager.take_fresh();
                drained = order.len();
            }
            Op::Mark => {
                prop_assert_eq!(set.mark(), order.len());
                marks.push(set.mark());
            }
            Op::Since(n) => {
                if let Some(&mark) = marks.get(n % marks.len().max(1)) {
                    prop_assert_eq!(set.since(mark), ids(&order[mark..]));
                }
            }
            Op::Sample(seed) => {
                let exclude = NodeId::new(order[*seed as usize % order.len()]);
                let drawn = set.sample_other(&mut StdRng::seed_from_u64(*seed), exclude);
                let twin = eager.sample_other(&mut StdRng::seed_from_u64(*seed), exclude);
                prop_assert_eq!(drawn, twin);
            }
            Op::List => prop_assert_eq!(set.list(), ids(&order)),
            Op::Snapshot => snapshots.push((set.snapshot(), order.len())),
            Op::Fork => set = set.clone(),
        }
        // The observers that must see through adopted payloads
        // without settling them.
        prop_assert_eq!(set.len(), order.len());
        prop_assert_eq!(set.is_empty(), eager.is_empty());
        prop_assert_eq!(set.mark(), eager.mark());
        prop_assert_eq!(set.has_fresh(), drained < order.len());
        prop_assert_eq!(set.max_id(), members.last().map(|&i| NodeId::new(i)));
        prop_assert_eq!(set.to_vec(), ids(&order));
        for &probe in probes {
            prop_assert!(set.contains(NodeId::new(probe)));
            let near = probe ^ 1;
            prop_assert_eq!(set.contains(NodeId::new(near)), members.contains(&near));
        }
        // Masks longer and shorter than any bitmap involved, and
        // one that asks for a single id too many.
        let long = mask_of(&members, 3);
        prop_assert!(set.covers(&long));
        prop_assert!(set.covers(&long[..long.len() / 2]));
        let lacked = (0..).find(|i| !members.contains(i)).expect("finite set");
        let mut too_much = mask_of(&members, lacked as usize / 64 + 1);
        too_much[lacked as usize / 64] |= 1 << (lacked % 64);
        prop_assert!(!set.covers(&too_much));
        prop_assert!(!eager.covers(&too_much));
    }
    prop_assert_eq!(set.list(), eager.list());
    prop_assert_eq!(set.take_fresh(), eager.take_fresh());
    for probe in 0..1_600u32 {
        prop_assert_eq!(set.contains(NodeId::new(probe)), members.contains(&probe));
    }
    for &member in &members {
        prop_assert!(set.contains(NodeId::new(member)), "lost {}", member);
    }
    // Every snapshot is the prefix the set had learned when it was
    // taken, and its bitmap (a dense set's, or a small set's built
    // here on asking) is that prefix as a set: nothing learned
    // since shows through.
    for (snapshot, taken_at) in &snapshots {
        prop_assert_eq!(snapshot.to_vec(), ids(&order[..*taken_at]));
        if let Some(bitmap) = snapshot.shared_bitmap() {
            let then: BTreeSet<u32> = order[..*taken_at].iter().copied().collect();
            prop_assert_eq!(bitmap, mask_of(&then, 0));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `KnowledgeSet` against a `BTreeSet` (membership) + `Vec`
    /// (learning order) + cursor (fresh window) model, and against an
    /// eager twin that merges every received payload on arrival: after
    /// any interleaving no observer can tell adopted from merged.
    #[test]
    fn set_agrees_with_the_reference_model(
        own in 0u32..1_500,
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        agrees_with_the_model(&[own], &ops)?;
    }

    /// The same model from a set of one to seven ids — the ids it holds
    /// in place — through ops that take it past seven and eight ids one
    /// or a few at a time, by every path that brings an id.
    #[test]
    fn the_small_tier_agrees_with_the_model_across_its_spill(
        start in prop_oneof![
            proptest::collection::vec(0u32..64, 1..8),
            proptest::collection::vec(0u32..100_000, 1..8),
        ],
        ops in proptest::collection::vec(arb_small_op(), 1..24),
    ) {
        agrees_with_the_model(&start, &ops)?;
    }

    /// The same model from a set of one to 40 ids — scanned in its list
    /// up to 32, indexed from 33 — through ops that take it across 32
    /// and 33 ids by every path that brings an id: one at a time, by a
    /// bulk merge that builds the index part-way, and by settling an
    /// adopted payload. The ids are sparse (the sorted side all the
    /// way), or about as many as their words, so that density spills
    /// some sets on either side of 33 as well.
    #[test]
    fn the_list_only_tier_agrees_with_the_model_across_its_index(
        start in prop_oneof![
            proptest::collection::vec(0u32..100_000, 1..40),
            proptest::collection::vec(0u32..2_500, 1..40),
        ],
        ops in proptest::collection::vec(arb_small_op(), 1..24),
    ) {
        agrees_with_the_model(&start, &ops)?;
    }

    /// Adoption pinned at the spill thresholds: a receiver holding 509
    /// to 515 ids — a bitmap from the start over a narrow range (strides
    /// 1–3, 62–63), as many ids as words at stride 64, and at stride 128
    /// or more sorted below 513 and a bitmap from there — adopts an
    /// overlapping roster, then a second one, and every observer agrees
    /// with the twin that merged both on arrival.
    #[test]
    fn adoption_agrees_at_the_spill_boundary(
        held in 509u32..516,
        stride in prop_oneof![1u32..4, 62u32..67, 128u32..200],
        overlap in 0u32..600,
        seed in any::<u64>(),
    ) {
        let mut set: KnowledgeSet = (0..held).map(|i| NodeId::new(i * stride)).collect();
        let mut eager = set.clone();
        let first = PointerList::shared(&ids(&(overlap..overlap + 700).rev().collect::<Vec<_>>()));
        let second = PointerList::shared(&ids(&(0..2_000).step_by(3).collect::<Vec<_>>()));
        for payload in [&first, &second] {
            prop_assert_eq!(set.adopt(payload), eager.extend_from_slice(&payload.to_vec()));
            prop_assert_eq!(set.adopt(payload), 0, "a payload adopted twice teaches nothing");
            prop_assert_eq!(set.len(), eager.len());
            prop_assert_eq!(set.max_id(), eager.max_id());
            prop_assert_eq!(set.has_fresh(), eager.has_fresh());
            for probe in 0..2_100 {
                prop_assert_eq!(set.contains(NodeId::new(probe)), eager.contains(NodeId::new(probe)));
            }
        }
        // A clone of the unsettled set settles on its own.
        let mut forked = set.clone();
        let me = NodeId::new(0);
        prop_assert_eq!(
            forked.sample_other(&mut StdRng::seed_from_u64(seed), me),
            eager.sample_other(&mut StdRng::seed_from_u64(seed), me)
        );
        prop_assert_eq!(forked.list(), eager.list());
        prop_assert_eq!(set.to_vec(), eager.to_vec());
        prop_assert_eq!(set.take_fresh(), eager.take_fresh());
    }

    /// Adopting a sender's snapshot is merging the sender's list. The
    /// sender holds 509 to 515 ids: over a narrow range (strides 1–3,
    /// and 62–63 from a small offset) it is a bitmap and its snapshot
    /// brings it; level with its words (stride 64 from an offset below
    /// 64), about level (62–66, by the offset) or wider (128 or more:
    /// sorted below 513, a bitmap by the cap from there) its snapshot
    /// has no bitmap and is merged on the spot — a payload has one
    /// exactly when its ids outnumber its words. The receiver is sorted
    /// or a bitmap, and already knows part of what arrives.
    #[test]
    fn adopting_a_snapshot_is_merging_the_senders_list(
        sent in 509u32..516,
        held in prop_oneof![0u32..40, 509u32..516, 600u32..900],
        stride in prop_oneof![1u32..4, 62u32..67, 128u32..200],
        offset in prop_oneof![0u32..64, 0u32..700],
        later in 0u32..3_000,
    ) {
        let mut sender: KnowledgeSet = (0..sent).rev().map(|i| NodeId::new(offset + i * stride)).collect();
        let mut receiver: KnowledgeSet = (0..held).map(|i| NodeId::new(i * 2)).collect();
        let mut eager = receiver.clone();
        let snapshot = sender.snapshot();
        prop_assert_eq!(snapshot.to_vec(), sender.to_vec());
        // What the sender learns afterwards is not in it.
        let grew = sender.insert(NodeId::new(later));
        prop_assert_eq!(snapshot.len() + usize::from(grew), sender.len());
        let then: BTreeSet<u32> = snapshot.iter().map(|id| id.index() as u32).collect();
        let words = mask_of(&then, 0);
        prop_assert_eq!(snapshot.shared_bitmap().is_some(), snapshot.len() > words.len());
        if let Some(bitmap) = snapshot.shared_bitmap() {
            prop_assert_eq!(bitmap, words);
        }
        prop_assert_eq!(receiver.adopt(&snapshot), eager.extend_from_slice(&snapshot.to_vec()));
        prop_assert_eq!(receiver.adopt(&snapshot), 0);
        prop_assert_eq!(receiver.len(), eager.len());
        prop_assert_eq!(receiver.max_id(), eager.max_id());
        prop_assert_eq!(receiver.to_vec(), eager.to_vec());
        // A snapshot of the receiver settles what it holds.
        prop_assert_eq!(receiver.snapshot().to_vec(), eager.list());
        prop_assert_eq!(receiver.take_fresh(), eager.take_fresh());
    }

    /// Settling stops reading a payload once the ids counted at
    /// adoption are appended. A payload that repeats ids — new ones
    /// too, before and after the last first occurrence — must leave
    /// the list a per-id merge leaves.
    #[test]
    fn settling_early_never_stops_short_on_repeated_ids(
        held in 480u32..700,
        payload in proptest::collection::vec(0u32..1_200, 40..400),
        repeats in 1usize..4,
    ) {
        let mut set: KnowledgeSet = (0..held).map(|i| NodeId::new(i * 2)).collect();
        let mut per_id = set.clone();
        let payload = ids(&payload.repeat(repeats));
        let mut expected = 0;
        for &id in &payload {
            expected += usize::from(per_id.insert(id));
        }
        prop_assert_eq!(set.adopt(&PointerList::shared(&payload)), expected);
        assert_same(&mut set, &mut per_id)?;
    }

    /// Settling by mask ≡ per-id `insert` in payload order. The
    /// receiver stays on the sorted tier, spills (by density, or at
    /// stride 128 by the cap), or is on the bitmap already; the
    /// payload's bitmap is built on asking or comes with a
    /// sender's snapshot; the payload reaches past the receiver's last
    /// word or not; all of it but its last id, or but its first, is
    /// known already, so the pass has to read to the end, or may stop at
    /// once; and a second teaching payload arrives while the first is
    /// held.
    #[test]
    fn settling_by_mask_is_inserting_in_payload_order(
        held in prop_oneof![
            arb_distinct(3_000, 1..60),
            arb_distinct(1_000, 380..520),
            arb_distinct(4_000, 380..520).prop_map(|raw| raw.into_iter().map(|i| i * 128).collect()),
            arb_distinct(1_500, 900..1_400),
        ],
        first in arb_teaching_payload(),
        second in arb_teaching_payload(),
        from_snapshot in any::<bool>(),
        known_but in 0usize..3,
        drain_first in any::<bool>(),
    ) {
        let mut set: KnowledgeSet = ids(&held).into_iter().collect();
        match known_but {
            1 => set.extend(ids(&first[..first.len() - 1])),
            2 => set.extend(ids(&first[1..])),
            _ => 0,
        };
        if drain_first {
            set.take_fresh();
        }
        let mut per_id = set.clone();
        for payload in [&first, &second] {
            let payload = if from_snapshot {
                ids(payload).into_iter().collect::<KnowledgeSet>().snapshot()
            } else {
                PointerList::shared(&ids(payload))
            };
            prop_assert!(payload.shared_bitmap().is_some(), "dense and distinct: adopted, not merged");
            let mut expected = 0;
            for id in &payload {
                expected += usize::from(per_id.insert(id));
            }
            // The second adoption settles the first; what is asked
            // next looks through the payload just taken.
            prop_assert_eq!(set.adopt(&payload), expected);
            prop_assert_eq!(set.len(), per_id.len());
            prop_assert_eq!(set.max_id(), per_id.max_id());
            prop_assert_eq!(set.has_fresh(), per_id.has_fresh());
            for probe in (0..6_100).step_by(7).map(NodeId::new).chain(&payload) {
                prop_assert_eq!(set.contains(probe), per_id.contains(probe));
            }
        }
        assert_same(&mut set, &mut per_id)?;
        prop_assert_eq!(set.len(), per_id.len());
        for probe in (0..6_100).map(NodeId::new) {
            prop_assert_eq!(set.contains(probe), per_id.contains(probe));
        }
        // The settled tier is a set again: a second merge is a no-op.
        prop_assert_eq!(set.extend_from_slice(&ids(&second)), 0);
        prop_assert_eq!(set.extend_from_slice(&ids(&held)), 0);
    }
}

/// One step of the sharing test. Positions pick a set (modulo how many
/// there are) or a held payload (modulo how many are held).
#[derive(Debug, Clone)]
enum ShareOp {
    Insert(usize, u32),
    Merge(usize, Vec<u32>),
    /// Adopt a shared payload from outside the family.
    Adopt(usize, Vec<u32>),
    /// Take a snapshot and hold it.
    Snapshot(usize),
    /// The first set's snapshot, adopted by the second: held by the
    /// receiver until it settles.
    Send(usize, usize),
    /// Learn one more new id than the set holds, one at a time: a
    /// buffer that grew by doubling is full before the last of them.
    Grow(usize),
    /// Drop a held snapshot.
    Drop(usize),
    /// Continue with one more set, a clone of this one.
    Clone(usize),
    Sample(usize, u64),
    /// Read the list (which settles, and copies a shared list back).
    List(usize),
}

fn arb_share_op() -> impl Strategy<Value = ShareOp> {
    let arb_ids = || {
        prop_oneof![
            // A few ids from a wide range: the sorted tier, and shared
            // payloads too sparse for a bitmap.
            proptest::collection::vec(0u32..100_000, 0..12),
            // Dense enough to spill a set to the bitmap tier.
            proptest::collection::vec(0u32..2_000, 0..200),
            (0u32..1_500, 5u32..400).prop_map(|(from, len)| (from..from + len).collect()),
        ]
    };
    let at = || 0usize..4;
    prop_oneof![
        (at(), 0u32..2_000).prop_map(|(at, id)| ShareOp::Insert(at, id)),
        (at(), 0u32..100_000).prop_map(|(at, id)| ShareOp::Insert(at, id)),
        (at(), arb_ids()).prop_map(|(at, ids)| ShareOp::Merge(at, ids)),
        (at(), arb_ids()).prop_map(|(at, ids)| ShareOp::Adopt(at, ids)),
        // Sending and dropping, oftener than the rest.
        at().prop_map(ShareOp::Snapshot),
        at().prop_map(ShareOp::Snapshot),
        (at(), at()).prop_map(|(from, to)| ShareOp::Send(from, to)),
        (at(), at()).prop_map(|(from, to)| ShareOp::Send(from, to)),
        at().prop_map(ShareOp::Grow),
        (0usize..16).prop_map(ShareOp::Drop),
        (0usize..16).prop_map(ShareOp::Drop),
        at().prop_map(ShareOp::Clone),
        (at(), any::<u64>()).prop_map(|(at, seed)| ShareOp::Sample(at, seed)),
        at().prop_map(ShareOp::List),
    ]
}

/// A set whose snapshots are held, and two twins that see the same
/// steps: `reference`, which is never asked for a snapshot and so keeps
/// its own list (the snapshot it stands for is a copy of that list),
/// and `dropping`, which takes every snapshot the set takes and drops it
/// at once, after asking for its bitmap as the set's receivers do.
struct Sharer {
    set: KnowledgeSet,
    reference: KnowledgeSet,
    dropping: KnowledgeSet,
}

impl Sharer {
    fn copied_snapshot(&mut self) -> PointerList {
        PointerList::shared(self.reference.list())
    }

    /// The set's snapshot, checked against the copy; the dropping twin
    /// takes and drops its own.
    fn snapshot(&mut self) -> Result<(PointerList, PointerList), TestCaseError> {
        let (sent, copy) = (self.set.snapshot(), self.copied_snapshot());
        assert_sent_as(&sent, &copy)?;
        self.dropping.snapshot().shared_bitmap();
        Ok((sent, copy))
    }
}

/// A payload as it was sent must stay: the ids, and the bitmap a copy
/// of the same ids offers, which is those ids as a set.
fn assert_sent_as(payload: &PointerList, copy: &PointerList) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        payload.to_vec(),
        copy.to_vec(),
        "a payload changed after it was sent"
    );
    prop_assert_eq!(payload.shared_bitmap(), copy.shared_bitmap());
    if let Some(bitmap) = payload.shared_bitmap() {
        prop_assert_eq!(
            bitmap,
            NodeId::bitmap(payload, NodeId::bitmap_words(payload))
        );
    }
    Ok(())
}

fn shares_like_a_copying_set(start: &[u32], ops: &[ShareOp]) -> Result<(), TestCaseError> {
    // Three clones, so that all three start at the same capacities.
    let set: KnowledgeSet = ids(start).into_iter().collect();
    let mut family = vec![Sharer {
        set: set.clone(),
        reference: set.clone(),
        dropping: set.clone(),
    }];
    // Held snapshots, each with the copy a copying set would have sent.
    let mut held: Vec<(PointerList, PointerList)> = Vec::new();
    for op in ops {
        let n = family.len();
        let mut probes: &[u32] = &[];
        match op {
            ShareOp::Insert(at, id) => {
                let l = &mut family[at % n];
                let id = NodeId::new(*id);
                prop_assert_eq!(l.set.insert(id), l.reference.insert(id));
                l.dropping.insert(id);
            }
            ShareOp::Merge(at, raw) => {
                let l = &mut family[at % n];
                prop_assert_eq!(
                    l.set.extend_from_slice(&ids(raw)),
                    l.reference.extend_from_slice(&ids(raw))
                );
                l.dropping.extend_from_slice(&ids(raw));
                probes = raw;
            }
            ShareOp::Adopt(at, raw) => {
                let l = &mut family[at % n];
                let payload = PointerList::shared(&ids(raw));
                prop_assert_eq!(l.set.adopt(&payload), l.reference.adopt(&payload));
                l.dropping.adopt(&payload);
                probes = raw;
            }
            ShareOp::Snapshot(at) => {
                let sent = family[at % n].snapshot()?;
                held.push(sent);
            }
            ShareOp::Send(from, to) => {
                let (sent, copy) = family[from % n].snapshot()?;
                let r = &mut family[to % n];
                prop_assert_eq!(r.set.adopt(&sent), r.reference.adopt(&copy));
                r.dropping.adopt(&copy);
            }
            ShareOp::Grow(at) => {
                let l = &mut family[at % n];
                let top = l.reference.max_id().map_or(0, |id| id.index() as u32 + 1);
                for id in (top..).take(l.reference.len() + 1).map(NodeId::new) {
                    prop_assert!(l.set.insert(id));
                    l.reference.insert(id);
                    l.dropping.insert(id);
                }
            }
            ShareOp::Drop(which) => {
                if !held.is_empty() {
                    let (sent, copy) = held.remove(which % held.len());
                    assert_sent_as(&sent, &copy)?;
                }
            }
            ShareOp::Clone(at) => {
                let l = &family[at % n];
                let twin = Sharer {
                    set: l.set.clone(),
                    reference: l.reference.clone(),
                    dropping: l.dropping.clone(),
                };
                family.push(twin);
            }
            ShareOp::Sample(at, seed) => {
                let l = &mut family[at % n];
                let me = l.reference.list()[0];
                prop_assert_eq!(
                    l.set.sample_other(&mut StdRng::seed_from_u64(*seed), me),
                    l.reference
                        .sample_other(&mut StdRng::seed_from_u64(*seed), me)
                );
                l.dropping
                    .sample_other(&mut StdRng::seed_from_u64(*seed), me);
            }
            ShareOp::List(at) => {
                let l = &mut family[at % n];
                prop_assert_eq!(l.set.list(), l.reference.list());
                l.dropping.list();
            }
        }
        // Every set after every step, so that one set's append showing
        // through another's list — a clone's, or a receiver's held
        // payload — is caught where it happens; and whatever its
        // payloads hold, a set counts what its twin that dropped them
        // counts: one buffer, never a second copy.
        for l in &family {
            prop_assert_eq!(l.set.len(), l.reference.len());
            prop_assert_eq!(l.set.to_vec(), l.reference.to_vec());
            prop_assert_eq!(l.set.resident_bytes(), l.dropping.resident_bytes());
            for &probe in probes {
                for id in [probe, probe ^ 1] {
                    let id = NodeId::new(id);
                    prop_assert_eq!(l.set.contains(id), l.reference.contains(id));
                }
            }
        }
        for (sent, copy) in &held {
            assert_sent_as(sent, copy)?;
        }
    }
    for l in &mut family {
        prop_assert_eq!(l.set.list(), l.reference.list());
        prop_assert_eq!(l.set.take_fresh(), l.reference.take_fresh());
        for probe in (0..2_100).map(NodeId::new) {
            prop_assert_eq!(l.set.contains(probe), l.reference.contains(probe));
        }
        let (sent, copy) = (l.set.snapshot(), l.copied_snapshot());
        assert_sent_as(&sent, &copy)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A set whose snapshots are prefixes of its list ≡ a set whose
    /// snapshots copy it, from one id (the small tier, left for the
    /// sorted tier and the bitmap while shared), from a sparse set, and
    /// from a dense one.
    #[test]
    fn sharing_snapshots_is_copying_them(
        start in prop_oneof![
            proptest::collection::vec(0u32..64, 1..3),
            proptest::collection::vec(0u32..100_000, 8..40),
            proptest::collection::vec(0u32..1_500, 100..600),
        ],
        ops in proptest::collection::vec(arb_share_op(), 1..60),
    ) {
        shares_like_a_copying_set(&start, &ops)?;
    }
}

/// A node as the completion predicates read it: one knowledge set.
struct Knows(KnowledgeSet);

impl KnowledgeView for Knows {
    fn knowledge(&self) -> &KnowledgeSet {
        &self.0
    }
}

/// What a node of an instance of `n` knows: `n` ids in shuffled order
/// with `missing` of them left out, plus `fabricated` ids of `n` or
/// above (a few past the instance or far past it, which keeps a set of
/// up to 512 ids sorted); with `adopt`, the set first knows a handful
/// of ids and adopts the rest as one shared roster.
fn knowing(
    rng: &mut StdRng,
    n: u32,
    missing: usize,
    fabricated: usize,
    adopt: bool,
) -> KnowledgeSet {
    let mut ids: Vec<u32> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.random_range(0..=i));
    }
    ids.truncate(ids.len().saturating_sub(missing));
    for _ in 0..fabricated {
        let past: u32 = [3, 100_000][rng.random_range(0..2usize)];
        ids.push(n + rng.random_range(0..past));
    }
    let mut set = KnowledgeSet::default();
    if !adopt {
        set.extend(ids.into_iter().map(NodeId::new));
        return set;
    }
    let held = rng.random_range(0..4usize).min(ids.len());
    set.extend(ids[..held].iter().copied().map(NodeId::new));
    let mut roster = ids[held..].to_vec();
    roster.sort_unstable();
    roster.dedup();
    set.adopt(&PointerList::shared(
        &roster.into_iter().map(NodeId::new).collect::<Vec<_>>(),
    ));
    set
}

/// The predicates as they read before the count-and-top answer:
/// a live node knows every live node iff it knows as many ids and its
/// set covers their mask.
fn by_covers(nodes: &[Knows], live: &[bool]) -> (bool, bool) {
    let mut mask = vec![0u64; live.len().div_ceil(64)];
    for i in (0..live.len()).filter(|&i| live[i]) {
        mask[i / 64] |= 1 << (i % 64);
    }
    let count = live.iter().filter(|&&l| l).count();
    let knows_all = |node: &Knows| node.0.len() >= count && node.0.covers(&mask);
    let everyone = nodes
        .iter()
        .zip(live)
        .all(|(node, &l)| !l || knows_all(node));
    let leader = nodes.iter().enumerate().any(|(i, node)| {
        live[i]
            && knows_all(node)
            && (nodes.iter().zip(live))
                .all(|(other, &l)| !l || other.0.contains(NodeId::new(i as u32)))
    });
    (everyone, leader)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every node knows everyone, one (the spoiler) may not: it is a
    /// node one id short, or one with a fabricated id, or both, or one
    /// holding an adopted roster, or a random subset. Instances of up to
    /// seven nodes keep every set on the small tier; larger ones put
    /// the sets with a far fabricated id on the sorted tier and the
    /// rest on the bitmap.
    #[test]
    fn completion_by_count_and_top_is_completion_by_covers(
        n in prop_oneof![1u32..8, 8u32..300],
        seed in any::<u64>(),
        everyone_live in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spoiler = rng.random_range(0..n as usize + 1);
        let nodes: Vec<Knows> = (0..n as usize)
            .map(|i| {
                let shapes = if i == spoiler { 6 } else { 3 };
                let (one, some) = (rng.random_range(1..3), rng.random_range(0..2));
                let (missing, fabricated, adopt) = match rng.random_range(0..shapes) {
                    0 => (0, 0, false),
                    1 => (0, one, false),
                    2 => (0, some, true),
                    3 => (1, some, false),
                    4 => (1, some, true),
                    _ => (rng.random_range(0..n as usize + 1), 0, false),
                };
                Knows(knowing(&mut rng, n, missing, fabricated, adopt))
            })
            .collect();
        let live: Vec<bool> = (0..n).map(|_| everyone_live || rng.random_range(0..4) > 0).collect();
        let mask = LiveMask::new(&live);
        let (everyone, leader) = by_covers(&nodes, &live);
        prop_assert_eq!(mask.everyone_knows_everyone(&nodes), everyone);
        prop_assert_eq!(mask.leader_knows_all(&nodes), leader);
    }
}
