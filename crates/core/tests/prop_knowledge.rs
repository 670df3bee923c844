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
//!    not), `take_fresh`, `mark`, `since`, `sample_other`, `list`,
//!    `snapshot` and `clone` agrees with a `BTreeSet` + order-`Vec`
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
//!    it across seven and eight ids.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rd_core::KnowledgeSet;
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
                prop_assert_eq!(eager.extend_from_slice(&list), new);
                probes = payload;
            }
            Op::TakeFresh => {
                prop_assert_eq!(set.take_fresh(), ids(&order[drained..]));
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
    // Every snapshot is the prefix the set had learned when it was
    // taken, and its bitmap (a dense set's, or a small set's built
    // here on asking) is that prefix as a set: nothing learned
    // since shows through.
    for (snapshot, taken_at) in &snapshots {
        prop_assert_eq!(snapshot.as_slice(), ids(&order[..*taken_at]));
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
            prop_assert_eq!(set.adopt(payload), eager.extend_from_slice(payload));
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
        prop_assert_eq!(snapshot.as_slice(), sender.list());
        // What the sender learns afterwards is not in it.
        let grew = sender.insert(NodeId::new(later));
        prop_assert_eq!(snapshot.len() + usize::from(grew), sender.len());
        let then: BTreeSet<u32> = snapshot.iter().map(|id| id.index() as u32).collect();
        let words = mask_of(&then, 0);
        prop_assert_eq!(snapshot.shared_bitmap().is_some(), snapshot.len() > words.len());
        if let Some(bitmap) = snapshot.shared_bitmap() {
            prop_assert_eq!(bitmap, words);
        }
        prop_assert_eq!(receiver.adopt(&snapshot), eager.extend_from_slice(&snapshot));
        prop_assert_eq!(receiver.adopt(&snapshot), 0);
        prop_assert_eq!(receiver.len(), eager.len());
        prop_assert_eq!(receiver.max_id(), eager.max_id());
        prop_assert_eq!(receiver.to_vec(), eager.to_vec());
        // A snapshot of the receiver settles what it holds.
        prop_assert_eq!(&receiver.snapshot()[..], eager.list());
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
