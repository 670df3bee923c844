//! Message envelopes, pointer payloads, and cost accounting.

use crate::id::NodeId;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Number of header bits charged to every message regardless of payload
/// (source, destination, and a small type tag) when converting pointer
/// counts to bit complexity.
pub const HEADER_BITS: u64 = 96;

/// Cost model every protocol message must implement.
///
/// The resource-discovery literature measures communication in
/// *pointers*: the number of node identifiers a message carries. Bit
/// complexity follows as `pointers × ⌈log₂ n⌉ + O(1)` and is derived by
/// the metrics layer, so protocols only report pointer counts.
pub trait MessageCost {
    /// Number of node identifiers carried by this message.
    fn pointers(&self) -> usize;

    /// Visits every node identifier this message *teaches* its
    /// receiver — the payload ids whose arrival can grow the
    /// receiver's knowledge. Causal tracing uses this to record
    /// knowledge-provenance edges; the default visits nothing, which
    /// keeps messages without learnable content (acks, probes) out of
    /// the provenance DAG. Implementations should visit the same ids
    /// [`pointers`](Self::pointers) counts.
    fn visit_ids(&self, _visit: &mut dyn FnMut(NodeId)) {}
}

/// A routed message: payload plus source and destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Protocol payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(src: NodeId, dst: NodeId, payload: M) -> Self {
        Envelope { src, dst, payload }
    }
}

/// Identifiers an inline list holds before spilling to the heap.
const INLINE_POINTERS: usize = 4;

/// A list of node identifiers with a small-payload inline
/// representation and a shared large-payload one.
///
/// Resource-discovery messages overwhelmingly carry *short* pointer
/// lists — a single learned identifier, a two-element frontier — yet a
/// `Vec<NodeId>` payload heap-allocates for every one of them, so the
/// routing hot path pays an allocator round-trip per message.
/// `PointerList` stores up to four identifiers inline in the envelope
/// and only spills to a heap `Vec` beyond that, which removes the
/// per-message allocation for bounded-gossip traffic entirely.
///
/// At the other end, a broadcast carries one long list to many
/// receivers. [`shared`](Self::shared) builds a reference-counted list
/// whose clones are a counter bump, so the sender allocates the payload
/// once however many envelopes carry it. Sharing is a representation
/// only: pointer accounting, equality and iteration see the same ids.
/// A shared list of distinct ids that outnumber the words of their
/// bitmap (the workspace's one density rule,
/// [`NodeId::worth_a_bitmap`], which also decides a knowledge set's
/// tier) offers the same ids as a bitmap
/// ([`shared_bitmap`](Self::shared_bitmap)) — the sender's own where it
/// lends one ([`LentList::lend`]), else built by the first receiver
/// that asks — shared like the ids, so a receiver can compare a whole
/// payload against what it knows 64 ids per instruction.
///
/// A sender that sends its whole knowledge again and again does not
/// copy it into each payload: it keeps its list behind a [`LentList`]
/// and lends that, so a payload is the sender's own list, frozen for as
/// long as someone holds it.
///
/// The type behaves like a read-mostly `Vec<NodeId>`: build it with
/// [`push`](Self::push), [`collect`](Iterator::collect), or a
/// `From<Vec<NodeId>>` / `From<&[NodeId]>` conversion, and read it as a
/// slice (it derefs to `[NodeId]`) or by value iteration.
#[derive(Clone)]
pub struct PointerList(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ids: [NodeId; INLINE_POINTERS],
    },
    Heap(Vec<NodeId>),
    Shared(Arc<SharedIds>),
}

/// One shared payload: the ids in sending order and — from the sender,
/// or once a receiver has asked — the same ids as a set (`None`: too
/// sparse to have one). A `Vec`, so that the one holder of a
/// [`LentList`] can append to it in place.
struct SharedIds {
    ids: Vec<NodeId>,
    bitmap: OnceLock<Option<Box<[u64]>>>,
}

/// How many ids a bitmap holds.
fn popcount(bitmap: &[u64]) -> usize {
    bitmap.iter().map(|w| w.count_ones() as usize).sum()
}

impl PointerList {
    /// An empty list (inline, no allocation).
    pub fn new() -> Self {
        PointerList(Repr::Inline {
            len: 0,
            ids: [NodeId::new(0); INLINE_POINTERS],
        })
    }

    /// A list meant to be cloned into many envelopes: past the inline
    /// size the ids live in one reference-counted allocation that every
    /// clone shares.
    pub fn shared(ids: &[NodeId]) -> Self {
        if ids.len() <= INLINE_POINTERS {
            PointerList::from(ids)
        } else {
            PointerList(Repr::Shared(Arc::new(SharedIds {
                ids: ids.to_vec(),
                bitmap: OnceLock::new(),
            })))
        }
    }

    /// The ids of a shared list as a bitmap (id `i` is bit `i % 64` of
    /// word `i / 64`, no trailing empty word). Unless the sender
    /// [lent](LentList::lend) it, the first call builds
    /// it; every clone of the list, on any thread, then reads the same
    /// words. An un-sharing [`push`](Self::push) leaves it behind with
    /// the shared ids.
    ///
    /// `None` for a list that is not shared, and for one with no more
    /// ids than its bitmap would have words
    /// ([`worth_a_bitmap`](NodeId::worth_a_bitmap)): reading such a
    /// bitmap costs a receiver more than reading the ids (a five-id
    /// delta naming node 60 000 would be 938 words). `None`, too, for a
    /// list that repeats an id: a bitmap is offered only for distinct
    /// ids, so a receiver handed one may take every listed id for a
    /// different bit.
    pub fn shared_bitmap(&self) -> Option<&[u64]> {
        let Repr::Shared(shared) = &self.0 else {
            return None;
        };
        let bitmap = shared.bitmap.get_or_init(|| {
            let words = NodeId::bitmap_words(&shared.ids);
            NodeId::worth_a_bitmap(shared.ids.len(), words)
                .then(|| NodeId::bitmap(&shared.ids, words))
                .filter(|bitmap| popcount(bitmap) == shared.ids.len())
                .map(Vec::into_boxed_slice)
        });
        bitmap.as_deref()
    }

    /// Appends an identifier, spilling to the heap past the inline
    /// capacity.
    pub fn push(&mut self, id: NodeId) {
        match &mut self.0 {
            Repr::Inline { len, ids } if (*len as usize) < INLINE_POINTERS => {
                ids[*len as usize] = id;
                *len += 1;
            }
            _ => self.heap_mut(1).push(id),
        }
    }

    /// Moves the list into an exclusively owned heap vector with room
    /// for `additional` more ids.
    fn heap_mut(&mut self, additional: usize) -> &mut Vec<NodeId> {
        if !matches!(self.0, Repr::Heap(_)) {
            let mut owned = Vec::with_capacity(self.len() + additional);
            owned.extend_from_slice(self.as_slice());
            self.0 = Repr::Heap(owned);
        }
        match &mut self.0 {
            Repr::Heap(v) => v,
            _ => unreachable!("converted above"),
        }
    }

    /// Number of identifiers.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The identifiers as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..*len as usize],
            Repr::Heap(v) => v,
            Repr::Shared(shared) => &shared.ids,
        }
    }

    /// Iterates the identifiers by value.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.as_slice().iter().copied()
    }
}

impl Default for PointerList {
    fn default() -> Self {
        PointerList::new()
    }
}

impl std::ops::Deref for PointerList {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl fmt::Debug for PointerList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for PointerList {
    fn eq(&self, other: &Self) -> bool {
        // Representation (inline vs heap) is invisible to equality.
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PointerList {}

impl From<&[NodeId]> for PointerList {
    fn from(ids: &[NodeId]) -> Self {
        if ids.len() <= INLINE_POINTERS {
            let mut inline = [NodeId::new(0); INLINE_POINTERS];
            inline[..ids.len()].copy_from_slice(ids);
            PointerList(Repr::Inline {
                len: ids.len() as u8,
                ids: inline,
            })
        } else {
            PointerList(Repr::Heap(ids.to_vec()))
        }
    }
}

impl From<Vec<NodeId>> for PointerList {
    fn from(ids: Vec<NodeId>) -> Self {
        if ids.len() <= INLINE_POINTERS {
            PointerList::from(ids.as_slice())
        } else {
            PointerList(Repr::Heap(ids))
        }
    }
}

impl FromIterator<NodeId> for PointerList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut list = PointerList::new();
        list.extend(iter);
        list
    }
}

impl Extend<NodeId> for PointerList {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        let expected = iter.size_hint().0;
        if self.len() + expected > INLINE_POINTERS {
            // Known to outgrow the inline array: one sized heap vector
            // takes the ids directly.
            self.heap_mut(expected).extend(iter);
        } else {
            iter.for_each(|id| self.push(id));
        }
    }
}

/// By-value iterator over a [`PointerList`].
pub struct PointerListIter {
    list: PointerList,
    pos: usize,
}

impl Iterator for PointerListIter {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.list.as_slice().get(self.pos).copied()?;
        self.pos += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.pos;
        (left, Some(left))
    }
}

impl IntoIterator for PointerList {
    type Item = NodeId;
    type IntoIter = PointerListIter;
    fn into_iter(self) -> PointerListIter {
        PointerListIter { list: self, pos: 0 }
    }
}

impl<'a> IntoIterator for &'a PointerList {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl MessageCost for PointerList {
    fn pointers(&self) -> usize {
        self.len()
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        for &id in self.as_slice() {
            visit(id);
        }
    }
}

/// A list of distinct ids that its holder appends to and lends out as
/// [shared](PointerList::shared) payloads without copying it: one
/// reference-counted allocation, which a payload [lent](Self::lend)
/// from it shares and its holder appends to in place
/// ([`ids_mut`](Self::ids_mut)) once no payload holds it any more.
/// Lending again after nothing was appended is a clone of the handle;
/// after an append, the holder offers its bitmap of the grown list
/// anew.
///
/// A knowledge set keeps its learning-order list in one of these once
/// it has sent it as a snapshot; the set, not the handle, decides what
/// to do while a payload still holds the list.
#[derive(Clone)]
pub struct LentList(Arc<SharedIds>);

impl LentList {
    /// A handle on `ids`, which must be distinct; nothing is offered as
    /// a bitmap yet.
    pub fn new(ids: Vec<NodeId>) -> Self {
        LentList(Arc::new(SharedIds {
            ids,
            bitmap: OnceLock::new(),
        }))
    }

    /// The ids.
    pub fn ids(&self) -> &[NodeId] {
        &self.0.ids
    }

    /// The ids to append to, if this handle is the list's only holder
    /// (`None` while a lent payload still holds it). Whatever bitmap a
    /// lend offered is withdrawn: the list is about to outgrow it.
    pub fn ids_mut(&mut self) -> Option<&mut Vec<NodeId>> {
        let shared = Arc::get_mut(&mut self.0)?;
        shared.bitmap.take();
        Some(&mut shared.ids)
    }

    /// The list as a payload, shared with this handle (or inline, up to
    /// four ids, as [`shared`](PointerList::shared) keeps them). `bitmap`
    /// — the holder's own set of exactly these ids, id `i` bit `i % 64`
    /// of word `i / 64`, any number of trailing empty words — is offered
    /// to receivers as the payload's
    /// [`shared_bitmap`](PointerList::shared_bitmap) unless one is on
    /// offer already: trimmed and copied, once per length of the list.
    /// With `None` the first receiver that asks builds it. That the ids
    /// are distinct and the bitmap theirs is a precondition receivers
    /// rely on, checked only in debug builds.
    pub fn lend(&self, bitmap: Option<&[u64]>) -> PointerList {
        let ids = self.ids();
        if let Some(bitmap) = bitmap {
            self.0.bitmap.get_or_init(|| {
                debug_assert_eq!(
                    popcount(bitmap),
                    ids.len(),
                    "the bitmap holds exactly the listed ids"
                );
                debug_assert!(ids
                    .iter()
                    .all(|id| bitmap[id.index() / 64] >> (id.index() % 64) & 1 == 1));
                let words = bitmap.iter().rposition(|&w| w != 0).map_or(0, |w| w + 1);
                NodeId::worth_a_bitmap(ids.len(), words).then(|| bitmap[..words].into())
            });
        }
        if ids.len() <= INLINE_POINTERS {
            PointerList::from(ids)
        } else {
            PointerList(Repr::Shared(Arc::clone(&self.0)))
        }
    }

    /// Heap bytes of the list and of the bitmap on offer (capacities).
    pub fn heap_bytes(&self) -> usize {
        let offered = self.0.bitmap.get().and_then(Option::as_ref);
        self.0.ids.capacity() * std::mem::size_of::<NodeId>()
            + offered.map_or(0, |words| words.len() * std::mem::size_of::<u64>())
    }

    /// The ids as a vector: the list itself if no payload holds it,
    /// else a copy.
    pub fn into_vec(self) -> Vec<NodeId> {
        Arc::try_unwrap(self.0).map_or_else(|shared| shared.ids.clone(), |own| own.ids)
    }
}

impl fmt::Debug for LentList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ids()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ids(Vec<NodeId>);
    impl MessageCost for Ids {
        fn pointers(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn envelope_carries_endpoints() {
        let e = Envelope::new(NodeId::new(1), NodeId::new(2), Ids(vec![NodeId::new(3)]));
        assert_eq!(e.src, NodeId::new(1));
        assert_eq!(e.dst, NodeId::new(2));
        assert_eq!(e.payload.pointers(), 1);
    }

    #[test]
    fn pointer_count_tracks_payload() {
        let ids: Vec<NodeId> = (0..7).map(NodeId::new).collect();
        assert_eq!(Ids(ids).pointers(), 7);
        assert_eq!(Ids(vec![]).pointers(), 0);
    }

    fn nid(xs: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        xs.into_iter().map(NodeId::new).collect()
    }

    #[test]
    fn pointer_list_stays_inline_up_to_four() {
        let mut list = PointerList::new();
        assert!(list.is_empty());
        for i in 0..4 {
            list.push(NodeId::new(i));
        }
        assert!(matches!(list.0, Repr::Inline { len: 4, .. }));
        assert_eq!(list.as_slice(), nid(0..4).as_slice());
        list.push(NodeId::new(4));
        assert!(matches!(list.0, Repr::Heap(_)));
        assert_eq!(list.as_slice(), nid(0..5).as_slice());
        assert_eq!(list.pointers(), 5);
    }

    #[test]
    fn pointer_list_conversions_pick_the_representation() {
        let short = PointerList::from(nid(0..3));
        assert!(matches!(short.0, Repr::Inline { len: 3, .. }));
        let long = PointerList::from(nid(0..9));
        assert!(matches!(long.0, Repr::Heap(_)));
        let collected: PointerList = (0..3).map(NodeId::new).collect();
        assert_eq!(collected, short);
    }

    #[test]
    fn pointer_list_equality_ignores_representation() {
        let inline = PointerList::from(nid(0..3));
        let heap = PointerList(Repr::Heap(nid(0..3)));
        assert_eq!(inline, heap);
        assert_ne!(inline, PointerList::from(nid(0..4)));
    }

    #[test]
    fn shared_list_equals_its_heap_twin_and_clones_share_the_allocation() {
        let heap = PointerList::from(nid(0..9));
        let shared = PointerList::shared(&nid(0..9));
        assert!(matches!(shared.0, Repr::Shared(_)));
        assert_eq!(shared, heap);
        assert_eq!(shared.pointers(), heap.pointers());
        let visited = |list: &PointerList| {
            let mut seen = Vec::new();
            list.visit_ids(&mut |id| seen.push(id));
            seen
        };
        assert_eq!(visited(&shared), visited(&heap));
        let copy = shared.clone();
        assert_eq!(copy.as_slice().as_ptr(), shared.as_slice().as_ptr());
        assert_ne!(heap.clone().as_slice().as_ptr(), heap.as_slice().as_ptr());
        assert_eq!(copy.into_iter().collect::<Vec<_>>(), nid(0..9));
        // Short lists stay inline; a push un-shares instead of
        // writing through to the other clones.
        assert!(matches!(
            PointerList::shared(&nid(0..4)).0,
            Repr::Inline { len: 4, .. }
        ));
        let mut grown = shared.clone();
        grown.push(NodeId::new(9));
        assert_eq!(grown.as_slice(), nid(0..10).as_slice());
        assert_eq!(shared, heap);
    }

    #[test]
    fn shared_bitmap_is_built_once_and_shared_by_every_clone() {
        let ids = nid([3, 130, 64, 7, 129]);
        let shared = PointerList::shared(&ids);
        let copy = shared.clone();
        let first = copy.shared_bitmap().expect("shared lists have a bitmap");
        let mut per_id = vec![0u64; 3];
        for id in &ids {
            per_id[id.index() / 64] |= 1 << (id.index() % 64);
        }
        assert_eq!(first, per_id.as_slice());
        // Asking again, through either handle, reads the same words.
        assert!(std::ptr::eq(first, copy.shared_bitmap().unwrap()));
        assert!(std::ptr::eq(first, shared.shared_bitmap().unwrap()));
        assert!(std::ptr::eq(first, shared.clone().shared_bitmap().unwrap()));
        // Inline and heap lists have none, nor has a shared list with
        // no more ids than bitmap words, and neither has a list that a
        // push (or an extend) un-shared; its siblings keep theirs.
        assert_eq!(PointerList::shared(&nid(0..4)).shared_bitmap(), None);
        assert_eq!(PointerList::from(nid(0..9)).shared_bitmap(), None);
        let sparse = PointerList::shared(&nid([1, 2, 3, 4, 5 * 64]));
        assert!(matches!(sparse.0, Repr::Shared(_)));
        assert_eq!(sparse.shared_bitmap(), None);
        let level = PointerList::shared(&nid([1, 2, 3, 4, 5 * 64 - 1]));
        assert_eq!(level.shared_bitmap(), None, "five ids, five words");
        let dense_enough = PointerList::shared(&nid([1, 2, 3, 4, 4 * 64 - 1]));
        assert_eq!(dense_enough.shared_bitmap().map(<[u64]>::len), Some(4));
        // Nor has a list that names an id twice: whoever is handed a
        // bitmap may count on one listed id per set bit.
        let repeated = PointerList::shared(&nid([3, 130, 64, 3, 7, 129]));
        assert!(matches!(repeated.0, Repr::Shared(_)));
        assert_eq!(repeated.shared_bitmap(), None);
        let mut pushed = shared.clone();
        pushed.push(NodeId::new(500));
        assert_eq!(pushed.shared_bitmap(), None);
        let mut extended = shared.clone();
        extended.extend(nid(500..502));
        assert_eq!(extended.shared_bitmap(), None);
        assert!(std::ptr::eq(first, shared.shared_bitmap().unwrap()));
    }

    /// A sender's own bitmap, eight words whatever the ids need.
    fn bitmap_of(ids: &[NodeId]) -> Vec<u64> {
        let mut words = vec![0u64; 8];
        for id in ids {
            words[id.index() / 64] |= 1 << (id.index() % 64);
        }
        words
    }

    #[test]
    fn a_lent_bitmap_is_the_one_a_receiver_would_have_built() {
        let ids = nid([3, 130, 64, 7, 129]);
        let mut sender = bitmap_of(&ids);
        let lent = LentList::new(ids.clone());
        let supplied = lent.lend(Some(&sender));
        assert!(matches!(supplied.0, Repr::Shared(_)));
        assert_eq!(supplied, PointerList::from(ids.clone()));
        let words = supplied.shared_bitmap().expect("dense enough");
        assert_eq!(words, PointerList::shared(&ids).shared_bitmap().unwrap());
        assert_eq!(words, &sender[..3], "trailing empty words are trimmed");
        // A copy: the sender's set moves on, the payload's does not.
        sender[0] |= 1 << 9;
        assert_eq!(supplied.shared_bitmap().unwrap()[0], (1 << 3) | (1 << 7));
        assert!(std::ptr::eq(
            words,
            supplied.clone().shared_bitmap().unwrap()
        ));
        // Lending the same list again offers the same words.
        assert!(std::ptr::eq(
            words,
            lent.lend(None).shared_bitmap().unwrap()
        ));
        let mut pushed = supplied.clone();
        pushed.push(NodeId::new(500));
        assert_eq!(pushed.shared_bitmap(), None);
        let mut extended = supplied.clone();
        extended.extend(nid(500..502));
        assert_eq!(extended.shared_bitmap(), None);
        assert!(std::ptr::eq(words, supplied.shared_bitmap().unwrap()));
        // No more ids than words: shared, but no bitmap — the last id a
        // word nearer and it has one. Up to four ids the list stays
        // inline.
        let lend = |ids: Vec<NodeId>| LentList::new(ids.clone()).lend(Some(&bitmap_of(&ids)));
        let sparse = lend(nid([1, 2, 3, 4, 5 * 64 - 1]));
        assert!(matches!(sparse.0, Repr::Shared(_)));
        assert_eq!(sparse.shared_bitmap(), None);
        let dense_enough = lend(nid([1, 2, 3, 4, 4 * 64 - 1]));
        assert_eq!(dense_enough.shared_bitmap().map(<[u64]>::len), Some(4));
        let short = lend(nid([1, 2, 3, 300]));
        assert!(matches!(short.0, Repr::Inline { len: 4, .. }));
        assert_eq!(short.shared_bitmap(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exactly the listed ids")]
    fn a_lent_bitmap_must_hold_exactly_the_listed_ids() {
        let _ = LentList::new(nid(0..6)).lend(Some(&[0b1111111]));
    }

    #[test]
    fn a_lent_list_grows_in_place_once_no_payload_holds_it() {
        let mut lent = LentList::new(Vec::with_capacity(16));
        lent.ids_mut().expect("nothing lent yet").extend(nid(0..6));
        let payload = lent.lend(Some(&bitmap_of(&nid(0..6))));
        assert_eq!(payload.as_slice().as_ptr(), lent.ids().as_ptr());
        assert!(lent.ids_mut().is_none(), "a payload holds the list");
        assert_eq!(lent.heap_bytes(), 16 * 4 + 8);
        drop(payload);
        // The holder appends where the payload was, and the bitmap it
        // offered is withdrawn with the first id the payload lacked.
        let before = lent.ids().as_ptr();
        lent.ids_mut()
            .expect("no payload left")
            .push(NodeId::new(6));
        assert_eq!(lent.ids().as_ptr(), before);
        assert_eq!(lent.heap_bytes(), 16 * 4);
        let grown = lent.lend(None);
        assert_eq!(grown.as_slice(), nid(0..7).as_slice());
        assert_eq!(
            grown.shared_bitmap(),
            Some(&[0b111_1111][..]),
            "built on asking"
        );
        let again = lent.lend(Some(&[u64::MAX]));
        assert!(std::ptr::eq(
            grown.shared_bitmap().unwrap(),
            again.shared_bitmap().unwrap()
        ));
        // Handed out as a vector: copied while a payload holds it, moved
        // once none does.
        let copy = lent.clone().into_vec();
        assert_ne!(copy.as_ptr(), lent.ids().as_ptr());
        drop((grown, again));
        let moved = lent.into_vec();
        assert_eq!(moved.as_ptr(), before);
    }

    #[test]
    fn collect_and_extend_size_the_heap_vector_once() {
        let long: PointerList = (0..100).map(NodeId::new).collect();
        match &long.0 {
            Repr::Heap(v) => assert_eq!((v.len(), v.capacity()), (100, 100)),
            _ => panic!("a 100-id collect must land on the heap"),
        }
        let mut list = PointerList::from(nid(0..3));
        list.extend((3..4).map(NodeId::new));
        assert!(matches!(list.0, Repr::Inline { len: 4, .. }));
        list.extend((4..7).map(NodeId::new));
        assert_eq!(list.as_slice(), nid(0..7).as_slice());
        // An iterator with no lower bound still lands correctly.
        let filtered: PointerList = (0..20)
            .map(NodeId::new)
            .filter(|v| v.index() % 2 == 0)
            .collect();
        assert_eq!(filtered.len(), 10);
    }

    #[test]
    fn pointer_list_iterates_by_value_and_by_ref() {
        let list = PointerList::from(nid(0..6));
        let by_ref: Vec<NodeId> = (&list).into_iter().collect();
        assert_eq!(by_ref, nid(0..6));
        let by_val: Vec<NodeId> = list.into_iter().collect();
        assert_eq!(by_val, nid(0..6));
    }

    #[test]
    fn pointer_list_debug_prints_ids() {
        let list = PointerList::from(nid([2]));
        assert_eq!(format!("{list:?}"), "[NodeId(2)]");
    }
}
