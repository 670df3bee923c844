//! Message envelopes, pointer payloads, and cost accounting.

use crate::id::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
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
/// and only spills to a heap slice beyond that, which removes the
/// per-message allocation for bounded-gossip traffic entirely. No list
/// grows after it is built, so the heap arm is a boxed slice, not a
/// vector: the list is 24 bytes, and so is every envelope's share of it.
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
/// offers one ([`AppendList::snapshot`]), else built by the first
/// receiver that asks — shared like the ids, so a receiver can compare a
/// whole payload against what it knows 64 ids per instruction.
///
/// A shared list is a *prefix* of an append-only buffer: its first
/// `len` slots, which never change. [`shared`](Self::shared) fills a
/// buffer of its own; a sender that sends its whole knowledge again and
/// again keeps it in an [`AppendList`] and sends prefixes of that, so a
/// payload is the sender's own buffer, read up to the length it had when
/// it was sent, while the sender appends past it.
///
/// The type behaves like a read-only `Vec<NodeId>`: build it with
/// [`collect`](Iterator::collect), [`shared`](Self::shared), or a
/// `From<Vec<NodeId>>` / `From<&[NodeId]>` conversion, and read it with
/// [`iter`](Self::iter), [`get`](Self::get) and
/// [`contains`](Self::contains). The slots of a shared list are atomic,
/// because its sender may be writing past its end on another thread.
#[derive(Clone)]
pub struct PointerList(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ids: [NodeId; INLINE_POINTERS],
    },
    Heap(Box<[NodeId]>),
    Shared(Arc<Prefix>),
}

/// One shared payload: the first `len` slots of an append-only buffer,
/// in sending order, and — from the sender, or once a receiver has
/// asked — the same ids as a set (`None`: too sparse to have one).
///
/// The slots are relaxed atomics so that the buffer's one writer (an
/// [`AppendList`]) can append past `len` while readers on other threads
/// read up to it, in safe code. Relaxed loads suffice: a payload
/// reaches another thread only through the engines' handoff, which
/// orders every slot written before the send; and the writer never
/// writes a slot below a length it has handed out. On x86 such a load is
/// a plain load.
struct Prefix {
    /// The whole buffer: every slot is initialised, up to its capacity.
    slots: Arc<Vec<AtomicU32>>,
    len: usize,
    bitmap: OnceLock<Option<Box<[u64]>>>,
}

impl Prefix {
    fn new(slots: Arc<Vec<AtomicU32>>, len: usize) -> Arc<Prefix> {
        Arc::new(Prefix {
            slots,
            len,
            bitmap: OnceLock::new(),
        })
    }

    fn ids(&self) -> SharedIds<'_> {
        SharedIds(self.slots[..self.len].iter())
    }
}

/// A buffer of `capacity` slots holding `ids` first.
fn buffer(ids: impl Iterator<Item = AtomicU32>, capacity: usize) -> Arc<Vec<AtomicU32>> {
    let mut slots = Vec::with_capacity(capacity);
    slots.extend(ids);
    slots.resize_with(capacity, || AtomicU32::new(0));
    Arc::new(slots)
}

/// The values of `slots`, as new slots.
fn copied(slots: &[AtomicU32]) -> impl Iterator<Item = AtomicU32> + '_ {
    slots.iter().map(|slot| AtomicU32::new(slot.load(Relaxed)))
}

/// `ids` as slot values.
fn stored(ids: &[NodeId]) -> impl Iterator<Item = AtomicU32> + '_ {
    ids.iter().map(|&id| AtomicU32::new(id.into()))
}

/// The capacity a push at a time grows a list of `capacity` entries to
/// when it must hold `needed`: four (where `Vec` starts for entries of
/// four bytes), doubled until they fit. An [`AppendList`] grows by it,
/// and so does every list and index of a knowledge set.
pub fn doubled_capacity(capacity: usize, needed: usize) -> usize {
    let mut doubled = capacity.max(4);
    while doubled < needed {
        doubled *= 2;
    }
    doubled
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
    /// size the ids live in one reference-counted buffer that every
    /// clone shares.
    pub fn shared(ids: &[NodeId]) -> Self {
        if ids.len() <= INLINE_POINTERS {
            PointerList::from(ids)
        } else {
            let slots = buffer(stored(ids), ids.len());
            PointerList(Repr::Shared(Prefix::new(slots, ids.len())))
        }
    }

    /// The ids of a shared list as a bitmap (id `i` is bit `i % 64` of
    /// word `i / 64`, no trailing empty word). Unless the sender
    /// offered it ([`AppendList::snapshot`]), the first call builds it;
    /// every clone of the list, on any thread, then reads the same
    /// words.
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
            let words = NodeId::bitmap_words(shared.ids());
            NodeId::worth_a_bitmap(shared.len, words)
                .then(|| NodeId::bitmap(shared.ids(), words))
                .filter(|bitmap| popcount(bitmap) == shared.len)
                .map(Vec::into_boxed_slice)
        });
        bitmap.as_deref()
    }

    /// The ids of a shared list, read from its buffer (`None` for a list
    /// that is not shared).
    pub fn shared_ids(&self) -> Option<SharedIds<'_>> {
        match &self.0 {
            Repr::Shared(shared) => Some(shared.ids()),
            _ => None,
        }
    }

    /// Number of identifiers.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
            Repr::Shared(shared) => shared.len,
        }
    }

    /// `true` when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The identifier at `index`, if the list is that long.
    pub fn get(&self, index: usize) -> Option<NodeId> {
        match &self.0 {
            Repr::Inline { len, ids } => ids[..*len as usize].get(index).copied(),
            Repr::Heap(v) => v.get(index).copied(),
            Repr::Shared(shared) => shared.ids().nth(index),
        }
    }

    /// `true` if `id` is listed.
    pub fn contains(&self, id: NodeId) -> bool {
        self.iter().any(|listed| listed == id)
    }

    /// Iterates the identifiers by value.
    pub fn iter(&self) -> Iter<'_> {
        match &self.0 {
            Repr::Inline { len, ids } => Iter::Plain(ids[..*len as usize].iter()),
            Repr::Heap(v) => Iter::Plain(v.iter()),
            Repr::Shared(shared) => Iter::Shared(shared.ids()),
        }
    }

    /// The identifiers, copied into a vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

/// The ids of a shared list, by value: relaxed loads of its slots.
#[derive(Clone)]
pub struct SharedIds<'a>(std::slice::Iter<'a, AtomicU32>);

impl Iterator for SharedIds<'_> {
    type Item = NodeId;
    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(|slot| NodeId::new(slot.load(Relaxed)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }

    fn nth(&mut self, n: usize) -> Option<NodeId> {
        self.0.nth(n).map(|slot| NodeId::new(slot.load(Relaxed)))
    }
}

impl ExactSizeIterator for SharedIds<'_> {}

/// The ids of a [`PointerList`], by value, whatever its representation.
#[derive(Clone)]
pub enum Iter<'a> {
    /// An inline or heap list.
    Plain(std::slice::Iter<'a, NodeId>),
    /// A shared list.
    Shared(SharedIds<'a>),
}

impl Iterator for Iter<'_> {
    type Item = NodeId;
    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            Iter::Plain(ids) => ids.next().copied(),
            Iter::Shared(ids) => ids.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Iter::Plain(ids) => ids.size_hint(),
            Iter::Shared(ids) => ids.size_hint(),
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl Default for PointerList {
    fn default() -> Self {
        PointerList::new()
    }
}

impl fmt::Debug for PointerList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for PointerList {
    fn eq(&self, other: &Self) -> bool {
        // Representation (inline, heap or shared) is invisible to
        // equality.
        self.len() == other.len() && self.iter().eq(other.iter())
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
            PointerList(Repr::Heap(ids.into()))
        }
    }
}

impl From<Vec<NodeId>> for PointerList {
    fn from(ids: Vec<NodeId>) -> Self {
        if ids.len() <= INLINE_POINTERS {
            PointerList::from(ids.as_slice())
        } else {
            PointerList(Repr::Heap(ids.into_boxed_slice()))
        }
    }
}

impl FromIterator<NodeId> for PointerList {
    /// Collects into one vector and boxes it once; up to four ids stay
    /// inline.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        PointerList::from(iter.into_iter().collect::<Vec<_>>())
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
        let id = self.list.get(self.pos)?;
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
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl MessageCost for PointerList {
    fn pointers(&self) -> usize {
        self.len()
    }

    fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
        self.iter().for_each(visit);
    }
}

/// A list of distinct ids that its one holder appends to and sends
/// prefixes of as [shared](PointerList::shared) payloads without copying
/// it: one buffer of atomic slots that every payload sent from it reads
/// up to its own length, while the holder appends past the longest.
/// Only a full buffer grows, to twice the capacity: in place while no
/// payload reads it, else by a copy, and the payloads that hold the old
/// one keep it alive until they are dropped.
///
/// Sending again after nothing was appended is a clone of the handle on
/// the last payload; after an append, the holder offers its bitmap of
/// the grown list anew. A clone copies the ids into a buffer of its own,
/// so that every buffer has one writer.
///
/// A knowledge set keeps its learning-order list in one of these once it
/// has sent it as a snapshot.
pub struct AppendList {
    /// The prefix last sent, or — after the buffer was copied to grow —
    /// the new buffer's prefix of as many ids; its slots are the buffer
    /// this list appends to, and it is never longer than the list.
    last: Arc<Prefix>,
    len: usize,
}

impl AppendList {
    /// A list of `ids`, which must be distinct, in a buffer of the
    /// vector's capacity.
    pub fn from_vec(ids: Vec<NodeId>) -> Self {
        let capacity = ids.capacity().max(ids.len());
        AppendList {
            last: Prefix::new(buffer(stored(&ids), capacity), ids.len()),
            len: ids.len(),
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots in the buffer.
    pub fn capacity(&self) -> usize {
        self.last.slots.len()
    }

    /// The id at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`len`](Self::len).
    pub fn get(&self, index: usize) -> NodeId {
        NodeId::new(self.last.slots[..self.len][index].load(Relaxed))
    }

    /// The ids, in the order they were appended.
    pub fn iter(&self) -> SharedIds<'_> {
        SharedIds(self.last.slots[..self.len].iter())
    }

    /// The ids, copied into a vector of the buffer's capacity.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(self.capacity());
        ids.extend(self.iter());
        ids
    }

    /// Room for `additional` more ids, grown as a push at a time grows a
    /// vector ([`doubled_capacity`]). A buffer no payload reads any
    /// more grows as a vector does, in place where the allocator can; one
    /// that a payload still reads is copied into a new buffer, and the
    /// payloads keep the old one. (Copying every time read ~10 % slower
    /// on Name-Dropper, whose sets mostly grow while nothing holds them.)
    /// Either way the bitmap offered with the last snapshot is no longer
    /// the list's to count.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.len + additional;
        if needed <= self.capacity() {
            return;
        }
        let capacity = doubled_capacity(self.capacity(), needed);
        if let Some(last) = Arc::get_mut(&mut self.last) {
            if let Some(slots) = Arc::get_mut(&mut last.slots) {
                last.bitmap.take();
                slots.reserve_exact(capacity - slots.len());
                slots.resize_with(capacity, || AtomicU32::new(0));
                return;
            }
        }
        let slots = buffer(copied(&self.last.slots[..self.len]), capacity);
        self.last = Prefix::new(slots, self.len);
    }

    /// Appends `id`, which the list must not hold.
    pub fn push(&mut self, id: NodeId) {
        self.grow(1).set(0, id);
    }

    /// Appends `ids`, none of which the list may hold.
    pub fn extend_from_slice(&mut self, ids: &[NodeId]) {
        let tail = self.grow(ids.len());
        for (i, &id) in ids.iter().enumerate() {
            tail.set(i, id);
        }
    }

    /// Lengthens the list by `n` ids and hands out their slots, which
    /// the caller must [set](Tail::set) before anything reads the list
    /// (until then they read as id 0). The buffer grows as
    /// [`reserve`](Self::reserve) grows it.
    pub fn grow(&mut self, n: usize) -> Tail<'_> {
        self.reserve(n);
        let start = self.len;
        self.len += n;
        Tail(&self.last.slots[start..self.len])
    }

    /// The list as a payload: a prefix of the buffer, shared with this
    /// list (or inline, up to four ids, as [`shared`](PointerList::shared)
    /// keeps them). What it holds never changes, however far the list
    /// grows. `bitmap` — the holder's own set of exactly these ids, id
    /// `i` bit `i % 64` of word `i / 64`, any number of trailing empty
    /// words — is offered to receivers as the payload's
    /// [`shared_bitmap`](PointerList::shared_bitmap) unless one is on
    /// offer already: trimmed and copied, once per length of the list.
    /// With `None` the first receiver that asks builds it. That the ids
    /// are distinct and the bitmap theirs is a precondition receivers
    /// rely on, checked only in debug builds.
    pub fn snapshot(&mut self, bitmap: Option<&[u64]>) -> PointerList {
        if self.last.len != self.len {
            self.last = Prefix::new(Arc::clone(&self.last.slots), self.len);
        }
        let last = &self.last;
        if let Some(bitmap) = bitmap {
            last.bitmap.get_or_init(|| {
                debug_assert_eq!(
                    popcount(bitmap),
                    last.len,
                    "the bitmap holds exactly the listed ids"
                );
                debug_assert!(last
                    .ids()
                    .all(|id| bitmap[id.index() / 64] >> (id.index() % 64) & 1 == 1));
                let words = bitmap.iter().rposition(|&w| w != 0).map_or(0, |w| w + 1);
                NodeId::worth_a_bitmap(last.len, words).then(|| bitmap[..words].into())
            });
        }
        if self.len <= INLINE_POINTERS {
            let mut ids = [NodeId::new(0); INLINE_POINTERS];
            ids.iter_mut()
                .zip(self.iter())
                .for_each(|(slot, id)| *slot = id);
            PointerList::from(&ids[..self.len])
        } else {
            PointerList(Repr::Shared(Arc::clone(last)))
        }
    }

    /// Heap bytes of the buffer and of the bitmap on offer (capacities).
    pub fn heap_bytes(&self) -> usize {
        let offered = self.last.bitmap.get().and_then(Option::as_ref);
        self.capacity() * std::mem::size_of::<AtomicU32>()
            + offered.map_or(0, |words| words.len() * std::mem::size_of::<u64>())
    }
}

impl Clone for AppendList {
    fn clone(&self) -> Self {
        AppendList {
            last: Prefix::new(
                buffer(copied(&self.last.slots[..self.len]), self.capacity()),
                self.len,
            ),
            len: self.len,
        }
    }
}

impl fmt::Debug for AppendList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The slots [`AppendList::grow`] appended, to be filled.
pub struct Tail<'a>(&'a [AtomicU32]);

impl Tail<'_> {
    /// Stores `id` in slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the number of slots appended.
    #[inline]
    pub fn set(&self, i: usize, id: NodeId) {
        self.0[i].store(id.into(), Relaxed);
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
        assert!(PointerList::new().is_empty());
        let list: PointerList = (0..4).map(NodeId::new).collect();
        assert!(matches!(list.0, Repr::Inline { len: 4, .. }));
        assert_eq!(list.to_vec(), nid(0..4));
        let list: PointerList = (0..5).map(NodeId::new).collect();
        assert!(matches!(list.0, Repr::Heap(_)));
        assert_eq!(list.to_vec(), nid(0..5));
        assert_eq!(list.pointers(), 5);
    }

    #[test]
    fn a_pointer_list_is_three_words() {
        assert_eq!(std::mem::size_of::<PointerList>(), 24);
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
        let heap = PointerList(Repr::Heap(nid(0..3).into()));
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
        assert_eq!(buffer_of(&copy), buffer_of(&shared));
        let heap_ptr = |list: &PointerList| match &list.0 {
            Repr::Heap(ids) => ids.as_ptr(),
            _ => panic!("not a heap list"),
        };
        assert_ne!(heap_ptr(&heap.clone()), heap_ptr(&heap));
        assert_eq!(copy.into_iter().collect::<Vec<_>>(), nid(0..9));
        // Short lists stay inline.
        assert!(matches!(
            PointerList::shared(&nid(0..4)).0,
            Repr::Inline { len: 4, .. }
        ));
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
        // no more ids than bitmap words.
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
    }

    /// A sender's own bitmap, eight words whatever the ids need.
    fn bitmap_of(ids: &[NodeId]) -> Vec<u64> {
        let mut words = vec![0u64; 8];
        for id in ids {
            words[id.index() / 64] |= 1 << (id.index() % 64);
        }
        words
    }

    /// The buffer a shared list reads from.
    fn buffer_of(list: &PointerList) -> *const AtomicU32 {
        match &list.0 {
            Repr::Shared(shared) => shared.slots.as_ptr(),
            _ => panic!("not shared"),
        }
    }

    #[test]
    fn an_offered_bitmap_is_the_one_a_receiver_would_have_built() {
        let ids = nid([3, 130, 64, 7, 129]);
        let mut sender = bitmap_of(&ids);
        let mut list = AppendList::from_vec(ids.clone());
        let supplied = list.snapshot(Some(&sender));
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
        // Sending the same list again offers the same words.
        assert!(std::ptr::eq(
            words,
            list.snapshot(None).shared_bitmap().unwrap()
        ));
        // No more ids than words: shared, but no bitmap — the last id a
        // word nearer and it has one. Up to four ids the list stays
        // inline.
        let send =
            |ids: Vec<NodeId>| AppendList::from_vec(ids.clone()).snapshot(Some(&bitmap_of(&ids)));
        let sparse = send(nid([1, 2, 3, 4, 5 * 64 - 1]));
        assert!(matches!(sparse.0, Repr::Shared(_)));
        assert_eq!(sparse.shared_bitmap(), None);
        let dense_enough = send(nid([1, 2, 3, 4, 4 * 64 - 1]));
        assert_eq!(dense_enough.shared_bitmap().map(<[u64]>::len), Some(4));
        let short = send(nid([1, 2, 3, 300]));
        assert!(matches!(short.0, Repr::Inline { len: 4, .. }));
        assert_eq!(short.shared_bitmap(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exactly the listed ids")]
    fn an_offered_bitmap_must_hold_exactly_the_listed_ids() {
        let _ = AppendList::from_vec(nid(0..6)).snapshot(Some(&[0b1111111]));
    }

    #[test]
    fn an_append_list_grows_in_place_past_the_prefixes_it_sent() {
        let mut list = AppendList::from_vec(Vec::with_capacity(16));
        list.extend_from_slice(&nid(0..6));
        let payload = list.snapshot(Some(&bitmap_of(&nid(0..6))));
        assert_eq!(list.heap_bytes(), 16 * 4 + 8);
        // The list appends in place while the payload holds it, and the
        // payload still reads the six ids it was sent with.
        let buffer = buffer_of(&payload);
        list.push(NodeId::new(6));
        assert_eq!(payload.to_vec(), nid(0..6));
        assert_eq!(payload.shared_bitmap(), Some(&[0b11_1111][..]));
        let grown = list.snapshot(None);
        assert_eq!(buffer_of(&grown), buffer);
        assert_eq!(grown.to_vec(), nid(0..7));
        assert_eq!(list.heap_bytes(), 16 * 4, "nothing offered for seven");
        assert_eq!(
            grown.shared_bitmap(),
            Some(&[0b111_1111][..]),
            "built on asking"
        );
        assert_eq!(list.heap_bytes(), 16 * 4 + 8, "and held with the list");
        let again = list.snapshot(Some(&[u64::MAX]));
        assert!(std::ptr::eq(
            grown.shared_bitmap().unwrap(),
            again.shared_bitmap().unwrap()
        ));
        // Full, the list copies itself into twice the room; the payloads
        // keep the buffer they were sent in.
        list.extend_from_slice(&nid(7..17));
        assert_eq!(list.capacity(), 32);
        assert_eq!(list.len(), 17);
        let moved = list.snapshot(None);
        assert_ne!(buffer_of(&moved), buffer);
        assert_eq!(moved.to_vec(), nid(0..17));
        assert_eq!((payload.len(), grown.len()), (6, 7));
        assert_eq!(grown.to_vec(), nid(0..7));
        // With no payload left to read it, a full buffer grows in place.
        drop((payload, grown, again, moved));
        list.extend_from_slice(&nid(17..32));
        let before = Arc::as_ptr(&list.last.slots);
        list.push(NodeId::new(32));
        assert_eq!(Arc::as_ptr(&list.last.slots), before);
        assert_eq!(
            (list.capacity(), list.snapshot(None).to_vec()),
            (64, nid(0..33))
        );
        // A clone copies: each buffer has one writer.
        let mut list = AppendList::from_vec(nid(0..17));
        let sent = list.snapshot(None);
        let mut copy = list.clone();
        copy.push(NodeId::new(99));
        list.push(NodeId::new(17));
        assert_eq!(copy.snapshot(None).to_vec()[17], NodeId::new(99));
        assert_eq!(list.snapshot(None).to_vec(), nid(0..18));
        assert_eq!(sent.to_vec(), nid(0..17));
        assert_eq!(list.get(17), NodeId::new(17));
    }

    #[test]
    fn collect_boxes_one_slice_of_the_listed_ids() {
        let long: PointerList = (0..100).map(NodeId::new).collect();
        match &long.0 {
            Repr::Heap(ids) => assert_eq!(ids.len(), 100),
            _ => panic!("a 100-id collect must land on the heap"),
        }
        // An iterator with no lower bound still lands correctly, inline
        // or on the heap.
        let even = |upto: u32| -> PointerList {
            (0..upto)
                .map(NodeId::new)
                .filter(|v| v.index() % 2 == 0)
                .collect()
        };
        assert!(matches!(even(8).0, Repr::Inline { len: 4, .. }));
        assert_eq!(even(20).len(), 10);
        assert_eq!(even(20).to_vec(), nid((0..20).step_by(2)));
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
