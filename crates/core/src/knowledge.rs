//! The per-node knowledge set.

use rand::Rng;
use rd_sim::message::{doubled_capacity, Iter, Slot, Tail};
use rd_sim::{AppendList, NodeId, PointerList};

/// The set of identifiers a node has learned, with freshness tracking.
///
/// Resource-discovery protocols constantly ask three things of their
/// knowledge state: *do I know this id?* (fast), *give me everything I
/// learned since I last forwarded* (the fresh window, drained by
/// [`take_fresh`](Self::take_fresh)), and *pick a uniformly random known
/// id* (Name-Dropper's only primitive). `KnowledgeSet` serves all three.
///
/// Internally a set of up to seven ids keeps them **in place**, in
/// learning order, and answers membership by a scan: no heap at all, and
/// most sets of a large run (an HM node's `members` and `seen`, and its
/// `knowledge` early on) never learn more. Past that, every set keeps
/// one append-only **learning-order list** for O(1) random sampling,
/// and membership is one of three tiers, picked by size and density:
///
/// | ids held | tier | membership | bytes beyond the list |
/// |---|---|---|---|
/// | 1–7 | small | scan of the ids in place | none (no list either) |
/// | 8–32, sparse | list-only | branch-free scan of the list | none |
/// | 33–512, sparse | sorted | binary search of a sorted index | 4 per id |
/// | dense, or > 512 | bitmap | one bit test | `max_id / 8` |
///
/// A set is *dense* once it holds more ids than its bitmap would have
/// words ([`NodeId::worth_a_bitmap`], the rule a shared payload offers
/// its bitmap by); a sparse set of more than 512 ids is a bitmap too.
/// The hybrid matters at scale: a bitmap alone costs `max_id / 8` bytes
/// *per set*, which sums to Θ(n²) bytes across a million singleton
/// clusters — the list-only and sorted tiers keep per-set memory
/// proportional to what the set actually holds, while dense sets (ids
/// from a narrow range, merged clusters, full rosters) get O(1) bitmap
/// lookups, and a first-heard id costs a bit, not a sorted insert. At the
/// switch the bitmap takes at most twice the bytes of the entries it
/// replaces. Up to 32 ids a scan of the list costs about what a binary
/// search of an index costs, so the index is built only for the 33rd
/// id, once, and most sets of a leader-knows-all run never need one. A
/// set that leaves its place starts the list where pushing one id at a
/// time would have it (8 ids, room for 8), and the index, when it comes,
/// with the room pushing would have left (room for 64), so both grow 16,
/// 32, … as before. This is a set *representation* choice only —
/// protocols still treat identifiers as opaque and learn them
/// exclusively through messages.
///
/// Freshness is **one window over that list**, not a second queue: a
/// cursor marks how far [`take_fresh`](Self::take_fresh) has read, so
/// every id is stored once, an insert is one push, and a set that is
/// never drained holds nothing extra. [`new`](Self::new) and
/// [`FromIterator`] leave the window empty (construction ids are not
/// news); every later insert lands in it. [`mark`](Self::mark) /
/// [`since`](Self::since) read the same list through caller-held
/// positions and never move the cursor, so both styles can share a set.
///
/// A broadcast payload is **adopted, not copied**: [`adopt`](Self::adopt)
/// of a [shared](PointerList::shared) list counts what it teaches 64 ids
/// per instruction, keeps a clone of the handle and writes nothing per
/// id. Membership questions (`contains`, `covers`, `len`, `max_id`,
/// `has_fresh`, `mark`) see through the adopted payload by its bitmap;
/// whatever reads or grows the learning-order list (`list`, `iter`,
/// `since`, `take_fresh`, `sample_other`, anything that brings a new
/// id) first *settles* — leaves what
/// [`extend_from_slice`](Self::extend_from_slice) would have left on
/// arrival — which is why those take `&mut self`. No observer can tell
/// an adopting set from one that merged eagerly. Settling is cheaper
/// than that merge, though, because the payload brought its bitmap:
/// learning order is one pass over the payload's ids against a mask
/// that stays put, and membership is updated by words, not ids. Both
/// lean on a payload with a bitmap listing each id once, which is
/// [`shared_bitmap`](PointerList::shared_bitmap)'s rule: a list that
/// repeats an id has none and is merged on the spot. The sending side
/// of the same bargain is [`snapshot`](Self::snapshot): a set's whole
/// knowledge as one shared payload that brings the set's own bitmap.
/// The payload is a **prefix of the set's own learning-order list**,
/// not a copy: once it has sent a snapshot, a set keeps its list in one
/// append-only buffer ([`AppendList`]), every payload reads that buffer
/// up to the length it was sent at, and the set appends past them all.
/// A set that sends everything it knows every round holds it in one
/// buffer, which grows to twice the room only when full; a round
/// that taught it nothing sends it for a reference-count bump. That
/// buffer's slots are two bytes while every id it holds fits in 16 bits
/// (any run of up to 65 536 nodes) and four from the first that does
/// not, so a set that sends snapshots keeps its order in half the bytes
/// of a vector. A set
/// that is never asked for a snapshot keeps its list a plain vector in
/// the same 24 bytes, and only such a list is handed out as a slice
/// (`list`, `iter`, `since`, `take_fresh`): a shared list asked for one
/// is copied back into a vector, and [`skip_fresh`](Self::skip_fresh)
/// closes the fresh window without asking.
///
/// # Example
///
/// ```
/// use rd_core::KnowledgeSet;
/// use rd_sim::NodeId;
///
/// let mut k = KnowledgeSet::new(NodeId::new(3));
/// assert!(k.contains(NodeId::new(3)));
/// k.insert(NodeId::new(7));
/// k.insert(NodeId::new(7)); // duplicate: no effect
/// assert_eq!(k.len(), 2);
/// assert_eq!(k.take_fresh(), [NodeId::new(7)]); // self is not "fresh"
/// assert!(k.take_fresh().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct KnowledgeSet {
    state: State,
    /// Every known id of the settled tier, in learning order — empty
    /// while the tier is small, which keeps its ids in order itself.
    list: List,
    /// `list[drained..]` is the fresh window.
    drained: usize,
}

/// What answers membership questions: the set's own tier, or that tier
/// looked at through an adopted payload. A variant, not a field: HM
/// holds four sets per node, almost none of them ever adopts anything,
/// and this way the ones that do not are byte for byte what they were.
#[derive(Debug, Clone)]
enum State {
    Settled(Membership),
    Adopting(Box<Adopting>),
}

/// A shared payload a set holds by reference until something asks for
/// learning order.
#[derive(Debug, Clone)]
struct Adopting {
    /// Membership of the ids in `list`.
    settled: Membership,
    payload: PointerList,
    /// Ids of `payload` that `settled` lacks (> 0).
    new: usize,
}

/// The learning-order list: the set's own vector until a
/// [`snapshot`](KnowledgeSet::snapshot) sends it, then an
/// [`AppendList`] — one buffer that every payload sent from it reads up
/// to the length it was sent at, while the set appends past them all,
/// in 16-bit slots while every id fits. Only a full buffer grows, to
/// twice the room. Either way the 24 bytes of a vector hold it, so a
/// set is no larger for sending. The methods that run once per id of a
/// shared list match its slot width once per call, never per id.
#[derive(Debug, Clone)]
enum List {
    Owned(Vec<NodeId>),
    Shared(AppendList),
}

impl Default for List {
    fn default() -> Self {
        List::Owned(Vec::new())
    }
}

impl List {
    fn len(&self) -> usize {
        match self {
            List::Owned(ids) => ids.len(),
            List::Shared(ids) => ids.len(),
        }
    }

    fn get(&self, index: usize) -> NodeId {
        match self {
            List::Owned(ids) => ids[index],
            List::Shared(ids) => ids.get(index),
        }
    }

    fn iter(&self) -> Iter<'_> {
        match self {
            List::Owned(ids) => Iter::Plain(ids.iter()),
            List::Shared(ids) => ids.iter(),
        }
    }

    /// `true` if `id` is listed, by [`scan`]: the list-only tier's
    /// membership. A shared list's slot width is matched once, by its
    /// iterator's `fold`.
    #[inline]
    fn scan(&self, id: NodeId) -> bool {
        match self {
            List::Owned(ids) => scan(ids, id),
            List::Shared(ids) => ids
                .iter()
                .fold(false, |found, listed| found | (listed == id)),
        }
    }

    fn to_vec(&self) -> Vec<NodeId> {
        match self {
            List::Owned(ids) => ids.clone(),
            List::Shared(ids) => ids.iter().collect(),
        }
    }

    /// The list as a slice. A shared list is copied back into a vector
    /// of the set's own (of the same capacity) first, and the next
    /// snapshot copies it into a new shared buffer: two whole copies for
    /// a set that both sends and asks, every round. Its slots are
    /// atomic, so there is no slice to lend; the protocols that send
    /// snapshots never ask for one, and read with
    /// [`iter`](KnowledgeSet::iter) and
    /// [`skip_fresh`](KnowledgeSet::skip_fresh), which keep sharing.
    fn as_slice(&mut self) -> &[NodeId] {
        if let List::Shared(shared) = self {
            *self = List::Owned(shared.to_vec());
        }
        match self {
            List::Owned(ids) => ids,
            List::Shared(_) => unreachable!("copied above"),
        }
    }

    fn push(&mut self, id: NodeId) {
        match self {
            List::Owned(ids) => ids.push(id),
            List::Shared(ids) => ids.push(id),
        }
    }

    fn extend_from_slice(&mut self, ids: &[NodeId]) {
        match self {
            List::Owned(list) => list.extend_from_slice(ids),
            List::Shared(list) => list.extend_from_slice(ids),
        }
    }

    /// Room for `additional` more ids, none of them above `top`, by
    /// doubling, as [`reserve_doubling`] grows a vector.
    fn reserve_doubling(&mut self, additional: usize, top: NodeId) {
        match self {
            List::Owned(ids) => reserve_doubling(ids, additional),
            List::Shared(ids) => ids.reserve(additional, top),
        }
    }

    /// Appends the `new` ids of `ids`, none of them above `top`, that
    /// `is_new` picks out ([`pick_new`]). The list's slot width is
    /// matched here, once, and the payload's in `pick_new`.
    fn append_new(
        &mut self,
        ids: Iter<'_>,
        top: NodeId,
        new: usize,
        is_new: impl Fn(usize, u64) -> bool,
    ) {
        match self {
            List::Owned(list) => {
                let before = list.len();
                list.resize(before + new, NodeId::new(0));
                let tail = &mut list[before..];
                pick_new(ids, new, is_new, |i, id| tail[i] = id);
            }
            List::Shared(list) => match list.grow(new, top) {
                Tail::Narrow(tail) => pick_new(ids, new, is_new, |i, id| tail[i].set(id)),
                Tail::Wide(tail) => pick_new(ids, new, is_new, |i, id| tail[i].set(id)),
            },
        }
    }

    /// Heap bytes of the list (capacities): one buffer, shared or not,
    /// and the bitmap a shared one offers.
    fn heap_bytes(&self) -> usize {
        match self {
            List::Owned(ids) => ids.capacity() * std::mem::size_of::<NodeId>(),
            List::Shared(ids) => ids.heap_bytes(),
        }
    }

    /// The list as a payload, offering `bitmap`; an owned list is
    /// shared from now on.
    fn snapshot(&mut self, bitmap: Option<&[u64]>) -> PointerList {
        if let List::Owned(ids) = self {
            *self = List::Shared(AppendList::from_vec(std::mem::take(ids)));
        }
        match self {
            List::Shared(ids) => ids.snapshot(bitmap),
            List::Owned(_) => unreachable!("shared above"),
        }
    }
}

impl Default for State {
    fn default() -> Self {
        State::Settled(Membership::default())
    }
}

/// Ids a set holds in place before it needs the heap: as many as fit,
/// with their count, beside the tier's tag in the bytes a heap tier's
/// vector takes, so a set is no larger for having them.
const SMALL: usize = 7;

/// The list-only tier's cap: a set the tier rule keeps sorted holds no
/// index while it has no more ids than this, and answers membership by
/// a [`scan`] of its list. Up to here a scan costs about what a binary
/// search of an index costs (random probes, half of them hits, over 32k
/// sets of random ids on an x86-64 VM: 41 ns against 31–35 at 8–16
/// ids, 53 against 45 at 17–32), while the index costs 4 bytes an id
/// and a sorted insert for every id learned; past it the search wins.
const LISTED_MAX: usize = 32;

/// The sorted tier's cap: however wide its id range, a set of more ids
/// than this is a bitmap, whose `max_id / 8` bytes are then amortised
/// over enough members to be worth paying. Below it density decides
/// ([`stays_sorted`]); the sorted entries of a set never pass 2 KiB.
const SPARSE_MAX: usize = 512;

/// `true` if `id` is among `ids`: a compare per id, ORed together, with
/// no early exit. Whether and where a few dozen ids hold a match is as
/// good as random, so a loop that stops at the match mispredicts its
/// exit; this one has no branch but the loop's and vectorises. (In the
/// benchmark of [`LISTED_MAX`], `iter().any` read 54 and 88 ns where
/// this reads 41 and 53.)
#[inline]
fn scan(ids: &[NodeId], id: NodeId) -> bool {
    ids.iter()
        .fold(false, |found, &listed| found | (listed == id))
}

/// The capacity pushing `len` entries one at a time leaves a vector
/// with.
fn push_capacity(len: usize) -> usize {
    doubled_capacity(0, len)
}

/// The tier rule: `ids` ids whose bitmap would have `words` words keep
/// sorted entries unless that bitmap is
/// [worth having](NodeId::worth_a_bitmap) or they are more than
/// [`SPARSE_MAX`].
fn stays_sorted(ids: usize, words: usize) -> bool {
    ids <= SPARSE_MAX && !NodeId::worth_a_bitmap(ids, words)
}

/// Words in a bitmap whose highest id is `top`.
fn words_to(top: u32) -> usize {
    top as usize / 64 + 1
}

/// Adds `raw` to sorted entries; `true` if it was not among them.
fn insert_sorted(sorted: &mut Vec<u32>, raw: u32) -> bool {
    match sorted.binary_search(&raw) {
        Ok(_) => false,
        Err(pos) => {
            sorted.insert(pos, raw);
            true
        }
    }
}

#[derive(Debug, Clone)]
enum Membership {
    /// Up to [`SMALL`] ids in place, in learning order — the tier of a
    /// set that has learned almost nothing. The set's list is empty.
    Small { len: u8, ids: [NodeId; SMALL] },
    /// No index: the set's list, of at most [`LISTED_MAX`] ids, is
    /// scanned — the list-only tier. `top` is the largest listed id,
    /// which the tier rule reads.
    Listed { top: u32 },
    /// Sorted raw indices of more than [`LISTED_MAX`] ids — the sorted
    /// tier.
    Sparse(Vec<u32>),
    /// Bitmap over raw indices — the dense tier.
    Dense(Vec<u64>),
}

impl Default for Membership {
    fn default() -> Self {
        Membership::Small {
            len: 0,
            ids: [NodeId::new(0); SMALL],
        }
    }
}

fn word_bit(index: usize) -> (usize, u64) {
    (index / 64, 1u64 << (index % 64))
}

/// Word `w` of a bitmap that may end before it.
fn word_at(bits: &[u64], w: usize) -> u64 {
    bits.get(w).copied().unwrap_or(0)
}

/// The highest id set in a bitmap.
fn top_bit(bits: &[u64]) -> Option<u32> {
    let w = bits.iter().rposition(|&word| word != 0)?;
    Some((w * 64) as u32 + 63 - bits[w].leading_zeros())
}

/// Stores, in payload order, the `new` ids of `ids` that `is_new` picks
/// out by word and bit at places `0..new` of a list's tail, and reads no
/// further. Every id is stored where the next new one belongs and only a
/// new one moves that place on: which ids are new is as good as random,
/// and a branch on it costs more than the store. The payload's slot
/// width is matched once, not per id.
fn pick_new(
    ids: Iter<'_>,
    new: usize,
    is_new: impl Fn(usize, u64) -> bool,
    store: impl FnMut(usize, NodeId),
) {
    match ids {
        Iter::Plain(ids) => pick_from(ids.copied(), new, is_new, store),
        Iter::Narrow(slots) => pick_from(slots.map(Slot::id), new, is_new, store),
        Iter::Wide(slots) => pick_from(slots.map(Slot::id), new, is_new, store),
    }
}

/// [`pick_new`] on ids of one representation.
#[inline]
fn pick_from(
    ids: impl Iterator<Item = NodeId>,
    new: usize,
    is_new: impl Fn(usize, u64) -> bool,
    mut store: impl FnMut(usize, NodeId),
) {
    let mut appended = 0;
    for id in ids {
        if appended == new {
            break;
        }
        store(appended, id);
        let (w, b) = word_bit(id.index());
        appended += usize::from(is_new(w, b));
    }
    debug_assert_eq!(appended, new, "counted at adoption");
}

/// Sets the bit of every id of `ids` whose bit is clear in `bits` and
/// hands that id to `push`, in order.
#[inline]
fn test_and_set(bits: &mut [u64], ids: impl Iterator<Item = NodeId>, mut push: impl FnMut(NodeId)) {
    for id in ids {
        let (w, b) = word_bit(id.index());
        if bits[w] & b == 0 {
            bits[w] |= b;
            push(id);
        }
    }
}

/// Room for `additional` more entries, grown as a push at a time grows
/// a vector: by doubling. Sets used to learn a payload id by id, and
/// keep the capacities that gave them, so
/// [`resident_bytes`](KnowledgeSet::resident_bytes) does not move — one
/// bulk `reserve` lands between the doublings, and the next one then
/// overshoots a universe the doubled list would have fitted exactly.
fn reserve_doubling<T>(entries: &mut Vec<T>, additional: usize) {
    let needed = entries.len() + additional;
    if needed > entries.capacity() {
        let capacity = doubled_capacity(entries.capacity(), needed);
        entries.reserve_exact(capacity - entries.len());
    }
}

/// Merges the set bits of `unknown` — `new` ids, none of them among
/// `sorted` — into `sorted`, in place. The entries the mask reaches
/// join it and are read back with the new ids among them, ascending
/// for free; the entries past it only move up.
fn merge_sorted(sorted: &mut Vec<u32>, unknown: &mut [u64], new: usize) {
    let reach = sorted.partition_point(|&raw| (raw as usize) < unknown.len() * 64);
    for &raw in &sorted[..reach] {
        let (w, b) = word_bit(raw as usize);
        unknown[w] |= b;
    }
    let old = sorted.len();
    reserve_doubling(sorted, new);
    sorted.resize(old + new, 0);
    sorted.copy_within(reach..old, reach + new);
    let mut at = 0;
    for (w, &word) in unknown.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            sorted[at] = (w * 64) as u32 + word.trailing_zeros();
            at += 1;
            word &= word - 1;
        }
    }
    debug_assert_eq!(at, reach + new, "counted at adoption");
}

impl Membership {
    /// The tier the distinct ids of a small set land on when it leaves
    /// its place for `list`, which holds them: the list alone, or the
    /// bitmap where the tier rule says so.
    fn of(list: &List) -> Membership {
        debug_assert!(list.len() <= LISTED_MAX);
        let top = list.iter().map(u32::from).max().unwrap_or(0);
        let mut tier = Membership::Listed { top };
        if !tier.stays_sorted_merging(list.len(), 0, 0) {
            tier.spill(list);
        }
        tier
    }

    /// The sorted index of a list-only set's `list`, built once, when
    /// the list outgrows [`LISTED_MAX`], with the room pushing its ids
    /// one at a time would have left.
    fn index(list: &List) -> Membership {
        let mut sorted = Vec::with_capacity(push_capacity(list.len()));
        sorted.extend(list.iter().map(u32::from));
        sorted.sort_unstable();
        Membership::Sparse(sorted)
    }

    /// The tier rule for a merge of `ids` ids whose bitmap has `words`
    /// words into this tier, which holds `held` ids, read once up front
    /// on the merged length bound and the larger word count. A bulk
    /// merge, a settle and an insert (of no ids, after the fact) all ask
    /// it, so the three land on the same tier. `false` for the bitmap,
    /// which never leaves it.
    fn stays_sorted_merging(&self, held: usize, ids: usize, words: usize) -> bool {
        let top = match self {
            Membership::Listed { top } => *top,
            Membership::Sparse(sorted) => sorted.last().copied().unwrap_or(0),
            Membership::Small { .. } | Membership::Dense(_) => return false,
        };
        stays_sorted(held + ids, words.max(words_to(top)))
    }

    /// Moves a list-only tier whose `list` has grown past
    /// [`LISTED_MAX`] onto the sorted index.
    fn index_past_the_cap(&mut self, list: &List) {
        if matches!(self, Membership::Listed { .. }) && list.len() > LISTED_MAX {
            *self = Membership::index(list);
        }
    }

    /// `true` if `id` is in the tier; `list` is the set's.
    #[inline]
    fn contains(&self, list: &List, id: NodeId) -> bool {
        match self {
            Membership::Small { len, ids } => ids[..*len as usize].contains(&id),
            Membership::Listed { .. } => list.scan(id),
            Membership::Sparse(sorted) => sorted.binary_search(&(id.index() as u32)).is_ok(),
            Membership::Dense(bits) => {
                let (w, b) = word_bit(id.index());
                bits.get(w).is_some_and(|word| word & b != 0)
            }
        }
    }

    /// The raw ids of a tier that lists them — the small tier's and the
    /// list-only tier's (`list`, the set's) in learning order, the sorted
    /// tier's ascending; none of the bitmap's.
    fn listed<'a>(&'a self, list: &'a List) -> impl Iterator<Item = u32> + 'a {
        let (small, order, sorted): (&[NodeId], Option<Iter<'a>>, &[u32]) = match self {
            Membership::Small { len, ids } => (&ids[..*len as usize], None, &[]),
            Membership::Listed { .. } => (&[], Some(list.iter()), &[]),
            Membership::Sparse(sorted) => (&[], None, sorted),
            Membership::Dense(_) => (&[], None, &[]),
        };
        small
            .iter()
            .copied()
            .chain(order.into_iter().flatten())
            .map(u32::from)
            .chain(sorted.iter().copied())
    }

    /// The highest id of the tier.
    fn top(&self) -> Option<u32> {
        match self {
            Membership::Small { len, ids } => {
                ids[..*len as usize].iter().map(|&id| u32::from(id)).max()
            }
            Membership::Listed { top } => Some(*top),
            Membership::Sparse(sorted) => sorted.last().copied(),
            Membership::Dense(bits) => top_bit(bits),
        }
    }

    /// `true` if every id whose bit is set in `word`, word `w` of a
    /// mask, is in this tier (of a set whose list is `list`) or in the
    /// bitmap `adopted`.
    #[inline]
    fn covers_word(&self, list: &List, adopted: &[u64], w: usize, word: u64) -> bool {
        let mut missing = word & !word_at(adopted, w);
        if let Membership::Dense(bits) = self {
            return missing & !word_at(bits, w) == 0;
        }
        while missing != 0 {
            let raw = (w * 64) as u32 + missing.trailing_zeros();
            if !self.contains(list, NodeId::new(raw)) {
                return false;
            }
            missing &= missing - 1;
        }
        true
    }

    /// Converts the tier (of a set whose list is `list`) to the bitmap
    /// (a bitmap stays one) and hands the bitmap out.
    fn spill(&mut self, list: &List) -> &mut Vec<u64> {
        if !matches!(self, Membership::Dense(_)) {
            let top = self.top().unwrap_or(0) as usize;
            let mut bits = vec![0u64; top / 64 + 1];
            for raw in self.listed(list) {
                let (w, b) = word_bit(raw as usize);
                bits[w] |= b;
            }
            *self = Membership::Dense(bits);
        }
        match self {
            Membership::Dense(bits) => bits,
            _ => unreachable!("converted above"),
        }
    }
}

impl Adopting {
    fn bitmap(&self) -> &[u64] {
        self.payload
            .shared_bitmap()
            .expect("only payloads with a bitmap are adopted")
    }

    /// Out of line: `contains` is the hottest query there is, and
    /// almost no set it is asked of holds a payload.
    #[cold]
    fn contains(&self, list: &List, id: NodeId) -> bool {
        let (w, b) = word_bit(id.index());
        self.settled.contains(list, id) || word_at(self.bitmap(), w) & b != 0
    }
}

impl KnowledgeSet {
    /// Creates a knowledge set containing only the node's own id (which
    /// is *not* fresh: a node never needs to tell anyone about an id
    /// they necessarily learn from the message envelope).
    pub fn new(own: NodeId) -> Self {
        std::iter::once(own).collect()
    }

    /// The settled tier, and the bitmap of the adopted payload (empty
    /// when none is held).
    fn tiers(&self) -> (&Membership, &[u64]) {
        match &self.state {
            State::Settled(tier) => (tier, &[]),
            State::Adopting(adopting) => (&adopting.settled, adopting.bitmap()),
        }
    }

    /// The settled tier's `index`-th id in learning order.
    fn settled_id(&self, index: usize) -> NodeId {
        match self.tiers().0 {
            Membership::Small { ids, .. } => ids[index],
            _ => self.list.get(index),
        }
    }

    /// How many ids the settled tier holds.
    fn settled_len(&self) -> usize {
        match self.tiers().0 {
            Membership::Small { len, .. } => *len as usize,
            _ => self.list.len(),
        }
    }

    /// The settled tier's ids in learning order: in place on the small
    /// tier, the list on the others — which stops sharing it
    /// ([`List::as_slice`]).
    fn settled_order(&mut self) -> &[NodeId] {
        let tier = match &self.state {
            State::Settled(tier) => tier,
            State::Adopting(adopting) => &adopting.settled,
        };
        match tier {
            Membership::Small { len, ids } => &ids[..*len as usize],
            _ => self.list.as_slice(),
        }
    }

    /// Heap bytes this set currently holds (capacities, not lengths),
    /// plus the inline struct itself. Sampled per round by the profiler
    /// to build the memory timeline; never read by protocol logic.
    pub fn resident_bytes(&self) -> usize {
        let membership = match self.tiers().0 {
            Membership::Small { .. } | Membership::Listed { .. } => 0,
            Membership::Sparse(sorted) => sorted.capacity() * std::mem::size_of::<u32>(),
            Membership::Dense(bits) => bits.capacity() * std::mem::size_of::<u64>(),
        };
        // An adopted payload is its sender's allocation and is counted
        // once, there; this set owns only the handle.
        let handle = match self.state {
            State::Settled(_) => 0,
            State::Adopting(_) => std::mem::size_of::<Adopting>(),
        };
        std::mem::size_of::<Self>() + membership + self.list.heap_bytes() + handle
    }

    /// `true` if `id` has been learned.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        match &self.state {
            State::Settled(tier) => tier.contains(&self.list, id),
            State::Adopting(adopting) => adopting.contains(&self.list, id),
        }
    }

    /// `true` if every id whose bit is set in `mask` has been learned
    /// (id `i` is bit `i % 64` of word `i / 64`; `mask` may be shorter
    /// or longer than the set's own bitmap). On a dense set this tests
    /// 64 ids per instruction — the harness's completion checks ask it
    /// of every node every round.
    pub fn covers(&self, mask: &[u64]) -> bool {
        if let State::Settled(Membership::Dense(bits)) = &self.state {
            let (shared, beyond) = mask.split_at(mask.len().min(bits.len()));
            return shared.iter().zip(bits).all(|(&m, &b)| m & !b == 0)
                && beyond.iter().all(|&m| m == 0);
        }
        let (tier, adopted) = self.tiers();
        mask.iter()
            .enumerate()
            .all(|(w, &word)| tier.covers_word(&self.list, adopted, w, word))
    }

    /// `true` if every learned id is in `set` or has its bit set in
    /// `mask` (laid out as for [`covers`](Self::covers)). Nothing is
    /// copied or settled on either side: an adopted payload is read
    /// through its bitmap.
    pub fn subset_of_union(&self, set: &KnowledgeSet, mask: &[u64]) -> bool {
        let (theirs, their_adopted) = set.tiers();
        let accounted = |w: usize, word: u64| {
            theirs.covers_word(&set.list, their_adopted, w, word & !word_at(mask, w))
        };
        let bitmap = |bits: &[u64]| bits.iter().enumerate().all(|(w, &word)| accounted(w, word));
        let (tier, adopted) = self.tiers();
        bitmap(adopted)
            && match tier {
                Membership::Dense(bits) => bitmap(bits),
                _ => tier.listed(&self.list).all(|raw| {
                    let (w, b) = word_bit(raw as usize);
                    accounted(w, b)
                }),
            }
    }

    /// How many ids of the bitmap `theirs`, which lists `len` ids, this
    /// set lacks.
    fn count_new(&self, theirs: &[u64], len: usize) -> usize {
        let (tier, adopted) = self.tiers();
        // The payload's ids that the held payload did not bring.
        let unseen = |w: usize| theirs[w] & !word_at(adopted, w);
        match tier {
            Membership::Dense(bits) => (0..theirs.len())
                .map(|w| (unseen(w) & !word_at(bits, w)).count_ones() as usize)
                .sum(),
            // A small or sparse set probes its own few entries against
            // the bitmap; probing the payload's ids against the entries
            // would be a search per payload id. With no payload held,
            // every id is unseen, and a shared bitmap lists each id once:
            // the payload's length is what it could teach, read without
            // a pass over its n/64 words.
            _ => {
                let taught: usize = if adopted.is_empty() {
                    debug_assert_eq!(
                        theirs
                            .iter()
                            .map(|w| w.count_ones() as usize)
                            .sum::<usize>(),
                        len,
                        "one bit per id"
                    );
                    len
                } else {
                    (0..theirs.len())
                        .map(|w| unseen(w).count_ones() as usize)
                        .sum()
                };
                let held = tier
                    .listed(&self.list)
                    .filter(|&raw| {
                        let (w, b) = word_bit(raw as usize);
                        w < theirs.len() && unseen(w) & b != 0
                    })
                    .count();
                taught - held
            }
        }
    }

    /// Learns the ids of a received payload; returns how many were new.
    ///
    /// Every observer sees what [`extend_from_slice`](Self::extend_from_slice)
    /// on the same ids would have left. A [shared](PointerList::shared)
    /// payload with a [bitmap](PointerList::shared_bitmap) is not
    /// copied, though: its new ids are counted against the bitmap, a
    /// clone of the handle is kept, and the per-id merge is put off
    /// until something asks for learning order — no bytes per receiver
    /// of a broadcast, and O(what the receiver holds) reads unless it
    /// is dense or already holds a payload, when the count is O(n/64)
    /// words. A payload that teaches
    /// nothing is not kept; one without a bitmap is merged on the spot.
    ///
    /// A set holds one payload at a time, so a second one that teaches
    /// something settles the first. Looking through k held payloads
    /// would cost k reads per word, and k senders flooding one receiver
    /// in one round made that quadratic.
    pub fn adopt(&mut self, payload: &PointerList) -> usize {
        let Some(theirs) = payload.shared_bitmap() else {
            // One merge loop per representation: handed the two-armed
            // iterator, the loop picks the arm per id, and merging a
            // plain payload of 256–8192 ids into a dense set read 1.5–1.6×
            // the ns per id of the slice loop (1.1× with the pick hoisted
            // into `fold`); split here, 0.98–1.01×.
            return match payload.iter() {
                Iter::Plain(ids) => self.extend_ids(ids.copied()),
                Iter::Narrow(slots) => self.extend_ids(slots.map(Slot::id)),
                Iter::Wide(slots) => self.extend_ids(slots.map(Slot::id)),
            };
        };
        let new = self.count_new(theirs, payload.len());
        if new > 0 {
            self.settle();
            if let State::Settled(tier) = &mut self.state {
                self.state = State::Adopting(Box::new(Adopting {
                    settled: std::mem::take(tier),
                    payload: payload.clone(),
                    new,
                }));
            }
        }
        new
    }

    /// `true` when no adopted payload is waiting to be merged.
    #[cfg(test)]
    pub(crate) fn is_settled(&self) -> bool {
        matches!(self.state, State::Settled(_))
    }

    /// Merges the adopted payload into the list. The payload brought its
    /// bitmap and lists every id once, so the merge is two parts that
    /// never touch the same memory. *Order* is one pass over the ids
    /// against a mask the pass does not write — this set's own bitmap,
    /// or on the sorted tier the payload's with this set's entries
    /// cleared — that appends the ids counted at adoption and stops at
    /// the last of them. *Membership* is then words: the payload's
    /// bitmap ORed in, or its unknown bits merged into the sorted
    /// entries, spilling exactly where
    /// [`extend_from_slice`](Self::extend_from_slice) would have. Either
    /// way the list grows by doubling, as a push at a time grows it. A
    /// small set first moves its ids into the list and its tier onto the
    /// heap, sized as pushing them would have sized them. A list-only set
    /// has no entries to merge into: its list, grown, builds the sorted
    /// index if it has outgrown the tier.
    fn settle(&mut self) {
        let State::Adopting(adopting) = &mut self.state else {
            return;
        };
        let mut tier = std::mem::take(&mut adopting.settled);
        let ids = adopting.payload.shared_ids();
        let ids = ids.expect("only shared payloads are adopted");
        let (theirs, new) = (adopting.bitmap(), adopting.new);
        // No new id is above the payload's top.
        let top = NodeId::new(top_bit(theirs).unwrap_or(0));
        let list = &mut self.list;
        if let Membership::Small { len, ids: held } = tier {
            let held = &held[..len as usize];
            list.reserve_doubling(held.len() + new, top);
            list.extend_from_slice(held);
            tier = Membership::of(list);
        }
        list.reserve_doubling(new, top);
        if tier.stays_sorted_merging(list.len(), ids.len(), theirs.len()) {
            let mut unknown = theirs.to_vec();
            for raw in tier.listed(list) {
                let (w, b) = word_bit(raw as usize);
                if let Some(word) = unknown.get_mut(w) {
                    *word &= !b;
                }
            }
            list.append_new(ids, top, new, |w, b| unknown[w] & b != 0);
            // The set's top stays its top: a payload with a bitmap lists
            // more ids than it has words, so one that keeps the set
            // sorted ends in a lower word than the set's.
            debug_assert!(top_bit(theirs) < tier.top());
            if let Membership::Sparse(sorted) = &mut tier {
                merge_sorted(sorted, &mut unknown, new);
            }
            tier.index_past_the_cap(list);
        } else {
            let bits = tier.spill(list);
            if bits.len() < theirs.len() {
                bits.resize(theirs.len(), 0);
            }
            list.append_new(ids, top, new, |w, b| bits[w] & b == 0);
            for (mine, &word) in bits.iter_mut().zip(theirs) {
                *mine |= word;
            }
        }
        self.state = State::Settled(tier);
    }

    /// A merge into a set holding an adopted payload: `true` if `ids`
    /// are all known, which leaves the payload where it is; otherwise
    /// the payload is merged first, so that the new ids land after the
    /// adopted ones. Out of line, like everything else that only a set
    /// holding a payload runs: the merge loops stay as they were.
    #[cold]
    fn knows_all_or_settles(&mut self, mut ids: impl Iterator<Item = NodeId>) -> bool {
        let known = ids.all(|id| self.contains(id));
        if !known {
            self.settle();
        }
        known
    }

    /// Learns `id`, which joins the fresh window if new. Returns `true`
    /// if new.
    // Inlined on purpose: with the tier check the body outgrew what the
    // compiler inlines unasked, and building an HM node calls it nine
    // times (set-up read 3–4 % slower out of line).
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let tier = match &mut self.state {
            State::Settled(tier) => tier,
            // Known already, the id leaves the payload where it is;
            // new, it must land after the adopted ids.
            State::Adopting(_) => {
                return !self.knows_all_or_settles(std::iter::once(id)) && self.insert(id);
            }
        };
        let added = match tier {
            Membership::Small { len, ids } => {
                let held = *len as usize;
                if ids[..held].contains(&id) {
                    return false;
                }
                if held < SMALL {
                    ids[held] = id;
                    *len += 1;
                } else {
                    // The eighth id: the set leaves its place.
                    let mut list = Vec::with_capacity(push_capacity(SMALL + 1));
                    list.extend_from_slice(ids);
                    list.push(id);
                    self.list = List::Owned(list);
                    *tier = Membership::of(&self.list);
                }
                return true;
            }
            Membership::Listed { top } => {
                if self.list.scan(id) {
                    return false;
                }
                *top = (*top).max(u32::from(id));
                true
            }
            Membership::Sparse(sorted) => insert_sorted(sorted, id.index() as u32),
            Membership::Dense(bits) => {
                let (w, b) = word_bit(id.index());
                if w >= bits.len() {
                    bits.resize(w + 1, 0);
                }
                if bits[w] & b != 0 {
                    false
                } else {
                    bits[w] |= b;
                    true
                }
            }
        };
        if added {
            self.list.push(id);
            if !matches!(tier, Membership::Dense(_)) {
                if tier.stays_sorted_merging(self.list.len(), 0, 0) {
                    tier.index_past_the_cap(&self.list);
                } else {
                    tier.spill(&self.list);
                }
            }
        }
        added
    }

    /// Learns every id in `ids`; returns how many were new.
    pub fn extend(&mut self, ids: impl IntoIterator<Item = NodeId>) -> usize {
        let before = self.len();
        for id in ids {
            self.insert(id);
        }
        self.len() - before
    }

    /// Learns every id of a whole payload; returns how many were new.
    ///
    /// Equivalent to [`insert`](Self::insert) on each id **in slice
    /// order** — same learning order, same fresh window, same count —
    /// so routing a payload through it moves no simulated statistic.
    /// The difference is cost, and may be the tier, because the tier
    /// rule is read once, up front, on the merged length bound and the
    /// larger of the set's and the payload's word counts. A payload that
    /// could push the set past the sorted tier spills it at once
    /// (possibly a few ids earlier than per-id inserts would have), the
    /// bitmap and the list are sized once, and the merge is a
    /// test-and-set loop with no per-id tier match or growth check; one
    /// that cannot is scanned into the list while the list holds no more
    /// than 32 ids and inserted into the sorted entries from then on,
    /// which then stay sorted even where per-id inserts, reading the rule
    /// on a narrower range part-way, would have spilled them.
    pub fn extend_from_slice(&mut self, ids: &[NodeId]) -> usize {
        self.extend_ids(ids.iter().copied())
    }

    /// [`extend_from_slice`](Self::extend_from_slice) of any list of
    /// ids that can be read twice.
    fn extend_ids<I>(&mut self, ids: I) -> usize
    where
        I: ExactSizeIterator<Item = NodeId> + Clone,
    {
        if matches!(self.state, State::Adopting(_)) && self.knows_all_or_settles(ids.clone()) {
            return 0;
        }
        self.merge(ids)
    }

    /// The merge loop of a settled set, for a payload that comes
    /// without a bitmap.
    fn merge<I>(&mut self, mut ids: I) -> usize
    where
        I: ExactSizeIterator<Item = NodeId> + Clone,
    {
        let State::Settled(tier) = &mut self.state else {
            unreachable!("a set holding a payload settles before it merges")
        };
        if let Membership::Small { .. } = tier {
            // In place until the set leaves it; the rest of the payload
            // then merges into the tier it left for.
            let mut new = 0;
            while let Some(id) = ids.next() {
                new += usize::from(self.insert(id));
                if !matches!(self.state, State::Settled(Membership::Small { .. })) {
                    return new + self.merge(ids);
                }
            }
            return new;
        }
        let words = NodeId::bitmap_words(ids.clone());
        if tier.stays_sorted_merging(self.list.len(), ids.len(), words) {
            let before = self.list.len();
            if let Membership::Listed { top } = tier {
                // Scanned while the list is the index; the rest of the
                // payload goes into the index the 33rd id builds.
                for id in ids.by_ref() {
                    if !self.list.scan(id) {
                        self.list.push(id);
                        *top = (*top).max(u32::from(id));
                        if self.list.len() > LISTED_MAX {
                            break;
                        }
                    }
                }
                tier.index_past_the_cap(&self.list);
            }
            if let Membership::Sparse(sorted) = tier {
                for id in ids {
                    if insert_sorted(sorted, id.index() as u32) {
                        self.list.push(id);
                    }
                }
            }
            return self.list.len() - before;
        }
        let bits = tier.spill(&self.list);
        if words > bits.len() {
            bits.resize(words, 0);
        }
        let before = self.list.len();
        match &mut self.list {
            List::Owned(list) => {
                // Every listed id has its bit set, so the clear bits,
                // too, bound how many ids can be new: a duplicate-heavy
                // payload reserves almost nothing.
                list.reserve(ids.len().min(bits.len() * 64 - before));
                test_and_set(bits, ids, |id| list.push(id));
            }
            // A shared list grows only for an id to append.
            List::Shared(list) => test_and_set(bits, ids, |id| list.push(id)),
        }
        self.list.len() - before
    }

    /// Number of identifiers known.
    pub fn len(&self) -> usize {
        let adopted = match &self.state {
            State::Settled(_) => 0,
            State::Adopting(adopting) => adopting.new,
        };
        self.settled_len() + adopted
    }

    /// `true` only for the (unreachable in practice) empty set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All known identifiers, in learning order. Read in place: a set
    /// that has sent a [`snapshot`](Self::snapshot) keeps sharing its
    /// list.
    pub fn iter(&mut self) -> Iter<'_> {
        self.settle();
        match self.tiers().0 {
            Membership::Small { len, ids } => Iter::Plain(ids[..*len as usize].iter()),
            _ => self.list.iter(),
        }
    }

    /// A copy of the full knowledge, in learning order. Takes `&self`,
    /// so on a set holding an adopted payload it settles a scratch
    /// clone and leaves the set as it was.
    pub fn to_vec(&self) -> Vec<NodeId> {
        match &self.state {
            State::Settled(Membership::Small { len, ids }) => ids[..*len as usize].to_vec(),
            State::Settled(_) => self.list.to_vec(),
            State::Adopting(_) => {
                let mut settled = self.clone();
                settled.settle();
                settled.list.to_vec()
            }
        }
    }

    /// The full knowledge in learning order, borrowed — the zero-copy
    /// sibling of [`to_vec`](Self::to_vec). Position `0` is the id the
    /// set was constructed with ([`new`](Self::new)); the list is
    /// append-only, so positions are stable forever. A set that has sent
    /// a [`snapshot`](Self::snapshot) copies its list back into a vector
    /// of its own first, and shares it again with the next one.
    pub fn list(&mut self) -> &[NodeId] {
        self.settle();
        self.settled_order()
    }

    /// The full knowledge as a payload: a prefix of the set's own
    /// learning-order list ([`AppendList::snapshot`]), not a copy, so
    /// sending it to many receivers, or again in a round that taught
    /// nothing, is a clone of the handle. A set in the bitmap tier also offers a copy of its
    /// bitmap (this set's own keeps changing; a payload's never does) —
    /// n/64 words, once per round that taught something — which lets
    /// every receiver [`adopt`](Self::adopt) it, or find it teaches
    /// nothing, in words; a sparse set leaves the bitmap to the first
    /// receiver that asks. A small set, whose ids are in place, copies
    /// them. A snapshot stays the set's whole knowledge for as long as
    /// [`len`](Self::len) stands, and what it holds never changes: the
    /// set appends past it, and copies its list into a larger buffer
    /// when the one the payload reads is full.
    pub fn snapshot(&mut self) -> PointerList {
        self.settle();
        let bitmap = match &self.state {
            State::Settled(Membership::Small { len, ids }) => {
                return PointerList::shared(&ids[..*len as usize])
            }
            State::Settled(Membership::Dense(bits)) => Some(&bits[..]),
            _ => None,
        };
        self.list.snapshot(bitmap)
    }

    /// The current frontier position: the number of ids learned so far.
    /// Capture it after a send, and [`since`](Self::since) later yields
    /// exactly the ids learned after that point — the caller-held
    /// sibling of the [`take_fresh`](Self::take_fresh) window, for any
    /// number of independent readers (e.g. one high-water mark per
    /// neighbor).
    pub fn mark(&self) -> usize {
        self.len()
    }

    /// The ids learned since `mark` (a value previously returned by
    /// [`mark`](Self::mark)), in learning order.
    pub fn since(&mut self, mark: usize) -> &[NodeId] {
        let list = self.list();
        &list[mark.min(list.len())..]
    }

    /// Closes the fresh window without reading it — what
    /// [`take_fresh`](Self::take_fresh) does to the window, for a caller
    /// that has sent everything it knows already. It settles nothing and
    /// borrows nothing, so a set that sends snapshots keeps sharing its
    /// list.
    pub fn skip_fresh(&mut self) {
        self.drained = self.len();
    }

    /// The identifiers learned since the previous drain, in learning
    /// order (never the ids the set was constructed with), and closes
    /// the window behind them.
    pub fn take_fresh(&mut self) -> &[NodeId] {
        self.settle();
        let (drained, len) = (self.drained, self.len());
        self.drained = len;
        &self.settled_order()[drained..]
    }

    /// `true` if identifiers have been learned since the last drain.
    pub fn has_fresh(&self) -> bool {
        self.drained < self.len()
    }

    /// A uniformly random known id, excluding `exclude` (typically the
    /// node itself). Returns `None` if no other id is known.
    pub fn sample_other<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        exclude: NodeId,
    ) -> Option<NodeId> {
        self.settle();
        let len = self.settled_len();
        // The list contains at most one excluded entry, so rejection
        // sampling terminates in O(1) expected tries once len > 1.
        if len == 0 || (len == 1 && self.settled_id(0) == exclude) {
            return None;
        }
        loop {
            let id = self.settled_id(rng.random_range(0..len));
            if id != exclude {
                return Some(id);
            }
        }
    }

    /// The maximum known id (total-order tie-breaking primitive used by
    /// the deterministic baseline and the cluster protocol), read off
    /// the membership tier: the largest of the few ids in place, the
    /// last sorted entry, or the top bit of the highest non-zero bitmap
    /// word.
    pub fn max_id(&self) -> Option<NodeId> {
        let (tier, adopted) = self.tiers();
        tier.top().max(top_bit(adopted)).map(NodeId::new)
    }
}

impl FromIterator<NodeId> for KnowledgeSet {
    /// Collects a set whose fresh window is empty: the ids it is built
    /// from are its starting state, not news.
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut k = KnowledgeSet::default();
        k.extend(iter);
        k.drained = k.len();
        debug_assert!(!k.has_fresh(), "construction leaves the window empty");
        k
    }
}

impl Extend<NodeId> for KnowledgeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        KnowledgeSet::extend(self, iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn new_contains_self_only() {
        let k = KnowledgeSet::new(id(5));
        assert!(k.contains(id(5)));
        assert!(!k.contains(id(4)));
        assert_eq!(k.len(), 1);
        assert!(!k.has_fresh());
    }

    #[test]
    fn insert_tracks_freshness_once() {
        let mut k = KnowledgeSet::new(id(0));
        assert!(k.insert(id(9)));
        assert!(!k.insert(id(9)));
        assert_eq!(k.take_fresh(), vec![id(9)]);
        assert!(k.take_fresh().is_empty());
        assert!(k.contains(id(9)));
    }

    #[test]
    fn extend_counts_new_only() {
        let mut k = KnowledgeSet::new(id(0));
        let added = KnowledgeSet::extend(&mut k, [id(1), id(2), id(1), id(0)]);
        assert_eq!(added, 2);
        assert_eq!(k.len(), 3);
    }

    #[test]
    fn iteration_preserves_learning_order() {
        let mut k = KnowledgeSet::new(id(2));
        k.insert(id(7));
        k.insert(id(1));
        assert_eq!(k.to_vec(), vec![id(2), id(7), id(1)]);
    }

    #[test]
    fn sample_other_excludes_self() {
        let mut k = KnowledgeSet::new(id(0));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(k.sample_other(&mut rng, id(0)), None);
        k.insert(id(3));
        for _ in 0..20 {
            assert_eq!(k.sample_other(&mut rng, id(0)), Some(id(3)));
        }
    }

    #[test]
    fn sample_other_is_roughly_uniform() {
        let mut k = KnowledgeSet::new(id(0));
        for i in 1..5 {
            k.insert(id(i));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 5];
        for _ in 0..4000 {
            counts[k.sample_other(&mut rng, id(0)).unwrap().index()] += 1;
        }
        assert_eq!(counts[0], 0);
        for &c in &counts[1..] {
            assert!((800..1200).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn huge_ids_in_small_sets_cost_no_bitmap() {
        // The scale-critical property: holding a few ids never costs
        // O(max id) memory — a million-node simulation allocates
        // per-node sets proportional to what each node knows. Up to
        // seven ids that is no heap at all; the eighth moves them to a
        // list of their own, not to a bitmap.
        let mut k = KnowledgeSet::new(id(0));
        k.insert(id(1_000_000));
        assert!(k.contains(id(1_000_000)));
        assert!(!k.contains(id(999_999)));
        assert_eq!(k.len(), 2);
        assert!(matches!(k.tiers().0, Membership::Small { .. }));
        assert_eq!(k.resident_bytes(), std::mem::size_of::<KnowledgeSet>());
        for i in 2..SMALL as u32 {
            k.insert(id(1_000_000 * i));
        }
        assert!(matches!(k.tiers().0, Membership::Small { len: 7, .. }));
        assert!(k.insert(id(5)));
        assert!(matches!(k.tiers().0, Membership::Listed { .. }));
        let expected: Vec<NodeId> = [0, 1, 2, 3, 4, 5, 6]
            .map(|i| id(1_000_000 * i))
            .into_iter()
            .chain([id(5)])
            .collect();
        assert_eq!(k.list(), expected);
        assert!(k.contains(id(6_000_000)) && !k.contains(id(7_000_000)));
    }

    #[test]
    fn a_set_leaves_its_place_with_the_capacities_pushes_would_have_grown() {
        // The bytes a set holds once it has left the small tier, as if
        // its list and, from the 33rd id, its sorted entries had been
        // pushed to one id at a time from the start: 8, 16, 32, …
        // entries. A set that left at a capacity of 7 would grow 7, 14,
        // 28, …, off the series every set that was never small is on.
        fn pushed(len: usize) -> usize {
            let mut entries: Vec<u32> = Vec::new();
            (0..len as u32).for_each(|i| entries.push(i));
            let lists = if len <= LISTED_MAX { 1 } else { 2 };
            std::mem::size_of::<KnowledgeSet>() + lists * 4 * entries.capacity()
        }
        // Ids 1 000 apart: the sorted tier all the way to the cap.
        let wide = |i: u32| id(1_000 * i + 3);
        let mut by_insert = KnowledgeSet::new(wide(0));
        for i in 1..SPARSE_MAX as u32 {
            by_insert.insert(wide(i));
            let len = by_insert.len();
            let expected = if len <= SMALL {
                std::mem::size_of::<KnowledgeSet>()
            } else {
                pushed(len)
            };
            assert_eq!(by_insert.resident_bytes(), expected, "{len} ids");
        }
        // A payload that carries a small set past its place, and past
        // the list-only tier, merged in bulk or adopted and settled.
        for len in [SMALL + 1, 9, 16, 17, 32, 33, 100, SPARSE_MAX] {
            let payload: Vec<NodeId> = (1..len as u32).map(wide).collect();
            let mut merged = KnowledgeSet::new(wide(0));
            merged.extend_from_slice(&payload);
            assert_eq!(merged.resident_bytes(), pushed(len), "{len} ids merged");
            // Dense enough for a bitmap at 1 000 apart only when close
            // to every word: settle a roster of the first ids instead.
            let roster = PointerList::shared(&(0..len as u32).map(id).collect::<Vec<_>>());
            let mut adopted = KnowledgeSet::new(id(0));
            adopted.adopt(&roster);
            assert!(!adopted.is_settled());
            adopted.list();
            let expected = std::mem::size_of::<KnowledgeSet>()
                + 4 * push_capacity(len)
                + 8 * adopted_words(&adopted);
            assert_eq!(adopted.resident_bytes(), expected, "{len} ids adopted");
        }
        fn adopted_words(k: &KnowledgeSet) -> usize {
            match k.tiers().0 {
                Membership::Dense(bits) => bits.capacity(),
                _ => 0,
            }
        }
    }

    #[test]
    fn a_sparse_set_keeps_no_index_up_to_32_ids_and_builds_it_once() {
        // Ids 1 000 apart stay on the sorted side to 512. From the
        // eighth id to the 32nd the list is the index: the set holds the
        // struct and the list's room, nothing more, and a scan finds
        // every listed id, the last one too. The 33rd id builds the
        // index, with room for 64, and it is never built again.
        let wide = |i: u32| id(1_000 * i + 3);
        let size = std::mem::size_of::<KnowledgeSet>();
        let mut k = KnowledgeSet::new(wide(0));
        let mut built = None;
        for i in 1..100u32 {
            assert!(k.insert(wide(i)));
            assert!(!k.insert(wide(i)), "a scan sees the id just listed");
            assert!((0..=i).all(|j| k.contains(wide(j))) && !k.contains(wide(i + 1)));
            let (len, list) = (k.len(), k.list.heap_bytes());
            match k.tiers().0 {
                Membership::Small { .. } => assert!(len <= SMALL),
                Membership::Listed { top } => {
                    assert!((SMALL + 1..=LISTED_MAX).contains(&len), "{len} ids");
                    assert_eq!(*top, u32::from(wide(i)));
                    assert_eq!(k.resident_bytes(), size + list, "{len} ids");
                }
                Membership::Sparse(sorted) => {
                    let at = *built.get_or_insert((sorted.as_ptr(), len));
                    assert_eq!(at.1, LISTED_MAX + 1, "built by the 33rd id");
                    if len <= 64 {
                        assert_eq!((sorted.as_ptr(), sorted.capacity()), (at.0, 64));
                    }
                    assert_eq!(k.resident_bytes(), size + list + 4 * sorted.capacity());
                }
                Membership::Dense(_) => panic!("{len} wide ids spilled"),
            }
        }
        assert!(built.is_some());
        // A bulk merge across the cap scans up to it, builds the index
        // once and puts the rest of the payload into it; a list that has
        // sent a snapshot is scanned in its shared buffer.
        for sent in [false, true] {
            let mut k: KnowledgeSet = (0..20).map(wide).collect();
            if sent {
                let _payload = k.snapshot();
                assert!(matches!(k.list, List::Shared(_)));
            }
            assert!(matches!(k.tiers().0, Membership::Listed { .. }));
            assert!(k.contains(wide(19)) && !k.contains(wide(20)));
            assert_eq!(
                k.extend_from_slice(&(10..40).map(wide).collect::<Vec<_>>()),
                20
            );
            let Membership::Sparse(sorted) = k.tiers().0 else {
                panic!("40 ids are indexed")
            };
            assert_eq!(sorted.capacity(), 64);
            assert!(sorted
                .iter()
                .copied()
                .eq((0..40).map(|i| u32::from(wide(i)))));
            assert!(k.to_vec().into_iter().eq((0..40).map(wide)));
        }
    }

    #[test]
    fn spill_to_bitmap_preserves_membership() {
        // Narrow: own id 1023 makes the bitmap 16 words, and ids filled
        // in from below keep the set sorted while it has no more ids
        // than that (16) and spill it at 17. Wide: at stride 128 the
        // bitmap would have twice as many words as the set has ids, so
        // only the cap spills it, at 513.
        for (own, stride, spills_at) in [(1023, 3, 17), (0, 128, SPARSE_MAX + 1)] {
            let mut k = KnowledgeSet::new(id(own));
            for i in 0..2 * SPARSE_MAX as u32 {
                k.insert(id(stride * i));
                let dense = matches!(k.tiers().0, Membership::Dense(_));
                assert_eq!(
                    dense,
                    k.len() >= spills_at,
                    "stride {stride}, {} ids",
                    k.len()
                );
            }
            assert_eq!(k.len(), 2 * SPARSE_MAX); // own id deduplicated
            for i in 0..2 * SPARSE_MAX as u32 {
                assert!(k.contains(id(stride * i)), "lost id {}", stride * i);
                assert!(!k.contains(id(stride * i + 1)));
            }
            // Dedup keeps working across the representation change.
            assert!(!k.insert(id(stride)));
            assert!(k.insert(id(1)));
        }
    }

    #[test]
    fn a_spill_by_density_at_most_doubles_the_bytes_and_wide_sets_reach_the_cap() {
        // Every id of a range once, in a scrambled order, so the top id
        // and the count race each other. A set that spills below the
        // cap does so on the insert that makes its ids outnumber its
        // words by one, when the bitmap takes 8 bytes a word against
        // the 4 an entry took; the widest range stays sorted to 512.
        // A set that leaves the small tier for the bitmap at once does
        // so because its eight ids already outnumber the words.
        for range in [64u32, 1 << 10, 1 << 13, 1 << 16] {
            let mut k = KnowledgeSet::default();
            let mut spilled_at = None;
            for i in 0..u64::from(range) {
                let small = matches!(k.tiers().0, Membership::Small { .. });
                let listed = !matches!(k.tiers().0, Membership::Dense(_));
                k.insert(id((i * 0x9E37_79B1 % u64::from(range)) as u32));
                if let (true, Membership::Dense(bits)) = (listed, k.tiers().0) {
                    spilled_at = Some(k.len());
                    if small {
                        assert_eq!(k.len(), SMALL + 1, "range {range}");
                        assert!(bits.len() < k.len(), "range {range}");
                    } else if k.len() <= SPARSE_MAX {
                        assert_eq!(bits.len(), k.len() - 1, "range {range}");
                        assert!(bits.len() * 8 <= 2 * k.len() * 4);
                    }
                }
            }
            let spilled_at = spilled_at.expect("a full range is a bitmap");
            if range < 1 << 16 {
                assert!(spilled_at <= SPARSE_MAX, "range {range}: {spilled_at}");
            } else {
                assert_eq!(spilled_at, SPARSE_MAX + 1);
            }
        }
    }

    #[test]
    fn from_iterator_dedups_without_freshness() {
        let k: KnowledgeSet = [id(1), id(2), id(2)].into_iter().collect();
        assert_eq!(k.len(), 2);
        assert!(!k.has_fresh());
    }

    #[test]
    fn marks_window_learning_order() {
        let mut k = KnowledgeSet::new(id(0));
        k.insert(id(7));
        let m = k.mark();
        assert!(k.since(m).is_empty());
        k.insert(id(3));
        k.insert(id(9));
        assert_eq!(k.since(m), &[id(3), id(9)]);
        assert_eq!(k.list()[0], id(0));
        // Marks read the list without moving the fresh cursor: the
        // window still holds everything inserted since construction.
        assert_eq!(k.take_fresh(), [id(7), id(3), id(9)]);
        assert_eq!(k.since(m), &[id(3), id(9)]);
        // A stale over-long mark (can't arise from `mark()`) clamps.
        assert!(k.since(usize::MAX).is_empty());
    }

    #[test]
    fn construction_leaves_the_window_empty_and_inserts_fill_it() {
        let mut k = KnowledgeSet::new(id(0));
        assert!(!k.has_fresh());
        assert!(k.insert(id(4)));
        assert!(!k.insert(id(4)));
        assert_eq!(k.extend([id(4), id(5), id(6)]), 2);
        assert!(k.has_fresh());
        // The window is a view of the one list, not a second copy.
        let before = k.resident_bytes();
        assert_eq!(k.take_fresh(), [id(4), id(5), id(6)]);
        assert!(!k.has_fresh());
        assert_eq!(k.resident_bytes(), before);
        assert_eq!(k.len(), 4);
    }

    #[test]
    fn covers_tests_masks_on_every_tier() {
        let few = [1, 64, 200];
        let small: KnowledgeSet = few.map(id).into_iter().collect();
        let far = |n: u32| -> KnowledgeSet {
            (few.into_iter().chain((1..=n).map(|i| 4_000 * i)))
                .map(id)
                .collect()
        };
        let (listed, sparse) = (far(5), far(40));
        let dense: KnowledgeSet = (0..1000u32).map(id).collect();
        assert!(matches!(small.tiers().0, Membership::Small { .. }));
        assert!(matches!(listed.tiers().0, Membership::Listed { .. }));
        assert!(matches!(sparse.tiers().0, Membership::Sparse(_)));
        assert!(matches!(dense.tiers().0, Membership::Dense(_)));
        for set in [&small, &listed, &sparse] {
            assert!(set.covers(&[0b10, 0b1]));
            assert!(!set.covers(&[0b110]));
            assert!(set.covers(&[]));
        }
        assert!(listed.covers(&[&[0; 62][..], &[1 << 32]].concat()));
        assert!(sparse.covers(&[&[0; 62][..], &[1 << 32]].concat()));
        assert!(!small.covers(&[&[0; 62][..], &[1 << 32]].concat()));
        assert!(dense.covers(&[u64::MAX; 15]));
        // Bit 1000 (word 15, bit 40) is the first id the set lacks.
        assert!(dense.covers(&[&[0; 15][..], &[(1 << 40) - 1]].concat()));
        assert!(!dense.covers(&[&[0; 15][..], &[1 << 40]].concat()));
        // Words past the bitmap must be empty.
        assert!(dense.covers(&[0; 40]));
        assert!(!dense.covers(&[&[0; 39][..], &[1]].concat()));
    }

    #[test]
    fn max_id_reads_the_membership_tier() {
        let mut k = KnowledgeSet::default();
        assert_eq!(k.max_id(), None);
        for i in 0..2 * SPARSE_MAX as u32 {
            k.insert(id(5 * i + 3));
            assert_eq!(k.max_id(), Some(id(5 * i + 3)));
        }
        k.insert(id(2));
        assert_eq!(k.max_id(), Some(id(5 * (2 * SPARSE_MAX as u32 - 1) + 3)));
    }

    fn roster(range: std::ops::Range<u32>) -> PointerList {
        PointerList::shared(&range.map(id).collect::<Vec<_>>())
    }

    #[test]
    fn adopting_a_shared_payload_copies_nothing_until_order_is_asked_for() {
        let everyone = roster(0..2000);
        let mut k: KnowledgeSet = [id(7), id(3), id(5000)].into_iter().collect();
        let before = k.resident_bytes();
        assert_eq!(k.adopt(&everyone), 1998);
        assert!(!k.is_settled());
        // The handle is all this set holds of the 8 kB payload.
        assert!(k.resident_bytes() < before + 128, "{}", k.resident_bytes());
        assert_eq!(k.len(), 2001);
        assert_eq!(k.mark(), 2001);
        assert!(k.has_fresh());
        assert!(k.contains(id(1999)) && k.contains(id(5000)) && !k.contains(id(2000)));
        assert_eq!(k.max_id(), Some(id(5000)));
        assert!(k.covers(&[u64::MAX; 31]));
        assert!(!k.covers(&[u64::MAX; 32]));
        // Neither a payload that teaches nothing (which is not even
        // kept) nor a known id disturbs it.
        assert_eq!(k.adopt(&roster(10..500)), 0);
        assert!(!k.insert(id(1234)));
        assert_eq!(k.extend_from_slice(&[id(3), id(44)]), 0);
        assert!(matches!(&k.state, State::Adopting(held) if held.new == 1998));
        assert!(!k.is_settled());
        // `to_vec` answers through `&self` and leaves the set alone...
        let order = k.to_vec();
        assert_eq!(order[..5], [id(7), id(3), id(5000), id(0), id(1)]);
        assert!(!k.is_settled());
        // ...a new id settles first, so it lands after the payload.
        assert!(k.insert(id(9999)));
        assert!(k.is_settled());
        assert_eq!(k.list()[..2001], order[..]);
        assert_eq!(k.list()[2001], id(9999));
        assert_eq!(k.take_fresh().len(), 1999);
    }

    #[test]
    fn adoption_counts_what_the_payload_bitmap_teaches() {
        // Small, list-only and sorted receivers: a few ids under the
        // payload's range and the rest far above it, so none is dense.
        let receiver = |near: &[u32], far: u32| -> KnowledgeSet {
            let far = (0..far).map(|k| id(1_000_000 + 1000 * k));
            near.iter().copied().map(id).chain(far).collect()
        };
        let cases = [
            ("small", receiver(&[5, 1999], 1)),
            ("list-only", receiver(&[5, 17, 300, 1500, 1999], 15)),
            ("sorted", receiver(&[5, 17, 300, 1500, 1999, 64, 65], 40)),
        ];
        let payload = roster(0..2000);
        let theirs = payload.shared_bitmap().expect("a roster has a bitmap");
        for (name, set) in cases {
            let tier = match set.tiers().0 {
                Membership::Small { .. } => "small",
                Membership::Listed { .. } => "list-only",
                Membership::Sparse(_) => "sorted",
                Membership::Dense(_) => "dense",
            };
            assert_eq!(tier, name);
            // Without a payload held, and holding one that overlaps
            // this one's top quarter.
            for held in [None, Some(roster(1500..2500))] {
                let mut k = set.clone();
                if let Some(held) = &held {
                    assert!(k.adopt(held) > 0);
                    assert!(!k.is_settled());
                }
                let known: Vec<NodeId> = k
                    .to_vec()
                    .into_iter()
                    .filter(|i| i.index() < 2000)
                    .collect();
                let mine = NodeId::bitmap(&known, theirs.len());
                let expected: u32 = theirs
                    .iter()
                    .zip(&mine)
                    .map(|(&t, &m)| (t & !m).count_ones())
                    .sum();
                let (at, before) = (format!("{name}, held {}", held.is_some()), k.len());
                assert_eq!(k.adopt(&payload), expected as usize, "{at}");
                assert_eq!(k.len(), before + expected as usize, "{at}");
                assert!((0..2000).all(|i| k.contains(id(i))), "{at}");
            }
        }
    }

    #[test]
    fn settling_spills_the_sorted_tier_where_a_bulk_merge_does() {
        // The receiver's own id, its largest, fixes its bitmap at 40
        // words — a narrow range, where density decides, at `total` 40
        // — or at 1 025, wide enough that the cap decides, at 512.
        let narrow = (39 * 64, 40, [1, 10, 20]);
        let wide = (1024 * 64, SPARSE_MAX, [1, 200, 400]);
        for (top, limit, helds) in [narrow, wide] {
            for total in [limit - 1, limit, limit + 1] {
                for held in helds {
                    // Collected twice: a clone is cut to size, and the
                    // two would grow from different capacities.
                    let receiver = || {
                        let below = (0..held as u32 - 1).map(|i| id(2 * i));
                        std::iter::once(id(top)).chain(below).collect()
                    };
                    let (mut adopted, mut merged): (KnowledgeSet, KnowledgeSet) =
                        (receiver(), receiver());
                    // In place at one id, sorted at ten and twenty.
                    assert!(!matches!(adopted.tiers().0, Membership::Dense(_)));
                    // Half of it known to the larger receivers, and
                    // `held` + its length = `total`: the bound the tier
                    // rule reads, against the receiver's words.
                    let payload = roster(0..(total - held) as u32);
                    assert_eq!(
                        adopted.adopt(&payload),
                        merged.extend_from_slice(&payload.to_vec())
                    );
                    assert!(!adopted.is_settled());
                    assert_eq!(adopted.list(), merged.list());
                    match (adopted.tiers().0, merged.tiers().0) {
                        (Membership::Listed { top: a }, Membership::Listed { top: b }) => {
                            assert!(total <= limit && adopted.len() <= LISTED_MAX);
                            assert_eq!(a, b);
                            assert_eq!(adopted.resident_bytes(), merged.resident_bytes());
                        }
                        (Membership::Sparse(a), Membership::Sparse(b)) => {
                            assert!(total <= limit);
                            assert_eq!(a, b);
                            // Grown by doubling, as per-id inserts grow it.
                            assert_eq!(adopted.resident_bytes(), merged.resident_bytes());
                        }
                        (Membership::Dense(a), Membership::Dense(b)) => {
                            assert!(total > limit, "{held} + {} ids spilled", total - held);
                            assert_eq!(a, b);
                        }
                        _ => panic!("{held} + {} ids: one spilled, one did not", total - held),
                    }
                }
            }
        }
    }

    #[test]
    fn subset_of_union_reads_every_tier_without_settling() {
        // Each set on the sorted tier, on the bitmap, and looking
        // through an adopted roster; the mask shorter than, level with
        // and longer than the sets.
        let sparse = |ids: &[u32]| -> KnowledgeSet { ids.iter().map(|&i| id(i)).collect() };
        let dense = |upto: u32| -> KnowledgeSet { (0..upto).map(|i| id(3 * i)).collect() };
        let adopting = |mut k: KnowledgeSet| {
            assert!(k.adopt(&roster(100..1100)) > 0);
            assert!(!k.is_settled());
            k
        };
        let sets = [
            sparse(&[1, 64, 700]),
            sparse(&[3, 129, 2400]),
            dense(600),
            dense(900),
            adopting(sparse(&[1, 64])),
            adopting(dense(600)),
        ];
        let masks: [Vec<u64>; 4] = [
            vec![],
            vec![0b10, 1],
            vec![u64::MAX; 12],
            (0..50)
                .map(|w| 0x9249_2492_4924_9249u64.rotate_left(w))
                .collect(),
        ];
        let mut held = 0;
        for a in &sets {
            for b in &sets {
                for mask in &masks {
                    let in_mask = |i: NodeId| {
                        let (w, bit) = word_bit(i.index());
                        word_at(mask, w) & bit != 0
                    };
                    let by_id = a.to_vec().into_iter().all(|i| b.contains(i) || in_mask(i));
                    assert_eq!(a.subset_of_union(b, mask), by_id);
                    held += by_id as usize;
                }
            }
        }
        assert!(
            held > sets.len() * masks.len(),
            "some pair other than a set and itself"
        );
        assert!(!sets[4].is_settled() && !sets[5].is_settled());
    }

    #[test]
    fn payloads_that_are_not_shared_merge_on_the_spot() {
        let mut k = KnowledgeSet::new(id(0));
        assert_eq!(k.adopt(&PointerList::from(vec![id(1), id(2)])), 2);
        assert_eq!(k.adopt(&(0..100).map(id).collect::<PointerList>()), 97);
        // Shared, but five ids over 16 words: no bitmap to count against.
        assert_eq!(
            k.adopt(&PointerList::shared(&[1, 2, 3, 4, 1000].map(id))),
            1
        );
        assert!(k.is_settled());
        assert_eq!(k.len(), 101);
    }

    #[test]
    fn the_adopted_state_costs_no_bytes_and_stays_thread_safe() {
        // HM holds three sets per node: 64 bytes before adoption, and
        // 64 after, because holding a payload is a variant of the
        // membership state (stored in the tier tag's spare values), not
        // a field beside it — and the seven ids of the small tier sit
        // in the bytes the heap tiers' vector takes.
        assert!(std::mem::size_of::<KnowledgeSet>() <= 64);
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KnowledgeSet>();
    }

    #[test]
    fn hm_nodes_and_envelopes_keep_their_sizes() {
        use crate::algorithms::hm::{HmMsg, HmNode};
        use std::mem::size_of;
        // Every node holds its state for the whole run and every
        // envelope is sized for the largest message. A join is one
        // shared allocation, so the largest message is a report and a
        // node's join retry handle is one pointer.
        // A list is three words (a heap list is a boxed slice, never a
        // vector) and a report's epoch 32 bits, so a report is 32 bytes
        // and so is every message, even a one-id probe.
        assert!(
            size_of::<PointerList>() <= 24,
            "{}",
            size_of::<PointerList>()
        );
        assert!(size_of::<HmNode>() <= 424, "{}", size_of::<HmNode>());
        assert!(size_of::<HmMsg>() <= 32, "{}", size_of::<HmMsg>());
        let envelope = size_of::<rd_sim::Envelope<HmMsg>>();
        assert!(envelope <= 40, "{envelope}");
        // Name-Dropper's one message: a list and the id it skips.
        let transfer = size_of::<rd_sim::Envelope<crate::algorithms::TransferMsg>>();
        assert!(transfer <= 40, "{transfer}");
    }

    #[test]
    fn a_set_that_sends_snapshots_keeps_one_buffer() {
        // Every snapshot held while the set learns 900 more ids: the
        // set appends past them in one buffer, grown only when full,
        // and counts that buffer — two bytes a slot, every id fitting
        // in 16 bits — and the bitmap on offer; nothing for the payloads
        // that still read an older one.
        let mut k: KnowledgeSet = (0..100).map(id).collect();
        let mut held = Vec::new();
        let shared = |k: &KnowledgeSet| match &k.list {
            List::Shared(list) => list.capacity(),
            List::Owned(_) => panic!("a set that has sent a snapshot shares its list"),
        };
        let mut capacities = vec![];
        for i in 100..1000 {
            held.push(k.snapshot());
            let before = shared(&k);
            k.insert(id(i));
            let Membership::Dense(bits) = k.tiers().0 else {
                panic!("dense")
            };
            // The bitmap offered with the last snapshot stays with the
            // set until the next one, unless the list left its buffer.
            let capacity = shared(&k);
            let offered = if capacity == before {
                held.last().unwrap().shared_bitmap().unwrap().len()
            } else {
                0
            };
            assert_eq!(
                k.resident_bytes(),
                std::mem::size_of::<KnowledgeSet>()
                    + 8 * bits.capacity()
                    + 2 * capacity
                    + 8 * offered
            );
            if capacities.last() != Some(&capacity) {
                capacities.push(capacity);
            }
        }
        assert_eq!(capacities, [128, 256, 512, 1024]);
        for (sent, payload) in held.iter().enumerate() {
            assert_eq!(
                payload.to_vec(),
                (0..100 + sent as u32).map(id).collect::<Vec<_>>()
            );
        }
        // Iterating reads the shared buffer in place; a slice is a
        // vector of the set's own again, of the same capacity at four
        // bytes an id, and the next snapshot shares it anew. The offered
        // bitmap stays with the payloads.
        let capacity = shared(&k);
        assert!(k.iter().eq((0..1000).map(id)));
        assert_eq!(shared(&k), capacity);
        assert_eq!(k.list().len(), 1000);
        assert!(matches!(k.list, List::Owned(_)));
        let Membership::Dense(bits) = k.tiers().0 else {
            panic!("dense")
        };
        assert_eq!(
            k.resident_bytes(),
            std::mem::size_of::<KnowledgeSet>() + 8 * bits.capacity() + 4 * capacity
        );
        assert_eq!(k.snapshot().to_vec(), k.to_vec());
        assert!(matches!(k.list, List::Shared(_)));
    }

    #[test]
    fn extend_trait_matches_inherent() {
        let mut k = KnowledgeSet::new(id(0));
        Extend::extend(&mut k, [id(1), id(2)]);
        assert_eq!(k.len(), 3);
        assert!(k.has_fresh());
    }
}
