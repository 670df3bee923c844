//! Node identifiers.

use std::borrow::Borrow;
use std::fmt;

/// A globally unique machine identifier that doubles as a network
/// address (the *direct addressing* assumption: any node that learns a
/// `NodeId` may send to it).
///
/// Identifiers are dense indices `0..n` in the simulator, but protocols
/// must treat them as opaque — the only operations the model grants are
/// equality and an arbitrary total order (used for tie-breaking, e.g.
/// leader election by maximum identifier).
///
/// # Example
///
/// ```
/// use rd_sim::NodeId;
///
/// let a = NodeId::new(3);
/// let b = NodeId::new(7);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Wraps a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index, for simulator-side bookkeeping (mailbox routing,
    /// metrics vectors). Protocol code should not need this.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Words in the bitmap of `ids`: it ends at the word of the largest
    /// id, and is empty for no ids.
    pub fn bitmap_words(ids: impl IntoIterator<Item = impl Borrow<NodeId>>) -> usize {
        ids.into_iter()
            .map(|id| id.borrow().index())
            .max()
            .map_or(0, |top| top / 64 + 1)
    }

    /// The density rule: `ids` distinct ids are worth holding as a
    /// bitmap of `words` words only if they outnumber its words. At
    /// 8 bytes a word against at least 4 an id, such a bitmap never
    /// costs twice what listing the ids does, and it answers membership
    /// in one read. A shared payload offers a bitmap by it, and a
    /// knowledge set leaves its sorted tier by it.
    pub const fn worth_a_bitmap(ids: usize, words: usize) -> bool {
        ids > words
    }

    /// `ids` as a bitmap of `words` words: id `i` is bit `i % 64` of
    /// word `i / 64`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is less than [`bitmap_words`](Self::bitmap_words)
    /// of `ids`.
    pub fn bitmap(ids: impl IntoIterator<Item = impl Borrow<NodeId>>, words: usize) -> Vec<u64> {
        let mut bitmap = vec![0u64; words];
        for id in ids {
            let i = id.borrow().index();
            bitmap[i / 64] |= 1 << (i % 64);
        }
        bitmap
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> u32 {
        id.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(5), NodeId::new(5));
    }

    #[test]
    fn roundtrip_conversions() {
        let id = NodeId::from(9u32);
        assert_eq!(u32::from(id), 9);
        assert_eq!(id.index(), 9);
    }

    #[test]
    fn hashable() {
        let set: HashSet<NodeId> = [0, 1, 1, 2].into_iter().map(NodeId::new).collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn debug_and_display_nonempty() {
        assert_eq!(format!("{}", NodeId::new(4)), "n4");
        assert_eq!(format!("{:?}", NodeId::new(4)), "NodeId(4)");
    }

    #[test]
    fn a_bitmap_is_worth_it_once_ids_outnumber_its_words() {
        assert!(!NodeId::worth_a_bitmap(0, 0));
        assert!(!NodeId::worth_a_bitmap(5, 5));
        assert!(NodeId::worth_a_bitmap(6, 5));
        assert!(!NodeId::worth_a_bitmap(5, 938));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
