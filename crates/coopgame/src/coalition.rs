//! Bitmask coalitions and subset enumeration.

use std::fmt;

/// A player in a cooperative game, identified by a zero-based index.
///
/// In `fairsched`, players are organizations; the index matches the
/// organization index in the trace.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Player(pub usize);

/// A coalition (subset of players) represented as a bitmask.
///
/// Supports up to 64 players; the fair-scheduling algorithms built on top
/// are exponential in the player count, so in practice far fewer are used.
///
/// The bitmask representation gives:
/// * O(1) membership / insert / remove / union / intersection,
/// * a dense index (`bits()`) for array-backed per-coalition tables,
/// * `O(2^|C|)` enumeration of all subsets of a coalition via the standard
///   `sub = (sub - 1) & mask` trick ([`Coalition::subsets`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Coalition(u64);

impl Coalition {
    /// The empty coalition.
    pub const EMPTY: Coalition = Coalition(0);

    /// The most players a coalition can hold: the width of its bitmask.
    pub const MAX_PLAYERS: usize = 64;

    /// The grand coalition of players `0..n`.
    ///
    /// # Panics
    /// Panics if `n > Coalition::MAX_PLAYERS`.
    #[inline]
    pub fn grand(n: usize) -> Self {
        assert!(n <= Self::MAX_PLAYERS, "at most 64 players are supported");
        if n == Self::MAX_PLAYERS {
            Coalition(u64::MAX)
        } else {
            Coalition((1u64 << n) - 1)
        }
    }

    /// The coalition containing only `player`.
    #[inline]
    pub fn singleton(player: Player) -> Self {
        assert!(player.0 < 64, "player index out of range");
        Coalition(1u64 << player.0)
    }

    /// Builds a coalition from a raw bitmask.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        Coalition(bits)
    }

    /// The raw bitmask. Bit `i` is set iff player `i` is a member.
    ///
    /// Suitable as a dense index into a `Vec` of length `2^n`.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Number of members.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the coalition has no members.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `player` is a member.
    #[inline]
    pub const fn contains(self, player: Player) -> bool {
        player.0 < 64 && (self.0 >> player.0) & 1 == 1
    }

    /// The coalition with `player` added.
    #[inline]
    pub fn insert(self, player: Player) -> Self {
        assert!(player.0 < 64, "player index out of range");
        Coalition(self.0 | (1u64 << player.0))
    }

    /// The coalition with `player` removed.
    #[inline]
    pub fn remove(self, player: Player) -> Self {
        assert!(player.0 < 64, "player index out of range");
        Coalition(self.0 & !(1u64 << player.0))
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: Coalition) -> Self {
        Coalition(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersection(self, other: Coalition) -> Self {
        Coalition(self.0 & other.0)
    }

    /// Set difference (`self` minus `other`).
    #[inline]
    pub const fn difference(self, other: Coalition) -> Self {
        Coalition(self.0 & !other.0)
    }

    /// Whether `self` is a (non-strict) subset of `other`.
    #[inline]
    pub const fn is_subset_of(self, other: Coalition) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over the members in increasing index order.
    #[inline]
    pub fn members(self) -> impl Iterator<Item = Player> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(Player(i))
            }
        })
    }

    /// Iterates over **all** subsets of this coalition, including the empty
    /// coalition and the coalition itself. Yields `2^len` coalitions.
    #[inline]
    pub fn subsets(self) -> SubsetIter {
        SubsetIter { mask: self.0, sub: self.0, done: false }
    }

    /// Iterates over all **proper** subsets (everything except `self`).
    #[inline]
    pub fn proper_subsets(self) -> impl Iterator<Item = Coalition> {
        let me = self;
        self.subsets().filter(move |&c| c != me)
    }

    /// Iterates over all supersets of `self` within `universe` (both
    /// included), i.e. every `T` with `self ⊆ T ⊆ universe`. Yields
    /// `2^(|universe| − |self|)` coalitions.
    ///
    /// This is the dual of [`Coalition::subsets`]: enumerating the free
    /// positions `universe ∖ self` with the `(x − 1) & mask` trick. The
    /// coalition lattice uses it to invalidate the Shapley caches of every
    /// tracked coalition sitting above a changed sub-simulation.
    ///
    /// # Panics
    /// Panics (in debug builds) if `self` is not a subset of `universe`.
    #[inline]
    pub fn supersets_within(self, universe: Coalition) -> SupersetIter {
        debug_assert!(
            self.is_subset_of(universe),
            "supersets_within requires self ⊆ universe"
        );
        let free = universe.0 & !self.0;
        SupersetIter { base: self.0, free, x: free, done: false }
    }
}

impl fmt::Debug for Coalition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.members() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", p.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Coalition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<Player> for Coalition {
    fn from_iter<T: IntoIterator<Item = Player>>(iter: T) -> Self {
        let mut c = Coalition::EMPTY;
        for p in iter {
            c = c.insert(p);
        }
        c
    }
}

/// Iterator over all subsets of a coalition, produced by the
/// `sub = (sub - 1) & mask` enumeration (descending bitmask order, ending
/// with the empty set).
pub struct SubsetIter {
    mask: u64,
    sub: u64,
    done: bool,
}

impl Iterator for SubsetIter {
    type Item = Coalition;

    #[inline]
    fn next(&mut self) -> Option<Coalition> {
        if self.done {
            return None;
        }
        let current = Coalition(self.sub);
        if self.sub == 0 {
            self.done = true;
        } else {
            self.sub = (self.sub - 1) & self.mask;
        }
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            // Exact count is 2^(remaining set bits pattern) which is cheap to
            // bound but not to compute exactly mid-iteration; give the trivial
            // upper bound.
            let max = 1usize.checked_shl(self.mask.count_ones()).unwrap_or(usize::MAX);
            (1, Some(max))
        }
    }
}

/// Iterator over the supersets of a coalition within a universe, produced
/// by enumerating subsets of the free positions (descending bitmask order,
/// starting at the universe and ending with the base coalition itself).
pub struct SupersetIter {
    base: u64,
    free: u64,
    x: u64,
    done: bool,
}

impl Iterator for SupersetIter {
    type Item = Coalition;

    #[inline]
    fn next(&mut self) -> Option<Coalition> {
        if self.done {
            return None;
        }
        let current = Coalition(self.base | self.x);
        if self.x == 0 {
            self.done = true;
        } else {
            self.x = (self.x - 1) & self.free;
        }
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            let max = 1usize.checked_shl(self.free.count_ones()).unwrap_or(usize::MAX);
            (1, Some(max))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn grand_coalition_has_all_players() {
        let g = Coalition::grand(5);
        assert_eq!(g.len(), 5);
        for i in 0..5 {
            assert!(g.contains(Player(i)));
        }
        assert!(!g.contains(Player(5)));
    }

    #[test]
    fn grand_64_players() {
        let g = Coalition::grand(64);
        assert_eq!(g.len(), 64);
        assert!(g.contains(Player(63)));
    }

    #[test]
    fn empty_is_empty() {
        assert!(Coalition::EMPTY.is_empty());
        assert_eq!(Coalition::EMPTY.len(), 0);
        assert_eq!(Coalition::EMPTY.members().count(), 0);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let c = Coalition::EMPTY.insert(Player(3)).insert(Player(7));
        assert_eq!(c.len(), 2);
        assert!(c.contains(Player(3)));
        assert!(c.contains(Player(7)));
        let c2 = c.remove(Player(3));
        assert!(!c2.contains(Player(3)));
        assert!(c2.contains(Player(7)));
    }

    #[test]
    fn set_operations() {
        let a: Coalition = [Player(0), Player(1)].into_iter().collect();
        let b: Coalition = [Player(1), Player(2)].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b), Coalition::singleton(Player(1)));
        assert_eq!(a.difference(b), Coalition::singleton(Player(0)));
        assert!(a.intersection(b).is_subset_of(a));
        assert!(a.is_subset_of(a));
        assert!(!a.is_subset_of(b));
    }

    #[test]
    fn subsets_enumerates_powerset() {
        let c = Coalition::grand(4);
        let subs: Vec<_> = c.subsets().collect();
        assert_eq!(subs.len(), 16);
        let unique: HashSet<_> = subs.iter().copied().collect();
        assert_eq!(unique.len(), 16);
        assert!(unique.contains(&Coalition::EMPTY));
        assert!(unique.contains(&c));
    }

    #[test]
    fn subsets_of_sparse_mask() {
        let c: Coalition = [Player(1), Player(4), Player(9)].into_iter().collect();
        let subs: Vec<_> = c.subsets().collect();
        assert_eq!(subs.len(), 8);
        for s in subs {
            assert!(s.is_subset_of(c));
        }
    }

    #[test]
    fn proper_subsets_excludes_self() {
        let c = Coalition::grand(3);
        let subs: Vec<_> = c.proper_subsets().collect();
        assert_eq!(subs.len(), 7);
        assert!(!subs.contains(&c));
    }

    #[test]
    fn subsets_of_empty() {
        let subs: Vec<_> = Coalition::EMPTY.subsets().collect();
        assert_eq!(subs, vec![Coalition::EMPTY]);
    }

    #[test]
    fn debug_format() {
        let c: Coalition = [Player(0), Player(2)].into_iter().collect();
        assert_eq!(format!("{c:?}"), "{0,2}");
    }

    #[test]
    fn supersets_within_enumerates_interval() {
        let base = Coalition::singleton(Player(1));
        let universe = Coalition::grand(3);
        let sups: HashSet<_> = base.supersets_within(universe).collect();
        assert_eq!(sups.len(), 4); // {1}, {0,1}, {1,2}, {0,1,2}
        assert!(sups.contains(&base));
        assert!(sups.contains(&universe));
        for s in &sups {
            assert!(base.is_subset_of(*s) && s.is_subset_of(universe));
        }
    }

    #[test]
    fn supersets_within_self_universe() {
        let c = Coalition::grand(4);
        let sups: Vec<_> = c.supersets_within(c).collect();
        assert_eq!(sups, vec![c]);
    }

    proptest! {
        #[test]
        fn prop_members_roundtrip(bits in 0u64..(1 << 16)) {
            let c = Coalition::from_bits(bits);
            let rebuilt: Coalition = c.members().collect();
            prop_assert_eq!(c, rebuilt);
            prop_assert_eq!(c.len(), c.members().count());
        }

        #[test]
        fn prop_subset_count_is_power_of_two(bits in 0u64..(1 << 12)) {
            let c = Coalition::from_bits(bits);
            let count = c.subsets().count();
            prop_assert_eq!(count, 1usize << c.len());
        }

        #[test]
        fn prop_all_subsets_are_subsets(bits in 0u64..(1 << 10)) {
            let c = Coalition::from_bits(bits);
            for s in c.subsets() {
                prop_assert!(s.is_subset_of(c));
                prop_assert_eq!(s.union(c), c);
                prop_assert_eq!(s.intersection(c), s);
            }
        }

        #[test]
        fn prop_supersets_are_subset_duals(bits in 0u64..(1 << 10)) {
            // Supersets of S within U ↔ complements of subsets of U∖S.
            let u = Coalition::grand(10);
            let s = Coalition::from_bits(bits);
            let sups: HashSet<_> = s.supersets_within(u).collect();
            prop_assert_eq!(sups.len(), 1usize << (10 - s.len()));
            for t in u.subsets() {
                prop_assert_eq!(sups.contains(&t), s.is_subset_of(t));
            }
        }

        #[test]
        fn prop_union_intersection_laws(a in 0u64..(1 << 14), b in 0u64..(1 << 14)) {
            let (a, b) = (Coalition::from_bits(a), Coalition::from_bits(b));
            // |A ∪ B| + |A ∩ B| = |A| + |B|
            prop_assert_eq!(
                a.union(b).len() + a.intersection(b).len(),
                a.len() + b.len()
            );
            prop_assert_eq!(a.difference(b).union(a.intersection(b)), a);
        }
    }
}
