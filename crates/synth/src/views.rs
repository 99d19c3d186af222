//! Hash-consed full-information views.
//!
//! A view is what a process knows: its role and input at round 0, and for
//! every later round, the pair (its previous view, the peer view it
//! received — or `⊥`). Structurally equal views get the same [`ViewId`],
//! so "the process cannot distinguish two executions" becomes id equality.
//!
//! A round-`r` view is keyed by round-`(r−1)` ids, so no key of one round
//! can equal a key of another: [`ViewArena::next_round`] drops the intern
//! table between rounds while ids keep counting up, and the arena holds
//! only the current round's keys.

use minobs_core::letter::Role;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub u32);

/// The defining structure of a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKey {
    /// Round-0 view: who I am and what I propose.
    Base {
        /// The process.
        role: Role,
        /// Its input bit.
        input: bool,
    },
    /// Later view: my previous view plus what I received (`None` = null).
    Extend {
        /// My view one round earlier.
        prev: ViewId,
        /// The peer's view I received this round, if delivered.
        received: Option<ViewId>,
    },
}

impl ViewKey {
    /// Twelve bytes a table entry, with the id, instead of sixteen: a
    /// base view packs as `(u32::MAX, role·2 + input)`, which no extended
    /// view can equal since no id reaches `u32::MAX`; `None` packs as
    /// `u32::MAX`.
    fn pack(self) -> (u32, u32) {
        match self {
            ViewKey::Base { role, input } => (u32::MAX, 2 * role as u32 + input as u32),
            ViewKey::Extend { prev, received } => (prev.0, received.map_or(u32::MAX, |v| v.0)),
        }
    }
}

/// The intern table's hasher: the packed key through MurmurHash3's
/// 64-bit finalizer, which spreads every key bit over both the bucket
/// index (low bits) and the control tag (top bits).
///
/// Keys are view ids the checker assigns, never outside input, so SipHash's
/// flooding resistance buys nothing here. What matters is that hashing
/// inlines into the expand loop: with SipHash, `hash_one` stayed out of
/// line in builds that also link the parallel viability batch, and the
/// expand phase ran about 2.5 times slower (R1 at horizon 11: ~110 ms vs
/// ~280 ms on a 2-vCPU x86-64 VM).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 << 8) | u64::from(byte);
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0 << 32) | u64::from(word);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The intern table: ids are assigned in first-seen order and never
/// reused; the keys are kept for the current round only.
#[derive(Debug, Default)]
pub struct ViewArena {
    ids: HashMap<(u32, u32), ViewId, BuildHasherDefault<KeyHasher>>,
    len: u32,
}

impl ViewArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a key.
    pub fn intern(&mut self, key: ViewKey) -> ViewId {
        let next = ViewId(self.len);
        let id = *self.ids.entry(key.pack()).or_insert(next);
        if id == next {
            // `pack` needs every id below `u32::MAX`.
            assert!(self.len < u32::MAX - 1, "view ids exhausted");
            self.len += 1;
        }
        id
    }

    /// The base view of `(role, input)`.
    pub fn base(&mut self, role: Role, input: bool) -> ViewId {
        self.intern(ViewKey::Base { role, input })
    }

    /// Extends `prev` by a received peer view (or `None`).
    pub fn extend(&mut self, prev: ViewId, received: Option<ViewId>) -> ViewId {
        self.intern(ViewKey::Extend { prev, received })
    }

    /// Forgets the current round's keys before the next round is
    /// interned, sizing the table for `expected` new views so it need not
    /// grow (and hold its old copy) mid-round. Ids already handed out
    /// stay valid and are not reused.
    pub fn next_round(&mut self, expected: usize) {
        self.ids = HashMap::with_capacity_and_hasher(expected, Default::default());
    }

    /// Number of distinct views interned, over all rounds.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let mut arena = ViewArena::new();
        let a = arena.base(Role::White, true);
        let b = arena.base(Role::White, true);
        let c = arena.base(Role::White, false);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn extension_structure_matters() {
        let mut arena = ViewArena::new();
        let w = arena.base(Role::White, true);
        let b = arena.base(Role::Black, false);
        let got = arena.extend(w, Some(b));
        let null = arena.extend(w, None);
        assert_ne!(got, null);
        assert_eq!(arena.extend(w, Some(b)), got);
    }

    #[test]
    fn ids_keep_counting_across_rounds() {
        let mut arena = ViewArena::new();
        let w = arena.base(Role::White, true);
        let b = arena.base(Role::Black, false);
        arena.next_round(0);
        let v1 = arena.extend(w, Some(b));
        assert_eq!(v1, ViewId(2));
        assert_eq!(arena.extend(w, Some(b)), v1, "dedup within a round");
        arena.next_round(0);
        let v2 = arena.extend(v1, None);
        assert_eq!(v2, ViewId(3));
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn identical_histories_converge_across_inputs() {
        // Black never hears White: Black's view is independent of White's
        // input — the core of every indistinguishability argument.
        let mut arena = ViewArena::new();
        let b = arena.base(Role::Black, true);
        let b_after_silence_1 = arena.extend(b, None);
        let b_after_silence_2 = arena.extend(b, None);
        assert_eq!(b_after_silence_1, b_after_silence_2);
    }
}
