//! Id-only name index for [`Netlist`](crate::Netlist) devices and nets.
//!
//! A `HashMap<String, Id>` keeps a second copy of every name next to
//! the one in the `Device`/`Net` record. This index stores only the id
//! and a 32-bit hash tag per slot; on a tag hit it reads the candidate's
//! name back from the record through a caller-supplied closure. Names
//! are therefore stored once, and dropping a netlist frees one string
//! per device and per net instead of two.
//!
//! The table is open-addressed with linear probing and grows by
//! doubling at 3/4 load. Names are hashed with one [`RandomState`]
//! created per process, so a deck posted to a long-running daemon
//! cannot be crafted to collide. Slot order depends on that seed; the
//! index is therefore never iterated, and device and net order come
//! from the records alone.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// Marks an empty slot (ids stay below `u32::MAX`).
const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    id: u32,
    /// The low 32 bits of the name's hash; also its home position.
    tag: u32,
}

const VACANT: Slot = Slot { id: EMPTY, tag: 0 };

/// Open-addressed map from a name (held elsewhere) to its id.
#[derive(Clone, Default)]
pub(crate) struct NameIndex {
    slots: Vec<Slot>,
    len: usize,
}

impl std::fmt::Debug for NameIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameIndex")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl NameIndex {
    /// The id stored under `name`, whose [`hash`] is `h`. `name_of`
    /// returns the stored name of a candidate id.
    #[inline]
    pub(crate) fn get<'a>(
        &self,
        h: u64,
        name: &str,
        name_of: impl Fn(u32) -> &'a str,
    ) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = h as u32;
        let mut pos = tag as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot.id == EMPTY {
                return None;
            }
            if slot.tag == tag && name_of(slot.id) == name {
                return Some(slot.id);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Stores `id` under hash `h`. The caller has checked with
    /// [`NameIndex::get`] that the name is absent.
    pub(crate) fn insert(&mut self, h: u64, id: u32) {
        debug_assert_ne!(id, EMPTY, "id space exhausted");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let tag = h as u32;
        self.place(Slot { id, tag });
        self.len += 1;
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut pos = slot.tag as usize & mask;
        while self.slots[pos].id != EMPTY {
            pos = (pos + 1) & mask;
        }
        self.slots[pos] = slot;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; cap]);
        for slot in old {
            if slot.id != EMPTY {
                self.place(slot);
            }
        }
    }
}

/// Hash of a name, for [`NameIndex`], seeded once per process.
#[inline]
pub(crate) fn hash(name: &str) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name table plus its index, the way `Netlist` pairs them.
    #[derive(Default)]
    struct Table {
        names: Vec<String>,
        index: NameIndex,
    }

    impl Table {
        fn find(&self, name: &str) -> Option<u32> {
            self.index
                .get(hash(name), name, |i| self.names[i as usize].as_str())
        }

        fn intern(&mut self, name: &str) -> u32 {
            if let Some(id) = self.find(name) {
                return id;
            }
            let id = self.names.len() as u32;
            self.index.insert(hash(name), id);
            self.names.push(name.to_string());
            id
        }
    }

    #[test]
    fn every_length_class_round_trips() {
        let mut t = Table::default();
        let names: Vec<String> = (0..40).map(|n| "n".repeat(n)).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.intern(name), i as u32);
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(t.find(name), Some(i as u32), "{name:?}");
        }
        assert_eq!(t.find(&"n".repeat(40)), None);
    }

    #[test]
    fn hash_is_stable_within_a_process_and_spreads_near_names() {
        assert_eq!(hash("xu1.mp"), hash("xu1.mp"));
        assert_ne!(hash("xu1.mp"), hash("xu1.mn"));
        assert_ne!(hash("ab"), hash("ba"));
        assert_ne!(hash(""), hash("\0"));
        // A trailing zero byte still changes the hash.
        assert_ne!(hash("abcd"), hash("abcd\0"));
    }

    #[test]
    fn empty_index_misses() {
        let t = Table::default();
        assert_eq!(t.find("anything"), None);
        assert_eq!(t.find(""), None);
    }
}
