//! Dense host-identity interning.
//!
//! The grouping and correlation algorithms are pure graph computations
//! over host *identities*; the address bytes only matter at the
//! report/CLI boundary. [`HostTable`] interns every [`HostAddr`] seen by
//! the pipeline into a dense [`HostId`] (a `u32` index) exactly once:
//!
//! * **append-only** — interned addresses are never removed, so a
//!   [`HostId`] handed out stays valid (and means the same host) for the
//!   lifetime of the table;
//! * **stable across windows** — the aggregator threads one table
//!   through every window and checkpoint, so cross-window correlation
//!   never re-keys;
//! * **O(1) both ways** — `id -> addr` is an arena index, `addr -> id`
//!   a hash lookup.
//!
//! The aggregator's master table is the one place ids live: each
//! window's members are interned into it as the window is built
//! ([`crate::ConnsetBuilder::build_into`]), and checkpoints persist it.
//! [`crate::ConnectionSets`] itself carries content only (addresses,
//! pairs, direction counts), keyed by address-sorted rows.

use crate::addr::HostAddr;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::HashMap;

/// Dense identifier of an interned host address.
///
/// Ids are indices into the issuing [`HostTable`]'s arena: the first
/// interned address gets id 0, the next id 1, and so on with no holes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl HostId {
    /// The id as an array index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h#{}", self.0)
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Append-only arena interning [`HostAddr`]s into dense [`HostId`]s.
#[derive(Clone, Debug, Default)]
pub struct HostTable {
    addrs: Vec<HostAddr>,
    ids: HashMap<HostAddr, u32>,
}

impl HostTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `addr`, returning its dense id. Re-interning a known
    /// address returns the id issued the first time.
    ///
    /// # Panics
    ///
    /// Panics if the table would exceed `u32::MAX` hosts.
    pub fn intern(&mut self, addr: HostAddr) -> HostId {
        if let Some(&id) = self.ids.get(&addr) {
            return HostId(id);
        }
        let id = u32::try_from(self.addrs.len()).expect("host table overflow");
        self.addrs.push(addr);
        self.ids.insert(addr, id);
        HostId(id)
    }

    /// The id of an already-interned address, if any. Never allocates.
    #[inline]
    pub fn get(&self, addr: HostAddr) -> Option<HostId> {
        self.ids.get(&addr).copied().map(HostId)
    }

    /// The address behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    #[inline]
    pub fn addr(&self, id: HostId) -> HostAddr {
        self.addrs[id.index()]
    }

    /// Number of interned hosts; also the next id to be issued.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Returns `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Iterates over `(id, addr)` in id (interning) order.
    pub fn iter(&self) -> impl Iterator<Item = (HostId, HostAddr)> + '_ {
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (HostId(i as u32), a))
    }
}

// Serialized as the arena alone (addresses in id order); the reverse map
// is rebuilt on deserialization. Interning the same addresses in the
// same order into a fresh table reproduces the same ids, which is what
// makes checkpointed tables restore losslessly.
impl Serialize for HostTable {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.addrs.serialize(s)
    }
}

impl<'de> Deserialize<'de> for HostTable {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let addrs: Vec<HostAddr> = Vec::deserialize(d)?;
        let mut ids = HashMap::with_capacity(addrs.len());
        for (i, &a) in addrs.iter().enumerate() {
            if ids.insert(a, i as u32).is_some() {
                return Err(serde::de::Error::custom(format!(
                    "duplicate address {a} in host table"
                )));
            }
        }
        Ok(HostTable { addrs, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_stable() {
        let mut t = HostTable::new();
        let a = t.intern(HostAddr::from_octets(10, 0, 0, 1));
        let b = t.intern(HostAddr::from_octets(10, 0, 0, 2));
        assert_eq!((a, b), (HostId(0), HostId(1)));
        // Re-interning returns the original id and allocates nothing.
        assert_eq!(t.intern(HostAddr::from_octets(10, 0, 0, 1)), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reverse_lookup_round_trips() {
        let mut t = HostTable::new();
        let addr = HostAddr::from_octets(192, 168, 0, 7);
        let id = t.intern(addr);
        assert_eq!(t.addr(id), addr);
        assert_eq!(t.get(addr), Some(id));
        assert_eq!(t.get(HostAddr::from_octets(1, 1, 1, 1)), None);
    }

    #[test]
    fn serde_preserves_ids() {
        let mut t = HostTable::new();
        for d in 1..=5u8 {
            t.intern(HostAddr::from_octets(10, 0, 0, d));
        }
        let json = serde_json::to_string(&t).unwrap();
        let back: HostTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), t.len());
        for (id, addr) in t.iter() {
            assert_eq!(back.addr(id), addr);
            assert_eq!(back.get(addr), Some(id));
        }
    }

    #[test]
    fn deserialize_rejects_duplicates() {
        let json = "[\"10.0.0.1\",\"10.0.0.1\"]";
        assert!(serde_json::from_str::<HostTable>(json).is_err());
    }
}
