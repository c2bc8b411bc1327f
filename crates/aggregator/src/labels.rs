//! Persistent role labels for groups.
//!
//! "The system allows a network manager to label each identified group
//! with descriptive roles" (Section 2) — and the whole point of the
//! correlation algorithm is that those labels survive re-runs because
//! the ids they hang off stay stable. The store is a simple JSON
//! document so operators can inspect and version it.

use roleclass::GroupId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Group id → administrator-assigned role label.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelStore {
    labels: BTreeMap<GroupId, String>,
}

impl LabelStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the label of a group, returning the previous label if any.
    pub fn set(&mut self, id: GroupId, label: &str) -> Option<String> {
        self.labels.insert(id, label.to_string())
    }

    /// The label of a group, if assigned.
    pub fn get(&self, id: GroupId) -> Option<&str> {
        self.labels.get(&id).map(String::as_str)
    }

    /// Removes a label.
    pub fn remove(&mut self, id: GroupId) -> Option<String> {
        self.labels.remove(&id)
    }

    /// Number of labeled groups.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when nothing is labeled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over `(id, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, &str)> + '_ {
        self.labels.iter().map(|(&id, l)| (id, l.as_str()))
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Saves to a file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads from a file.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut s = LabelStore::new();
        assert!(s.is_empty());
        assert_eq!(s.set(GroupId(1), "engineering"), None);
        assert_eq!(s.set(GroupId(1), "eng"), Some("engineering".into()));
        assert_eq!(s.get(GroupId(1)), Some("eng"));
        assert_eq!(s.remove(GroupId(1)), Some("eng".into()));
        assert_eq!(s.get(GroupId(1)), None);
    }

    #[test]
    fn json_round_trip() {
        let mut s = LabelStore::new();
        s.set(GroupId(1), "eng");
        s.set(GroupId(2), "sales");
        let back = LabelStore::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn file_round_trip() {
        let mut s = LabelStore::new();
        s.set(GroupId(7), "ip-phones");
        let dir = std::env::temp_dir().join("roleclass-labelstore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.json");
        s.save(&path).unwrap();
        let back = LabelStore::load(&path).unwrap();
        assert_eq!(s, back);
        std::fs::remove_file(&path).ok();
    }
}
