//! In-process backend: a mutex-guarded map of namespaces. Clones share
//! state, so a test can hold one handle as "the process" and another as
//! "the process after restart" — the conformance suite's reopen step is
//! a no-op here by construction.

use crate::{
    validate_ns, NamespaceKind, NamespaceProfile, Pruned, Record, Result, StorageBackend,
    StorageError,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Namespace {
    profile: NamespaceProfile,
    records: BTreeMap<u64, Vec<u8>>,
    /// Next backend-assigned key for snapshot generations.
    next_gen: u64,
}

/// The ephemeral [`StorageBackend`]. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct MemoryBackend {
    state: Arc<Mutex<BTreeMap<String, Namespace>>>,
}

impl MemoryBackend {
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    fn with_ns<T>(&self, ns: &str, f: impl FnOnce(&mut Namespace) -> Result<T>) -> Result<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let space = state
            .get_mut(ns)
            .ok_or_else(|| StorageError::UnknownNamespace(ns.to_string()))?;
        f(space)
    }
}

impl StorageBackend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn define(&self, ns: &str, profile: NamespaceProfile) -> Result<()> {
        validate_ns(ns)?;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.get_mut(ns) {
            Some(space) => {
                if space.profile.kind != profile.kind {
                    return Err(StorageError::InvalidNamespace(format!(
                        "{ns:?} is {:?}, redefined as {:?}",
                        space.profile.kind, profile.kind
                    )));
                }
                space.profile = profile;
            }
            None => {
                state.insert(
                    ns.to_string(),
                    Namespace {
                        profile,
                        records: BTreeMap::new(),
                        next_gen: 0,
                    },
                );
            }
        }
        Ok(())
    }

    fn append(&self, ns: &str, key: u64, value: &[u8]) -> Result<u64> {
        self.with_ns(ns, |space| {
            let key = match space.profile.kind {
                NamespaceKind::Log => {
                    if let Some((&last, _)) = space.records.iter().next_back() {
                        if key <= last {
                            return Err(StorageError::NonMonotonicKey {
                                ns: ns.to_string(),
                                key,
                                last,
                            });
                        }
                    }
                    key
                }
                NamespaceKind::Snapshot => {
                    let k = space.next_gen;
                    space.next_gen += 1;
                    k
                }
            };
            space.records.insert(key, value.to_vec());
            if space.profile.kind == NamespaceKind::Snapshot {
                if let Some(cap) = space.profile.retention.max_records {
                    while space.records.len() as u64 > cap.max(1) {
                        let oldest = *space.records.keys().next().unwrap();
                        space.records.remove(&oldest);
                    }
                }
            }
            Ok(key)
        })
    }

    fn get(&self, ns: &str, key: u64) -> Result<Option<Vec<u8>>> {
        self.with_ns(ns, |space| Ok(space.records.get(&key).cloned()))
    }

    fn scan(&self, ns: &str, lo: u64, hi: u64) -> Result<Vec<Record>> {
        self.with_ns(ns, |space| {
            Ok(space
                .records
                .range(lo..=hi)
                .map(|(&key, value)| Record {
                    key,
                    value: value.clone(),
                })
                .collect())
        })
    }

    fn latest(&self, ns: &str) -> Result<Option<Record>> {
        self.with_ns(ns, |space| {
            Ok(space
                .records
                .iter()
                .next_back()
                .map(|(&key, value)| Record {
                    key,
                    value: value.clone(),
                }))
        })
    }

    fn len(&self, ns: &str) -> Result<u64> {
        self.with_ns(ns, |space| Ok(space.records.len() as u64))
    }

    fn retain(&self, ns: &str) -> Result<Pruned> {
        self.with_ns(ns, |space| {
            let sizes: Vec<(u64, u64)> = space
                .records
                .iter()
                .map(|(&k, v)| (k, v.len() as u64))
                .collect();
            let Some(cut) = space.profile.retention.cutoff(&sizes) else {
                return Ok(Pruned::default());
            };
            let mut pruned = Pruned::default();
            while let Some((&k, v)) = space.records.iter().next() {
                if k >= cut {
                    break;
                }
                pruned.records += 1;
                pruned.bytes += v.len() as u64;
                space.records.remove(&k);
            }
            Ok(pruned)
        })
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }
}
