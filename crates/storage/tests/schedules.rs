//! Property tests: the segment backend tracks a reference model through
//! random append / flush / retain / crash / reopen schedules.
//!
//! The crash model matches the documented contract: appends are
//! flushed per record, so a crash (simulated by tearing the tail of
//! the newest data file) destroys at most the final record. The model
//! therefore drops its last record on Crash and must agree with the
//! backend on every scan afterwards. Retention is exact, so the model
//! drops exactly the oldest records beyond the bound.

mod support;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::Path;
use storage::{NamespaceProfile, Retention, StorageBackend};
use support::{open, tear_tail, temp_base};

#[derive(Clone, Debug)]
enum Op {
    /// Append with a key `gap+1` above the previous one.
    Append {
        gap: u8,
        len: u8,
    },
    Flush,
    /// Apply `keep_records(keep)` retention.
    Retain {
        keep: u8,
    },
    Reopen,
    /// Tear the tail of the newest data file, then reopen.
    Crash,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(sel, gap, len)| match sel % 9 {
        0..=3 => Op::Append { gap, len },
        4 => Op::Flush,
        5 => Op::Retain { keep: gap % 8 },
        6 | 7 => Op::Reopen,
        _ => Op::Crash,
    })
}

fn check_schedule(root: &Path, ops: &[Op], tag: u64) -> Result<(), TestCaseError> {
    let ns = format!("sched-{tag}");
    let mut model: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut next_key = 0u64;
    let mut backend = open(root);
    backend
        .define(&ns, NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    for op in ops {
        match op {
            Op::Append { gap, len } => {
                let key = next_key + u64::from(*gap);
                let value: Vec<u8> = (0..*len).map(|i| i ^ (key as u8)).collect();
                let assigned = backend.append(&ns, key, &value).unwrap();
                prop_assert_eq!(assigned, key);
                model.push((key, value));
                next_key = key + 1;
            }
            Op::Flush => backend.flush().unwrap(),
            Op::Retain { keep } => {
                let keep = u64::from(*keep);
                backend
                    .define(
                        &ns,
                        NamespaceProfile::log(Retention::unbounded().keep_records(keep)),
                    )
                    .unwrap();
                let pruned = backend.retain(&ns).unwrap();
                let drop = model.len().saturating_sub(keep.max(1) as usize);
                model.drain(..drop);
                prop_assert_eq!(pruned.records, drop as u64);
            }
            Op::Reopen => {
                drop(backend);
                backend = open(root);
                backend
                    .define(&ns, NamespaceProfile::log(Retention::unbounded()))
                    .unwrap();
            }
            Op::Crash => {
                if model.is_empty() {
                    continue;
                }
                drop(backend);
                tear_tail(root, &ns);
                backend = open(root);
                backend
                    .define(&ns, NamespaceProfile::log(Retention::unbounded()))
                    .unwrap();
                // The contract: a crash destroys AT MOST the final
                // record. A tear may also destroy nothing — e.g. the
                // newest file held no records yet — so resync the model
                // to whichever of the two permitted states survived.
                let survived = backend.len(&ns).unwrap();
                prop_assert!(
                    survived + 1 >= model.len() as u64 && survived <= model.len() as u64,
                    "crash destroyed more than the final record ({} of {})",
                    survived,
                    model.len()
                );
                if survived < model.len() as u64 {
                    model.pop();
                    // Keys below a retention cutoff stay refused even
                    // when the tear left nothing above it.
                    next_key = model.last().map_or(next_key, |(k, _)| k + 1);
                }
            }
        }
        // The backend agrees with the model on every read path.
        let got: Vec<(u64, Vec<u8>)> = backend
            .scan(&ns, 0, u64::MAX)
            .unwrap()
            .into_iter()
            .map(|r| (r.key, r.value))
            .collect();
        prop_assert_eq!(&got, &model, "diverged from the model");
        prop_assert_eq!(backend.len(&ns).unwrap(), model.len() as u64);
        let latest = backend.latest(&ns).unwrap().map(|r| (r.key, r.value));
        prop_assert_eq!(&latest, &model.last().cloned());
        if let Some((k, v)) = model.last() {
            let got = backend.get(&ns, *k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One random schedule, replayed against the segment backend.
    #[test]
    fn backends_track_the_model_through_crashy_schedules(
        ops in prop::collection::vec(arb_op(), 1..30),
        tag in any::<u64>(),
    ) {
        let base = temp_base(&format!("sched-{tag}"));
        check_schedule(&base, &ops, tag)?;
        let _ = std::fs::remove_dir_all(&base);
    }
}
