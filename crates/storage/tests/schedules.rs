//! Property tests: every backend tracks a reference model through
//! random append / flush / crash / reopen schedules.
//!
//! The crash model matches the documented contract: appends are
//! flushed per record, so a crash (simulated by tearing the tail of
//! the newest data file) destroys at most the final record. The model
//! therefore drops its last record on Crash and must agree with the
//! backend on every scan afterwards.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use storage::conformance::{fixtures, temp_base, Fixture};
use storage::{NamespaceProfile, Retention};

#[derive(Clone, Debug)]
enum Op {
    /// Append with a key `gap+1` above the previous one.
    Append {
        gap: u8,
        len: u8,
    },
    Flush,
    Reopen,
    /// Tear the tail of the newest data file, then reopen.
    Crash,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(sel, gap, len)| match sel % 8 {
        0..=3 => Op::Append { gap, len },
        4 => Op::Flush,
        5 | 6 => Op::Reopen,
        _ => Op::Crash,
    })
}

fn check_schedule(fix: &Fixture, ops: &[Op], tag: u64) -> Result<(), TestCaseError> {
    let ns = format!("sched-{tag}");
    let mut model: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut next_key = 0u64;
    let mut backend = fix.open();
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
            Op::Reopen => {
                drop(backend);
                backend = fix.open();
                backend
                    .define(&ns, NamespaceProfile::log(Retention::unbounded()))
                    .unwrap();
            }
            Op::Crash => {
                if !fix.can_tear() || model.is_empty() {
                    continue;
                }
                drop(backend);
                fix.tear_tail(&ns);
                backend = fix.open();
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
                    "{}: crash destroyed more than the final record ({} of {})",
                    fix.name,
                    survived,
                    model.len()
                );
                if survived < model.len() as u64 {
                    model.pop();
                }
                next_key = model.last().map_or(0, |(k, _)| k + 1);
            }
        }
        // The backend agrees with the model on every read path.
        let got: Vec<(u64, Vec<u8>)> = backend
            .scan(&ns, 0, u64::MAX)
            .unwrap()
            .into_iter()
            .map(|r| (r.key, r.value))
            .collect();
        prop_assert_eq!(&got, &model, "{} diverged from the model", fix.name);
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

    /// One random schedule, replayed against both backends.
    #[test]
    fn backends_track_the_model_through_crashy_schedules(
        ops in prop::collection::vec(arb_op(), 1..30),
        tag in any::<u64>(),
    ) {
        let base = temp_base(&format!("sched-{tag}"));
        for fix in fixtures(&base) {
            check_schedule(&fix, &ops, tag)?;
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
