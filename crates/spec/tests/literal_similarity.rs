//! Pins the Literal reading of `SIMILARITY` on the paper's Mazu network.
//!
//! The engine ships only the normalized reading; the Literal one lives
//! in this crate and feeds the `exp_ablation` similarity table. These
//! are the values that table prints at default thresholds.

use cluster::metrics::rand_statistic;
use roleclass::Params;
use roleclass_spec::merging::{merge_groups, Similarity};
use synthnet::scenarios;

fn mazu_row(similarity: Similarity) -> (usize, usize, String) {
    let net = scenarios::mazu(42);
    let run = merge_groups(&net.connsets, &Params::default(), similarity);
    let groups: Vec<_> = run.groups.into_iter().collect();
    let rand = rand_statistic(&net.truth.partition(), &groups);
    (run.trace.len(), groups.len(), format!("{rand:.4}"))
}

/// Merges, groups and Rand (4 dp) of each reading at default
/// thresholds; the normalized row is the engine's.
#[test]
fn mazu_rows_match_the_ablation_table() {
    assert_eq!(mazu_row(Similarity::Literal), (13, 28, "0.7486".into()));
    assert_eq!(mazu_row(Similarity::Normalized), (24, 17, "0.9309".into()));
}
