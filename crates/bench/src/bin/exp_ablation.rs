//! Experiment `abl_alpha_beta` — Section 6.3's internal constants.
//!
//! The paper fixes α = 0.6 (bootstrap) and β = 0.5 (connection
//! requirement) and claims the defaults "work well on at least two
//! rather different networks". This ablation sweeps both constants on
//! the Mazu scenario and reports group counts and Rand statistics, plus
//! an ablation of the two SIMILARITY normalizations (DESIGN.md §5). The
//! engine ships the normalized reading; the literal row comes from the
//! naive merge in `roleclass-spec`, which implements both.

use bench::{banner, render_table};
use cluster::metrics;
use roleclass::{try_classify, Params};
use roleclass_spec::merging::{merge_groups, Similarity};
use synthnet::scenarios;

fn main() {
    banner(
        "abl_alpha_beta",
        "§6.3 internal constants (α, β) + similarity variant",
    );
    let net = scenarios::mazu(42);
    let truth = net.truth.partition();

    println!("alpha sweep (bootstrap constant; beta = 0.5):");
    let mut rows = Vec::new();
    for alpha in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let params = Params::default().with_alpha(alpha);
        let c = try_classify(&net.connsets, &params).expect("valid params");
        let r = metrics::rand_statistic(&truth, &c.grouping.as_partition());
        rows.push(vec![
            format!("{alpha:.1}"),
            c.grouping.group_count().to_string(),
            format!("{r:.4}"),
        ]);
    }
    println!("{}", render_table(&["alpha", "groups", "Rand"], &rows));

    println!("beta sweep (connection requirement; alpha = 0.6):");
    let mut rows = Vec::new();
    for beta in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let params = Params::default().with_beta(beta);
        let c = try_classify(&net.connsets, &params).expect("valid params");
        let r = metrics::rand_statistic(&truth, &c.grouping.as_partition());
        rows.push(vec![
            format!("{beta:.2}"),
            c.grouping.group_count().to_string(),
            format!("{r:.4}"),
        ]);
    }
    println!("{}", render_table(&["beta", "groups", "Rand"], &rows));

    println!("similarity-variant ablation (DESIGN.md §5 note 2):");
    let mut rows = Vec::new();
    let c = try_classify(&net.connsets, &Params::default()).expect("valid params");
    let literal: Vec<_> = merge_groups(&net.connsets, &Params::default(), Similarity::Literal)
        .groups
        .into_iter()
        .collect();
    for (name, partition) in [
        ("normalized", c.grouping.as_partition()),
        ("literal", literal),
    ] {
        let r = metrics::rand_statistic(&truth, &partition);
        rows.push(vec![
            name.to_string(),
            partition.len().to_string(),
            format!("{r:.4}"),
        ]);
    }
    println!("{}", render_table(&["variant", "groups", "Rand"], &rows));
    println!("paper defaults: alpha = 0.6, beta = 0.5");
}
