//! Criterion bench `kernel_bench` — the common-neighbor kernel's three
//! cost centers (full build, threshold sweep, contraction update) on
//! department networks at 1k and 10k hosts, each built from the
//! connection sets' CSR exactly as formation builds it, plus the headline
//! comparison: kernel-backed `form_groups` against the per-level
//! recomputation it replaced (the jumping sweep of
//! `roleclass_spec::formation`).
//!
//! The speedup comparison is measured one-shot rather than through the
//! timing loop because the legacy sweep at 10k hosts is exactly the
//! cost this PR removes; its output is the `formation_speedup/<n>`
//! lines `scripts/bench.sh` collects into `BENCH_kernel.json`.

use bench::workers_from_env;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netgraph::{CommonNeighborKernel, NodeId, WGraph};
use roleclass::prelude::*;
use roleclass_spec::formation::{form_groups, Sweep};
use std::time::Instant;
use synthnet::{ConnRule, Fanout, NetworkModel, RoleSpec};

const SIZES: [usize; 2] = [1_000, 10_000];

/// Worker count for this run: `ROLECLASS_THREADS` (parsed at the bench
/// layer), else one per core — the same resolution `EngineConfig` uses.
fn engine_workers() -> usize {
    match workers_from_env() {
        0 => netgraph::default_worker_count(),
        n => n,
    }
}

/// A department-structured network with ~n hosts (the same shape the
/// `grouping_scaling` bench uses): 46-host departments around a small
/// shared server core.
fn department_network(n: usize) -> flow::ConnectionSets {
    let mut m = NetworkModel::new();
    let core = m.role(RoleSpec::servers("core", 4));
    let dept_size = 46; // 43 workstations + 3 servers
    let depts = (n / dept_size).max(1);
    for d in 0..depts {
        let ws = m.role(RoleSpec::clients(&format!("d{d}_ws"), 43));
        let srv = m.role(RoleSpec::servers(&format!("d{d}_srv"), 3));
        m.rule(ConnRule::new(ws, srv, Fanout::All));
        m.rule(ConnRule::new(ws, core, Fanout::Exactly(2)));
    }
    m.generate(7).connsets
}

/// The kernel over the connection sets' CSR, built as formation builds
/// it (every host an endpoint, no prune floors).
fn kernel_of(cs: &flow::ConnectionSets) -> CommonNeighborKernel {
    let (offsets, nbrs) = cs.csr();
    CommonNeighborKernel::build(offsets, nbrs, engine_workers(), &[], None)
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_build");
    for &n in &SIZES {
        let cs = department_network(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &cs, |b, cs| {
            b.iter(|| kernel_of(cs))
        });
    }
    group.finish();
}

fn bench_threshold_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_threshold_sweep");
    for &n in &SIZES {
        let kernel = kernel_of(&department_network(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &kernel, |b, kernel| {
            b.iter(|| {
                let mut total = 0usize;
                for k in (1..=kernel.max_count()).rev() {
                    total += kernel.edges_at_least(k).len();
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_contraction_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_contraction_update");
    for &n in &SIZES {
        let cs = department_network(n);
        let (offsets, nbrs) = cs.csr();
        let g = WGraph::from_unit_csr(offsets, nbrs);
        let kernel = kernel_of(&cs);
        // One department's workstations: the role allocator hands out
        // the 4 core servers first, then 43 clients per department.
        let members: Vec<NodeId> = (4..47).map(|i| NodeId(i as u32)).collect();
        let input = (g, kernel, members);
        group.bench_with_input(BenchmarkId::from_parameter(n), &input, |b, input| {
            let (g, kernel, members) = input;
            b.iter_batched(
                || (g.clone(), kernel.clone()),
                |(mut g, mut kernel)| kernel.contract(&mut g, members),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// One-shot formation comparison; asserts bit-identical output while at
/// it, so a regression in either implementation fails the bench run.
fn bench_formation_speedup(_c: &mut Criterion) {
    let params = Params::default();
    for &n in &SIZES {
        let cs = department_network(n);
        let t0 = Instant::now();
        let fast = try_form_groups(&cs, &params).unwrap();
        let kernel_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let slow = form_groups(&cs, &params, Sweep::Jump);
        let legacy_secs = t1.elapsed().as_secs_f64();
        let fast: Vec<_> = fast
            .trace
            .into_iter()
            .map(|e| (e.members, e.k, e.kind))
            .collect();
        assert_eq!(
            fast, slow,
            "kernel and reference formation diverged at {n} hosts"
        );
        println!(
            "formation_speedup/{n}: kernel {kernel_secs:.3}s legacy {legacy_secs:.3}s ratio {:.2}x",
            legacy_secs / kernel_secs
        );
    }
}

criterion_group!(
    benches,
    bench_build,
    bench_threshold_sweep,
    bench_contraction_update,
    bench_formation_speedup,
);
criterion_main!(benches);
