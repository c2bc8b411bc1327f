//! Criterion bench: the substrate hot paths — biconnected components,
//! the common-neighbor kernel build, and the wire-format parsers.

use criterion::{criterion_group, criterion_main, Criterion};
use flow::{netflow, pcap};
use netgraph::{biconnected_components, CommonNeighborKernel, NodeId, SimpleGraph};
use synthnet::{scenarios, trace};

fn bench_bcc(c: &mut Criterion) {
    // A 2000-node graph of chained triangles: 1000 BCCs.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for i in 0..1000u32 {
        let base = i * 2;
        edges.push((NodeId(base), NodeId(base + 1)));
        edges.push((NodeId(base + 1), NodeId(base + 2)));
        edges.push((NodeId(base), NodeId(base + 2)));
    }
    let g = SimpleGraph::from_edges([], edges);
    c.bench_function("bcc_chained_triangles_2k", |b| {
        b.iter(|| biconnected_components(&g))
    });
}

fn bench_common_neighbors(c: &mut Criterion) {
    let cs = scenarios::mazu(42).connsets;
    let (offsets, nbrs) = cs.csr();
    c.bench_function("common_neighbor_kernel_mazu", |b| {
        let workers = netgraph::default_worker_count();
        b.iter(|| CommonNeighborKernel::build(offsets, nbrs, workers, &[], None))
    });
}

fn bench_parsers(c: &mut Criterion) {
    let net = scenarios::figure1(10, 10);
    let records = trace::expand(&net.connsets, trace::TraceOptions::default(), 3);
    let nf_bytes = netflow::write_stream(&records, 0);
    let pcap_bytes = pcap::write_file(&records);
    c.bench_function("netflow_v5_parse", |b| {
        b.iter(|| netflow::parse_stream(&nf_bytes).expect("valid stream"))
    });
    c.bench_function("pcap_parse", |b| {
        b.iter(|| pcap::parse_file(&pcap_bytes).expect("valid capture"))
    });
}

criterion_group!(benches, bench_bcc, bench_common_neighbors, bench_parsers);
criterion_main!(benches);
