//! Wall-clock micro-benchmarks of the substrates: topology generation,
//! knowledge-set operations, and raw engine round throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rd_core::KnowledgeSet;
use rd_graphs::Topology;
use rd_sim::{Engine, Envelope, MessageCost, Node, NodeId, RoundContext, RoundEngine};
use std::hint::black_box;

fn bench_topologies(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology-generate");
    for topo in [
        Topology::KOut { k: 3 },
        Topology::ErdosRenyi { avg_degree: 4 },
        Topology::ScaleFree { m: 2 },
        Topology::CliqueChain { cliques: 16 },
    ] {
        group.bench_with_input(BenchmarkId::new(topo.name(), 8192), &8192usize, |b, &n| {
            b.iter(|| topo.generate(black_box(n), 7).edge_count())
        });
    }
    group.finish();
}

fn bench_knowledge_set(c: &mut Criterion) {
    c.bench_function("knowledge-insert-100k", |b| {
        b.iter(|| {
            let mut k = KnowledgeSet::new(NodeId::new(0));
            for i in 0..100_000u32 {
                k.insert(NodeId::new(black_box(i)));
            }
            k.len()
        })
    });
    c.bench_function("knowledge-merge-dup-heavy", |b| {
        let ids: Vec<NodeId> = (0..10_000).map(NodeId::new).collect();
        b.iter(|| {
            let mut k = KnowledgeSet::new(NodeId::new(0));
            for _ in 0..10 {
                k.extend(black_box(ids.iter().copied()));
            }
            k.len()
        })
    });
}

#[derive(Clone, Debug)]
struct Tick;
impl MessageCost for Tick {
    fn pointers(&self) -> usize {
        0
    }
}

/// Every node pings its ring successor each round: pure engine overhead.
struct RingPinger {
    next: NodeId,
}
impl Node for RingPinger {
    type Msg = Tick;
    fn on_round(&mut self, inbox: &mut Vec<Envelope<Tick>>, ctx: &mut RoundContext<'_, Tick>) {
        black_box(inbox.len());
        ctx.send(self.next, Tick);
    }
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine-10-rounds-4096-nodes", |b| {
        b.iter(|| {
            let nodes: Vec<RingPinger> = (0..4096)
                .map(|i| RingPinger {
                    next: NodeId::new(((i + 1) % 4096) as u32),
                })
                .collect();
            let mut engine = Engine::new(nodes, 1);
            for _ in 0..10 {
                engine.step();
            }
            engine.metrics().total_messages()
        })
    });
}

criterion_group!(benches, bench_topologies, bench_knowledge_set, bench_engine);
criterion_main!(benches);
