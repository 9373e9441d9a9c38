//! Criterion microbenches of the simulation substrate: raw event-dispatch
//! throughput, event-queue churn, route lookup cost, and fabric injection
//! cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gm_sim::{Engine, EventQueue, Scheduler, SimDuration, SimTime, World};
use myrinet::{Fabric, NodeId, Packet, PacketKind, PortId, Topology};

/// A ping world: one event chain of fixed length.
struct Chain {
    remaining: u64,
}

impl World for Chain {
    type Event = ();
    fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(SimDuration::from_nanos(10), ());
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    for &n in &[1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("event_chain", n), &n, |b, &n| {
            b.iter(|| {
                let mut eng = Engine::new(Chain { remaining: n });
                eng.schedule(SimTime::ZERO, ());
                eng.run_to_idle();
                assert_eq!(eng.events_handled(), n + 1);
            });
        });
    }
    g.finish();
}

/// A fan world: many interleaved timers. `scale_ns` stretches the timer
/// distribution: 1 gives sub-bucket nanosecond chains (worst case for the
/// wheel queue — everything lands in its active tier), while fabric-scale
/// values spread timers the way packet serialization (36 ns–65 µs at
/// 250 MB/s), hop delay (300 ns) and host overheads (µs) do in real runs.
struct Fan {
    remaining: u64,
    scale_ns: u64,
}

impl World for Fan {
    type Event = u64;
    fn handle(&mut self, ev: u64, sched: &mut Scheduler<u64>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(SimDuration::from_nanos((7 + ev % 13) * self.scale_ns), ev + 1);
        }
    }
}

fn bench_dispatch_fan(c: &mut Criterion) {
    // The fabric-scale run (timers spread over ~0.9–250 µs, the simulator's
    // real event horizon) is the dispatch-rate number perf_baseline.json
    // tracks; the ns run documents the wheel's worst case (sub-bucket
    // chains where it degenerates to a sorted deque plus bookkeeping).
    // Names keep the `_wheel` suffix so they continue the recorded series.
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(100_064));
    for (scale_ns, slabel) in [(13_000u64, "fabric_scale"), (1, "ns_scale")] {
        g.bench_function(format!("dispatch_64_streams_{slabel}_wheel"), |b| {
            b.iter(|| {
                let mut eng = Engine::new(Fan { remaining: 100_000, scale_ns });
                for i in 0..64 {
                    eng.schedule(SimTime::from_nanos(i), i);
                }
                eng.run_to_idle();
                assert_eq!(eng.events_handled(), 100_064);
            });
        });
    }
    g.finish();
}

/// Steady-state queue churn: `pending` events in flight; each step pops the
/// earliest and schedules a replacement a pseudo-random short delay later.
/// This is the event-queue access pattern of a busy simulation, isolated
/// from world dispatch cost.
fn queue_churn(pending: u64, steps: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..pending {
        q.push(SimTime::from_nanos(rnd() % 1_000_000), i);
    }
    let mut acc = 0u64;
    for i in 0..steps {
        let (t, ev) = q.pop().expect("steady state");
        acc = acc.wrapping_add(ev);
        // Mostly short horizons with an occasional far-future outlier,
        // mirroring packet timings vs retransmission timers.
        let delta = if rnd() % 64 == 0 {
            5_000_000 + rnd() % 5_000_000
        } else {
            rnd() % 20_000
        };
        q.push(SimTime::from_nanos(t.as_nanos() + delta), pending + i);
    }
    acc
}

fn bench_queue_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    for &pending in &[64u64, 1_024, 16_384] {
        let steps = 100_000u64;
        g.throughput(Throughput::Elements(steps));
        g.bench_with_input(
            BenchmarkId::new("churn_wheel", pending),
            &pending,
            |b, &pending| {
                b.iter(|| queue_churn(pending, steps));
            },
        );
    }
    g.finish();
}

fn bench_route_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("route");
    for &nodes in &[16u32, 128] {
        let topo = Topology::for_nodes(nodes);
        let table = topo.route_table();
        // Visit every ordered pair once per iteration.
        let pairs: Vec<(NodeId, NodeId)> = (0..nodes)
            .flat_map(|a| {
                (0..nodes)
                    .filter(move |&b| a != b)
                    .map(move |b| (NodeId(a), NodeId(b)))
            })
            .collect();
        g.throughput(Throughput::Elements(pairs.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("on_demand_vec", nodes),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for &(s, d) in pairs {
                        acc += topo.route(s, d).len();
                    }
                    acc
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("interned_slice", nodes),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    let mut acc = 0usize;
                    for &(s, d) in pairs {
                        acc += table.route(s, d).len();
                    }
                    acc
                });
            },
        );
    }
    g.finish();
}

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    for &nodes in &[16u32, 128] {
        g.bench_with_input(
            BenchmarkId::new("inject_4kb", nodes),
            &nodes,
            |b, &nodes| {
                let topo = Topology::for_nodes(nodes);
                let pkt = Packet {
                    src: NodeId(0),
                    dst: NodeId(nodes - 1),
                    kind: PacketKind::Data {
                        port: PortId(0),
                        src_port: PortId(0),
                        seq: 0,
                        offset: 0,
                        msg_len: 4096,
                        tag: 0,
                    },
                    payload: bytes::Bytes::from(vec![0u8; 4096]),
                };
                b.iter_batched(
                    || Fabric::new(topo.clone(), 1),
                    |mut f| {
                        let mut t = SimTime::ZERO;
                        for _ in 0..1_000 {
                            let v = f.inject(t, &pkt);
                            t = v.src_free();
                        }
                        f
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_dispatch_fan,
    bench_queue_churn,
    bench_route_lookup,
    bench_fabric
);
criterion_main!(benches);
