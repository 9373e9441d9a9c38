//! Criterion bench of the sharded engine against the sequential reference
//! on the same multicast workload: identical event streams (the parity
//! suites prove bit-for-bit equality), so any median delta is pure engine
//! overhead: the window bookkeeping of running the shards in turn on the
//! calling thread.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nic_mcast::{execute_watched, McastMode, McastRun, Observe, TreeShape};

/// One fixed workload: a 32-node Clos cluster, 2 KB NIC-based multicast,
/// modest iteration count (the shard partition splits it four leaf-aligned
/// ways).
fn workload(shards: u32) -> McastRun {
    let mut run = McastRun::new(32, 2048, McastMode::NicBased, TreeShape::KAry(4));
    run.warmup = 2;
    run.iters = 8;
    run.shards = shards;
    run
}

fn bench_parallel_dispatch(c: &mut Criterion) {
    // Pin the event count once so the throughput label is honest.
    let events = execute_watched(&workload(1), &Observe::off()).output.events;
    let mut g = c.benchmark_group("parallel");
    g.throughput(Throughput::Elements(events));
    for shards in [1u32, 2, 4] {
        let run = workload(shards);
        g.bench_function(format!("dispatch_32n_{shards}_shards"), |b| {
            b.iter(|| {
                let out = execute_watched(&run, &Observe::off());
                assert_eq!(out.output.events, events, "sharding changed the event stream");
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_dispatch);
criterion_main!(benches);
