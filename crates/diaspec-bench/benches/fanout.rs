//! E18 (timing side) — subscriber fan-out cost of one publication under
//! the zero-copy delivery pipeline: deliveries/second as fan-out and
//! payload size grow. With `Arc<Value>` payloads the three payload sizes
//! should track each other closely; a deep-copying pipeline degrades with
//! payload bytes instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use diaspec_bench::fanout::{run_point, PayloadKind};

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/fanout");
    group.sample_size(10);
    for fanout in [10usize, 1_000] {
        // Keep delivery work per iteration comparable across fan-outs.
        let emissions = (10_000 / fanout as u64).max(10);
        let deliveries = emissions * (fanout as u64 + 1);
        for payload in PayloadKind::all() {
            group.throughput(Throughput::Elements(deliveries));
            group.bench_with_input(
                BenchmarkId::new(payload.name(), fanout),
                &payload,
                |b, &payload| {
                    b.iter(|| run_point(fanout, payload, emissions));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
