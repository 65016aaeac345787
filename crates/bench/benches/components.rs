//! Criterion micro-benchmarks of the components under the simulator: SWF
//! parsing and writing, and workload-model generation.
//!
//! The experiment tables are printed by `psbench sweep all` and
//! fingerprinted and timed by `bench sweep`, and the schedulers are timed on
//! Lublin99 workloads by `bench sim` (see the README's benchmark-snapshot and
//! experiment-harness sections), so neither is repeated here.

use criterion::{criterion_group, criterion_main, Criterion};
use psbench_swf::{parse, write_string};
use psbench_workload::{Lublin99, WorkloadModel};
use std::hint::black_box;

fn bench_swf_parsing(c: &mut Criterion) {
    let log = Lublin99::default().generate(5_000, 42);
    let text = write_string(&log);
    let mut group = c.benchmark_group("swf");
    group.throughput(criterion::Throughput::Elements(log.len() as u64));
    group.bench_function("parse_5k_jobs", |b| {
        b.iter(|| black_box(parse(&text).unwrap()))
    });
    group.bench_function("write_5k_jobs", |b| {
        b.iter(|| black_box(write_string(&log)))
    });
    group.finish();
}

fn bench_workload_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_models");
    group.sample_size(10);
    for model in psbench_workload::standard_models(128) {
        group.bench_function(model.name(), |b| {
            b.iter(|| black_box(model.generate(2_000, 7)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_swf_parsing, bench_workload_models);
criterion_main!(benches);
