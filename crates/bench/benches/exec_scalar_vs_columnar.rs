//! Scalar (tuple-at-a-time) vs columnar (typed column vectors +
//! selection vectors) execution over TPC-H Q1/Q3/Q5/Q6 on the memory
//! engine — the wall-clock payoff of the `next_chunk` path, whose
//! energy ledger is bit-identical to scalar execution by construction
//! (`tests/integration_columnar.rs`).
//!
//! Prints an explicit speedup summary first (median of several timed
//! runs per mode), then registers the individual criterion benchmarks.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use eco_bench::bench_db_memory;
use eco_core::server::EcoDb;
use eco_query::context::ExecCtx;
use eco_query::exec::{execute_columnar, execute_scalar};
use eco_query::ops::BoxedOp;
use eco_query::plans;
use std::hint::black_box;

type PlanFn = fn(&EcoDb) -> BoxedOp;

fn q1(db: &EcoDb) -> BoxedOp {
    plans::q1_plan(db.catalog(), 90)
}

fn q3(db: &EcoDb) -> BoxedOp {
    plans::q3_plan(
        db.catalog(),
        "BUILDING",
        eco_tpch::Date::from_ymd(1995, 3, 15),
    )
}

fn q5(db: &EcoDb) -> BoxedOp {
    plans::q5_plan(db.catalog(), &eco_tpch::Q5Params::new("ASIA", 1994))
}

fn q6(db: &EcoDb) -> BoxedOp {
    plans::q6_plan(db.catalog(), 1994, 6, 24)
}

const QUERIES: [(&str, PlanFn); 4] = [("q1", q1), ("q3", q3), ("q5", q5), ("q6", q6)];

fn run_scalar(db: &EcoDb, plan_fn: PlanFn) -> usize {
    let mut plan = plan_fn(db);
    let mut ctx = ExecCtx::new();
    execute_scalar(plan.as_mut(), &mut ctx).len()
}

fn run_columnar(db: &EcoDb, plan_fn: PlanFn) -> usize {
    let mut plan = plan_fn(db);
    let mut ctx = ExecCtx::new(); // default chunk size (1024)
    execute_columnar(plan.as_mut(), &mut ctx).len()
}

fn median_time(mut f: impl FnMut() -> usize, samples: usize) -> Duration {
    black_box(f()); // warm-up
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn speedup_report(db: &EcoDb) {
    println!("== scalar vs columnar execution (memory engine) ==");
    for (name, plan_fn) in QUERIES {
        let scalar = median_time(|| run_scalar(db, plan_fn), 7);
        let columnar = median_time(|| run_columnar(db, plan_fn), 7);
        let speedup = scalar.as_secs_f64() / columnar.as_secs_f64();
        println!(
            "{name}: scalar {:>9.3} ms  columnar {:>9.3} ms ({speedup:.2}x)",
            scalar.as_secs_f64() * 1e3,
            columnar.as_secs_f64() * 1e3,
        );
    }
}

fn bench(c: &mut Criterion) {
    let db = bench_db_memory();
    speedup_report(&db);

    let mut g = c.benchmark_group("exec_scalar_vs_columnar");
    g.sample_size(10);
    for (name, plan_fn) in QUERIES {
        g.bench_function(format!("{name}/scalar"), |b| {
            b.iter(|| black_box(run_scalar(&db, plan_fn)))
        });
        g.bench_function(format!("{name}/columnar"), |b| {
            b.iter(|| black_box(run_columnar(&db, plan_fn)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
