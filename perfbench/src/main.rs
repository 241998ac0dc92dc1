//! ecoDB's benchmark: host time and simulated joules, end to end and
//! per layer, on three workloads (see `README.md` in this directory).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload olap_sql|oltp_durable|qed_serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics when
//! `--trace 0`, the per-layer metrics when `--trace 1`. The line before
//! it holds the run facts (counts, percentiles with sample counts,
//! host latency per operation type, digests, tracing overhead). A
//! traced run also writes its spans to `.perfbench-out/`. Any wrong
//! answer makes `correct` false and the exit code 1.

mod digest;
mod json;
mod olap;
mod oltp;
mod qed;
mod spans;
mod sql;
mod stats;
mod tally;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use ecodb::storage::{load_tpch, EngineKind};
use ecodb::tpch::TpchGenerator;

use json::Json;
use spans::Tracer;
use tally::{RunCfg, Tally};

/// TPC-H scale factor of every workload.
pub const SCALE: f64 = 0.01;

/// Buffer pool pages (what `EcoDb` uses).
pub const POOL_PAGES: usize = 1 << 22;

/// Workload names.
const WORKLOADS: [&str; 3] = ["olap_sql", "oltp_durable", "qed_serve"];

/// Per-layer metrics, with units, in report order. A layer a workload
/// does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("tpch.gen_s", "s"),
    ("storage.load_s", "s"),
    ("storage.create_index_ms", "ms"),
    ("storage.apply_ms_per_record", "ms"),
    ("storage.wal_scan_ms", "ms"),
    ("storage.fsyncs_per_txn", "count"),
    ("storage.log_bytes_per_txn", "B"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_misses_per_stmt", "count"),
    ("storage.index_ios_per_read", "count"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.dml_us", "us"),
    ("query.exec_ms", "ms"),
    ("query.rows_out_per_stmt", "count"),
    ("query.cpu_ops_per_stmt", "count"),
    ("query.mem_bytes_per_stmt", "B"),
    ("simhw.measure_us", "us"),
    ("server.plan_admission_ms", "ms"),
    ("server.serve_ms", "ms"),
    ("server.replay_ms", "ms"),
    ("server.sched_self_ms", "ms"),
    ("server.members_per_dispatch", "count"),
    ("server.distinct_arms_per_dispatch", "count"),
    ("server.queue_delay_p50_s", "s"),
    ("server.queue_delay_p95_s", "s"),
    ("server.shed", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_time_coverage", "ratio"),
];

/// End-to-end metrics, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("stmt_per_s", "1/s"),
    ("sim_cpu_joules_per_stmt", "J"),
    ("sim_wall_joules_per_stmt", "J"),
    ("sim_response_p50_s", "s"),
    ("sim_response_p90_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Span names whose mean self time is a per-layer metric, with the
/// scale to its unit.
const SPAN_LAYERS: [(&str, &str, f64); 13] = [
    ("tpch.gen_s", "tpch.gen", 1.0),
    ("storage.load_s", "storage.load", 1.0),
    ("storage.create_index_ms", "storage.create_index", 1e3),
    ("storage.apply_ms_per_record", "storage.apply", 1e3),
    ("storage.wal_scan_ms", "storage.wal_scan", 1e3),
    ("query.parse_us", "query.parse", 1e6),
    ("query.plan_us", "query.plan", 1e6),
    ("query.dml_us", "query.dml", 1e6),
    ("query.exec_ms", "query.exec", 1e3),
    ("simhw.measure_us", "simhw.measure", 1e6),
    ("server.plan_admission_ms", "server.plan_admission", 1e3),
    ("server.serve_ms", "server.serve", 1e3),
    ("server.replay_ms", "server.replay", 1e3),
];

/// Set up a fresh database with `open`, adding its host time to the
/// set-up samples (`setup_s` is their median). Every workload sets up
/// once per unit of work, so the samples spread over the run as the
/// statement timings do. A traced run also times the generator and the
/// loader beside the set-up (`EcoDb::tpch` calls both inside).
pub fn setup<T>(
    tally: &mut Tally,
    tr: &mut Tracer,
    kind: EngineKind,
    open: impl FnOnce(&mut Tally, &mut Tracer) -> T,
) -> T {
    if tr.enabled() {
        let source = tr.span("tpch.gen", 0, || TpchGenerator::new(SCALE).generate());
        tr.span("storage.load", 0, || load_tpch(&source, kind, POOL_PAGES));
    }
    let t0 = Instant::now();
    let root = tr.enter("setup", 0);
    let db = open(tally, tr);
    tr.exit(root);
    tally.setup_s.push(t0.elapsed().as_secs_f64());
    db
}

struct Args {
    workload: String,
    cfg: RunCfg,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    })
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics of a traced run.
fn per_layer(tally: &Tally, tr: &Tracer, root: &str) -> BTreeMap<&'static str, f64> {
    let by = tr.by_name();
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    for (metric, span, scale) in SPAN_LAYERS {
        if let Some(l) = by.get(span) {
            out.insert(metric, l.mean_self_s() * scale);
        }
    }
    for (&k, &v) in &tally.layers {
        debug_assert!(out.contains_key(k), "unlisted per-layer metric {k}");
        out.insert(k, v);
    }
    let (covered_s, root_s) = tr.root_coverage(root);
    out.insert(
        "trace.self_time_coverage",
        if root_s > 0.0 {
            covered_s / root_s
        } else {
            0.0
        },
    );
    out.insert("trace.overhead_frac", tally.tracing_overhead());
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false);
    let root = match args.workload.as_str() {
        "olap_sql" => {
            olap::run(&cfg, &mut tally, &mut tr);
            "stmt"
        }
        "oltp_durable" => {
            oltp::run(&cfg, &mut tally, &mut tr);
            "stmt"
        }
        _ => {
            qed::run(&cfg, &mut tally, &mut tr);
            "stream"
        }
    };

    let rss = peak_rss_mb();
    let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
        let layers = per_layer(&tally, &tr, root);
        PER_LAYER
            .iter()
            .map(|&(k, unit)| (k, layers[k], unit))
            .collect()
    } else {
        let e2e: BTreeMap<&str, f64> = tally.end_to_end(rss).into_iter().collect();
        END_TO_END
            .iter()
            .map(|&(k, unit)| (k, e2e[k], unit))
            .collect()
    };

    let mut facts: Vec<(String, Json)> = vec![
        ("workload".into(), args.workload.as_str().into()),
        ("seed".into(), cfg.seed.into()),
        ("seconds".into(), cfg.seconds.into()),
        ("trace".into(), cfg.trace.into()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("scale".into(), SCALE.into()),
        (
            "workers".into(),
            if args.workload == "qed_serve" {
                qed::WORKERS
            } else {
                1
            }
            .into(),
        ),
    ];
    if cfg.trace {
        facts.push(("tracing_overhead".into(), tally.tracing_overhead().into()));
        facts.push(("spans".into(), tr.spans().len().into()));
        let path = format!(
            ".perfbench-out/spans-{}-seed{}.jsonl",
            args.workload, cfg.seed
        );
        let written = std::fs::create_dir_all(".perfbench-out")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tr.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => facts.push(("span_file".into(), path.into())),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    facts.extend(tally.facts());
    facts.push((
        "problems".into(),
        Json::Arr(
            tally
                .problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect(),
        ),
    ));
    println!("{}", Json::Obj(facts));

    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(k, v, unit)| {
                (
                    k,
                    Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        for p in &tally.problems {
            eprintln!("perfbench: wrong: {p}");
        }
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let squash: String = text.split_whitespace().collect();
        for (name, unit) in PER_LAYER.iter().chain(END_TO_END.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                squash.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(
                squash.contains(&format!("\"name\":\"{w}\"")),
                "workload {w}"
            );
        }
    }

    #[test]
    fn args_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = ok("--workload olap_sql --seed 3 --seconds 2 --trace 1").expect("valid");
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (3, 2.0, true));
        assert!(ok("--workload nope --seed 3").is_err());
        assert!(ok("--workload olap_sql --trace 2").is_err());
        assert!(ok("--workload olap_sql --seed").is_err());
    }
}
