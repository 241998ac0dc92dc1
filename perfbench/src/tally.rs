//! What a run accumulates, shared by the three workloads.

use std::collections::BTreeMap;

use crate::digest::Digests;
use crate::json::Json;
use crate::spans::Tracer;
use crate::sql::Done;
use crate::stats::{median, tail, Tail};

/// Run settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measured host seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl RunCfg {
    /// The run's measured slices as `(traced, budget_s)`: the whole
    /// budget untraced, or [`TRACE_ROUNDS`] untraced and traced slices
    /// in turn, half the budget each. The two halves' difference is the
    /// tracing overhead; taking them in turn keeps a drift in the host's
    /// speed out of it.
    pub fn slices(&self) -> Vec<(bool, f64)> {
        if self.trace {
            let n = 2 * TRACE_ROUNDS;
            (0..n)
                .map(|i| (i % 2 == 1, self.seconds / n as f64))
                .collect()
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// Untraced/traced slice pairs in a traced run.
pub const TRACE_ROUNDS: usize = 4;

/// Host time measured in one half of a run (untraced or traced).
#[derive(Debug, Clone, Default)]
pub struct Half {
    /// Statements (or served requests) completed.
    pub stmts: u64,
    /// Host seconds they took.
    pub busy_s: f64,
    /// Host latencies per operation type, seconds.
    pub lat_s: BTreeMap<&'static str, Vec<f64>>,
}

impl Half {
    /// Record `stmts` statements completed in `host_s` seconds.
    pub fn record(&mut self, stmts: u64, host_s: f64) {
        self.stmts += stmts;
        self.busy_s += host_s;
    }

    /// Statements completed per host second they took. A plain ratio
    /// over every repetition: the shared host's speed changes for
    /// seconds at a time, and the ratio moves in proportion to how much
    /// of the run was slow, where a median would flip between the fast
    /// and the slow speed.
    pub fn per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.stmts as f64 / self.busy_s
        } else {
            0.0
        }
    }
}

/// Simulated figures over the run's ledger window (its first unit of
/// work), which repeat exactly for a seed.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Statements (or completed sessions) in the window.
    pub stmts: u64,
    /// Simulated CPU-package joules.
    pub cpu_j: f64,
    /// Simulated wall joules.
    pub wall_j: f64,
    /// Simulated response times, seconds.
    pub response_s: Vec<f64>,
}

/// Everything a workload run accumulates.
#[derive(Debug, Default)]
pub struct Tally {
    /// Statements, sessions and recoveries attempted.
    pub attempted: u64,
    /// Of those, failed or answered wrongly.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// `[untraced, traced]`.
    pub halves: [Half; 2],
    /// The ledger window.
    pub window: Window,
    /// Digests of the first unit of work.
    pub digests: Option<Digests>,
    /// Units of work completed.
    pub units: u64,
    /// Statements per operation type.
    pub ops: BTreeMap<&'static str, u64>,
    /// Per-layer metrics the workload computed.
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific facts.
    pub facts: Vec<(String, Json)>,
}

impl Tally {
    /// Record a failure (an error or a wrong answer).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(what.into());
        }
    }

    /// Check a wrong-answer condition; counts a failure when false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// The half the tracer's state selects.
    pub fn half(&mut self, tr: &Tracer) -> &mut Half {
        &mut self.halves[usize::from(tr.enabled())]
    }

    /// Close a unit of work: the first sets the reference digests,
    /// every later one must reproduce them exactly.
    pub fn end_unit(&mut self, d: Digests) {
        match self.digests {
            None => self.digests = Some(d),
            Some(first) => {
                let unit = self.units;
                self.check(first == d, || {
                    format!(
                        "unit {unit} digests {:?} differ from unit 0's {:?}",
                        d.hex(),
                        first.hex()
                    )
                });
            }
        }
        self.units += 1;
    }

    /// Add a statement of the ledger window: its simulated figures and
    /// its per-statement ledger counts (they repeat exactly, so one
    /// window suffices).
    pub fn window_add(&mut self, done: &Done) {
        let m = &done.measurement;
        let w = &mut self.window;
        w.stmts += 1;
        w.cpu_j += m.cpu_joules;
        w.wall_j += m.wall_joules;
        w.response_s.push(m.elapsed_s);
        for (k, v) in [
            (
                "query.cpu_ops_per_stmt",
                done.trace.total_cpu().total_ops() as f64,
            ),
            (
                "query.mem_bytes_per_stmt",
                done.trace.total_mem_stream_bytes() as f64,
            ),
            ("query.rows_out_per_stmt", done.rows.len() as f64),
        ] {
            *self.layers.entry(k).or_default() += v;
        }
    }

    /// Turn the sums of [`Tally::window_add`] into means.
    pub fn finish_stmt_counts(&mut self) {
        let n = self.window.stmts.max(1) as f64;
        for k in [
            "query.cpu_ops_per_stmt",
            "query.mem_bytes_per_stmt",
            "query.rows_out_per_stmt",
        ] {
            if let Some(v) = self.layers.get_mut(k) {
                *v /= n;
            }
        }
    }

    /// The end-to-end metrics (see `BENCHMARK.json`).
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
        let w = &self.window;
        let per_stmt = |v: f64| v / w.stmts.max(1) as f64;
        vec![
            ("setup_s", median(&self.setup_s).unwrap_or(0.0)),
            ("stmt_per_s", self.halves[0].per_s()),
            ("sim_cpu_joules_per_stmt", per_stmt(w.cpu_j)),
            ("sim_wall_joules_per_stmt", per_stmt(w.wall_j)),
            ("sim_response_p50_s", median(&w.response_s).unwrap_or(0.0)),
            (
                "sim_response_p90_s",
                tail(&w.response_s, 90).map_or(0.0, |t| t.value),
            ),
            ("peak_rss_mb", peak_rss_mb),
        ]
    }

    /// Tracing overhead: traced host time per statement over untraced,
    /// minus one.
    pub fn tracing_overhead(&self) -> f64 {
        let [plain, traced] = &self.halves;
        if plain.per_s() > 0.0 && traced.per_s() > 0.0 {
            plain.per_s() / traced.per_s() - 1.0
        } else {
            0.0
        }
    }

    /// Run facts: counts, the percentiles actually reported with their
    /// sample counts, host latencies per operation type.
    pub fn facts(&self) -> Vec<(String, Json)> {
        let mut out: Vec<(String, Json)> = vec![
            ("units".into(), Json::from(self.units)),
            ("setups".into(), Json::from(self.setup_s.len())),
            (
                "ops".into(),
                Json::obj(self.ops.iter().map(|(k, &v)| (*k, Json::from(v)))),
            ),
            (
                "failed_frac".into(),
                Json::from(self.failed as f64 / self.attempted.max(1) as f64),
            ),
        ];
        let w = &self.window;
        out.push((
            "sim_window".into(),
            Json::obj([
                ("stmts", Json::from(w.stmts)),
                ("response_tail", tail_json(tail(&w.response_s, 90))),
            ]),
        ));
        // Host latency per operation type, untraced half (YCSB style).
        let lat = Json::obj(self.halves[0].lat_s.iter().map(|(op, v)| {
            let ms: Vec<f64> = v.iter().map(|s| s * 1e3).collect();
            (
                *op,
                Json::obj([
                    ("p50_ms", Json::from(median(&ms).unwrap_or(0.0))),
                    ("tail_ms", tail_json(tail(&ms, 95))),
                ]),
            )
        }));
        out.push(("host_latency".into(), lat));
        if let Some(d) = self.digests {
            out.push((
                "digests".into(),
                Json::obj(d.hex().into_iter().map(|(k, v)| (k, Json::from(v)))),
            ));
        }
        out.extend(self.facts.iter().cloned());
        out
    }
}

fn tail_json(t: Option<Tail>) -> Json {
    match t {
        Some(t) => Json::obj([
            ("pct", Json::from(u64::from(t.pct))),
            ("value", Json::from(t.value)),
            ("samples", Json::from(t.samples)),
            ("beyond", Json::from(t.beyond)),
        ]),
        None => Json::Str("too few samples".into()),
    }
}
