//! `qed_serve`: one seeded arrival stream served by `EcoServer::serve`
//! with `workers = 2` and the threshold `plan_admission` picks,
//! MemoryEngine profile, columnar engine.
//!
//! The stream alternates phases. In quiet phases selections arrive too
//! slowly for a batch to fill before its deadline; in peak phases
//! batches fill and share duplicate `l_quantity` predicates drawn from
//! a small hot set. A small share of requests is `Statement::Sql`,
//! which runs solo. The loop is open in simulated time (arrivals are
//! exact instants) and closed on the host: a unit of work is one
//! `serve` call over the whole stream, on a freshly set-up database.
//!
//! Checks: every request completes, `ServeReport::ledger_identity`
//! holds, `replay_serial` of the dispatch transcript equals the served
//! ledger, and sampled sessions' rows equal a solo
//! `EcoDb::try_trace_selection` (every SQL session's rows a solo
//! `EcoDb::try_trace_sql`).

use std::time::Instant;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::exec::ExecEngine;
use ecodb::server::{
    plan_admission, replay_serial, AdmissionConfig, AdmissionPlan, DispatchKind, EcoServer,
    Request, ServeReport, ServerConfig, SessionId, SessionOutcome, Statement,
};
use ecodb::storage::EngineKind;
use ecodb::tpch::QedQuery;

use crate::digest::Digests;
use crate::spans::Tracer;
use crate::stats::{median, tail, Rng};
use crate::tally::{RunCfg, Tally};
use crate::SCALE;

/// Server worker threads (the host has two cores).
pub const WORKERS: usize = 2;

// The stream's shape is this benchmark's own assumption; no published
// trace is at hand. Only the phase rates follow from the admission
// plan (threshold 50, 1 s delay budget at SF 0.01): a quiet phase must
// never fill a batch before its deadline, and a peak phase must fill
// batches well inside it while the server keeps up.

/// Quiet/peak cycles in one stream (720 sessions).
pub const CYCLES: usize = 4;
/// Sessions and arrival rate (per simulated second) of a quiet phase:
/// about 10 arrivals per 1 s deadline, a fifth of the threshold. The
/// quiet selections, which wait for the deadline, are 15% of the
/// stream, so the p90 of the response times falls among them rather
/// than on the edge between them and the peak sessions.
pub const QUIET: (usize, f64) = (30, 10.0);
/// Of a quiet phase's sessions, how many are solo SQL.
pub const QUIET_SQL: usize = 3;
/// Sessions and arrival rate of a peak phase: a batch of 50 fills in
/// about 60 ms, and the server stays below saturation.
pub const PEAK: (usize, f64) = (150, 800.0);
/// Distinct predicates a peak phase draws from (of the 50 values of
/// `l_quantity`), so batches share duplicate arms.
pub const HOT_SET: usize = 8;
/// Idle time between phases, longer than the 1 s delay budget, so
/// every batch drains inside the phase that opened it.
pub const PHASE_GAP_S: f64 = 1.5;
/// Sessions whose rows are checked against a solo selection.
const SPOT_CHECKS: usize = 16;

/// The seeded arrival stream.
pub fn stream(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut push = |t: f64, sql: bool, quantity: i64| {
        let statement = if sql {
            Statement::Sql(format!(
                "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity <= {quantity}"
            ))
        } else {
            Statement::Selection(QedQuery { quantity })
        };
        out.push(Request {
            session: SessionId(out.len() as u64),
            arrival_s: t,
            statement,
        });
    };
    for _ in 0..CYCLES {
        // Quiet: evenly spaced with jitter, uniform predicates, a few
        // solo SQL statements at seeded positions.
        let (n, rate) = QUIET;
        let mut slots: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut slots);
        let sql = &slots[..QUIET_SQL];
        for i in 0..n {
            t += (0.75 + 0.5 * rng.unit_open()) / rate;
            push(t, sql.contains(&i), rng.range(1, 50));
        }
        t += PHASE_GAP_S;
        // Peak: Poisson arrivals over a hot set of distinct predicates.
        let mut domain: Vec<i64> = (1..=50).collect();
        rng.shuffle(&mut domain);
        let (n, rate) = PEAK;
        for _ in 0..n {
            t += -rng.unit_open().ln() / rate;
            push(t, false, *rng.pick(&domain[..HOT_SET]));
        }
        t += PHASE_GAP_S;
    }
    out
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tally: &mut Tally, tr: &mut Tracer) {
    let requests = stream(cfg.seed);
    tally
        .facts
        .push(("requests_per_stream".into(), requests.len().into()));
    let sql = requests
        .iter()
        .filter(|r| matches!(r.statement, Statement::Sql(_)))
        .count() as u64;
    for (traced, budget) in cfg.slices() {
        tr.set_enabled(traced);
        let mut spent = 0.0;
        while spent < budget || tally.units == 0 {
            let (db, plan) = crate::setup(tally, tr, EngineKind::Memory, |_, tr| open(tr));
            let config = ServerConfig::batched(WORKERS, plan.threshold).with_admission(&plan);
            let server = EcoServer::new(&db, config);
            if tally.units == 0 {
                tally.facts.extend([
                    ("threshold".to_string(), plan.threshold.into()),
                    ("max_backlog".to_string(), plan.max_backlog.into()),
                ]);
            }
            tally.attempted += requests.len() as u64;
            *tally.ops.entry("selection").or_default() += requests.len() as u64 - sql;
            *tally.ops.entry("sql").or_default() += sql;
            let t0 = Instant::now();
            let root = tr.enter("stream", tally.units);
            let report = tr.span("server.serve", tally.units, || server.serve(&requests));
            tr.exit(root);
            let host_s = t0.elapsed().as_secs_f64();
            spent += host_s;
            let half = tally.half(tr);
            half.record(report.served as u64, host_s);
            half.lat_s.entry("serve").or_default().push(host_s);

            check(&db, &config, &requests, &report, tally, tr);
            if tally.units == 0 {
                window(&report, tally);
            }
            tally.end_unit(digests(&report));
        }
    }
    if cfg.trace {
        let by = tr.by_name();
        let serve = by.get("server.serve").map_or(0.0, |l| l.mean_self_s());
        let replay = by.get("server.replay").map_or(0.0, |l| l.mean_self_s());
        tally
            .layers
            .insert("server.sched_self_ms", (serve - replay) * 1e3);
    }
}

/// Set-up: generate, load, plan admission, warm up with one fixed
/// selection.
fn open(tr: &mut Tracer) -> (EcoDb, AdmissionPlan) {
    let db = tr.span("core.open", 0, || {
        EcoDb::tpch(EngineProfile::MemoryEngine, SCALE).with_engine(ExecEngine::Columnar)
    });
    let plan = tr.span("server.plan_admission", 0, || {
        plan_admission(&db, &AdmissionConfig::default())
    });
    tr.span("warm_up", 0, || {
        let _ = db.try_trace_selection(&QedQuery { quantity: 1 });
    });
    (db, plan)
}

/// Checks on one served stream. The replay (expensive) runs on the
/// first stream and on every traced one; the row spot checks on the
/// first (later streams must reproduce its digests).
fn check(
    db: &EcoDb,
    cfg: &ServerConfig,
    requests: &[Request],
    report: &ServeReport,
    tally: &mut Tally,
    tr: &mut Tracer,
) {
    let first = tally.units == 0;
    let n = requests.len();
    for o in &report.outcomes {
        if let SessionOutcome::Rejected { session, error, .. } = o {
            tally.fail(format!("session {}: {error}", session.0));
        }
    }
    tally.check(report.ledger_identity(), || {
        "per-session ledgers do not sum to the server ledger".into()
    });
    if first || tr.enabled() {
        let id = tr.enter("server.replay", tally.units);
        let replayed = replay_serial(db, &report.dispatches, cfg.workers, cfg.short_circuit);
        tr.exit(id);
        tally.check(replayed == report.ledger, || {
            "replay_serial differs from the served ledger".into()
        });
    }
    if !first {
        return;
    }
    let mut rng = Rng::new(n as u64, 4);
    let mut sample: Vec<usize> = (0..SPOT_CHECKS).map(|_| rng.below(n)).collect();
    sample.extend((0..n).filter(|&i| matches!(requests[i].statement, Statement::Sql(_))));
    for i in sample {
        let SessionOutcome::Completed { rows, .. } = &report.outcomes[i] else {
            continue; // counted as a failure above
        };
        let solo = match &requests[i].statement {
            Statement::Selection(q) => db.try_trace_selection(q),
            Statement::Sql(sql) => db.try_trace_sql(sql),
        };
        match solo {
            Ok((want, _)) => {
                tally.check(*rows == want, || {
                    format!("session {i}: rows differ from a solo run")
                });
            }
            Err(e) => tally.fail(format!("session {i}: solo run failed: {e}")),
        }
    }
}

/// Simulated figures of the first stream.
fn window(report: &ServeReport, tally: &mut Tally) {
    let mut response = Vec::new();
    let mut queue = Vec::new();
    for o in &report.outcomes {
        if let SessionOutcome::Completed {
            response_s,
            queue_delay_s,
            ..
        } = o
        {
            response.push(*response_s);
            queue.push(*queue_delay_s);
        }
    }
    let (mut merged, mut members, mut arms, mut solo) = (0usize, 0usize, 0usize, 0usize);
    for d in &report.dispatches {
        match &d.kind {
            DispatchKind::Merged(qs) => {
                merged += 1;
                members += d.members.len();
                arms += qs.len();
            }
            _ => solo += 1,
        }
    }
    let w = &mut tally.window;
    w.stmts = report.served as u64;
    w.cpu_j = report.measurement.cpu_joules;
    w.wall_j = report.measurement.wall_joules;
    w.response_s = response;
    let per = |x: usize| x as f64 / merged.max(1) as f64;
    tally.layers.extend([
        ("server.members_per_dispatch", per(members)),
        ("server.distinct_arms_per_dispatch", per(arms)),
        ("server.queue_delay_p50_s", median(&queue).unwrap_or(0.0)),
        (
            "server.queue_delay_p95_s",
            tail(&queue, 95).map_or(0.0, |t| t.value),
        ),
        ("server.shed", report.shed as f64),
    ]);
    tally
        .facts
        .push(("merged_dispatches".into(), merged.into()));
    tally.facts.push(("solo_dispatches".into(), solo.into()));
    tally.facts.push((
        "queue_delay_tail_pct".into(),
        tail(&queue, 95).map_or(0u64, |t| u64::from(t.pct)).into(),
    ));
}

fn digests(report: &ServeReport) -> Digests {
    let mut d = Digests::default();
    d.ledger.totals(&report.ledger);
    for (sid, l) in &report.session_ledgers {
        d.ledger.u64(sid.0);
        d.ledger.totals(l);
    }
    for o in &report.outcomes {
        match o {
            SessionOutcome::Completed {
                rows,
                arrival_s,
                dispatch_s,
                response_s,
                queue_delay_s,
                ..
            } => {
                d.rows.rows(rows);
                for v in [arrival_s, dispatch_s, response_s, queue_delay_s] {
                    d.sim.f64(*v);
                }
            }
            SessionOutcome::Rejected { .. } => d.rows.u64(u64::MAX),
        }
    }
    let m = &report.measurement;
    for v in [
        m.busy_window_s,
        m.idle_s,
        m.makespan_s,
        m.cpu_joules,
        m.dram_joules,
        m.disk_joules,
        m.wall_joules,
    ] {
        d.sim.f64(v);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_phased() {
        let a = stream(3);
        assert_eq!(a, stream(3));
        assert_ne!(a, stream(4));
        assert_eq!(a.len(), CYCLES * (QUIET.0 + PEAK.0));
        assert!(a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        // A peak phase draws from at most HOT_SET predicates.
        let peak = &a[QUIET.0..QUIET.0 + PEAK.0];
        let mut qs: Vec<i64> = peak
            .iter()
            .filter_map(|r| r.statement.selection().ok().map(|q| q.quantity))
            .collect();
        qs.sort_unstable();
        qs.dedup();
        assert!(qs.len() <= HOT_SET);
        let sql = a
            .iter()
            .filter(|r| matches!(r.statement, Statement::Sql(_)))
            .count();
        assert_eq!(sql, CYCLES * QUIET_SQL);
    }
}
