//! One SQL statement, end to end: text → rows → priced measurement.
//!
//! Untraced, a statement is `EcoDb::try_trace_sql` followed by
//! `EcoDb::price` at `MachineConfig::stock()` — what `EcoDb::run_sql`
//! does. Traced, a `SELECT` makes the same public calls in the same
//! order as `try_trace_sql` (parse, plan, execute, `Parse` charge,
//! client-gap phase) with a span around each layer call, and a DML
//! statement is timed as one `try_trace_sql` span with `parse_statement`
//! and `execute_dml` measured beside it. (The write-ahead log is private
//! to `EcoDb`, so the write path cannot be rebuilt from public calls:
//! how a write's time splits between parse, record generation, log,
//! fsync and apply is not attributed inside that span.) Either way the trace must be
//! bit-identical to the untraced one; the digests check that.

use std::time::Instant;

use ecodb::core::EcoDb;
use ecodb::query::exec::ExecEngine;
use ecodb::query::sql::{execute_dml, parse_statement, plan_select, Statement};
use ecodb::query::ExecCtx;
use ecodb::simhw::trace::{OpClass, Phase, PhaseKind, WorkTrace};
use ecodb::simhw::{MachineConfig, Measurement};
use ecodb::storage::Tuple;

use crate::spans::Tracer;

/// A completed statement.
#[derive(Debug, Clone)]
pub struct Done {
    /// Result rows (for DML, one row holding the affected count).
    pub rows: Vec<Tuple>,
    /// The statement's ledger.
    pub trace: WorkTrace,
    /// The ledger priced at the stock machine configuration.
    pub measurement: Measurement,
    /// Host seconds from SQL text to priced result.
    pub host_s: f64,
}

/// Run one statement, traced or not (see the module docs).
pub fn run(db: &EcoDb, sql: &str, tr: &mut Tracer, stmt: u64) -> Result<Done, String> {
    if !tr.enabled() {
        let t0 = Instant::now();
        let (rows, trace) = db.try_trace_sql(sql).map_err(|e| e.to_string())?;
        let measurement = db.price(&trace, MachineConfig::stock());
        let host_s = t0.elapsed().as_secs_f64();
        return Ok(Done {
            rows,
            trace,
            measurement,
            host_s,
        });
    }
    let is_select = sql
        .trim_start()
        .get(..6)
        .is_some_and(|w| w.eq_ignore_ascii_case("select"));
    if !is_select {
        // Beside the statement, against the same table state: parse and
        // record generation alone.
        let parsed = tr
            .span("query.parse", stmt, || parse_statement(sql))
            .map_err(|e| e.to_string())?;
        tr.span("query.dml", stmt, || {
            execute_dml(db.catalog(), &parsed, &mut ExecCtx::new())
        })
        .map_err(|e| e.to_string())?;
    }
    let root = tr.enter("stmt", stmt);
    let result = if is_select {
        traced_select(db, sql, tr, stmt)
    } else {
        tr.span("core.try_trace_sql", stmt, || db.try_trace_sql(sql))
            .map_err(|e| e.to_string())
    };
    let done = result.map(|(rows, trace)| {
        let measurement = tr.span("simhw.measure", stmt, || {
            db.price(&trace, MachineConfig::stock())
        });
        (rows, trace, measurement)
    });
    let host_s = tr.exit(root);
    let (rows, trace, measurement) = done?;
    Ok(Done {
        rows,
        trace,
        measurement,
        host_s,
    })
}

/// `EcoDb::try_trace_sql` for a `SELECT`, rebuilt from public calls.
fn traced_select(
    db: &EcoDb,
    sql: &str,
    tr: &mut Tracer,
    stmt: u64,
) -> Result<(Vec<Tuple>, WorkTrace), String> {
    let parsed = tr
        .span("query.parse", stmt, || parse_statement(sql))
        .map_err(|e| e.to_string())?;
    let Statement::Select(select) = parsed else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let tokens = (sql.split_whitespace().count() as u64).max(4);
    let mut ctx = ExecCtx::new()
        .with_columnar(db.engine() == ExecEngine::Columnar)
        .with_pricing(db.pricing());
    ctx.charge(OpClass::Parse, tokens);
    let mut plan = tr
        .span("query.plan", stmt, || plan_select(db.catalog(), &select))
        .map_err(|e| e.to_string())?;
    let engine = db.engine();
    let rows = tr.span("query.exec", stmt, || {
        engine.execute(plan.as_mut(), &mut ctx)
    });
    if let Some(e) = ctx.take_error() {
        return Err(e.to_string());
    }
    let exec_phase = ctx.take_phase(PhaseKind::Execute, "sql");
    let busy = db.machine().stock_busy_seconds(&exec_phase);
    let gap_ns = (busy * db.profile().gap_fraction() * 1e9).round() as u64;
    let mut trace = WorkTrace::new();
    trace.push(Phase::client_gap(gap_ns.max(1)));
    trace.push(exec_phase);
    Ok((rows, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecodb::core::EngineProfile;

    #[test]
    fn traced_select_reproduces_try_trace_sql_exactly() {
        let db =
            EcoDb::tpch(EngineProfile::CommercialDisk, 0.002).with_engine(ExecEngine::Columnar);
        db.create_index("o_key", "orders", "o_orderkey")
            .expect("index");
        let sqls = [
            "SELECT * FROM orders WHERE o_orderkey = 7",
            "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
        ];
        for sql in sqls {
            // Cold pool before each path, so both see the same state.
            db.flush_cache();
            let plain = run(&db, sql, &mut Tracer::new(false), 0).expect("untraced");
            db.flush_cache();
            let mut tr = Tracer::new(true);
            let traced = run(&db, sql, &mut tr, 0).expect("traced");
            assert_eq!(plain.rows, traced.rows, "{sql}");
            assert_eq!(plain.trace, traced.trace, "{sql}");
            assert_eq!(plain.measurement, traced.measurement, "{sql}");
            let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                names,
                [
                    "stmt",
                    "query.parse",
                    "query.plan",
                    "query.exec",
                    "simhw.measure"
                ]
            );
        }
    }
}
