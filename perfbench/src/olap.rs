//! `olap_sql`: TPC-H Q1, Q3, Q5, Q6 and a wide projection as SQL text,
//! one closed-loop client, MemoryEngine profile, columnar engine.
//!
//! A unit of work is one pass over a seeded mix of [`PER_KIND`]
//! statements of each kind, on a freshly set-up database. Every distinct statement is checked once
//! against `ExecEngine::Scalar` (rows and ledger) outside the timed
//! region; Q5 also against `plans::q5_reference`, and the wide
//! projection's row count against the generated rows. Later passes
//! must reproduce the first pass's digests.

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::exec::ExecEngine;
use ecodb::query::plans::{q5_reference, q5_rows_to_pairs, q5_sql};
use ecodb::storage::EngineKind;
use ecodb::tpch::text::{REGIONS, SEGMENTS};
use ecodb::tpch::{Date, Q5Params};

use crate::digest::Digests;
use crate::spans::Tracer;
use crate::stats::Rng;
use crate::tally::{RunCfg, Tally};
use crate::{sql, SCALE};

/// Statements of each kind in one pass.
pub const PER_KIND: usize = 40;

/// A statement kind of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Q1,
    Q3,
    Q5,
    Q6,
    Wide,
}

impl Kind {
    const ALL: [Kind; 5] = [Kind::Q1, Kind::Q3, Kind::Q5, Kind::Q6, Kind::Wide];

    fn name(self) -> &'static str {
        match self {
            Kind::Q1 => "q1",
            Kind::Q3 => "q3",
            Kind::Q5 => "q5",
            Kind::Q6 => "q6",
            Kind::Wide => "wide",
        }
    }
}

/// One statement of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Its kind.
    pub kind: Kind,
    /// SQL text.
    pub sql: String,
    /// Q5 parameters (for the reference check).
    pub q5: Option<Q5Params>,
    /// Wide-projection quantity bound.
    pub max_qty: Option<i64>,
}

/// The seeded mix: [`PER_KIND`] statements of each kind, shuffled.
/// Parameters are drawn stratified (one draw per equal slice of each
/// range, categories in turn), so every pass covers the parameter
/// space evenly and a pass's cost depends little on the seed.
pub fn mix(seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::with_capacity(PER_KIND * Kind::ALL.len());
    for kind in Kind::ALL {
        let offset = rng.below(PER_KIND);
        for i in 0..PER_KIND {
            out.push(stmt(kind, i, (i + offset) % PER_KIND, &mut rng));
        }
    }
    rng.shuffle(&mut out);
    out
}

/// The set-up's warm-up: one statement of each kind, from the middle
/// of each parameter range, the same for every seed.
fn warm_up_stmts() -> Vec<Stmt> {
    let mut rng = Rng::new(0, 0);
    Kind::ALL
        .iter()
        .map(|&kind| stmt(kind, PER_KIND / 2, 0, &mut rng))
        .collect()
}

/// A draw from slice `i` of [`PER_KIND`] equal slices of `lo..=hi`.
fn stratified(rng: &mut Rng, i: usize, lo: i64, hi: i64) -> i64 {
    let u = (i as f64 + rng.unit_open()) / PER_KIND as f64;
    lo + (u * (hi - lo + 1) as f64) as i64
}

/// Statement `i` of a kind; `c` picks categories in turn.
fn stmt(kind: Kind, i: usize, c: usize, rng: &mut Rng) -> Stmt {
    let mut q5 = None;
    let mut max_qty = None;
    let sql = match kind {
        Kind::Q1 => {
            let delta = stratified(rng, i, 60, 120) as i32;
            let cut = Date::from_ymd(1998, 12, 1).plus_days(-delta);
            format!(
                "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                 SUM(l_extendedprice) AS sum_base_price, \
                 SUM(l_extendedprice * (100 - l_discount) / 100) AS sum_disc_price, \
                 SUM(l_extendedprice * (100 - l_discount) / 100 * (100 + l_tax) / 100) AS sum_charge, \
                 AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
                 AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
                 FROM lineitem WHERE l_shipdate <= DATE '{}' \
                 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
                cut.iso()
            )
        }
        Kind::Q3 => {
            let day = Date::from_ymd(1995, 3, 1).plus_days(stratified(rng, i, 0, 30) as i32);
            format!(
                "SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue, \
                 o_orderdate, o_shippriority FROM customer, orders, lineitem \
                 WHERE c_mktsegment = '{}' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
                 AND o_orderdate < DATE '{d}' AND l_shipdate > DATE '{d}' \
                 GROUP BY l_orderkey, o_orderdate, o_shippriority \
                 ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10",
                SEGMENTS[c % SEGMENTS.len()],
                d = day.iso()
            )
        }
        Kind::Q5 => {
            let region = REGIONS[c % REGIONS.len()];
            let year = 1993 + (c / REGIONS.len()) % 5;
            let params = Q5Params::new(region, year as i32);
            let sql = q5_sql(&params);
            q5 = Some(params);
            sql
        }
        Kind::Q6 => {
            let year = 1993 + c % 5;
            let disc = stratified(rng, i, 2, 9);
            format!(
                "SELECT SUM(l_extendedprice * l_discount / 100) AS revenue FROM lineitem \
                 WHERE l_shipdate >= DATE '{year}-01-01' AND l_shipdate < DATE '{}-01-01' \
                 AND l_discount BETWEEN {} AND {} AND l_quantity < {}",
                year + 1,
                disc - 1,
                disc + 1,
                24 + c % 2
            )
        }
        Kind::Wide => {
            let q = stratified(rng, i, 1, 50);
            max_qty = Some(q);
            format!("SELECT * FROM lineitem WHERE l_quantity <= {q}")
        }
    };
    Stmt {
        kind,
        sql,
        q5,
        max_qty,
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tally: &mut Tally, tr: &mut Tracer) {
    let stmts = mix(cfg.seed);
    let warm_up = warm_up_stmts();
    for (traced, budget) in cfg.slices() {
        tr.set_enabled(traced);
        let mut spent = 0.0;
        while spent < budget || tally.units == 0 {
            let mut db = crate::setup(tally, tr, EngineKind::Memory, |_, tr| open(tr, &warm_up));
            let mut unit = Digests::default();
            for (i, s) in stmts.iter().enumerate() {
                tally.attempted += 1;
                *tally.ops.entry(s.kind.name()).or_default() += 1;
                let stmt_id = tally.units * stmts.len() as u64 + i as u64;
                let done = match sql::run(&db, &s.sql, tr, stmt_id) {
                    Ok(d) => d,
                    Err(e) => {
                        tally.fail(format!("{}: {e}", s.sql));
                        continue;
                    }
                };
                spent += done.host_s;
                let half = tally.half(tr);
                half.record(1, done.host_s);
                half.lat_s.entry("read").or_default().push(done.host_s);
                half.lat_s
                    .entry(s.kind.name())
                    .or_default()
                    .push(done.host_s);

                unit.add(&done.trace, &done.rows, &done.measurement);
                if tally.units == 0 {
                    check_distinct(&mut db, s, &done, tally);
                    tally.window_add(&done);
                }
            }
            tally.end_unit(unit);
        }
    }
    tally.finish_stmt_counts();
}

/// Set-up: generate, load, warm up with one fixed statement of each
/// kind (the same for every seed, so set-up time does not depend on the
/// mix).
fn open(tr: &mut Tracer, warm_up: &[Stmt]) -> EcoDb {
    let db = tr.span("core.open", 0, || {
        EcoDb::tpch(EngineProfile::MemoryEngine, SCALE).with_engine(ExecEngine::Columnar)
    });
    tr.span("warm_up", 0, || {
        for s in warm_up {
            let _ = db.try_trace_sql(&s.sql);
        }
    });
    db
}

/// Checks made once per distinct statement, outside the timed region.
fn check_distinct(db: &mut EcoDb, s: &Stmt, done: &sql::Done, tally: &mut Tally) {
    db.set_engine(ExecEngine::Scalar);
    let scalar = db.try_trace_sql(&s.sql);
    db.set_engine(ExecEngine::Columnar);
    match scalar {
        Ok((rows, trace)) => {
            tally.check(rows == done.rows, || {
                format!("rows differ from Scalar: {}", s.sql)
            });
            tally.check(trace == done.trace, || {
                format!("ledger differs from Scalar: {}", s.sql)
            });
        }
        Err(e) => tally.fail(format!("Scalar failed on {}: {e}", s.sql)),
    }
    if let Some(params) = &s.q5 {
        let want = q5_reference(db.source(), params);
        tally.check(q5_rows_to_pairs(&done.rows) == want, || {
            format!("Q5 differs from q5_reference: {}", params.label())
        });
    }
    if let Some(q) = s.max_qty {
        let want = db
            .source()
            .lineitem
            .iter()
            .filter(|l| l.l_quantity <= q)
            .count();
        tally.check(done.rows.len() == want, || {
            format!(
                "wide projection returned {} rows, expected {want}",
                done.rows.len()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_balanced_and_seed_dependent() {
        let a = mix(11);
        assert_eq!(a, mix(11));
        assert_ne!(a, mix(12));
        for kind in Kind::ALL {
            assert_eq!(a.iter().filter(|s| s.kind == kind).count(), PER_KIND);
        }
        for s in &a {
            ecodb::query::sql::parse_statement(&s.sql).expect("mix SQL parses");
        }
        // The warm-up does not depend on the seed.
        assert_eq!(warm_up_stmts(), warm_up_stmts());
        assert_eq!(warm_up_stmts().len(), Kind::ALL.len());
    }
}
