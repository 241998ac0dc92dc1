//! `oltp_durable`: point reads beside durable writes, then crash
//! recovery, CommercialDisk profile with B-tree indexes on
//! `orders.o_orderkey` and `lineitem.l_orderkey`.
//!
//! A unit of work is one database lifetime: set up a fresh database,
//! run the seeded statement mix through `EcoDb::try_trace_sql` (every
//! DML statement auto-commits: log → fsync → apply), then simulate a
//! crash and call `EcoDb::recover`. The client keeps a shadow key → row
//! model of `orders`; every point read is checked against it (and
//! `lineitem` reads against the generated rows), and after recovery
//! every acknowledged write must be visible and the recovered table
//! must equal the model.
//!
//! Each lifetime crashes once. `EcoDb::recover` restarts the log empty
//! but rebuilds from the generated base rows, so a second crash in the
//! same lifetime loses every write acknowledged before the first one
//! (see `second_recovery_keeps_writes_acknowledged_before_the_first`).

use std::collections::BTreeMap;
use std::time::Instant;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::storage::{load_tpch, Catalog, EngineKind, TableData, Tuple, Value, WriteAheadLog};
use ecodb::tpch::text::PRIORITIES;
use ecodb::tpch::{Date, Lineitem, Order, TpchDb, TpchGenerator};

use crate::digest::Digests;
use crate::spans::Tracer;
use crate::stats::Rng;
use crate::tally::{RunCfg, Tally};
use crate::{sql, POOL_PAGES, SCALE};

/// Statement counts of one lifetime, per operation: 400 statements.
///
/// The read/write ratio, 95/5, is YCSB workload B ("read mostly";
/// Cooper et al., SoCC 2010). Writes dominate host time even so (a
/// write rebuilds `orders` and its index; a point read takes about a
/// tenth of a millisecond), and B is the published read/write mix that
/// leaves reads their largest share of it. Two splits are this
/// benchmark's own assumptions, not from a published mix: the reads go
/// half to `orders` and half to `lineitem`, and the writes are inserts
/// and deletes in equal numbers (so the table size stays level) plus
/// updates.
pub const MIX: [(OpKind, usize); 5] = [
    (OpKind::ReadOrder, 190),
    (OpKind::ReadLine, 190),
    (OpKind::Insert, 7),
    (OpKind::Update, 6),
    (OpKind::Delete, 7),
];

/// First key given to inserted orders (above every generated key).
const NEW_KEY_BASE: i64 = 10_000_000;

/// Operation types of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    ReadOrder,
    ReadLine,
    Insert,
    Update,
    Delete,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::ReadOrder => "read_orders",
            OpKind::ReadLine => "read_lineitem",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
        }
    }

    fn is_read(self) -> bool {
        matches!(self, OpKind::ReadOrder | OpKind::ReadLine)
    }
}

/// One statement of the mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Operation type.
    pub kind: OpKind,
    /// The `orders` / `lineitem` key it touches.
    pub key: i64,
    /// The row an insert or update leaves (what the model expects).
    pub row: Option<Tuple>,
    /// SQL text.
    pub sql: String,
}

/// The shadow model: `orders` by key, as acknowledged writes left it.
pub type Model = BTreeMap<i64, Tuple>;

/// `orders` rows as tuples, converted here rather than by the loader
/// so the model is independent of the code under test.
pub fn order_tuple(o: &Order) -> Tuple {
    vec![
        Value::Int(o.o_orderkey),
        Value::Int(o.o_custkey),
        Value::Char(o.o_orderstatus),
        Value::Int(o.o_totalprice),
        Value::Date(o.o_orderdate.0),
        Value::str(&o.o_orderpriority),
        Value::str(&o.o_clerk),
        Value::Int(o.o_shippriority),
        Value::str(&o.o_comment),
    ]
}

fn lineitem_tuple(l: &Lineitem) -> Tuple {
    vec![
        Value::Int(l.l_orderkey),
        Value::Int(l.l_partkey),
        Value::Int(l.l_suppkey),
        Value::Int(l.l_linenumber),
        Value::Int(l.l_quantity),
        Value::Int(l.l_extendedprice),
        Value::Int(l.l_discount),
        Value::Int(l.l_tax),
        Value::Char(l.l_returnflag),
        Value::Char(l.l_linestatus),
        Value::Date(l.l_shipdate.0),
        Value::Date(l.l_commitdate.0),
        Value::Date(l.l_receiptdate.0),
        Value::str(&l.l_shipinstruct),
        Value::str(&l.l_shipmode),
        Value::str(&l.l_comment),
    ]
}

/// The initial model.
pub fn initial_model(source: &TpchDb) -> Model {
    source
        .orders
        .iter()
        .map(|o| (o.o_orderkey, order_tuple(o)))
        .collect()
}

/// The seeded statement mix of one lifetime, generated against a
/// simulated key set so that updates, deletes and reads always name a
/// live key. Inserts and deletes balance, so the table size stays
/// level.
pub fn mix(seed: u64, initial_keys: &[i64]) -> Vec<Stmt> {
    let mut rng = Rng::new(seed, 2);
    let mut kinds: Vec<OpKind> = MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    rng.shuffle(&mut kinds);
    let mut live = initial_keys.to_vec();
    let mut inserted = 0;
    kinds
        .into_iter()
        .map(|kind| match kind {
            OpKind::ReadOrder => {
                let key = *rng.pick(&live);
                Stmt {
                    kind,
                    key,
                    row: None,
                    sql: format!("SELECT * FROM orders WHERE o_orderkey = {key}"),
                }
            }
            OpKind::ReadLine => {
                let key = *rng.pick(initial_keys);
                Stmt {
                    kind,
                    key,
                    row: None,
                    sql: format!("SELECT * FROM lineitem WHERE l_orderkey = {key}"),
                }
            }
            OpKind::Insert => {
                let key = NEW_KEY_BASE + inserted;
                inserted += 1;
                live.push(key);
                let date = Date::from_ymd(1995, 1, 1).plus_days(rng.range(0, 1000) as i32);
                let row = vec![
                    Value::Int(key),
                    Value::Int(rng.range(1, 1500)),
                    Value::Char('O'),
                    Value::Int(rng.range(100_000, 50_000_000)),
                    Value::Date(date.0),
                    Value::str(*rng.pick(&PRIORITIES)),
                    Value::str(format!("Clerk#{:09}", rng.range(1, 10))),
                    Value::Int(0),
                    Value::str(format!("bench insert {inserted}")),
                ];
                let sql = format!(
                    "INSERT INTO orders VALUES ({key}, {}, 'O', {}, DATE '{}', '{}', '{}', 0, '{}')",
                    int(&row[1]),
                    int(&row[3]),
                    date.iso(),
                    text(&row[5]),
                    text(&row[6]),
                    text(&row[8]),
                );
                Stmt {
                    kind,
                    key,
                    row: Some(row),
                    sql,
                }
            }
            OpKind::Update => {
                let key = *rng.pick(&live);
                let price = rng.range(100_000, 50_000_000);
                let comment = format!("bench update {}", rng.range(0, 999_999));
                Stmt {
                    kind,
                    key,
                    // The new row depends on the old one; the model
                    // applies the SET list.
                    row: Some(vec![Value::Int(price), Value::str(&comment)]),
                    sql: format!(
                        "UPDATE orders SET o_totalprice = {price}, o_comment = '{comment}' \
                         WHERE o_orderkey = {key}"
                    ),
                }
            }
            OpKind::Delete => {
                let key = live.swap_remove(rng.below(live.len()));
                Stmt {
                    kind,
                    key,
                    row: None,
                    sql: format!("DELETE FROM orders WHERE o_orderkey = {key}"),
                }
            }
        })
        .collect()
}

fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or_default()
}

fn text(v: &Value) -> &str {
    v.as_str().unwrap_or_default()
}

/// Apply an acknowledged write to the model.
pub fn apply(model: &mut Model, s: &Stmt) {
    match (s.kind, &s.row) {
        (OpKind::Insert, Some(row)) => {
            model.insert(s.key, row.clone());
        }
        (OpKind::Update, Some(set)) => {
            if let Some(row) = model.get_mut(&s.key) {
                row[3] = set[0].clone();
                row[8] = set[1].clone();
            }
        }
        (OpKind::Delete, _) => {
            model.remove(&s.key);
        }
        _ => {}
    }
}

/// Check one completed statement's rows against the model (before a
/// write is applied to it). Returns a description of a wrong answer.
pub fn verify(
    model: &Model,
    lineitems: &BTreeMap<i64, Vec<Tuple>>,
    s: &Stmt,
    rows: &[Tuple],
) -> Result<(), String> {
    let want: Vec<Tuple> = match s.kind {
        OpKind::ReadOrder => model.get(&s.key).cloned().into_iter().collect(),
        OpKind::ReadLine => lineitems.get(&s.key).cloned().unwrap_or_default(),
        // DML answers with the affected-row count; each names one live
        // key (an insert names a new one).
        _ => vec![vec![Value::Int(1)]],
    };
    if rows == want.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "{}: got {} rows {:?}, model says {:?}",
            s.sql,
            rows.len(),
            rows.first(),
            want.first()
        ))
    }
}

/// The `orders` table of a catalog, keyed like the model.
pub fn orders_by_key(catalog: &Catalog) -> Result<Model, String> {
    let stored = catalog.get("orders").ok_or("no orders table")?;
    let tuples = match &stored.data {
        TableData::Disk(d) => d.all_tuples(),
        TableData::Memory(h) => h.tuples().to_vec(),
    };
    let n = tuples.len();
    let by_key: Model = tuples.into_iter().map(|t| (int(&t[0]), t)).collect();
    if by_key.len() != n {
        return Err(format!(
            "orders holds {n} rows but {} distinct keys",
            by_key.len()
        ));
    }
    Ok(by_key)
}

/// What stays fixed across a run's lifetimes.
struct Base {
    model: Model,
    lineitems: BTreeMap<i64, Vec<Tuple>>,
    stmts: Vec<Stmt>,
}

/// Run the workload.
pub fn run(cfg: &RunCfg, tally: &mut Tally, tr: &mut Tracer) {
    let source = TpchGenerator::new(SCALE).generate();
    let model = initial_model(&source);
    let keys: Vec<i64> = model.keys().copied().collect();
    let mut lineitems: BTreeMap<i64, Vec<Tuple>> = BTreeMap::new();
    for l in &source.lineitem {
        lineitems
            .entry(l.l_orderkey)
            .or_default()
            .push(lineitem_tuple(l));
    }
    let base = Base {
        stmts: mix(cfg.seed, &keys),
        model,
        lineitems,
    };
    drop(source);
    for &(kind, n) in &MIX {
        tally.facts.push((format!("mix.{}", kind.name()), n.into()));
    }

    let mut counts = Counts::default();
    for (traced, budget) in cfg.slices() {
        tr.set_enabled(traced);
        let mut spent = 0.0;
        while spent < budget || tally.units == 0 {
            spent += lifetime(&base, tally, tr, &mut counts);
        }
    }
    tally.finish_stmt_counts();
    tally.layers.extend(counts.layers());
}

/// Storage-layer counts over the first lifetime (they repeat exactly).
#[derive(Debug, Default)]
struct Counts {
    reads: u64,
    writes: u64,
    pool_hits: u64,
    pool_misses: u64,
    index_ios: u64,
    fsyncs: u64,
    log_bytes: u64,
}

impl Counts {
    fn layers(&self) -> [(&'static str, f64); 5] {
        let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
        let c = self;
        [
            (
                "storage.pool_hit_ratio",
                per(c.pool_hits, c.pool_hits + c.pool_misses),
            ),
            ("storage.pool_misses_per_stmt", per(c.pool_misses, c.reads)),
            ("storage.index_ios_per_read", per(c.index_ios, c.reads)),
            ("storage.fsyncs_per_txn", per(c.fsyncs, c.writes)),
            ("storage.log_bytes_per_txn", per(c.log_bytes, c.writes)),
        ]
    }
}

/// Set up a fresh database: open, index, warm up.
fn open(tally: &mut Tally, tr: &mut Tracer) -> EcoDb {
    let db = tr.span("core.open", 0, || {
        EcoDb::tpch(EngineProfile::CommercialDisk, SCALE)
    });
    for (name, table, column) in [
        ("orders_key", "orders", "o_orderkey"),
        ("lineitem_key", "lineitem", "l_orderkey"),
    ] {
        if let Err(e) = tr.span("storage.create_index", 0, || {
            db.create_index(name, table, column)
        }) {
            tally.fail(format!("CREATE INDEX {name}: {e}"));
        }
    }
    tr.span("warm_up", 0, || {
        for sql in [
            "SELECT COUNT(*) AS n FROM lineitem",
            "SELECT COUNT(*) AS n FROM orders",
        ] {
            let _ = db.try_trace_sql(sql);
        }
    });
    db
}

/// One lifetime; returns the measured statement host seconds.
fn lifetime(base: &Base, tally: &mut Tally, tr: &mut Tracer, counts: &mut Counts) -> f64 {
    let mut db = crate::setup(tally, tr, EngineKind::Disk, open);
    let first = tally.units == 0;
    let mut model = base.model.clone();
    let mut unit = Digests::default();
    let mut spent = 0.0;
    let mut writes = 0;
    for (i, s) in base.stmts.iter().enumerate() {
        tally.attempted += 1;
        *tally.ops.entry(s.kind.name()).or_default() += 1;
        let pool_before = db.catalog().pool().stats();
        let fsyncs_before = db.wal_fsyncs();
        let stmt_id = tally.units * base.stmts.len() as u64 + i as u64;
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
        let class = if s.kind.is_read() { "read" } else { "write" };
        half.lat_s.entry(class).or_default().push(done.host_s);
        half.lat_s
            .entry(s.kind.name())
            .or_default()
            .push(done.host_s);

        if let Err(e) = verify(&model, &base.lineitems, s, &done.rows) {
            tally.fail(e);
        }
        if !s.kind.is_read() {
            apply(&mut model, s);
            writes += 1;
        }
        unit.add(&done.trace, &done.rows, &done.measurement);
        if first {
            tally.window_add(&done);
            let pool = db.catalog().pool().stats();
            let disk = done.trace.total_disk();
            if s.kind.is_read() {
                counts.reads += 1;
                counts.pool_hits += pool.hits - pool_before.hits;
                counts.pool_misses += pool.misses - pool_before.misses;
                counts.index_ios += disk.index_ios;
            } else {
                counts.writes += 1;
                counts.fsyncs += db.wal_fsyncs() - fsyncs_before;
                counts.log_bytes += disk.log_bytes;
            }
        }
    }

    // Crash: everything in memory is lost; recovery rebuilds from the
    // base rows and the durable log image only.
    tally.attempted += 1;
    let crash_id = (tally.units + 1) * base.stmts.len() as u64;
    let replica = if tr.enabled() {
        match replica_recover(&db, tr, crash_id) {
            Ok(c) => Some(c),
            Err(e) => {
                tally.fail(format!("replayed recovery: {e}"));
                None
            }
        }
    } else {
        None
    };
    let t0 = Instant::now();
    let root = tr.enter("recover", crash_id);
    let report = db.recover();
    tr.exit(root);
    let recover_s = t0.elapsed().as_secs_f64();
    tally
        .half(tr)
        .lat_s
        .entry("recover")
        .or_default()
        .push(recover_s);
    match report {
        Ok(r) => {
            tally.check(
                r.records_replayed == writes
                    && r.indexes_rebuilt == 2
                    && !r.torn_tail
                    && r.uncommitted_records == 0,
                || format!("recovery report {r:?} after {writes} acknowledged writes"),
            );
            check_recovered(&db, &model, replica.as_ref(), tally);
            unit.rows.u64(model.len() as u64);
        }
        Err(e) => tally.fail(format!("recover: {e}")),
    }
    tally.end_unit(unit);
    spent
}

/// After recovery every acknowledged write must be visible: the
/// recovered `orders` equals the model (and, when traced, the table a
/// recovery replayed from public calls produced).
fn check_recovered(db: &EcoDb, model: &Model, replica: Option<&Catalog>, tally: &mut Tally) {
    match orders_by_key(db.catalog()) {
        Ok(table) => {
            let missing = model
                .iter()
                .filter(|(k, row)| table.get(k) != Some(row))
                .count();
            let extra = table.keys().filter(|k| !model.contains_key(k)).count();
            tally.check(missing == 0 && extra == 0, || {
                format!("recovered orders: {missing} acknowledged rows missing or stale, {extra} unexpected")
            });
            if let Some(replica) = replica {
                let same = orders_by_key(replica).is_ok_and(|r| r == table);
                tally.check(same, || {
                    "replayed recovery differs from EcoDb::recover".to_string()
                });
            }
        }
        Err(e) => tally.fail(format!("recovered orders: {e}")),
    }
}

/// `EcoDb::recover`, reproduced from public calls with a span around
/// each: scan the log image, load the base tables, apply each record,
/// re-create the indexes.
fn replica_recover(db: &EcoDb, tr: &mut Tracer, stmt: u64) -> Result<Catalog, String> {
    let image = db.wal_image();
    let root = tr.enter("replica_recover", stmt);
    let out = (|| {
        let rec = tr
            .span("storage.wal_scan", stmt, || WriteAheadLog::recover(&image))
            .map_err(|e| e.to_string())?;
        let catalog = tr.span("storage.load", stmt, || {
            load_tpch(db.source(), db.profile().engine_kind(), POOL_PAGES)
        });
        catalog
            .pool()
            .set_warm_reread_every(db.profile().warm_reread_every());
        for r in &rec.records {
            tr.span("storage.apply", stmt, || catalog.apply_wal_record(r))
                .map_err(|e| e.to_string())?;
        }
        for e in db.catalog().index_entries() {
            tr.span("storage.create_index", stmt, || {
                catalog.create_index(&e.name, &e.table, &e.column)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(catalog)
    })();
    tr.exit(root);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<i64> {
        (1..=400).map(|k| k * 4).collect()
    }

    #[test]
    fn mix_is_deterministic_and_balanced() {
        let a = mix(5, &keys());
        assert_eq!(a, mix(5, &keys()));
        assert_ne!(a, mix(6, &keys()));
        for &(kind, n) in &MIX {
            assert_eq!(a.iter().filter(|s| s.kind == kind).count(), n);
        }
        // Every update, delete and orders read names a live key.
        let mut live: std::collections::BTreeSet<i64> = keys().into_iter().collect();
        for s in &a {
            match s.kind {
                OpKind::Insert => assert!(live.insert(s.key)),
                OpKind::Delete => assert!(live.remove(&s.key)),
                OpKind::Update | OpKind::ReadOrder => assert!(live.contains(&s.key)),
                OpKind::ReadLine => assert!(keys().contains(&s.key)),
            }
            ecodb::query::sql::parse_statement(&s.sql).expect("mix SQL parses");
        }
        assert_eq!(live.len(), keys().len(), "inserts and deletes balance");
    }

    #[test]
    fn shadow_model_rejects_a_wrong_row() {
        let db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
        let model = initial_model(db.source());
        let key = *model.keys().next().expect("orders");
        let s = Stmt {
            kind: OpKind::ReadOrder,
            key,
            row: None,
            sql: format!("SELECT * FROM orders WHERE o_orderkey = {key}"),
        };
        let (rows, _) = db.try_trace_sql(&s.sql).expect("point read");
        let none = BTreeMap::new();
        assert_eq!(verify(&model, &none, &s, &rows), Ok(()));
        let mut wrong = rows.clone();
        wrong[0][3] = Value::Int(int(&wrong[0][3]) + 1);
        assert!(verify(&model, &none, &s, &wrong).is_err());
        assert!(verify(&model, &none, &s, &[]).is_err());
        // A recovered table that lost a write is caught too.
        let mut stale = model.clone();
        stale.remove(&key);
        assert_ne!(orders_by_key(db.catalog()).expect("orders"), stale);
    }

    /// `EcoDb::recover` restarts the log empty but rebuilds from the
    /// generated base rows, so the writes acknowledged before a first
    /// crash are lost at the second. The benchmark crashes each
    /// database once; this test keeps the defect visible until it is
    /// fixed.
    #[test]
    #[ignore = "known defect: a second recovery loses writes acknowledged before the first"]
    fn second_recovery_keeps_writes_acknowledged_before_the_first() {
        let mut db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
        let key = *initial_model(db.source()).keys().next().expect("orders");
        db.try_trace_sql(&format!(
            "UPDATE orders SET o_totalprice = 1 WHERE o_orderkey = {key}"
        ))
        .expect("update");
        db.recover().expect("first recovery");
        db.recover().expect("second recovery");
        let (rows, _) = db
            .try_trace_sql(&format!(
                "SELECT o_totalprice FROM orders WHERE o_orderkey = {key}"
            ))
            .expect("read");
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
    }
}
