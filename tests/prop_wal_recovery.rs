//! Crash-replay equivalence for the mutating write path (ledger
//! schema v5).
//!
//! The property: for any random DML workload prefix × any injected
//! crash point × both storage profiles, crash recovery yields exactly
//! the committed-prefix table state, and the committed statements'
//! energy ledgers are bit-identical to a clean replay of the same
//! prefix on a fresh database. Crashes never panic; every write-path
//! failure is a typed `ServerError::Wal`.
//!
//! The vendored proptest runner derives its RNG seed from the test
//! name, so every crash case is pinned: CI replays the exact same
//! workloads and crash points on every run.

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::core::ServerError;
use ecodb::query::sql::SqlError;
use ecodb::simhw::fault::{FaultPlan, TornTail, WalCrash};
use ecodb::simhw::trace::WorkTrace;
use ecodb::storage::Tuple;

/// TPC-H scale and generator seed shared by the crashing database and
/// its clean-replay twin — equivalence only means anything when both
/// start from the same bytes.
const SCALE: f64 = 0.002;
const DB_SEED: u64 = 17;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic DML workload over `region`: inserts with fresh keys
/// (100, 101, …), single-row updates of the five base regions, and
/// deletes that may or may not find their target (an empty delete is
/// still a committed transaction — just a lone commit marker).
fn dml_workload(n: usize, seed: u64) -> Vec<String> {
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    (0..n)
        .map(|i| match splitmix64(&mut state) % 3 {
            0 => {
                let key = 100 + i;
                format!("INSERT INTO region VALUES ({key}, 'R{key}', 'crash-test')")
            }
            1 => {
                let key = splitmix64(&mut state) % 5;
                format!("UPDATE region SET r_name = 'U{i}' WHERE r_regionkey = {key}")
            }
            _ => {
                let key = 100 + splitmix64(&mut state) as usize % (i + 1);
                format!("DELETE FROM region WHERE r_regionkey = {key}")
            }
        })
        .collect()
}

/// Decode the test's integer crash parameters into a crash point.
/// `kind` 0–2 kills the log after `at` appends with each torn-tail
/// shape; anything else fails the `at`-th fsync. `at` ranges past the
/// workload's append count on purpose: a crash point that never fires
/// must leave a fully committed, fully recoverable log.
fn crash_point(kind: u8, at: u64) -> WalCrash {
    match kind {
        0 => WalCrash::KillAfterRecords {
            records: at,
            torn: TornTail::None,
        },
        1 => WalCrash::KillAfterRecords {
            records: at,
            torn: TornTail::MidHeader,
        },
        2 => WalCrash::KillAfterRecords {
            records: at,
            torn: TornTail::MidPayload,
        },
        _ => WalCrash::FsyncFailure { fsync: at / 2 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Run a random DML prefix into an injected crash, recover, and
    /// check the recovered database against a clean replay of exactly
    /// the committed prefix on a fresh twin: same table state, same
    /// per-statement ledgers bit for bit, write path fully restored.
    #[test]
    fn crash_replay_recovers_exactly_the_committed_prefix(
        seed in 0u64..1_000_000,
        n in 3usize..10,
        crash_kind in 0u8..5,
        crash_at in 0u64..16,
    ) {
        let crash = crash_point(crash_kind, crash_at);
        let stmts = dml_workload(n, seed);
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let mut db = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            db.set_fault_plan(FaultPlan::none().with_wal_crash(crash));

            // Drive the workload into the crash. Acknowledged (Ok)
            // statements are the committed prefix; once the crash
            // fires, every later write fails with a typed Wal error.
            let mut committed = Vec::new();
            let mut crashed = false;
            for sql in &stmts {
                match db.try_trace_sql(sql) {
                    Ok((rows, trace)) => {
                        prop_assert!(!crashed, "a statement succeeded after the crash fired");
                        committed.push((sql.clone(), rows, trace));
                    }
                    Err(e) => {
                        prop_assert!(
                            matches!(e, ServerError::Wal(_)),
                            "write-path failure must be a typed Wal error, got: {}", e
                        );
                        crashed = true;
                    }
                }
            }
            prop_assert_eq!(crashed, db.wal_crashed());

            // Reads survive the crashed log untouched.
            let probe = "SELECT r_regionkey, r_name, r_comment FROM region";
            db.try_trace_sql(probe).expect("reads survive a crashed log");

            // Recover: the committed transactions are exactly the
            // acknowledged prefix, 1..=k in commit order.
            let report = db.recover().expect("recovery handles every injected crash image");
            let want_txns: Vec<u64> = (1..=committed.len() as u64).collect();
            prop_assert_eq!(&report.committed_txns, &want_txns);
            if let WalCrash::KillAfterRecords { torn, .. } = crash {
                // A torn tail exists iff the kill fired with a
                // fragment-leaving shape; fsync failures discard the
                // unsynced tail whole.
                prop_assert_eq!(report.torn_tail, crashed && torn != TornTail::None);
            } else {
                prop_assert!(!report.torn_tail);
            }

            // Clean replay of the committed prefix on a fresh twin:
            // every acknowledged statement's rows and energy ledger
            // must match bit for bit.
            let clean = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            for (sql, rows, trace) in &committed {
                let (crows, ctrace) = clean.try_trace_sql(sql).expect("clean replay");
                prop_assert_eq!(rows, &crows);
                prop_assert_eq!(trace, &ctrace, "committed ledgers diverge on {}", sql);
            }

            // Table-state equivalence: the recovered database and the
            // clean replay agree row for row.
            let (rec_rows, _) = db.try_trace_sql(probe).expect("probe after recovery");
            let (clean_rows, _) = clean.try_trace_sql(probe).expect("probe on clean twin");
            prop_assert_eq!(rec_rows, clean_rows);

            // The write path is fully restored after recovery — and
            // stays equivalent to the twin.
            let post = "INSERT INTO region VALUES (9000, 'POSTCRASH', 'recovered')";
            let (rows, _) = db.try_trace_sql(post).expect("write path restored");
            prop_assert_eq!(rows[0][0].as_int(), Some(1));
            clean.try_trace_sql(post).expect("twin insert");
            let (rec_rows, _) = db.try_trace_sql(probe).expect("probe");
            let (clean_rows, _) = clean.try_trace_sql(probe).expect("probe");
            prop_assert_eq!(rec_rows, clean_rows);
        }
    }

    /// Crash, recover, write more, crash and recover again: the second
    /// recovery must keep every transaction acknowledged before the
    /// first crash as well as those acknowledged between the crashes,
    /// and the statements after the first recovery must be charged
    /// exactly what a clean twin charges for them (the restarted log's
    /// committed prefix is already durable, so no fsync pays for it
    /// again).
    #[test]
    fn second_crash_keeps_writes_acknowledged_before_the_first(
        seed in 0u64..1_000_000,
        n in 3usize..8,
        first_kind in 0u8..5,
        first_at in 0u64..12,
        second_kind in 0u8..5,
        second_at in 0u64..12,
    ) {
        let before = dml_workload(n, seed);
        let between = dml_workload(n, seed ^ 0xA5A5);
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let mut db = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            let clean = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
            let crashes = [
                (&before, first_kind, first_at),
                (&between, second_kind, second_at),
            ];
            for (batch, kind, at) in crashes {
                db.set_fault_plan(FaultPlan::none().with_wal_crash(crash_point(kind, at)));
                for (sql, rows, trace) in drive(&db, batch) {
                    let (crows, ctrace) = clean.try_trace_sql(&sql).expect("clean replay");
                    prop_assert_eq!(rows, crows);
                    prop_assert_eq!(trace, ctrace, "ledgers diverge on {}", sql);
                }
                db.recover().expect("recovery");
                let probe = "SELECT r_regionkey, r_name, r_comment FROM region";
                let (rec_rows, _) = db.try_trace_sql(probe).expect("probe after recovery");
                let (clean_rows, _) = clean.try_trace_sql(probe).expect("probe on clean twin");
                prop_assert_eq!(rec_rows, clean_rows);
            }
        }
    }
}

/// Run `stmts` until the installed crash fires; returns the
/// acknowledged statements with their rows and ledgers.
fn drive(db: &EcoDb, stmts: &[String]) -> Vec<(String, Vec<Tuple>, WorkTrace)> {
    stmts
        .iter()
        .map_while(|sql| {
            db.try_trace_sql(sql)
                .ok()
                .map(|(rows, trace)| (sql.clone(), rows, trace))
        })
        .collect()
}

/// A row too wide to store (here, wider than a disk page; in the memory
/// engine, a string past the log's 16-bit length prefix) is rejected by
/// the SQL path before anything is logged, so the log stays replayable
/// and recovery never meets it.
#[test]
fn over_wide_rows_are_rejected_before_logging() {
    for (profile, width) in [
        (EngineProfile::CommercialDisk, 9000),
        (EngineProfile::MemoryEngine, 70_000),
    ] {
        let mut db = EcoDb::tpch_seeded(profile, SCALE, DB_SEED);
        let wide = "x".repeat(width);
        for sql in [
            format!("INSERT INTO region VALUES (99, 'R', '{wide}')"),
            format!("UPDATE region SET r_comment = '{wide}' WHERE r_regionkey = 1"),
        ] {
            match db.try_trace_sql(&sql) {
                Err(ServerError::Sql(SqlError::TooWide { table, .. })) => {
                    assert_eq!(table, "region")
                }
                other => panic!("{profile:?}: expected a too-wide error, got {other:?}"),
            }
        }
        assert!(db.wal_image().is_empty(), "{profile:?}: nothing was logged");
        let probe = "SELECT r_regionkey, r_comment FROM region";
        let (rows, _) = db.try_trace_sql(probe).expect("probe");
        db.recover().expect("recovery");
        assert_eq!(db.try_trace_sql(probe).expect("probe").0, rows);
        // Narrow rows still go through.
        db.try_trace_sql("INSERT INTO region VALUES (99, 'R', 'fits')")
            .expect("a narrow row is accepted");
    }
}
