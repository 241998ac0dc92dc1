//! Layout identity of the incremental write path.
//!
//! `Catalog::apply_wal_record` mutates a disk table by re-packing only
//! the pages a single-row mutation changes (`DiskTable::apply`). The
//! property: after every record, the table's pages, checksums,
//! `avg_tuple_bytes` and `row_location`, and every index's node pages,
//! are exactly what a fresh `DiskTable::load` + `BTreeIndex::build` of
//! the mutated rows gives. Tuples vary in width so page boundaries move
//! on every kind of mutation; two indexes (an int key with duplicates
//! and a variable-width string key) cover both index shapes.
//!
//! The vendored proptest runner derives its RNG seed from the test
//! name, so every generated sequence is pinned and replayable.

use std::sync::Arc;

use proptest::prelude::*;

use ecodb::storage::btree::MAX_ENTRY_BYTES;
use ecodb::storage::disk_table::DiskTable;
use ecodb::storage::page::MAX_TUPLE_BYTES;
use ecodb::storage::{
    BTreeIndex, BufferPool, Catalog, ColumnType, Schema, TableData, Tuple, Value, WalError,
    WalRecord,
};

fn schema() -> Schema {
    Schema::new(&[
        ("k", ColumnType::Int),
        ("s", ColumnType::Str),
        ("pad", ColumnType::Str),
        ("flag", ColumnType::Char),
        ("d", ColumnType::Date),
    ])
}

/// Length of the indexed string key of a row with key `k`.
fn key_len(k: i64) -> usize {
    k.rem_euclid(17) as usize
}

/// A row with key `k`, a variable-width string key derived from it,
/// and `pad` bytes of unindexed padding.
fn row(k: i64, pad: usize) -> Tuple {
    vec![
        Value::Int(k),
        Value::str("s".repeat(key_len(k))),
        Value::str("x".repeat(pad)),
        Value::Char(if k % 2 == 0 { 'E' } else { 'O' }),
        Value::Date(k as i32),
    ]
}

/// The padding that makes `row(k, pad)` serialize to `bytes`.
fn pad_for(k: i64, bytes: usize) -> usize {
    // u16 arity + int (9) + two strs (3 + len each) + char (3) + date (5).
    bytes - 25 - key_len(k)
}

fn catalog(rows: &[Tuple]) -> Catalog {
    let mut c = Catalog::new(1 << 12);
    c.add_disk_table("t", schema(), rows);
    c.create_index("t_k", "t", "k").expect("int index");
    c.create_index("t_s", "t", "s").expect("string index");
    c
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Apply `rec` to the catalog and to the shadow rows.
fn apply(c: &Catalog, shadow: &mut Vec<Tuple>, rec: &WalRecord) {
    c.apply_wal_record(rec).expect("valid record applies");
    match rec {
        WalRecord::Insert { tuple, .. } => shadow.push(tuple.clone()),
        WalRecord::Update { row, tuple, .. } => shadow[*row] = tuple.clone(),
        WalRecord::Delete { row, .. } => {
            shadow.remove(*row);
        }
        WalRecord::Commit { .. } => {}
    }
}

/// The catalog's table and indexes must equal a fresh load and build
/// of `shadow`, page for page. Returns a description of the first
/// difference.
fn check_layout(c: &Catalog, shadow: &[Tuple]) -> Result<(), String> {
    let stored = c.expect("t");
    let TableData::Disk(t) = &stored.data else {
        return Err("t is not a disk table".into());
    };
    let pool = Arc::new(BufferPool::new(16));
    let fresh = DiskTable::load(t.table_id(), schema(), shadow, Arc::clone(&pool));
    if t.len() != fresh.len() || t.num_pages() != fresh.num_pages() {
        return Err(format!(
            "{} rows on {} pages, load gives {} on {}",
            t.len(),
            t.num_pages(),
            fresh.len(),
            fresh.num_pages()
        ));
    }
    if let Some(p) = (0..t.num_pages()).find(|&p| t.page(p) != fresh.page(p)) {
        return Err(format!("page {p} differs from load"));
    }
    if t.checksums() != fresh.checksums() {
        return Err("checksums differ from load".into());
    }
    if t.avg_tuple_bytes() != fresh.avg_tuple_bytes() {
        return Err("avg_tuple_bytes differs from load".into());
    }
    if let Some(r) = (0..t.len()).find(|&r| t.row_location(r) != fresh.row_location(r)) {
        return Err(format!("row_location({r}) differs from load"));
    }
    if t.all_tuples() != shadow {
        return Err("rows differ from the shadow".into());
    }
    for (name, col) in [("t_k", 0usize), ("t_s", 1)] {
        let entry = c.index(name).ok_or(format!("index {name} gone"))?;
        let ix = &entry.index;
        let built = BTreeIndex::build(
            ix.index_id(),
            schema().columns()[col].ty,
            shadow
                .iter()
                .enumerate()
                .map(|(r, t)| (t[col].clone(), r))
                .collect(),
            Arc::clone(&pool),
        );
        if ix.len() != built.len() || ix.num_pages() != built.num_pages() {
            return Err(format!("index {name} shape differs from build"));
        }
        if let Some(p) = (0..ix.num_pages()).find(|&p| ix.page(p) != built.page(p)) {
            return Err(format!("index {name} page {p} differs from build"));
        }
    }
    Ok(())
}

/// A seeded record sequence over variable-width tuples, applied one by
/// one with the layout checked after each. Widths run from a few bytes
/// to a third of a page; a quarter of the updates keep the row's key
/// (the index is then left as it was) and some grow a tuple to most of
/// a page.
fn run_sequence(seed: u64, initial: usize, steps: usize) -> Result<(), String> {
    let mut state = seed ^ 0x5DEE_CE66_D1CE_4E5B;
    let mut next_key = 0i64;
    let width = |state: &mut u64| match splitmix64(state) % 10 {
        0 => 1500 + (splitmix64(state) % 1500) as usize,
        1 => 0,
        _ => (splitmix64(state) % 400) as usize,
    };
    let mut shadow: Vec<Tuple> = (0..initial)
        .map(|_| {
            next_key += 1;
            row(next_key % 50, width(&mut state))
        })
        .collect();
    let c = catalog(&shadow);
    check_layout(&c, &shadow).map_err(|e| format!("after load: {e}"))?;
    for step in 0..steps {
        let len = shadow.len();
        let pick = splitmix64(&mut state);
        let rec = match (pick % 3, len) {
            (0, _) | (_, 0) => {
                next_key += 1;
                WalRecord::Insert {
                    table: "t".into(),
                    tuple: row(next_key % 50, width(&mut state)),
                }
            }
            (1, _) => {
                let r = (splitmix64(&mut state) % len as u64) as usize;
                let key = match splitmix64(&mut state) % 4 {
                    0 => shadow[r][0].as_int().unwrap_or(0),
                    _ => (splitmix64(&mut state) % 50) as i64,
                };
                let w = match splitmix64(&mut state) % 8 {
                    0 => 5000 + (splitmix64(&mut state) % 2000) as usize,
                    _ => width(&mut state),
                };
                WalRecord::Update {
                    table: "t".into(),
                    row: r,
                    tuple: row(key, w),
                }
            }
            _ => {
                // Bias towards the ends: first and last rows open and
                // close pages.
                let r = match splitmix64(&mut state) % 4 {
                    0 => 0,
                    1 => len - 1,
                    _ => (splitmix64(&mut state) % len as u64) as usize,
                };
                WalRecord::Delete {
                    table: "t".into(),
                    row: r,
                }
            }
        };
        apply(&c, &mut shadow, &rec);
        check_layout(&c, &shadow).map_err(|e| format!("step {step} ({rec:?}): {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_apply_matches_a_fresh_load(
        seed in 0u64..1_000_000,
        initial in 0usize..120,
        steps in 20usize..60,
    ) {
        if let Err(e) = run_sequence(seed, initial, steps) {
            prop_assert!(false, "seed {} initial {}: {}", seed, initial, e);
        }
    }
}

#[test]
fn page_filled_to_the_byte() {
    // Two tuples whose payloads plus slots fill an empty page exactly.
    let half = (MAX_TUPLE_BYTES + 4) / 2 - 4;
    let rows = vec![row(1, pad_for(1, half)), row(2, pad_for(2, half))];
    let c = catalog(&rows);
    let mut shadow = rows.clone();
    let TableData::Disk(t) = &c.expect("t").data else {
        panic!("disk")
    };
    assert_eq!(t.num_pages(), 1, "two exact halves share one page");
    // A third tuple of any width opens a page; deleting it closes it.
    apply(
        &c,
        &mut shadow,
        &WalRecord::Insert {
            table: "t".into(),
            tuple: row(3, 0),
        },
    );
    check_layout(&c, &shadow).expect("insert after a full page");
    // Growing the first tuple by one byte pushes the second off the page.
    for rec in [
        WalRecord::Update {
            table: "t".into(),
            row: 0,
            tuple: row(1, pad_for(1, half) + 1),
        },
        WalRecord::Update {
            table: "t".into(),
            row: 0,
            tuple: row(1, pad_for(1, half)),
        },
        WalRecord::Delete {
            table: "t".into(),
            row: 2,
        },
    ] {
        apply(&c, &mut shadow, &rec);
        check_layout(&c, &shadow).unwrap_or_else(|e| panic!("{rec:?}: {e}"));
    }
}

#[test]
fn delete_first_and_last_rows_down_to_empty_then_insert() {
    let rows: Vec<Tuple> = (0..300).map(|k| row(k, (k as usize * 37) % 300)).collect();
    let c = catalog(&rows);
    let mut shadow = rows;
    let mut first = true;
    while !shadow.is_empty() {
        let r = if first { 0 } else { shadow.len() - 1 };
        first = !first;
        apply(
            &c,
            &mut shadow,
            &WalRecord::Delete {
                table: "t".into(),
                row: r,
            },
        );
        check_layout(&c, &shadow).unwrap_or_else(|e| panic!("{} rows left: {e}", shadow.len()));
    }
    let TableData::Disk(t) = &c.expect("t").data else {
        panic!("disk")
    };
    assert_eq!(t.num_pages(), 0, "an empty table has no pages");
    for k in 0..3 {
        apply(
            &c,
            &mut shadow,
            &WalRecord::Insert {
                table: "t".into(),
                tuple: row(k, 100),
            },
        );
        check_layout(&c, &shadow).expect("insert into an empty table");
    }
}

#[test]
fn update_growing_past_free_space_cascades_and_shrinking_pulls_back() {
    let rows: Vec<Tuple> = (0..200).map(|k| row(k, 200)).collect();
    let c = catalog(&rows);
    let mut shadow = rows;
    let widest = pad_for(40, MAX_TUPLE_BYTES);
    for (r, w) in [
        (5, 3000),
        (5, 7000),
        (40, widest),
        (5, 0),
        (40, 0),
        (0, 7000),
    ] {
        apply(
            &c,
            &mut shadow,
            &WalRecord::Update {
                table: "t".into(),
                row: r,
                tuple: row(r as i64, w),
            },
        );
        check_layout(&c, &shadow).unwrap_or_else(|e| panic!("update row {r} to {w}: {e}"));
    }
}

#[test]
fn a_tuple_wider_than_a_page_is_a_typed_error_and_changes_nothing() {
    let rows: Vec<Tuple> = (0..50).map(|k| row(k, 100)).collect();
    let c = catalog(&rows);
    let too_wide = row(1, pad_for(1, MAX_TUPLE_BYTES) + 1);
    for rec in [
        WalRecord::Insert {
            table: "t".into(),
            tuple: too_wide.clone(),
        },
        WalRecord::Update {
            table: "t".into(),
            row: 3,
            tuple: too_wide.clone(),
        },
    ] {
        let err = c.apply_wal_record(&rec).expect_err("too wide");
        assert!(
            matches!(err, WalError::TupleTooWide { ref table, .. } if table == "t"),
            "{err}"
        );
        check_layout(&c, &rows).expect("a rejected record leaves the table as it was");
    }
    // A row that fits a page but whose string-index entry would not fit
    // a node is rejected the same way.
    let mut wide_key = row(1, 0);
    wide_key[1] = Value::str("s".repeat(MAX_ENTRY_BYTES));
    let err = c
        .apply_wal_record(&WalRecord::Insert {
            table: "t".into(),
            tuple: wide_key,
        })
        .expect_err("index entry too wide");
    assert!(matches!(err, WalError::TupleTooWide { .. }), "{err}");
    check_layout(&c, &rows).expect("unchanged");
}
