//! The catalog: named tables, secondary indexes, and the shared buffer
//! pool.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::btree::{BTreeIndex, FIRST_INDEX_ID, MAX_ENTRY_BYTES};
use crate::bufferpool::BufferPool;
use crate::disk_table::{DiskTable, Mutation, TupleTooWide};
use crate::heap::HeapTable;
use crate::page::{serialized_len, MAX_TUPLE_BYTES};
use crate::value::{Schema, Tuple, Value};
use crate::wal::{WalError, WalRecord};

/// Physical storage of one table.
#[derive(Debug)]
pub enum TableData {
    /// Memory-engine table.
    Memory(HeapTable),
    /// Disk-engine table behind the buffer pool.
    Disk(DiskTable),
}

/// A named stored table.
#[derive(Debug)]
pub struct StoredTable {
    /// Table name.
    pub name: String,
    /// Physical storage.
    pub data: TableData,
}

impl StoredTable {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        match &self.data {
            TableData::Memory(t) => t.schema(),
            TableData::Disk(t) => t.schema(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.data {
            TableData::Memory(t) => t.len(),
            TableData::Disk(t) => t.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Average stored tuple width in bytes.
    pub fn avg_tuple_bytes(&self) -> u64 {
        match &self.data {
            TableData::Memory(t) => t.avg_tuple_bytes(),
            TableData::Disk(t) => t.avg_tuple_bytes(),
        }
    }
}

/// Why a `CREATE INDEX` was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// An index with this name already exists.
    DuplicateIndex(String),
    /// The named table is not in the catalog.
    NoSuchTable(String),
    /// The named column is not in the table's schema.
    NoSuchColumn {
        /// Target table.
        table: String,
        /// Missing column.
        column: String,
    },
    /// Secondary indexes are paged structures over the disk engine;
    /// the memory engine (the paper's CPU-stress profile) has none.
    NotDiskTable(String),
    /// A key of the column is too wide for an index node
    /// ([`MAX_ENTRY_BYTES`]).
    KeyTooWide {
        /// Indexed column.
        column: String,
        /// Serialized width of the widest entry.
        bytes: usize,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DuplicateIndex(n) => write!(f, "index {n:?} already exists"),
            IndexError::NoSuchTable(t) => write!(f, "no table named {t:?}"),
            IndexError::NoSuchColumn { table, column } => {
                write!(f, "no column {column:?} in table {table:?}")
            }
            IndexError::NotDiskTable(t) => {
                write!(
                    f,
                    "table {t:?} is not a disk table; only disk tables can be indexed"
                )
            }
            IndexError::KeyTooWide { column, bytes } => write!(
                f,
                "column {column:?} has a {bytes}-byte index entry; a node holds at most \
                 {MAX_ENTRY_BYTES}"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// One registered secondary index.
#[derive(Debug)]
pub struct IndexEntry {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed column.
    pub column: String,
    /// The B-tree itself.
    pub index: Arc<BTreeIndex>,
}

/// Named tables + the shared buffer pool.
#[derive(Debug)]
pub struct Catalog {
    /// Interior-mutable since the write path landed: a WAL replay
    /// applies mutations through `&self` (the executor holds the
    /// catalog shared), swapping each mutated table's `Arc` for a new
    /// version that shares every page the mutation left unchanged.
    tables: Mutex<BTreeMap<String, Arc<StoredTable>>>,
    pool: Arc<BufferPool>,
    next_table_id: u32,
    /// Secondary indexes, by index name. Interior-mutable because
    /// `CREATE INDEX` arrives through the `&self` statement path (the
    /// executor holds the catalog shared).
    indexes: Mutex<BTreeMap<String, Arc<IndexEntry>>>,
    next_index_id: Mutex<u32>,
}

impl Catalog {
    /// Empty catalog with a pool of `pool_pages` pages.
    pub fn new(pool_pages: usize) -> Self {
        Self {
            tables: Mutex::new(BTreeMap::new()),
            pool: Arc::new(BufferPool::new(pool_pages)),
            next_table_id: 1,
            indexes: Mutex::new(BTreeMap::new()),
            next_index_id: Mutex::new(FIRST_INDEX_ID),
        }
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Register a memory-engine table. Panics on duplicate names.
    pub fn add_memory_table(&mut self, name: &str, table: HeapTable) {
        self.insert(name, TableData::Memory(table));
    }

    /// Register a disk-engine table built from `tuples`.
    pub fn add_disk_table(&mut self, name: &str, schema: Schema, tuples: &[crate::value::Tuple]) {
        let id = self.next_table_id;
        self.next_table_id += 1;
        let table = DiskTable::load(id, schema, tuples, Arc::clone(&self.pool));
        self.insert(name, TableData::Disk(table));
    }

    fn insert(&mut self, name: &str, data: TableData) {
        let prev = self.tables.lock().insert(
            name.to_string(),
            Arc::new(StoredTable {
                name: name.to_string(),
                data,
            }),
        );
        assert!(prev.is_none(), "duplicate table {name:?}");
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Option<Arc<StoredTable>> {
        self.tables.lock().get(name).cloned()
    }

    /// Look up a table, panicking with context if absent.
    pub fn expect(&self, name: &str) -> Arc<StoredTable> {
        self.get(name)
            .unwrap_or_else(|| panic!("no table named {name:?}; have {:?}", self.names()))
    }

    /// All table names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tables.lock().keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.lock().len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.lock().is_empty()
    }

    /// Apply one redo record to table state — the single entry point
    /// both live execution (after its commit fsync) and crash recovery
    /// use, which is what makes recovered state bit-identical to a
    /// clean replay. Commit markers are no-ops here (durability is the
    /// log's business); mutations validate against the *current* table
    /// state and fail with a typed [`WalError`] — never a panic — so a
    /// corrupt or misdirected record fails only its own transaction.
    pub fn apply_wal_record(&self, rec: &WalRecord) -> Result<(), WalError> {
        match rec {
            WalRecord::Commit { .. } => Ok(()),
            WalRecord::Insert { table, tuple } => {
                self.apply_mutation(table, Mutation::Insert(tuple))
            }
            WalRecord::Update { table, row, tuple } => {
                self.apply_mutation(table, Mutation::Update(*row, tuple))
            }
            WalRecord::Delete { table, row } => self.apply_mutation(table, Mutation::Delete(*row)),
        }
    }

    fn apply_mutation(&self, table: &str, m: Mutation<'_>) -> Result<(), WalError> {
        let stored = self.get(table).ok_or_else(|| WalError::NoSuchTable {
            table: table.to_string(),
        })?;
        if let Mutation::Insert(t) | Mutation::Update(_, t) = m {
            if !stored.schema().check(t) {
                return Err(WalError::SchemaMismatch {
                    table: table.to_string(),
                });
            }
            self.check_width(table, t)
                .map_err(|e| WalError::TupleTooWide {
                    table: table.to_string(),
                    bytes: e.bytes,
                })?;
        }
        if let Mutation::Update(row, _) | Mutation::Delete(row) = m {
            if row >= stored.len() {
                return Err(WalError::RowOutOfRange {
                    table: table.to_string(),
                    row,
                    len: stored.len(),
                });
            }
        }
        let data = match &stored.data {
            TableData::Memory(heap) => {
                let mut h = heap.clone();
                match m {
                    Mutation::Insert(t) => h.insert(t.clone()),
                    Mutation::Update(row, t) => h.set_row(row, t.clone()),
                    Mutation::Delete(row) => {
                        h.remove_row(row);
                    }
                }
                TableData::Memory(h)
            }
            TableData::Disk(disk) => {
                let next = disk.apply(m).map_err(|e| WalError::TupleTooWide {
                    table: table.to_string(),
                    bytes: e.bytes,
                })?;
                // The new version reuses the table id, so every cached
                // page goes, changed or not: the next read is priced
                // cold.
                self.pool.evict_table(disk.table_id());
                TableData::Disk(next)
            }
        };
        self.tables.lock().insert(
            table.to_string(),
            Arc::new(StoredTable {
                name: table.to_string(),
                data,
            }),
        );
        self.rebuild_indexes_on(&stored, m);
        Ok(())
    }

    /// Whether `tuple` is narrow enough for `table`: a disk-table row
    /// must fit an empty page and each index entry built from it a
    /// node ([`crate::btree::MAX_ENTRY_BYTES`]); in any table a string
    /// must fit the 16-bit length prefix pages and log records share.
    /// The SQL write path checks this before logging, so a statement
    /// that could not be applied is rejected instead of poisoning the
    /// durable log; apply checks it again for hand-made records. A
    /// missing table passes.
    pub fn check_width(&self, table: &str, tuple: &Tuple) -> Result<(), TupleTooWide> {
        let Some(stored) = self.get(table) else {
            return Ok(());
        };
        let bytes = serialized_len(tuple);
        let (bytes, max) = match &stored.data {
            TableData::Memory(_) => {
                let longest = tuple.iter().filter_map(Value::as_str).map(str::len).max();
                (longest.unwrap_or(0), usize::from(u16::MAX))
            }
            TableData::Disk(_) if bytes > MAX_TUPLE_BYTES => (bytes, MAX_TUPLE_BYTES),
            TableData::Disk(_) => {
                let widest = self
                    .indexes
                    .lock()
                    .values()
                    .filter(|e| e.table == table)
                    .filter_map(|e| stored.schema().index_of(&e.column))
                    .map(|col| BTreeIndex::entry_len(&tuple[col]))
                    .max();
                (widest.unwrap_or(0), MAX_ENTRY_BYTES)
            }
        };
        if bytes > max {
            return Err(TupleTooWide { bytes, max });
        }
        Ok(())
    }

    /// Bring every secondary index over the mutated table up to date,
    /// reusing each index's id. Every index's cached node pages are
    /// evicted, as a rebuild always did; an index is rebuilt — from its
    /// key column alone, decoded straight off the new pages (I/O-free
    /// like an initial build) — unless the mutation is an update that
    /// leaves its key, and so every `(key, row id)` entry, unchanged.
    /// The energy cost of the mutation itself is charged by the write
    /// path.
    fn rebuild_indexes_on(&self, old: &StoredTable, m: Mutation<'_>) {
        let TableData::Disk(old_disk) = &old.data else {
            return;
        };
        let Some(stored) = self.get(&old.name) else {
            return;
        };
        let TableData::Disk(disk) = &stored.data else {
            return;
        };
        let mut indexes = self.indexes.lock();
        let names: Vec<String> = indexes
            .values()
            .filter(|e| e.table == old.name)
            .map(|e| e.name.clone())
            .collect();
        for name in names {
            let Some(entry) = indexes.get(&name).cloned() else {
                continue;
            };
            let Some(col) = disk.schema().index_of(&entry.column) else {
                continue;
            };
            let id = entry.index.index_id();
            self.pool.evict_table(id);
            if let Mutation::Update(row, t) = m {
                if old_disk.tuple(row)[col] == t[col] {
                    continue;
                }
            }
            let key_type = disk.schema().columns()[col].ty;
            let rebuilt = Arc::new(BTreeIndex::build(
                id,
                key_type,
                disk.column_with_row_ids(col),
                Arc::clone(&self.pool),
            ));
            indexes.insert(
                name.clone(),
                Arc::new(IndexEntry {
                    name,
                    table: entry.table.clone(),
                    column: entry.column.clone(),
                    index: rebuilt,
                }),
            );
        }
    }

    /// Build and register a B-tree secondary index named `name` over
    /// `table.column`. Bulk-loads from the column straight off the
    /// table's pages (no I/O charged — see [`crate::btree`]); probes
    /// later charge the v4 index classes through the shared pool.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
    ) -> Result<Arc<IndexEntry>, IndexError> {
        let stored = self
            .get(table)
            .ok_or_else(|| IndexError::NoSuchTable(table.to_string()))?;
        let TableData::Disk(disk) = &stored.data else {
            return Err(IndexError::NotDiskTable(table.to_string()));
        };
        let col = stored
            .schema()
            .index_of(column)
            .ok_or_else(|| IndexError::NoSuchColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        let key_type = stored.schema().columns()[col].ty;
        let mut indexes = self.indexes.lock();
        if indexes.contains_key(name) {
            return Err(IndexError::DuplicateIndex(name.to_string()));
        }
        let entries = disk.column_with_row_ids(col);
        let widest = entries.iter().map(|(k, _)| BTreeIndex::entry_len(k)).max();
        if let Some(bytes) = widest.filter(|&b| b > MAX_ENTRY_BYTES) {
            return Err(IndexError::KeyTooWide {
                column: column.to_string(),
                bytes,
            });
        }
        let id = {
            let mut next = self.next_index_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let index = Arc::new(BTreeIndex::build(
            id,
            key_type,
            entries,
            Arc::clone(&self.pool),
        ));
        let entry = Arc::new(IndexEntry {
            name: name.to_string(),
            table: table.to_string(),
            column: column.to_string(),
            index,
        });
        indexes.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Look up an index by name.
    pub fn index(&self, name: &str) -> Option<Arc<IndexEntry>> {
        self.indexes.lock().get(name).cloned()
    }

    /// The index on `table.column`, if one exists (first by name when
    /// several cover the same column).
    pub fn index_on(&self, table: &str, column: &str) -> Option<Arc<IndexEntry>> {
        self.indexes
            .lock()
            .values()
            .find(|e| e.table == table && e.column == column)
            .cloned()
    }

    /// All index names, sorted.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.lock().keys().cloned().collect()
    }

    /// Every registered index entry, sorted by name. Crash recovery
    /// uses this to re-create the crashed catalog's indexes over the
    /// rebuilt tables (indexes are derivable state, not WAL-logged).
    pub fn index_entries(&self) -> Vec<Arc<IndexEntry>> {
        self.indexes.lock().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Value};

    fn schema() -> Schema {
        Schema::new(&[("k", ColumnType::Int)])
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new(16);
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)]]),
        );
        c.add_disk_table("d", schema(), &[vec![Value::Int(2)], vec![Value::Int(3)]]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.names(), vec!["d".to_string(), "m".to_string()]);
        assert_eq!(c.expect("m").len(), 1);
        assert_eq!(c.expect("d").len(), 2);
        assert!(c.get("x").is_none());
        assert!(matches!(c.expect("d").data, TableData::Disk(_)));
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_rejected() {
        let mut c = Catalog::new(16);
        c.add_memory_table("t", HeapTable::new(schema()));
        c.add_memory_table("t", HeapTable::new(schema()));
    }

    #[test]
    #[should_panic(expected = "no table named")]
    fn expect_missing_panics() {
        Catalog::new(16).expect("ghost");
    }

    #[test]
    fn apply_wal_record_mutates_both_engines() {
        let mut c = Catalog::new(16);
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)], vec![Value::Int(2)]]),
        );
        c.add_disk_table("d", schema(), &[vec![Value::Int(1)], vec![Value::Int(2)]]);
        for t in ["m", "d"] {
            c.apply_wal_record(&WalRecord::Insert {
                table: t.to_string(),
                tuple: vec![Value::Int(3)],
            })
            .expect("insert");
            c.apply_wal_record(&WalRecord::Update {
                table: t.to_string(),
                row: 0,
                tuple: vec![Value::Int(10)],
            })
            .expect("update");
            c.apply_wal_record(&WalRecord::Delete {
                table: t.to_string(),
                row: 1,
            })
            .expect("delete");
            assert_eq!(c.expect(t).len(), 2, "{t}");
        }
        // Memory engine state is directly inspectable…
        let m = c.expect("m");
        let TableData::Memory(h) = &m.data else {
            panic!("m is memory");
        };
        assert_eq!(h.tuples(), &[vec![Value::Int(10)], vec![Value::Int(3)]]);
        // …and the rebuilt disk table reads back the same rows.
        let d = c.expect("d");
        let TableData::Disk(t) = &d.data else {
            panic!("d is disk");
        };
        assert_eq!(
            t.all_tuples(),
            vec![vec![Value::Int(10)], vec![Value::Int(3)]]
        );
        // Commit markers are no-ops.
        c.apply_wal_record(&WalRecord::Commit { txn: 1 })
            .expect("commit");
    }

    #[test]
    fn apply_wal_record_rejects_bad_records_with_typed_errors() {
        let mut c = Catalog::new(16);
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)]]),
        );
        assert_eq!(
            c.apply_wal_record(&WalRecord::Insert {
                table: "ghost".into(),
                tuple: vec![Value::Int(1)],
            })
            .unwrap_err(),
            crate::wal::WalError::NoSuchTable {
                table: "ghost".into()
            }
        );
        assert_eq!(
            c.apply_wal_record(&WalRecord::Insert {
                table: "m".into(),
                tuple: vec![Value::str("wrong type")],
            })
            .unwrap_err(),
            crate::wal::WalError::SchemaMismatch { table: "m".into() }
        );
        assert_eq!(
            c.apply_wal_record(&WalRecord::Delete {
                table: "m".into(),
                row: 5,
            })
            .unwrap_err(),
            crate::wal::WalError::RowOutOfRange {
                table: "m".into(),
                row: 5,
                len: 1
            }
        );
        // Failed records leave the table untouched.
        assert_eq!(c.expect("m").len(), 1);
    }

    #[test]
    fn an_over_wide_logged_record_is_a_typed_error_on_replay() {
        // A hand-made log image carrying a row no page can hold: the
        // recovery scan accepts it (it is well-formed), and applying it
        // fails with a typed error instead of a panic.
        let wide = vec![Value::str("x".repeat(9000))];
        let mut wal = crate::wal::WriteAheadLog::new();
        wal.append(&WalRecord::Insert {
            table: "d".into(),
            tuple: wide,
        })
        .expect("append");
        wal.append(&WalRecord::Commit { txn: 1 }).expect("append");
        wal.fsync().expect("fsync");
        let rec = crate::wal::WriteAheadLog::recover(&wal.image()).expect("well-formed image");
        let mut c = Catalog::new(16);
        let s = Schema::new(&[("s", crate::value::ColumnType::Str)]);
        c.add_disk_table("d", s, &[vec![Value::str("a")]]);
        let err = c.apply_wal_record(&rec.records[0]).unwrap_err();
        assert!(
            matches!(err, WalError::TupleTooWide { ref table, bytes: 9005 } if table == "d"),
            "{err}"
        );
        assert!(err.to_string().contains("more than table"));
        assert_eq!(c.expect("d").len(), 1, "the table is untouched");
    }

    #[test]
    fn update_keeping_the_key_leaves_the_index_as_it_was() {
        let mut c = Catalog::new(64);
        let s = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
        let rows: Vec<_> = (0..500)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        c.add_disk_table("d", s, &rows);
        let before = c
            .create_index("ix", "d", "k")
            .expect("create")
            .index
            .clone();
        c.apply_wal_record(&WalRecord::Update {
            table: "d".into(),
            row: 7,
            tuple: vec![Value::Int(7), Value::Int(1)],
        })
        .expect("update");
        let kept = c.index("ix").expect("index").index.clone();
        assert!(Arc::ptr_eq(&before, &kept), "no entry changed");
        c.apply_wal_record(&WalRecord::Update {
            table: "d".into(),
            row: 7,
            tuple: vec![Value::Int(9999), Value::Int(1)],
        })
        .expect("update");
        let rebuilt = c.index("ix").expect("index").index.clone();
        assert!(!Arc::ptr_eq(&kept, &rebuilt), "a changed key rebuilds");
        let probe = rebuilt.probe_point(&Value::Int(9999)).expect("probe");
        assert_eq!(probe.row_ids, vec![7]);
    }

    #[test]
    fn create_index_rejects_keys_too_wide_for_a_node() {
        let mut c = Catalog::new(16);
        let s = Schema::new(&[("s", ColumnType::Str)]);
        c.add_disk_table("d", s, &[vec![Value::str("x".repeat(5000))]]);
        let err = c.create_index("ix", "d", "s").unwrap_err();
        assert!(
            matches!(err, IndexError::KeyTooWide { bytes: 5014, .. }),
            "{err}"
        );
        assert!(c.index_names().is_empty());
    }

    #[test]
    fn disk_mutation_rebuilds_indexes_and_evicts_stale_pages() {
        let mut c = Catalog::new(64);
        let rows: Vec<_> = (0..2000).map(|i| vec![Value::Int(i)]).collect();
        c.add_disk_table("d", schema(), &rows);
        let e = c.create_index("ix", "d", "k").expect("create");
        assert_eq!(e.index.len(), 2000);
        // Warm the pool with pre-mutation pages.
        let d = c.expect("d");
        let TableData::Disk(t) = &d.data else {
            panic!("disk")
        };
        for p in 0..t.num_pages() {
            t.read_page(p);
        }
        c.pool().take_io();
        c.apply_wal_record(&WalRecord::Insert {
            table: "d".into(),
            tuple: vec![Value::Int(9999)],
        })
        .expect("insert");
        // The index was rebuilt over the mutated table, same id.
        let ix = c.index("ix").expect("still registered");
        assert_eq!(ix.index.len(), 2001);
        assert_eq!(ix.index.index_id(), e.index.index_id());
        // Reads now go to the rebuilt table and see the new row (a
        // stale cached page would have hidden it).
        let d = c.expect("d");
        let TableData::Disk(t) = &d.data else {
            panic!("disk")
        };
        let last = t.read_page(t.num_pages() - 1);
        assert_eq!(last.last(), Some(&vec![Value::Int(9999)]));
    }

    #[test]
    fn create_index_and_lookup() {
        let mut c = Catalog::new(16);
        c.add_disk_table("d", schema(), &[vec![Value::Int(2)], vec![Value::Int(3)]]);
        let e = c.create_index("ix_d_k", "d", "k").expect("create");
        assert_eq!(e.index.len(), 2);
        assert!(c.index("ix_d_k").is_some());
        assert!(c.index_on("d", "k").is_some());
        assert!(c.index_on("d", "missing").is_none());
        assert_eq!(c.index_names(), vec!["ix_d_k".to_string()]);
        // Typed rejections, not panics.
        assert_eq!(
            c.create_index("ix_d_k", "d", "k").unwrap_err(),
            IndexError::DuplicateIndex("ix_d_k".to_string())
        );
        assert_eq!(
            c.create_index("x", "ghost", "k").unwrap_err(),
            IndexError::NoSuchTable("ghost".to_string())
        );
        assert_eq!(
            c.create_index("x", "d", "ghost").unwrap_err(),
            IndexError::NoSuchColumn {
                table: "d".to_string(),
                column: "ghost".to_string()
            }
        );
        c.add_memory_table(
            "m",
            HeapTable::from_tuples(schema(), vec![vec![Value::Int(1)]]),
        );
        assert_eq!(
            c.create_index("x", "m", "k").unwrap_err(),
            IndexError::NotDiskTable("m".to_string())
        );
    }
}
