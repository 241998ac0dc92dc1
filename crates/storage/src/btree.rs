//! Paged B-tree secondary indexes (ledger schema v4).
//!
//! A [`BTreeIndex`] maps one column of a [`crate::disk_table::DiskTable`]
//! to row ids. It is bulk-loaded bottom-up from the sorted column into
//! fixed-fanout [`Page`]s — leaves hold `[key, row_id]` entries, interior
//! nodes hold `[separator_key, child_page]` entries — and those pages are
//! read back through the shared [`BufferPool`] exactly like table pages.
//!
//! # Random-I/O pricing (the point of the exercise)
//!
//! The paper's fig5 shows the drive's two personalities: sequential
//! streaming runs at the full transfer rate with flat energy/KB, while
//! every random access pays a multi-millisecond repositioning before a
//! slow in-block burst. A table scan enjoys the first personality; an
//! index probe is the second — the descent jumps between unrelated
//! pages, and the base-row fetches it drives land wherever the row ids
//! point. Accordingly, **every** buffer-pool miss taken on behalf of an
//! index probe is charged to the v4 index classes
//! ([`eco_simhw::trace::DiskWork::index_ios`] /
//! [`eco_simhw::trace::DiskWork::index_bytes`]), which the disk model
//! prices *exactly* like random I/O ([`eco_simhw::disk::DiskSpec::cost`])
//! but which are ledgered apart, so:
//!
//! * index-free runs charge nothing to the v4 classes and every
//!   pre-existing figure stays bit-identical;
//! * scan-shaped plans keep a *pure* sequential/random split even when
//!   probes interleave with them (probes never touch the pool's
//!   sequential-position trackers — see
//!   [`BufferPool::get_index_checked`]);
//! * the scan-vs-probe energy crossover becomes a real, measurable
//!   function of selectivity and p-state instead of a synthetic
//!   raw-disk experiment.
//!
//! CPU-side, each binary-search step inside a node charges one
//! [`eco_simhw::trace::OpClass::NodeSearch`] (also v4, also zero on
//! index-free runs).
//!
//! Building the index reads the table's pages directly — never through
//! the buffer pool — so, like the columnar mirror
//! ([`crate::disk_table::ColumnarExtents`]), *building* charges no I/O;
//! only probes do.

use std::cmp::Ordering;
use std::sync::Arc;

use eco_simhw::fault::{FaultPlan, PageFault, BACKOFF_BASE_NS, MAX_READ_RETRIES};
use eco_simhw::trace::DiskWork;

use crate::bufferpool::{BufferPool, PageId};
use crate::disk_table::IoError;
use crate::page::{serialize_into, Page, PAGE_SIZE};
use crate::value::{ColumnType, Tuple, Value};

/// Maximum entries per node (leaf or interior). Real fanout is the
/// smaller of this and what fits an 8 KB page; the fixed cap keeps tree
/// shape (and therefore probe I/O counts) independent of key width
/// jitter for the common integer/date keys.
pub const BTREE_FANOUT: usize = 256;

/// The widest serialized entry ([`BTreeIndex::entry_len`]) a node
/// holds: two must fit a page, or an interior level would never shrink
/// to a root.
pub const MAX_ENTRY_BYTES: usize = crate::page::max_tuple_bytes(2);

/// First index id. Index page ids share the buffer pool's `(table,
/// page)` namespace with tables, so index ids live in their own upper
/// range — a catalog would need billions of tables to collide.
pub const FIRST_INDEX_ID: u32 = 0x8000_0000;

/// One bound of a range probe.
#[derive(Debug, Clone, Copy)]
pub enum KeyBound<'a> {
    /// No bound on this side.
    Unbounded,
    /// Bound included in the result.
    Inclusive(&'a Value),
    /// Bound excluded from the result.
    Exclusive(&'a Value),
}

impl KeyBound<'_> {
    fn value(&self) -> Option<&Value> {
        match self {
            KeyBound::Unbounded => None,
            KeyBound::Inclusive(v) | KeyBound::Exclusive(v) => Some(v),
        }
    }
}

/// What one probe did: the matching row ids plus everything the caller
/// must charge to its energy ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexProbe {
    /// Matching base-table row ids, ascending — so an index scan emits
    /// rows in table order and its output is bit-identical to the
    /// equivalent full-scan-plus-filter plan.
    pub row_ids: Vec<usize>,
    /// Disk charges of the probe (v4 index classes on misses; v2 retry
    /// classes if a fault fired).
    pub io: DiskWork,
    /// Retry-backoff idle time, nanoseconds (zero unless a fault fired).
    pub backoff_ns: u64,
    /// Binary-search steps taken inside nodes; the caller charges one
    /// [`eco_simhw::trace::OpClass::NodeSearch`] each.
    pub node_searches: u64,
}

/// A paged, read-only B-tree secondary index over one column.
pub struct BTreeIndex {
    index_id: u32,
    key_type: ColumnType,
    /// All nodes, leaves first: pages `[0, leaf_count)` are the leaf
    /// level in key order (so a range walk is `page + 1`), upper levels
    /// follow, root last.
    pages: Vec<Page>,
    checksums: Vec<u64>,
    leaf_count: usize,
    height: usize,
    len: usize,
    pool: Arc<BufferPool>,
}

impl BTreeIndex {
    /// Bulk-load from `(key, row_id)` entries (any order; duplicates
    /// allowed). Panics if a key's type differs from `key_type` or an
    /// entry is wider than [`MAX_ENTRY_BYTES`] (the catalog rejects
    /// such keys first).
    /// Building charges no I/O — see the module docs.
    pub fn build(
        index_id: u32,
        key_type: ColumnType,
        mut entries: Vec<(Value, usize)>,
        pool: Arc<BufferPool>,
    ) -> Self {
        for (k, _) in &entries {
            assert!(
                k.column_type() == key_type,
                "index key {k:?} does not have type {key_type:?}"
            );
            assert!(
                Self::entry_len(k) <= MAX_ENTRY_BYTES,
                "index entry wider than {MAX_ENTRY_BYTES} bytes"
            );
        }
        entries.sort_by(|a, b| cmp_keys(&a.0, &b.0).then(a.1.cmp(&b.1)));
        let len = entries.len();

        // Leaf level: [key, row_id] entries packed at fixed fanout.
        let mut pages: Vec<Page> = Vec::new();
        let mut seps = pack_level(entries.iter().map(|(k, row)| (k, *row)), &mut pages);
        let leaf_count = pages.len();
        let mut height = usize::from(leaf_count > 0);

        // Interior levels, bottom-up, until one root remains:
        // [separator_key, child_page] entries.
        while seps.len() > 1 {
            let level = std::mem::take(&mut seps);
            seps = pack_level(level.iter().map(|(k, child)| (k, *child)), &mut pages);
            height += 1;
        }

        let checksums = pages.iter().map(Page::checksum).collect();
        Self {
            index_id,
            key_type,
            pages,
            checksums,
            leaf_count,
            height,
            len,
            pool,
        }
    }

    /// Serialized width of the leaf entry or separator holding `key`;
    /// at most [`MAX_ENTRY_BYTES`].
    pub fn entry_len(key: &Value) -> usize {
        // u16 arity + the key + the row id or child page number.
        2 + crate::page::value_len(key) + crate::page::value_len(&Value::Int(0))
    }

    /// The image of node page `page_no` (leaves first, root last).
    pub fn page(&self, page_no: usize) -> &Page {
        &self.pages[page_no]
    }

    /// This index's id (the `table` half of its buffer-pool page ids).
    pub fn index_id(&self) -> u32 {
        self.index_id
    }

    /// Type of the indexed column.
    pub fn key_type(&self) -> ColumnType {
        self.key_type
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total node pages (leaves + interior).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Tree height in levels (0 for an empty index, 1 for a single
    /// leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Size on disk, bytes (full pages — I/O is page-granular).
    pub fn bytes_on_disk(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Point probe: all rows whose key equals `key`.
    pub fn probe_point(&self, key: &Value) -> Result<IndexProbe, IoError> {
        self.probe_range(KeyBound::Inclusive(key), KeyBound::Inclusive(key))
    }

    /// Range probe over `[lo, hi]` with per-side bound semantics.
    /// Returns matching row ids ascending plus the probe's ledger
    /// charges; a bound whose type differs from the key column matches
    /// nothing. A fault on an index page surfaces as the typed
    /// [`IoError`] after the bounded retry budget, exactly like a table
    /// page.
    pub fn probe_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>) -> Result<IndexProbe, IoError> {
        let mut probe = IndexProbe::default();
        if self.leaf_count == 0 {
            return Ok(probe);
        }
        for b in [&lo, &hi] {
            if let Some(v) = b.value() {
                if v.column_type() != self.key_type {
                    return Ok(probe);
                }
            }
        }

        // Descend from the root to the first leaf that can hold `lo`.
        let mut page_no = self.pages.len() - 1;
        loop {
            let node = self.read_node(page_no, &mut probe)?;
            if page_no < self.leaf_count {
                break;
            }
            // Largest child whose separator is strictly below the lower
            // bound — duplicates of `lo` may start in that child.
            let pos = match lo.value() {
                Some(v) => lower_bound(&node, v, &mut probe.node_searches).saturating_sub(1),
                None => 0,
            };
            page_no = match node[pos][1].as_int() {
                Some(c) => c as usize,
                None => {
                    return Err(IoError::Corrupt {
                        table: self.index_id,
                        page: page_no as u32,
                    })
                }
            };
        }

        // Walk leaves rightward from the lower bound.
        let mut leaf = page_no;
        let mut entries = self.read_node(leaf, &mut probe)?;
        let mut idx = match lo.value() {
            Some(v) => lower_bound(&entries, v, &mut probe.node_searches),
            None => 0,
        };
        loop {
            if idx == entries.len() {
                leaf += 1;
                if leaf >= self.leaf_count {
                    break;
                }
                entries = self.read_node(leaf, &mut probe)?;
                idx = 0;
                continue;
            }
            let entry = &entries[idx];
            probe.node_searches += 1; // one key compare per entry walked
            let key = &entry[0];
            let in_lo = match lo {
                KeyBound::Unbounded => true,
                KeyBound::Inclusive(v) => cmp_keys(key, v) != Ordering::Less,
                KeyBound::Exclusive(v) => cmp_keys(key, v) == Ordering::Greater,
            };
            let (in_hi, past_hi) = match hi {
                KeyBound::Unbounded => (true, false),
                KeyBound::Inclusive(v) => {
                    let c = cmp_keys(key, v);
                    (c != Ordering::Greater, c == Ordering::Greater)
                }
                KeyBound::Exclusive(v) => {
                    let c = cmp_keys(key, v);
                    (c == Ordering::Less, c != Ordering::Less)
                }
            };
            if past_hi {
                break;
            }
            if in_lo && in_hi {
                match entry[1].as_int() {
                    Some(r) => probe.row_ids.push(r as usize),
                    None => {
                        return Err(IoError::Corrupt {
                            table: self.index_id,
                            page: leaf as u32,
                        })
                    }
                }
            }
            idx += 1;
        }

        // Duplicate keys interleave row ids across key groups; emit in
        // table order so index output matches scan output exactly.
        probe.row_ids.sort_unstable();
        Ok(probe)
    }

    /// Read one node through the buffer pool on the index charge path,
    /// merging this access's I/O and backoff into `probe`.
    fn read_node(&self, page_no: usize, probe: &mut IndexProbe) -> Result<Vec<Tuple>, IoError> {
        let id = PageId {
            table: self.index_id,
            page: page_no as u32,
        };
        let (tuples, io, backoff_ns) =
            self.pool.get_index_checked(id, |plan, io, backoff_ns| {
                self.load_node_verified(page_no, plan, io, backoff_ns)
            })?;
        probe.io.merge(&io);
        probe.backoff_ns += backoff_ns;
        Ok(Arc::unwrap_or_clone(tuples))
    }

    /// Miss-path attempt loop — the index twin of
    /// `DiskTable::load_page_verified`: verify the node's load-time
    /// checksum, consult the installed [`FaultPlan`], retry with
    /// exponential backoff. Retries charge the v2 retry classes (a
    /// re-read is a re-read, whatever kind of page it re-reads).
    fn load_node_verified(
        &self,
        page_no: usize,
        plan: FaultPlan,
        io: &mut DiskWork,
        backoff_ns: &mut u64,
    ) -> Result<Arc<Vec<Tuple>>, IoError> {
        let fault = plan.fault_for(self.index_id, page_no as u64);
        let mut injected_failures = match fault {
            Some(PageFault::Transient { failures }) => failures,
            Some(PageFault::Permanent) => u32::MAX,
            Some(PageFault::Stall { ns }) => {
                *backoff_ns += ns;
                0
            }
            None => 0,
        };
        for attempt in 0..=MAX_READ_RETRIES {
            let injected = injected_failures > 0;
            if injected {
                injected_failures -= 1;
            }
            let page = &self.pages[page_no];
            if !injected && page.checksum() == self.checksums[page_no] {
                return Ok(Arc::new(page.all_tuples()));
            }
            if attempt < MAX_READ_RETRIES {
                io.retry_ios += 1;
                io.retry_bytes += PAGE_SIZE as u64;
                *backoff_ns += BACKOFF_BASE_NS << attempt;
            }
        }
        Err(match fault {
            Some(PageFault::Permanent) => IoError::Permanent {
                table: self.index_id,
                page: page_no as u32,
            },
            _ => IoError::Corrupt {
                table: self.index_id,
                page: page_no as u32,
            },
        })
    }
}

impl std::fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("index_id", &self.index_id)
            .field("key_type", &self.key_type)
            .field("entries", &self.len)
            .field("pages", &self.pages.len())
            .field("leaves", &self.leaf_count)
            .field("height", &self.height)
            .finish()
    }
}

/// Pack one level's `[key, n]` entries onto new pages appended to
/// `pages`, at most [`BTREE_FANOUT`] per page, and return the level's
/// separators: each new page's first key and page number.
fn pack_level<'a>(
    entries: impl Iterator<Item = (&'a Value, usize)>,
    pages: &mut Vec<Page>,
) -> Vec<(Value, usize)> {
    let mut seps = Vec::new();
    let mut cur = Page::new();
    let mut entry = Vec::new();
    for (key, n) in entries {
        entry.clear();
        serialize_into([key, &Value::Int(n as i64)].into_iter(), &mut entry);
        if cur.len() == BTREE_FANOUT || !cur.push_payload(&entry) {
            pages.push(std::mem::take(&mut cur));
            let fits = cur.push_payload(&entry);
            assert!(fits, "index entry wider than an empty page");
        }
        if cur.len() == 1 {
            seps.push((key.clone(), pages.len()));
        }
    }
    if !cur.is_empty() {
        pages.push(cur);
    }
    seps
}

/// Total order for same-typed keys (build-time assertions and probe
/// type checks guarantee the cross-type arm is unreachable).
fn cmp_keys(a: &Value, b: &Value) -> Ordering {
    a.partial_cmp_typed(b).unwrap_or(Ordering::Equal)
}

/// First entry whose key is `>= key`, counting one node-search step per
/// binary-search iteration.
fn lower_bound(entries: &[Tuple], key: &Value, steps: &mut u64) -> usize {
    let (mut lo, mut hi) = (0usize, entries.len());
    while lo < hi {
        *steps += 1;
        let mid = (lo + hi) / 2;
        if cmp_keys(&entries[mid][0], key) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(1024))
    }

    fn int_index(keys: &[i64]) -> BTreeIndex {
        let entries = keys
            .iter()
            .enumerate()
            .map(|(row, &k)| (Value::Int(k), row))
            .collect();
        BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Int, entries, pool())
    }

    fn rows(ix: &BTreeIndex, lo: KeyBound<'_>, hi: KeyBound<'_>) -> Vec<usize> {
        ix.probe_range(lo, hi).expect("fault-free probe").row_ids
    }

    #[test]
    fn empty_index_probes_nothing_and_charges_nothing() {
        let ix = int_index(&[]);
        assert!(ix.is_empty());
        assert_eq!(ix.height(), 0);
        assert_eq!(ix.num_pages(), 0);
        let p = ix.probe_point(&Value::Int(7)).expect("empty probe");
        assert!(p.row_ids.is_empty());
        assert!(p.io.is_empty());
        assert_eq!(p.node_searches, 0);
    }

    #[test]
    fn point_probe_finds_exactly_the_matching_rows() {
        // Keys shuffled relative to row order on purpose.
        let keys: Vec<i64> = (0..5000).map(|i| (i * 37) % 1000).collect();
        let ix = int_index(&keys);
        assert_eq!(ix.len(), 5000);
        assert!(ix.height() >= 2, "5000 entries should need interior nodes");
        for probe_key in [0i64, 1, 499, 999] {
            let expect: Vec<usize> = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k == probe_key)
                .map(|(r, _)| r)
                .collect();
            let got = rows(
                &ix,
                KeyBound::Inclusive(&Value::Int(probe_key)),
                KeyBound::Inclusive(&Value::Int(probe_key)),
            );
            assert_eq!(got, expect, "key {probe_key}");
        }
        // A key outside the domain matches nothing.
        assert!(rows(
            &ix,
            KeyBound::Inclusive(&Value::Int(5000)),
            KeyBound::Inclusive(&Value::Int(5000)),
        )
        .is_empty());
    }

    #[test]
    fn duplicate_keys_spanning_leaves_are_all_found() {
        // One long run of duplicates wider than any single leaf, with
        // neighbours on both sides.
        let mut keys = vec![1i64; 10];
        keys.extend(std::iter::repeat_n(2i64, 3 * BTREE_FANOUT));
        keys.extend(std::iter::repeat_n(3i64, 10));
        let ix = int_index(&keys);
        let got = rows(
            &ix,
            KeyBound::Inclusive(&Value::Int(2)),
            KeyBound::Inclusive(&Value::Int(2)),
        );
        assert_eq!(got, (10..10 + 3 * BTREE_FANOUT).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds_at_page_boundaries() {
        // Sorted keys ⇒ row id == key; leaves break exactly every
        // BTREE_FANOUT entries, so FANOUT−1 / FANOUT / FANOUT+1 exercise
        // last-of-leaf, first-of-leaf and straddling bounds.
        let n = 4 * BTREE_FANOUT as i64;
        let keys: Vec<i64> = (0..n).collect();
        let ix = int_index(&keys);
        let f = BTREE_FANOUT as i64;
        for (lo, hi) in [
            (f - 1, f + 1),
            (f, f),
            (f, 2 * f - 1),
            (0, n - 1),
            (2 * f - 1, 2 * f),
        ] {
            let got = rows(
                &ix,
                KeyBound::Inclusive(&Value::Int(lo)),
                KeyBound::Inclusive(&Value::Int(hi)),
            );
            assert_eq!(got, (lo as usize..=hi as usize).collect::<Vec<_>>());
            // Exclusive bounds shave exactly the endpoints.
            let got = rows(
                &ix,
                KeyBound::Exclusive(&Value::Int(lo)),
                KeyBound::Exclusive(&Value::Int(hi)),
            );
            assert_eq!(
                got,
                (lo as usize + 1..hi as usize).collect::<Vec<_>>(),
                "exclusive ({lo}, {hi})"
            );
        }
        // Half-open ranges.
        assert_eq!(
            rows(
                &ix,
                KeyBound::Unbounded,
                KeyBound::Exclusive(&Value::Int(3))
            ),
            vec![0, 1, 2]
        );
        assert_eq!(
            rows(
                &ix,
                KeyBound::Inclusive(&Value::Int(n - 2)),
                KeyBound::Unbounded
            ),
            vec![n as usize - 2, n as usize - 1]
        );
    }

    #[test]
    fn probe_charges_v4_index_io_only() {
        let keys: Vec<i64> = (0..5000).collect();
        let ix = int_index(&keys);
        let p = ix.probe_point(&Value::Int(1234)).expect("probe");
        // Cold probe: one miss per level of the descent.
        assert_eq!(p.io.index_ios, ix.height() as u64);
        assert_eq!(p.io.index_bytes, ix.height() as u64 * PAGE_SIZE as u64);
        assert_eq!(p.io.random_ios, 0, "probes never charge the v1 classes");
        assert_eq!(p.io.sequential_bytes, 0);
        assert_eq!(p.io.retry_ios, 0);
        assert_eq!(p.backoff_ns, 0);
        assert!(p.node_searches > 0);
        // Warm re-probe of the same key: pure CPU, no I/O at all.
        let q = ix.probe_point(&Value::Int(1234)).expect("warm probe");
        assert!(q.io.is_empty());
        assert_eq!(q.row_ids, p.row_ids);
    }

    #[test]
    fn probe_io_is_returned_not_pooled() {
        let keys: Vec<i64> = (0..5000).collect();
        let p = pool();
        let entries = keys
            .iter()
            .enumerate()
            .map(|(row, &k)| (Value::Int(k), row))
            .collect();
        let ix = BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Int, entries, Arc::clone(&p));
        ix.probe_point(&Value::Int(42)).expect("probe");
        assert!(p.take_io().is_empty(), "probe charges belong to the caller");
    }

    #[test]
    fn mismatched_key_type_matches_nothing() {
        let ix = int_index(&[1, 2, 3]);
        let p = ix.probe_point(&Value::str("x")).expect("typed miss");
        assert!(p.row_ids.is_empty());
        assert!(p.io.is_empty());
    }

    #[test]
    fn string_keys_work() {
        let names = ["delta", "alpha", "echo", "bravo", "alpha"];
        let entries = names
            .iter()
            .enumerate()
            .map(|(row, n)| (Value::str(n), row))
            .collect();
        let ix = BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Str, entries, pool());
        let p = ix.probe_point(&Value::str("alpha")).expect("probe");
        assert_eq!(p.row_ids, vec![1, 4]);
        let r = ix
            .probe_range(
                KeyBound::Inclusive(&Value::str("b")),
                KeyBound::Exclusive(&Value::str("e")),
            )
            .expect("range");
        assert_eq!(r.row_ids, vec![0, 3], "bravo and delta");
    }

    #[test]
    fn faulted_index_page_reports_typed_error_with_index_id() {
        use eco_simhw::fault::FaultPlan;
        let keys: Vec<i64> = (0..5000).collect();
        let p = pool();
        let entries = keys
            .iter()
            .enumerate()
            .map(|(row, &k)| (Value::Int(k), row))
            .collect();
        let ix = BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Int, entries, Arc::clone(&p));
        // Saturated plan: every page of the index faults somehow. Find a
        // probe that dies on a permanently-unreadable page.
        let plan = FaultPlan::new(42, 1_000_000);
        p.set_fault_plan(plan);
        let Some((page, _)) = plan
            .faults_in_table(ix.index_id(), ix.num_pages() as u64)
            .into_iter()
            .find(|(_, f)| matches!(f, PageFault::Permanent))
        else {
            panic!("saturated plan has a permanent fault");
        };
        // Probing every key must eventually touch that page.
        let mut saw_permanent = false;
        for k in 0..5000 {
            match ix.probe_point(&Value::Int(k)) {
                Ok(_) => {}
                Err(IoError::Permanent { table, page: pg }) => {
                    assert_eq!(table, ix.index_id());
                    assert_eq!(u64::from(pg), page);
                    saw_permanent = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_permanent, "some probe crosses the dead page");
    }
}
