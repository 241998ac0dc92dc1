//! Hash join (equi-join, possibly multi-column keys).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use eco_simhw::trace::OpClass;
use eco_storage::{tuple_width, BitPacked, DataChunk, EncodedColumn, Schema, Tuple, Value};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::ops::{drain_chunks, drain_rows, BoxedOp, Operator};
use crate::parallel::run_morsels;

/// The build-side hash table. Single-column keys index the table by a
/// borrowed [`Value`] directly, and composite keys are looked up
/// through a caller-provided scratch vector (`Vec<Value>:
/// Borrow<[Value]>`), so the steady-state probe path performs **no
/// per-row key allocation** at any arity.
enum JoinTable {
    /// One join key: probe with `&tuple[key]`, zero allocation.
    Single(HashMap<Value, Vec<Tuple>>),
    /// Composite keys: probe through a reused scratch key.
    Multi(HashMap<Vec<Value>, Vec<Tuple>>),
}

impl JoinTable {
    fn for_arity(arity: usize) -> Self {
        if arity == 1 {
            JoinTable::Single(HashMap::new())
        } else {
            JoinTable::Multi(HashMap::new())
        }
    }

    fn insert(&mut self, tuple: Tuple, keys: &[usize]) {
        match self {
            JoinTable::Single(m) => {
                m.entry(tuple[keys[0]].clone()).or_default().push(tuple);
            }
            JoinTable::Multi(m) => {
                let key: Vec<Value> = keys.iter().map(|&i| tuple[i].clone()).collect();
                m.entry(key).or_default().push(tuple);
            }
        }
    }

    /// Rows matching `probe`'s key columns, in build-insertion order.
    /// `scratch` is a reused buffer for composite keys — cleared and
    /// refilled with cheap value clones, looked up by slice borrow, so
    /// no `Vec<Value>` is allocated per probe.
    fn lookup<'t>(
        &'t self,
        probe: &Tuple,
        keys: &[usize],
        scratch: &mut Vec<Value>,
    ) -> Option<&'t [Tuple]> {
        match self {
            JoinTable::Single(m) => m.get(&probe[keys[0]]).map(Vec::as_slice),
            JoinTable::Multi(m) => {
                scratch.clear();
                scratch.extend(keys.iter().map(|&i| probe[i].clone()));
                m.get(scratch.as_slice()).map(Vec::as_slice)
            }
        }
    }

    /// Columnar lookup: key values read straight from the chunk's
    /// columns (no probe-row materialization). Same scratch discipline
    /// as [`JoinTable::lookup`].
    fn lookup_chunk<'t>(
        &'t self,
        data: &DataChunk,
        row: usize,
        keys: &[usize],
        scratch: &mut Vec<Value>,
    ) -> Option<&'t [Tuple]> {
        match self {
            JoinTable::Single(m) => m.get(&data.value(keys[0], row)).map(Vec::as_slice),
            JoinTable::Multi(m) => {
                scratch.clear();
                scratch.extend(keys.iter().map(|&i| data.value(i, row)));
                m.get(scratch.as_slice()).map(Vec::as_slice)
            }
        }
    }

    /// Absorb a partition table built from a *later* morsel of the
    /// build stream. Appending each key's row list preserves global
    /// build-insertion (FIFO) order per key, because every row in
    /// `other` comes after every row already in `self` in stream order.
    fn absorb(&mut self, other: JoinTable) {
        match (self, other) {
            (JoinTable::Single(a), JoinTable::Single(b)) => {
                for (k, mut rows) in b {
                    a.entry(k).or_default().append(&mut rows);
                }
            }
            (JoinTable::Multi(a), JoinTable::Multi(b)) => {
                for (k, mut rows) in b {
                    a.entry(k).or_default().append(&mut rows);
                }
            }
            _ => unreachable!("partition tables share the join's key arity"),
        }
    }
}

/// In-memory hash join: materializes the build side into a hash table
/// at `open`, then streams the probe side.
///
/// Work accounting: one `HashBuild` plus the tuple's width in memory
/// bytes per build row; one `HashProbe` plus one random memory access
/// per probe row (the table exceeds cache for any interesting input);
/// output concatenation charges its width in memory bytes.
///
/// Multi-match rows are emitted in build-insertion (FIFO) order, on
/// both the row and the columnar path, so execution order is
/// deterministic and path-independent.
///
/// With a parallel context (`ExecCtx::workers > 1`) and partitionable
/// children, `open` runs both sides morsel-parallel: workers build
/// per-morsel partition tables that are merged in morsel order (so
/// per-key FIFO order — and therefore output order — is exactly the
/// serial build's), and the probe pipeline is pre-materialized by
/// probing the shared table from every worker, gathered in morsel
/// order. All charges are per-row and additive, so the merged ledger is
/// bit-identical to serial execution. Probe pre-materialization is
/// suppressed under a `Limit` ([`ExecCtx::streaming_exact`]) so early
/// termination keeps consuming exactly what scalar execution would.
pub struct HashJoin {
    build: BoxedOp,
    probe: BoxedOp,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    schema: Schema,
    table: JoinTable,
    pending: VecDeque<Tuple>,
    /// Reused composite-key probe buffer (see [`JoinTable::lookup`]).
    key_scratch: Vec<Value>,
    /// Parallel-probed output (morsel order) and the serve cursor.
    probed: Option<(Vec<Tuple>, usize)>,
}

impl HashJoin {
    /// Join `build ⋈ probe` on `build_keys = probe_keys` (positional,
    /// same length). Output schema is build columns followed by probe
    /// columns.
    pub fn new(
        build: BoxedOp,
        probe: BoxedOp,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
    ) -> Self {
        assert_eq!(
            build_keys.len(),
            probe_keys.len(),
            "key arity mismatch: {build_keys:?} vs {probe_keys:?}"
        );
        assert!(!build_keys.is_empty(), "join needs at least one key");
        let schema = build.schema().join(probe.schema());
        let table = JoinTable::for_arity(build_keys.len());
        Self {
            build,
            probe,
            build_keys,
            probe_keys,
            schema,
            table,
            pending: VecDeque::new(),
            key_scratch: Vec::new(),
            probed: None,
        }
    }

    /// Concatenate one build row with one probe row.
    fn join_row(build_t: &Tuple, probe_t: &Tuple) -> Tuple {
        let mut out = Vec::with_capacity(build_t.len() + probe_t.len());
        out.extend(build_t.iter().cloned());
        out.extend(probe_t.iter().cloned());
        out
    }

    /// Drain an opened build pipeline into a fresh hash table: one
    /// `HashBuild` plus the row's width in memory bytes per build row.
    /// A columnar child materializes its rows here — the hash build is a
    /// pipeline breaker — with the same rows and the same charges.
    fn build_table(
        child: &mut dyn Operator,
        arity: usize,
        keys: &[usize],
        ctx: &mut ExecCtx,
    ) -> JoinTable {
        let mut table = JoinTable::for_arity(arity);
        drain_rows(child, ctx, |ctx, rows| {
            let bytes: u64 = rows.iter().map(tuple_width).sum();
            ctx.charge(OpClass::HashBuild, rows.len() as u64);
            ctx.charge_mem_bytes(bytes);
            for t in rows.drain(..) {
                table.insert(t, keys);
            }
        });
        table
    }

    /// Row probe kernel: look one probe row up and `emit` its matches in
    /// build-insertion order. Charges one `HashProbe` + one random
    /// access plus the output rows' widths — the per-row form of
    /// [`Self::probe_chunk`].
    fn probe_row(
        table: &JoinTable,
        probe_keys: &[usize],
        probe_t: &Tuple,
        key_scratch: &mut Vec<Value>,
        ctx: &mut ExecCtx,
        mut emit: impl FnMut(Tuple),
    ) {
        ctx.charge(OpClass::HashProbe, 1);
        ctx.charge_mem_random(1);
        if let Some(matches) = table.lookup(probe_t, probe_keys, key_scratch) {
            for build_t in matches {
                let out = Self::join_row(build_t, probe_t);
                ctx.charge_mem_bytes(tuple_width(&out));
                emit(out);
            }
        }
    }

    /// Columnar probe kernel: hash the key column(s) straight out of
    /// the chunk and materialize a probe row only when it matches (late
    /// materialization — non-matching probe rows are never built).
    /// Charges one `HashProbe` + one random access per live probe row
    /// and the output rows' widths, exactly like the row paths.
    /// Under compressed pricing, a single dictionary-encoded probe key
    /// reuses the dictionary id as the hash: the payload is hashed once
    /// per distinct id per chunk ([`Self::probe_dict_chunk`]) and every
    /// repeat resolves by array index.
    fn probe_chunk(
        table: &JoinTable,
        probe_keys: &[usize],
        chunk: &Chunk,
        key_scratch: &mut Vec<Value>,
        rows: &mut Vec<Tuple>,
        ctx: &mut ExecCtx,
    ) {
        let n = chunk.len() as u64;
        if n == 0 {
            return;
        }
        if let (Some(enc), [key], JoinTable::Single(_)) = (&chunk.enc, probe_keys, table) {
            match enc.column(*key) {
                EncodedColumn::DictStr { dict, ids } => {
                    return Self::probe_dict_chunk(
                        table,
                        ids,
                        |d| Value::Str(Arc::clone(&dict[d])),
                        dict.len(),
                        chunk,
                        rows,
                        ctx,
                    );
                }
                EncodedColumn::DictChar { dict, ids } => {
                    return Self::probe_dict_chunk(
                        table,
                        ids,
                        |d| Value::Char(dict[d]),
                        dict.len(),
                        chunk,
                        rows,
                        ctx,
                    );
                }
                _ => {}
            }
        }
        let mut out_bytes = 0u64;
        chunk.rows().for_each(|_, i| {
            if let Some(matches) = table.lookup_chunk(&chunk.data, i, probe_keys, key_scratch) {
                let probe_t = chunk.data.row(i);
                for build_t in matches {
                    let t = Self::join_row(build_t, &probe_t);
                    out_bytes += tuple_width(&t);
                    rows.push(t);
                }
            }
        });
        ctx.charge(OpClass::HashProbe, n);
        ctx.charge_mem_random(n);
        ctx.charge_mem_bytes(out_bytes);
    }

    /// Dictionary-id probe kernel (compressed pricing, single key): the
    /// id *is* the hash key, so the string/char payload is hashed only
    /// on the first sight of each id in this chunk; repeats serve their
    /// match list from a per-id memo. Every live row charges one
    /// `DictLookup` (the id translation); only memo misses charge the
    /// `HashProbe` + random access the raw kernel charges per row.
    /// Output rows — and their byte charges — are identical to the raw
    /// kernel's.
    fn probe_dict_chunk(
        table: &JoinTable,
        ids: &BitPacked,
        key_val: impl Fn(usize) -> Value,
        dict_len: usize,
        chunk: &Chunk,
        rows: &mut Vec<Tuple>,
        ctx: &mut ExecCtx,
    ) {
        let JoinTable::Single(m) = table else {
            unreachable!("dict probe requires a single-key table");
        };
        let mut memo: Vec<Option<Option<&[Tuple]>>> = vec![None; dict_len];
        let mut misses = 0u64;
        let mut out_bytes = 0u64;
        chunk.rows().for_each(|_, i| {
            let d = ids.get(i) as usize;
            let matches = *memo[d].get_or_insert_with(|| {
                misses += 1;
                m.get(&key_val(d)).map(Vec::as_slice)
            });
            if let Some(matches) = matches {
                let probe_t = chunk.data.row(i);
                for build_t in matches {
                    let t = Self::join_row(build_t, &probe_t);
                    out_bytes += tuple_width(&t);
                    rows.push(t);
                }
            }
        });
        ctx.charge(OpClass::DictLookup, chunk.len() as u64);
        ctx.charge(OpClass::HashProbe, misses);
        ctx.charge_mem_random(misses);
        ctx.charge_mem_bytes(out_bytes);
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.pending.clear();
        self.probed = None;

        // Build side: fully consumed in every mode, so a surrounding
        // Limit's streaming-exactness constraint does not apply below
        // the build.
        let saved_exact = ctx.streaming_exact;
        ctx.streaming_exact = 0;
        let arity = self.build_keys.len();
        let build_keys = &self.build_keys;
        let partitions = run_morsels(self.build.as_ref(), ctx, |wctx, pipe| {
            // One partition table per morsel, charged exactly as the
            // serial build charges its rows.
            Self::build_table(pipe, arity, build_keys, wctx)
        });
        match partitions {
            Some(parts) => {
                // Merge in morsel order: per-key FIFO equals serial.
                let mut table = JoinTable::for_arity(arity);
                for part in parts {
                    table.absorb(part);
                }
                self.table = table;
            }
            None => {
                self.build.open(ctx);
                self.table = Self::build_table(self.build.as_mut(), arity, build_keys, ctx);
            }
        }
        ctx.streaming_exact = saved_exact;

        // Probe side: pre-materialize morsel-parallel when allowed
        // (run_morsels declines under streaming_exact / serial ctx).
        let table = &self.table;
        let probe_keys = &self.probe_keys;
        let probed = run_morsels(self.probe.as_ref(), ctx, |wctx, pipe| {
            let mut rows = Vec::new();
            let mut key_scratch = Vec::new();
            if wctx.columnar {
                drain_chunks(pipe, wctx, |wctx, chunk| {
                    Self::probe_chunk(table, probe_keys, chunk, &mut key_scratch, &mut rows, wctx);
                });
            } else {
                while let Some(probe_t) = pipe.next(wctx) {
                    Self::probe_row(table, probe_keys, &probe_t, &mut key_scratch, wctx, |t| {
                        rows.push(t)
                    });
                }
            }
            rows
        });
        match probed {
            Some(parts) => {
                let total = parts.iter().map(Vec::len).sum();
                let mut rows = Vec::with_capacity(total);
                for mut p in parts {
                    rows.append(&mut p);
                }
                self.probed = Some((rows, 0));
            }
            None => self.probe.open(ctx),
        }
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        if let Some((rows, pos)) = &mut self.probed {
            let t = rows.get(*pos)?.clone();
            *pos += 1;
            return Some(t);
        }
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(t);
            }
            let probe_t = self.probe.next(ctx)?;
            let pending = &mut self.pending;
            Self::probe_row(
                &self.table,
                &self.probe_keys,
                &probe_t,
                &mut self.key_scratch,
                ctx,
                |t| pending.push_back(t),
            );
        }
    }

    /// Columnar probe: key values are hashed straight out of the probe
    /// chunk's columns and only matching probe rows materialize. The
    /// join output is a fresh row-major chunk — the join is the late
    /// materialization point of its pipeline.
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        if let Some((rows, pos)) = &mut self.probed {
            // Serve the parallel pre-probed rows as decomposed chunks.
            if *pos >= rows.len() {
                return None;
            }
            let end = (*pos + ctx.batch_size.max(1)).min(rows.len());
            let data = DataChunk::from_rows(&self.schema, &rows[*pos..end]);
            *pos = end;
            return Some(Chunk::dense(Arc::new(data)));
        }
        let chunk = self.probe.next_chunk(ctx)?;
        let mut rows = Vec::new();
        Self::probe_chunk(
            &self.table,
            &self.probe_keys,
            &chunk,
            &mut self.key_scratch,
            &mut rows,
            ctx,
        );
        Some(Chunk::dense(Arc::new(DataChunk::from_rows(
            &self.schema,
            &rows,
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecSource;
    use eco_storage::ColumnType;

    fn src(name: &str, vals: &[(i64, &str)]) -> VecSource {
        let schema = Schema::new(&[
            (&format!("{name}_k"), ColumnType::Int),
            (&format!("{name}_v"), ColumnType::Str),
        ]);
        VecSource::new(
            schema,
            vals.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::str(*v)])
                .collect(),
        )
    }

    fn run(j: &mut HashJoin) -> Vec<Tuple> {
        let mut ctx = ExecCtx::new();
        j.open(&mut ctx);
        std::iter::from_fn(|| j.next(&mut ctx)).collect()
    }

    #[test]
    fn inner_join_matches() {
        let build = src("a", &[(1, "x"), (2, "y")]);
        let probe = src("b", &[(2, "p"), (3, "q"), (2, "r")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        let out = run(&mut j);
        assert_eq!(out.len(), 2, "key 2 matches twice on the probe side");
        for t in &out {
            assert_eq!(t[0], Value::Int(2));
            assert_eq!(t[1], Value::str("y"));
        }
        assert_eq!(j.schema().names(), vec!["a_k", "a_v", "b_k", "b_v"]);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let build = src("a", &[(1, "x"), (1, "y")]);
        let probe = src("b", &[(1, "p")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        assert_eq!(run(&mut j).len(), 2);
    }

    #[test]
    fn multi_match_rows_emit_in_build_order() {
        // Regression: `pending` used to drain LIFO, emitting multi-match
        // rows in reverse build order.
        let build = src("a", &[(7, "first"), (7, "second"), (7, "third")]);
        let probe = src("b", &[(7, "p"), (7, "q")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        let out = run(&mut j);
        let order: Vec<&str> = out.iter().map(|t| t[1].as_str().unwrap()).collect();
        assert_eq!(
            order,
            vec!["first", "second", "third", "first", "second", "third"],
            "multi-match rows must stream FIFO in build-insertion order"
        );
        // And the probe side advances in stream order.
        let probes: Vec<&str> = out.iter().map(|t| t[3].as_str().unwrap()).collect();
        assert_eq!(probes, vec!["p", "p", "p", "q", "q", "q"]);
    }

    #[test]
    fn columnar_path_matches_scalar_rows_and_order() {
        let data_b = [(1, "x"), (2, "y"), (2, "z")];
        let data_p = [(2, "p"), (1, "q"), (2, "r"), (9, "s")];
        let mut scalar = HashJoin::new(
            Box::new(src("a", &data_b)),
            Box::new(src("b", &data_p)),
            vec![0],
            vec![0],
        );
        let scalar_rows = run(&mut scalar);

        let mut columnar = HashJoin::new(
            Box::new(src("a", &data_b)),
            Box::new(src("b", &data_p)),
            vec![0],
            vec![0],
        );
        let mut ctx = ExecCtx::new().with_batch_size(2).with_columnar(true);
        columnar.open(&mut ctx);
        let mut columnar_rows = Vec::new();
        while let Some(chunk) = columnar.next_chunk(&mut ctx) {
            chunk.to_tuples(&mut columnar_rows);
        }
        assert_eq!(columnar_rows, scalar_rows);
    }

    #[test]
    fn no_matches_empty_output() {
        let build = src("a", &[(1, "x")]);
        let probe = src("b", &[(9, "p")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        assert!(run(&mut j).is_empty());
    }

    #[test]
    fn multi_column_keys() {
        let schema = Schema::new(&[("k1", ColumnType::Int), ("k2", ColumnType::Int)]);
        let build = VecSource::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
            ],
        );
        let probe = VecSource::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(99)],
            ],
        );
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0, 1], vec![0, 1]);
        let out = run(&mut j);
        assert_eq!(out.len(), 1, "only the (1,10) pair joins");
    }

    #[test]
    fn charges_build_and_probe() {
        let build = src("a", &[(1, "x"), (2, "y"), (3, "z")]);
        let probe = src("b", &[(1, "p"), (2, "q")]);
        let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
        let mut ctx = ExecCtx::new();
        j.open(&mut ctx);
        assert_eq!(ctx.cpu.count(OpClass::HashBuild), 3);
        while j.next(&mut ctx).is_some() {}
        assert_eq!(ctx.cpu.count(OpClass::HashProbe), 2);
        assert_eq!(ctx.mem_random_accesses, 2);
    }

    #[test]
    #[should_panic(expected = "key arity mismatch")]
    fn mismatched_keys_rejected() {
        let build = src("a", &[]);
        let probe = src("b", &[]);
        let _ = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0, 1]);
    }

    /// Micro-assertion for the dictionary-id probe path: under
    /// compressed pricing a dict-encoded probe key must produce exactly
    /// the raw kernel's rows while hashing the string payload once per
    /// distinct id per chunk instead of once per row.
    #[test]
    fn dict_id_probe_matches_raw_rows_and_skips_rehashing() {
        use crate::ops::SeqScan;
        use eco_simhw::trace::PricingMode;
        use eco_storage::{Catalog, HeapTable};

        // Probe side: 600 rows over 5 distinct string keys → dict-str.
        let pschema = Schema::new(&[("pk", ColumnType::Str), ("pv", ColumnType::Int)]);
        let ptuples: Vec<Tuple> = (0..600)
            .map(|i| vec![Value::str(format!("key-{}", i % 5)), Value::Int(i)])
            .collect();
        let mut cat = Catalog::new(1 << 20);
        cat.add_memory_table("p", HeapTable::from_tuples(pschema, ptuples));

        // Build side: 3 of the 5 keys (and one absent key) match.
        let bschema = Schema::new(&[("bk", ColumnType::Str), ("bv", ColumnType::Int)]);
        let mk = |pricing: PricingMode| {
            let build = VecSource::new(
                bschema.clone(),
                vec![
                    vec![Value::str("key-1"), Value::Int(100)],
                    vec![Value::str("key-3"), Value::Int(300)],
                    vec![Value::str("key-4"), Value::Int(400)],
                    vec![Value::str("absent"), Value::Int(999)],
                ],
            );
            let probe = SeqScan::new(cat.expect("p"));
            let mut j = HashJoin::new(Box::new(build), Box::new(probe), vec![0], vec![0]);
            let mut ctx = ExecCtx::new().with_columnar(true).with_pricing(pricing);
            j.open(&mut ctx);
            let mut rows = Vec::new();
            while let Some(c) = j.next_chunk(&mut ctx) {
                c.to_tuples(&mut rows);
            }
            (rows, ctx)
        };

        let (raw_rows, raw_ctx) = mk(PricingMode::Raw);
        let (comp_rows, comp_ctx) = mk(PricingMode::Compressed);
        assert_eq!(comp_rows, raw_rows, "dict-id probe must match raw rows");
        assert_eq!(raw_rows.len(), 360, "3 of 5 keys × 120 rows each");
        assert_eq!(raw_ctx.cpu.count(OpClass::HashProbe), 600);
        assert_eq!(
            comp_ctx.cpu.count(OpClass::HashProbe),
            5,
            "payload hashed once per distinct id per chunk"
        );
        assert_eq!(comp_ctx.cpu.count(OpClass::DictLookup), 600);
        assert!(
            comp_ctx.mem_stream_bytes < raw_ctx.mem_stream_bytes,
            "scan prices encoded bytes"
        );
    }

    /// Micro-assertion for the borrowed multi-key probe path: composite
    /// keys (including string components, the allocation-heavy case the
    /// scratch buffer eliminates) produce identical rows and identical
    /// ledgers across scalar and columnar execution.
    #[test]
    fn multi_key_rows_and_ledgers_identical_across_engines() {
        use crate::exec::ExecEngine;
        let schema = Schema::new(&[("k1", ColumnType::Int), ("k2", ColumnType::Str)]);
        let mk = || {
            let build = VecSource::new(
                schema.clone(),
                (0..40)
                    .map(|i| vec![Value::Int(i % 5), Value::str(format!("g{}", i % 3))])
                    .collect(),
            );
            let probe = VecSource::new(
                schema.clone(),
                (0..60)
                    .map(|i| vec![Value::Int(i % 7), Value::str(format!("g{}", i % 4))])
                    .collect(),
            );
            HashJoin::new(Box::new(build), Box::new(probe), vec![0, 1], vec![0, 1])
        };

        let mut sctx = ExecCtx::new();
        let mut j = mk();
        let scalar_rows = ExecEngine::Scalar.execute(&mut j, &mut sctx);
        assert!(!scalar_rows.is_empty(), "the workload must join something");

        for chunk_rows in [1, 7, 1024] {
            let mut ctx = ExecCtx::new().with_batch_size(chunk_rows);
            let mut j = mk();
            let rows = ExecEngine::Columnar.execute(&mut j, &mut ctx);
            assert_eq!(rows, scalar_rows, "chunk {chunk_rows}: rows differ");
            assert_eq!(ctx.cpu, sctx.cpu, "chunk {chunk_rows}: op counts differ");
            assert_eq!(
                ctx.mem_stream_bytes, sctx.mem_stream_bytes,
                "chunk {chunk_rows}"
            );
            assert_eq!(
                ctx.mem_random_accesses, sctx.mem_random_accesses,
                "chunk {chunk_rows}"
            );
        }
    }
}
