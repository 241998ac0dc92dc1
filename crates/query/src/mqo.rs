//! Multi-query optimization for QED (paper §4).
//!
//! A batch of structurally-identical selection queries is merged into
//! *one* scan whose filter is the disjunction of the individual
//! predicates; each emitted tuple is tagged with the index of the query
//! it belongs to, and an application-side splitter routes rows back to
//! their queries ("QED also has a little bit of extra work to do with
//! respect to splitting the result, which … we do in the application
//! logic and include the time and energy cost").

use std::sync::Arc;

use eco_simhw::trace::OpClass;
use eco_storage::{
    tuple_width, Catalog, ColumnChunk, ColumnData, ColumnType, DataChunk, Schema, Tuple, Value,
};
use eco_tpch::QedQuery;

use crate::chunk::{Chunk, Rows};
use crate::context::ExecCtx;
use crate::expr::Expr;
use crate::ops::{BoxedOp, Operator, SeqScan};
use crate::parallel::Morsel;
use crate::plans::selection_predicate;

/// Filter a stream against many predicates at once, tagging each output
/// row with the (0-based) index of the matching predicate.
///
/// When `disjoint` is set and the context short-circuits, evaluation
/// stops at the first matching predicate (sound only when at most one
/// can match — true for QED's distinct `l_quantity` values). Otherwise
/// every predicate is evaluated and a row may fan out to several
/// queries; fan-out rows emit in predicate order (row-major) on the row
/// and the columnar path alike.
///
/// The columnar path is steady-state allocation-lean: its match buffers
/// are reused across chunks.
pub struct MultiFilter {
    child: BoxedOp,
    predicates: Vec<Expr>,
    disjoint: bool,
    schema: Schema,
    pending: std::collections::VecDeque<Tuple>,
    /// Columnar scratch: live-row indices not yet claimed by a
    /// predicate (disjoint short-circuit narrowing).
    alive: Vec<u32>,
    /// Columnar scratch: matched `(row, query id)` pairs.
    matches: Vec<(u32, u16)>,
}

impl MultiFilter {
    /// Multi-predicate filter over `child`.
    pub fn new(child: BoxedOp, predicates: Vec<Expr>, disjoint: bool) -> Self {
        assert!(!predicates.is_empty(), "need at least one predicate");
        let mut cols: Vec<(String, ColumnType)> = vec![("__query_id".to_string(), ColumnType::Int)];
        for c in child.schema().columns() {
            cols.push((c.name.clone(), c.ty));
        }
        let refs: Vec<(&str, ColumnType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Self {
            child,
            predicates,
            disjoint,
            schema: Schema::new(&refs),
            pending: std::collections::VecDeque::new(),
            alive: Vec::new(),
            matches: Vec::new(),
        }
    }

    /// Number of merged predicates.
    pub fn arity(&self) -> usize {
        self.predicates.len()
    }

    /// Evaluate every predicate against `t`, appending a tagged copy
    /// per match via `emit`. Respects disjoint short-circuiting.
    fn route(
        predicates: &[Expr],
        disjoint: bool,
        t: &Tuple,
        ctx: &mut ExecCtx,
        mut emit: impl FnMut(Tuple),
    ) {
        let stop_at_first = disjoint && ctx.short_circuit_or;
        for (qid, pred) in predicates.iter().enumerate() {
            if pred.eval_bool(t, ctx) {
                let mut tagged = Vec::with_capacity(t.len() + 1);
                tagged.push(Value::Int(qid as i64));
                tagged.extend(t.iter().cloned());
                emit(tagged);
                if stop_at_first {
                    break;
                }
            }
        }
    }
}

impl Operator for MultiFilter {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.pending.clear();
        self.child.open(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(t);
            }
            let t = self.child.next(ctx)?;
            let pending = &mut self.pending;
            Self::route(&self.predicates, self.disjoint, &t, ctx, |tagged| {
                pending.push_back(tagged);
            });
        }
    }

    /// Columnar routing: evaluate each predicate over the rows still in
    /// play (disjoint short-circuit narrows the live set exactly like
    /// the scalar `stop_at_first` loop, so predicate-evaluation charges
    /// are identical), collect `(row, query)` matches in row-major
    /// order, and emit one gathered chunk: the tag column plus the
    /// child's columns — no per-row tuple is built.
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        let chunk = self.child.next_chunk(ctx)?;
        self.matches.clear();
        let stop_at_first = self.disjoint && ctx.short_circuit_or;
        if stop_at_first {
            self.alive.clear();
            chunk.rows().for_each(|_, i| self.alive.push(i as u32));
            for (qid, pred) in self.predicates.iter().enumerate() {
                if self.alive.is_empty() {
                    break;
                }
                let flags = pred.eval_flags(&chunk.data, Rows::Sel(&self.alive), ctx);
                let mut write = 0;
                for (k, &matched) in flags.iter().enumerate() {
                    if matched {
                        self.matches.push((self.alive[k], qid as u16));
                    } else {
                        self.alive[write] = self.alive[k];
                        write += 1;
                    }
                }
                self.alive.truncate(write);
            }
            // Narrowing discovers matches predicate-major; the output
            // contract is row-major (each row appears at most once here,
            // so sorting by row id restores the scalar emission order).
            self.matches.sort_unstable_by_key(|&(row, _)| row);
        } else {
            // Every predicate sees every live row; a row may fan out to
            // several queries, emitted in predicate order per row.
            let rows = chunk.rows();
            let flags_per_pred: Vec<Vec<bool>> = self
                .predicates
                .iter()
                .map(|p| p.eval_flags(&chunk.data, rows, ctx))
                .collect();
            rows.for_each(|k, i| {
                for (qid, flags) in flags_per_pred.iter().enumerate() {
                    if flags[k] {
                        self.matches.push((i as u32, qid as u16));
                    }
                }
            });
        }

        // Gather the output chunk: tag column + child columns.
        let tags = ColumnData::Int(self.matches.iter().map(|&(_, q)| q as i64).collect());
        let indices: Vec<u32> = self.matches.iter().map(|&(row, _)| row).collect();
        let mut cols = Vec::with_capacity(1 + chunk.data.arity());
        cols.push(ColumnChunk::new(tags));
        for c in chunk.data.columns() {
            cols.push(c.gather(&indices));
        }
        Some(Chunk::dense(Arc::new(DataChunk::new(cols))))
    }

    fn morsels(&self, target_rows: usize) -> Option<Vec<Morsel>> {
        self.child.morsels(target_rows)
    }

    fn clone_morsel(&self, morsel: &Morsel) -> Option<BoxedOp> {
        let child = self.child.clone_morsel(morsel)?;
        Some(Box::new(MultiFilter {
            child,
            predicates: self.predicates.clone(),
            disjoint: self.disjoint,
            schema: self.schema.clone(),
            pending: std::collections::VecDeque::new(),
            alive: Vec::new(),
            matches: Vec::new(),
        }))
    }
}

/// Why a batch of statements could not be merged into one scan.
///
/// Malformed batches are *client* errors: a session layer routes them
/// back to the submitting session instead of panicking inside the
/// scheduler (see `eco-server`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The batch contained no queries.
    EmptyBatch,
    /// The table the merged scan runs over is not in the catalog.
    MissingTable(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::EmptyBatch => write!(f, "empty QED batch"),
            MergeError::MissingTable(t) => write!(f, "table `{t}` not in catalog"),
        }
    }
}

impl std::error::Error for MergeError {}

/// A merged QED batch over the `lineitem` table.
pub struct MergedSelection {
    plan: MultiFilter,
    batch_size: usize,
}

impl MergedSelection {
    /// Merge a batch of QED selection queries into one disjunctive scan.
    ///
    /// Panicking wrapper around [`Self::try_new`] for callers that
    /// construct batches from trusted workloads.
    pub fn new(catalog: &Catalog, queries: &[QedQuery]) -> Self {
        Self::try_new(catalog, queries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Merge a batch of QED selection queries into one disjunctive
    /// scan, or report why the batch is malformed.
    pub fn try_new(catalog: &Catalog, queries: &[QedQuery]) -> Result<Self, MergeError> {
        if queries.is_empty() {
            return Err(MergeError::EmptyBatch);
        }
        if catalog.get("lineitem").is_none() {
            return Err(MergeError::MissingTable("lineitem".to_string()));
        }
        let distinct = {
            let mut v: Vec<i64> = queries.iter().map(|q| q.quantity).collect();
            v.sort_unstable();
            v.dedup();
            v.len() == queries.len()
        };
        let predicates: Vec<Expr> = queries
            .iter()
            .map(|q| selection_predicate(catalog, q))
            .collect();
        let scan = Box::new(SeqScan::new(catalog.expect("lineitem"))) as BoxedOp;
        Ok(Self {
            plan: MultiFilter::new(scan, predicates, distinct),
            batch_size: queries.len(),
        })
    }

    /// Execute the merged scan, returning tagged rows.
    pub fn run(&mut self, ctx: &mut ExecCtx) -> Vec<Tuple> {
        crate::exec::execute(&mut self.plan, ctx)
    }

    /// Execute the merged scan morsel-parallel across `workers`
    /// threads: same tagged rows, bit-identical ledger (the disjunctive
    /// scan is a partitionable pipeline).
    pub fn run_parallel(&mut self, ctx: &mut ExecCtx, workers: usize) -> Vec<Tuple> {
        crate::exec::execute_parallel(&mut self.plan, ctx, workers)
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

/// Application-side result split: route tagged rows back to their
/// queries, stripping the tag. Charges one `SplitRoute` and one
/// `RowCopy` plus the row's width in client-memory bytes per row — the
/// client-side work the paper explicitly includes in QED's costs.
pub fn split_results(tagged: Vec<Tuple>, batch_size: usize, ctx: &mut ExecCtx) -> Vec<Vec<Tuple>> {
    let mut out: Vec<Vec<Tuple>> = (0..batch_size).map(|_| Vec::new()).collect();
    for mut t in tagged {
        let qid = t[0].as_int().expect("query tag") as usize;
        assert!(qid < batch_size, "tag {qid} out of batch {batch_size}");
        t.remove(0);
        ctx.charge(OpClass::SplitRoute, 1);
        ctx.charge(OpClass::RowCopy, 1);
        ctx.charge_mem_bytes(tuple_width(&t));
        out[qid].push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plans::selection_plan;
    use eco_storage::{load_tpch, EngineKind};
    use eco_tpch::{qed_workload, TpchGenerator};

    fn setup() -> Catalog {
        let db = TpchGenerator::new(0.003).generate();
        load_tpch(&db, EngineKind::Memory, 0)
    }

    #[test]
    fn merged_equals_sequential() {
        // The QED correctness invariant: merging + splitting returns
        // exactly what the individual queries return.
        let cat = setup();
        let queries = qed_workload(8);

        let mut merged = MergedSelection::new(&cat, &queries);
        let mut ctx = ExecCtx::new();
        let tagged = merged.run(&mut ctx);
        let split = split_results(tagged, queries.len(), &mut ctx);

        for (i, q) in queries.iter().enumerate() {
            let mut plan = selection_plan(&cat, q);
            let mut sctx = ExecCtx::new();
            let individual = execute(plan.as_mut(), &mut sctx);
            assert_eq!(split[i], individual, "query {i} differs");
        }
    }

    #[test]
    fn merged_scans_table_once() {
        let cat = setup();
        let n_rows = cat.expect("lineitem").len() as u64;
        let queries = qed_workload(10);
        let mut merged = MergedSelection::new(&cat, &queries);
        let mut ctx = ExecCtx::new();
        merged.run(&mut ctx);
        assert_eq!(
            ctx.cpu.count(OpClass::TupleFetch),
            n_rows,
            "one fetch per tuple, not per query"
        );
    }

    #[test]
    fn short_circuit_reduces_pred_evals() {
        let cat = setup();
        let queries = qed_workload(20);
        let mut m1 = MergedSelection::new(&cat, &queries);
        let mut sc = ExecCtx::new();
        m1.run(&mut sc);
        let mut m2 = MergedSelection::new(&cat, &queries);
        let mut ex = ExecCtx::exhaustive();
        m2.run(&mut ex);
        assert!(
            sc.pred_evals < ex.pred_evals,
            "short-circuit {} !< exhaustive {}",
            sc.pred_evals,
            ex.pred_evals
        );
        let n_rows = cat.expect("lineitem").len() as u64;
        assert_eq!(ex.pred_evals, 20 * n_rows, "exhaustive = k evals per row");
    }

    #[test]
    fn split_charges_client_work() {
        let cat = setup();
        let queries = qed_workload(5);
        let mut merged = MergedSelection::new(&cat, &queries);
        let mut ctx = ExecCtx::new();
        let tagged = merged.run(&mut ctx);
        let n = tagged.len() as u64;
        let mut client = ExecCtx::new();
        let split = split_results(tagged, 5, &mut client);
        assert_eq!(client.cpu.count(OpClass::SplitRoute), n);
        assert_eq!(client.cpu.count(OpClass::RowCopy), n);
        assert_eq!(split.iter().map(Vec::len).sum::<usize>() as u64, n);
    }

    #[test]
    fn multifilter_fans_out_when_not_disjoint() {
        use crate::ops::VecSource;
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, vec![vec![Value::Int(5)]]);
        // Two overlapping predicates both match value 5.
        let preds = vec![Expr::col_eq_int(0, 5), Expr::col_eq_int(0, 5)];
        let mut mf = MultiFilter::new(Box::new(src), preds, false);
        let mut ctx = ExecCtx::new();
        let rows = execute(&mut mf, &mut ctx);
        assert_eq!(rows.len(), 2, "row must fan out to both queries");
    }

    #[test]
    #[should_panic(expected = "empty QED batch")]
    fn empty_batch_rejected() {
        let cat = setup();
        let _ = MergedSelection::new(&cat, &[]);
    }

    #[test]
    fn try_new_reports_malformed_batches() {
        let cat = setup();
        assert_eq!(
            MergedSelection::try_new(&cat, &[]).err(),
            Some(MergeError::EmptyBatch)
        );
        let empty_catalog = Catalog::new(0);
        let queries = qed_workload(3);
        assert_eq!(
            MergedSelection::try_new(&empty_catalog, &queries).err(),
            Some(MergeError::MissingTable("lineitem".to_string()))
        );
        assert!(MergedSelection::try_new(&cat, &queries).is_ok());
    }
}
