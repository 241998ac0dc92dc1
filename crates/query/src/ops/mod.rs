//! Physical operators: a Volcano-style (open/next) executor with a
//! columnar chunk path layered on top.
//!
//! Every operator performs real work on real tuples and charges that
//! work into the [`ExecCtx`] ledger as it goes. The paper's headline
//! experiments run index-free ("In all our experiments, we did not
//! create any database indices"), so the default access path is the
//! sequential scan and the default join is the hash join
//! ([`SortMergeJoin`] exists for the operator-level energy studies).
//! Since ledger schema v4 the engine *additionally* offers indexed
//! access paths — [`IxScan`] (B-tree point/range probe) and [`IxJoin`]
//! (index nested-loop) — whose page accesses are charged as **index
//! random I/O**, a separately-ledgered class priced exactly like random
//! I/O. Plans that use no index charge nothing to those classes, so
//! every pre-v4 figure stays bit-identical while the random-vs-
//! sequential energy split of the paper's fig. 5 becomes measurable
//! from real query plans (see `eco_storage::btree`).
//!
//! # Two paths
//!
//! [`Operator::next`] is the row path: one tuple per call. It is the
//! simple reference that every identity test compares against, and a
//! context without [`ExecCtx::columnar`] runs it all the way down —
//! blocking operators drain their children through `next()` too.
//!
//! [`Operator::next_chunk`] is the vectorized path: instead of one
//! tuple, a [`crate::chunk::Chunk`] moves an `Arc`-shared window of
//! typed column vectors (`eco-storage`'s `DataChunk` — one contiguous
//! `i64`/`i32`/`char`/`Arc<str>` array per column, plus optional
//! validity) together with an optional **selection vector** naming the
//! live rows. The pipeline idiom is scan → select → compute →
//! late-materialize:
//!
//! * [`SeqScan`] / [`VecSource`] emit windows over their table's
//!   columnar mirror — zero per-row work beyond the ledger charge;
//! * [`Filter`] (and the QED [`crate::mqo::MultiFilter`]) evaluate
//!   predicates column-at-a-time ([`crate::expr::Expr::filter_sel`]),
//!   refining the selection vector without touching data — short-circuit
//!   semantics become *selection narrowing*, with identical evaluation
//!   counts;
//! * [`Project`] runs expression kernels over typed slices into fresh
//!   columns; [`HashAggregate`] updates typed accumulator arrays keyed
//!   by group id; [`HashJoin`] hashes key columns directly and
//!   materializes only matching probe rows;
//! * rows come back into existence ([`crate::chunk::Chunk::to_tuples`])
//!   only at pipeline breakers that inherently need them (sort buffers,
//!   hash-build tables) and at the top of the plan.
//!
//! Every operator works under the columnar driver: the provided
//! `next_chunk` packs up to [`ExecCtx::batch_size`] rows from `next()`
//! into a chunk, which serves the operators without a native chunk path:
//! [`Limit`] (which must keep scalar-exact stream consumption),
//! [`IxScan`], [`IxJoin`], [`SortMergeJoin`], and the output side of
//! [`Sort`] and [`HashAggregate`].
//!
//! **The ledger is engine-invariant by construction**: chunk paths
//! charge the same per-tuple op classes with the same counts as the row
//! path, aggregated per chunk (`charge(class, n)`) — never re-priced —
//! and columnar disk scans still drive every covered page through the
//! buffer pool (the columnar mirror supplies data, never I/O). Row and
//! columnar ledgers are bit-identical on both storage engines, cold and
//! warm, at any chunk size and worker count
//! (`tests/integration_columnar.rs` and the `columnar_matches_scalar`
//! property test). The paper-reproduction figures are computed from
//! that ledger, so this invariant is load-bearing.
//!
//! # Morsel-driven parallel execution
//!
//! When [`ExecCtx::workers`] is greater than one, partitionable
//! pipelines execute in parallel: a *morsel* is a contiguous run of a
//! leaf's input ([`crate::parallel::Morsel`] — rows for memory-resident
//! sources, whole disk extents for paged tables), and
//! [`Operator::morsels`] / [`Operator::clone_morsel`] let non-blocking
//! pipeline segments (scan → filter → project chains) describe and
//! replicate themselves per morsel. Worker threads each run their
//! morsels' pipelines to completion, charging a private forked
//! [`ExecCtx`] ledger; per-morsel outputs are then stitched back
//! together **in morsel order**, so every consumer observes the exact
//! tuple stream serial execution would produce.
//!
//! Parallel consumption is built into the blocking operators —
//! [`HashJoin`] (partitioned parallel build, ordered parallel probe),
//! [`HashAggregate`] (per-morsel partial aggregation with an ordered
//! final merge) and [`Sort`] (order-preserving gather before a serial
//! sort, whose comparison count is input-order dependent) — and into
//! the root of [`crate::exec::execute_parallel`].
//!
//! **The ledger is worker-count-invariant by the same construction as
//! engine invariance**: every charge is per-tuple and additive, morsels
//! partition the input exactly, and merging worker ledgers is
//! commutative addition — so the merged parallel ledger is bit-identical
//! to serial execution at any worker count and any morsel size
//! (enforced by `tests/integration_parallel.rs` and the
//! `parallel_matches_serial` property test). [`Limit`]'s early
//! termination is protected by [`ExecCtx::streaming_exact`]: under a
//! `Limit`, streaming pipelines never pre-materialize, while blocking
//! operators (which drain their input fully in any mode) re-enable
//! parallelism for their own subtrees.

mod agg;
mod filter;
mod ix_join;
mod ix_scan;
mod join;
mod limit;
mod merge_join;
mod project;
mod scan;
mod sort;
mod source;

pub use agg::{AggSpec, HashAggregate};
pub use filter::Filter;
pub use ix_join::IxJoin;
pub use ix_scan::{IxBound, IxScan};
pub use join::HashJoin;
pub use limit::Limit;
pub use merge_join::SortMergeJoin;
pub use project::Project;
pub use scan::SeqScan;
pub use sort::{Sort, SortKey};
pub use source::VecSource;

use std::sync::Arc;

use eco_storage::{DataChunk, Schema, Tuple};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::parallel::Morsel;

/// A Volcano-style physical operator with an optional columnar chunk
/// path and an optional morsel-parallel decomposition.
///
/// Operators are `Send` so pipeline clones can move onto worker
/// threads; all state an operator owns is tuples, expressions and
/// `Arc`s of shared storage.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Prepare for execution (may consume children for blocking
    /// operators such as hash build, aggregation and sort).
    fn open(&mut self, ctx: &mut ExecCtx);

    /// Produce the next tuple, or `None` at end of stream.
    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple>;

    /// Produce the next [`Chunk`] of the columnar path, or `None` at
    /// end of stream.
    ///
    /// A returned chunk may have zero live rows (e.g. a filtered chunk
    /// where nothing matched) while the stream continues; drivers loop
    /// until `None`. Native implementations emit `Arc`-shared windows
    /// over columnar storage mirrors and refine *selection vectors*
    /// instead of materializing rows; the provided default packs up to
    /// [`ExecCtx::batch_size`] rows pulled through [`Operator::next`],
    /// so every operator — including third-party ones — keeps working
    /// under the columnar driver, with identical charges (packing
    /// itself is never charged).
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        let want = ctx.batch_size.max(1);
        let rows: Vec<Tuple> = std::iter::from_fn(|| self.next(ctx)).take(want).collect();
        if rows.is_empty() {
            return None;
        }
        Some(Chunk::dense(Arc::new(DataChunk::from_rows(
            self.schema(),
            &rows,
        ))))
    }

    /// Morsel decomposition: if this subtree is a partitionable
    /// pipeline (a non-blocking chain over a single source leaf),
    /// return the morsels that cover its input exactly, sized near
    /// `target_rows` input tuples each. Leaves choose the unit (rows
    /// for memory sources; whole disk extents for paged tables, so
    /// parallel cold-scan I/O classifies identically to serial);
    /// streaming wrappers (filter, project) delegate to their child.
    ///
    /// `None` (the default) means the subtree cannot be partitioned and
    /// parallel consumers fall back to serial execution — which is
    /// always ledger-identical.
    fn morsels(&self, _target_rows: usize) -> Option<Vec<Morsel>> {
        None
    }

    /// Build a fresh, unopened copy of this pipeline restricted to one
    /// morsel of its input. Running every morsel's clone to completion
    /// and concatenating the outputs in morsel order reproduces this
    /// operator's serial output stream and charges, exactly.
    ///
    /// Must return `Some` for every morsel produced by
    /// [`Operator::morsels`], and `None` whenever `morsels` does.
    fn clone_morsel(&self, _morsel: &Morsel) -> Option<BoxedOp> {
        None
    }
}

/// A boxed operator (plan node).
pub type BoxedOp = Box<dyn Operator>;

/// Drain `child` to exhaustion as rows, invoking `consume` on each
/// non-empty run (blocking operators that materialize their input —
/// hash build, sort — use this; `consume` may move the rows out).
///
/// Under [`ExecCtx::columnar`] the child streams chunks that are
/// materialized here, at the pipeline breaker; otherwise it is pulled
/// tuple-at-a-time through [`Operator::next`]. Either way `consume`
/// observes the same rows in the same order and the ledger receives the
/// same charges.
pub(crate) fn drain_rows(
    child: &mut dyn Operator,
    ctx: &mut ExecCtx,
    mut consume: impl FnMut(&mut ExecCtx, &mut Vec<Tuple>),
) {
    let mut rows = Vec::new();
    if ctx.columnar {
        drain_chunks(child, ctx, |ctx, chunk| {
            rows.clear();
            chunk.to_tuples(&mut rows);
            consume(ctx, &mut rows);
        });
    } else {
        while let Some(t) = child.next(ctx) {
            rows.clear();
            rows.push(t);
            consume(ctx, &mut rows);
        }
    }
}

/// Drain `child` to exhaustion through the columnar path, invoking
/// `consume` on each non-empty chunk (blocking operators use this when
/// [`ExecCtx::columnar`] is set).
pub(crate) fn drain_chunks(
    child: &mut dyn Operator,
    ctx: &mut ExecCtx,
    mut consume: impl FnMut(&mut ExecCtx, &Chunk),
) {
    while let Some(chunk) = child.next_chunk(ctx) {
        if !chunk.is_empty() {
            consume(ctx, &chunk);
        }
    }
}
