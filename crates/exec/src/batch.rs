//! Batch fusion planning: which nodes may stack, and how.
//!
//! Every run's ready tasks go through one drain (`crate::executor`): a task
//! whose node the plan marks *stackable* is set aside on its worker's
//! agenda under its [`GroupKey`], and once the worker has no scalar work
//! left it runs the fullest group as one stacked kernel call. Because the
//! key names the plan, graph and node but not the run, members come from
//! sibling frames of one tree, from the instances of a training minibatch
//! and from concurrent serving requests alike. This module holds the pure
//! half of that:
//!
//! * [`FuseKind`] — how a batchable op stacks: by rows around a shared
//!   right-hand operand, by columns around a shared left-hand one, or, for
//!   a rank-1 gradient sink, both operands by rows into one update of the
//!   parameter's accumulator.
//! * [`fuse_kind`] — plan-build-time batchability classification, recorded
//!   per node in `ExecutionPlan::fuse`; the plan's size rule on top of it
//!   decides `ExecutionPlan::stackable`.
//! * [`plan_groups`] — deterministic FIFO-preserving group formation over a
//!   list of keys: the executor splits a group by runtime signature with
//!   it, and the serving twin (`ScriptedServe`) models its waves' groups
//!   with it.
//! * Row/column stack-and-scatter tensor helpers used by the executor's
//!   stacked call.
//!
//! The kernels in `rdg_tensor` compute every output row (for the row-stacked
//! ops) or every output column block (for `MatMulAT`) independently and in
//! the same flop order whether invoked on one instance or on a stack, and
//! `outer_acc` adds stacked sink rows in row order, so a fused call is
//! *bit-for-bit* identical to the scalar calls it replaces, run in member
//! order — the same argument that makes `crates/fold`'s level grouping
//! exact.

use std::collections::HashMap;
use std::hash::Hash;

use rdg_graph::{GraphRef, NodeId, OpKind};
use rdg_tensor::{Tensor, TensorError};

/// Clamp on fused group size (members per stacked kernel call).
///
/// Bounds stacked-tensor size and how long one call holds its members'
/// continuations.
pub const MAX_GROUP: usize = 16;

/// How a fusable op's operands stack across group members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseKind {
    /// Stack operand 0 by rows, share operand 1, scatter output rows.
    ///
    /// `MatMul`, `MatMulBT`, `AddBias`, and `Bilinear` all compute each
    /// output row from the matching input row alone, so members' inputs can
    /// be concatenated by rows around one shared second operand (the weight
    /// or bias parameter).
    RowsShared,
    /// Share operand 0, stack operand 1 by columns, scatter output columns.
    ///
    /// `MatMulAT` (`AᵀB`) sums over rows of both operands, so row-stacking
    /// would mix members; stacking `B` by columns against a shared `A`
    /// keeps every member's accumulation order untouched.
    ColsShared,
    /// Stack both operands by rows; no operand is shared, the parameter's
    /// gradient accumulator is.
    ///
    /// `GradSinkOuter` adds `aᵀ·dy` to its parameter's gradient. Members'
    /// `a` rows and `dy` rows stack into one `aᵀ·dy` over all of them,
    /// which adds each element's terms in member order: the bits of the
    /// members' one-by-one updates in that order.
    SinkRows,
}

impl FuseKind {
    /// The operand index of the input stacked first (by rows or columns).
    pub(crate) fn stacked(self) -> usize {
        match self {
            FuseKind::RowsShared | FuseKind::SinkRows => 0,
            FuseKind::ColsShared => 1,
        }
    }

    /// The operand index of the input every member shares, if one is.
    pub(crate) fn shared(self) -> Option<usize> {
        match self {
            FuseKind::RowsShared => Some(1),
            FuseKind::ColsShared => Some(0),
            FuseKind::SinkRows => None,
        }
    }
}

/// Plan-build-time batchability classification for one graph node.
///
/// Returns `None` for ops that are structural, not row/column separable, or
/// not worth fusing. Elementwise ops are deliberately excluded: they are
/// memory-bound and fusing them buys nothing over the scalar path. Whether
/// a batchable node actually stacks is the plan's size rule
/// (`ExecutionPlan::stackable`).
pub fn fuse_kind(op: &OpKind) -> Option<FuseKind> {
    // Delegates to the static analyzer's classification so the lint-time
    // batchability prediction and the runtime fuse decision can never
    // drift apart: predicted-eligible ⊇ fused holds by construction.
    match rdg_graph::analyze::fuse_class(op)? {
        rdg_graph::analyze::FuseClass::RowsShared => Some(FuseKind::RowsShared),
        rdg_graph::analyze::FuseClass::ColsShared => Some(FuseKind::ColsShared),
        rdg_graph::analyze::FuseClass::SinkRows => Some(FuseKind::SinkRows),
    }
}

/// Static identity of a fusable task: same plan, same graph, same node ⇒
/// same op, same param wiring, same batchability signature.
///
/// `plan` is the `Arc::as_ptr` of the run's `ModulePlan`, so two runs group
/// only when they execute the *same compiled plan object* — which pins the
/// op kind and the `ParamId` operands without re-deriving either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// `Arc::as_ptr` of the owning `ModulePlan`.
    pub plan: usize,
    /// Graph (main or subgraph) the node lives in.
    pub gref: GraphRef,
    /// Node within that graph.
    pub node: NodeId,
}

/// Deterministic FIFO-preserving group formation.
///
/// Given the group key of each popped task in pop order (`None` = not
/// fusable), returns index groups ordered by first occurrence. Unfusable
/// tasks become singleton groups in place. A key's group is chunked at
/// `max_group`: the clamp bounds stacked-tensor size and keeps worst-case
/// latency of a fused call close to scalar.
///
/// This function is pure; the deterministic serving twin models a wave's
/// groups with it, and the executor splits a group by runtime signature
/// with it.
pub fn plan_groups<K: Eq + Hash + Copy>(keys: &[Option<K>], max_group: usize) -> Vec<Vec<usize>> {
    let max_group = max_group.max(1);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut open: HashMap<K, usize> = HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        match key {
            None => groups.push(vec![i]),
            Some(k) => match open.get(k) {
                Some(&g) if groups[g].len() < max_group => groups[g].push(i),
                _ => {
                    open.insert(*k, groups.len());
                    groups.push(vec![i]);
                }
            },
        }
    }
    groups
}

fn as_mat<'t>(t: &'t Tensor, ctx: &'static str) -> Result<(usize, usize, &'t [f32]), TensorError> {
    let (r, c) = t.shape().as_matrix().ok_or(TensorError::RankMismatch {
        expected: 2,
        got: t.rank(),
        ctx,
    })?;
    Ok((r, c, t.f32s()?))
}

/// Concatenates members' matrices by rows into one `[Σrᵢ, c]` tensor.
///
/// Every part must be f32 with the same column count (rank-1 parts count as
/// one row). Returns the stacked tensor and each part's row count for the
/// scatter step.
pub(crate) fn stack_rows(parts: &[&Tensor]) -> Result<(Tensor, Vec<usize>), TensorError> {
    let (_, c, _) = as_mat(parts[0], "batch stack_rows")?;
    let mut rows = Vec::with_capacity(parts.len());
    let mut total = 0usize;
    for p in parts {
        let (r, pc, _) = as_mat(p, "batch stack_rows")?;
        if pc != c {
            return Err(TensorError::ShapeMismatch {
                lhs: parts[0].shape().clone(),
                rhs: p.shape().clone(),
                ctx: "batch stack_rows",
            });
        }
        rows.push(r);
        total += r;
    }
    let mut buf = Vec::with_capacity(total * c);
    for p in parts {
        buf.extend_from_slice(p.f32s()?);
    }
    Ok((Tensor::from_f32([total, c], buf)?, rows))
}

/// Splits a fused `[Σrᵢ, c]` output back into per-member `[rᵢ, c]` tensors.
pub(crate) fn split_rows(fused: &Tensor, rows: &[usize]) -> Result<Vec<Tensor>, TensorError> {
    let (m, c, data) = as_mat(fused, "batch split_rows")?;
    debug_assert_eq!(m, rows.iter().sum::<usize>());
    let mut out = Vec::with_capacity(rows.len());
    let mut off = 0usize;
    for &r in rows {
        out.push(Tensor::from_f32(
            [r, c],
            data[off * c..(off + r) * c].to_vec(),
        )?);
        off += r;
    }
    Ok(out)
}

/// Concatenates members' matrices by columns into one `[r, Σcᵢ]` tensor.
///
/// Every part must be f32 rank-2 with the same row count.
pub(crate) fn stack_cols(parts: &[&Tensor]) -> Result<(Tensor, Vec<usize>), TensorError> {
    let (r, _, _) = as_mat(parts[0], "batch stack_cols")?;
    let mut cols = Vec::with_capacity(parts.len());
    let mut total = 0usize;
    let mut views = Vec::with_capacity(parts.len());
    for p in parts {
        let (pr, pc, pv) = as_mat(p, "batch stack_cols")?;
        if pr != r {
            return Err(TensorError::ShapeMismatch {
                lhs: parts[0].shape().clone(),
                rhs: p.shape().clone(),
                ctx: "batch stack_cols",
            });
        }
        cols.push(pc);
        total += pc;
        views.push((pc, pv));
    }
    let mut buf = Vec::with_capacity(r * total);
    for row in 0..r {
        for &(pc, pv) in &views {
            buf.extend_from_slice(&pv[row * pc..(row + 1) * pc]);
        }
    }
    Ok((Tensor::from_f32([r, total], buf)?, cols))
}

/// Splits a fused `[r, Σcᵢ]` output back into per-member `[r, cᵢ]` tensors.
pub(crate) fn split_cols(fused: &Tensor, cols: &[usize]) -> Result<Vec<Tensor>, TensorError> {
    let (r, total, data) = as_mat(fused, "batch split_cols")?;
    debug_assert_eq!(total, cols.iter().sum::<usize>());
    let mut out = Vec::with_capacity(cols.len());
    let mut off = 0usize;
    for &c in cols {
        let mut buf = Vec::with_capacity(r * c);
        for row in 0..r {
            let base = row * total + off;
            buf.extend_from_slice(&data[base..base + c]);
        }
        out.push(Tensor::from_f32([r, c], buf)?);
        off += c;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_tensor::ops;

    #[test]
    fn fuse_kind_classifies_matmul_family() {
        assert_eq!(fuse_kind(&OpKind::MatMul), Some(FuseKind::RowsShared));
        assert_eq!(fuse_kind(&OpKind::MatMulBT), Some(FuseKind::RowsShared));
        assert_eq!(fuse_kind(&OpKind::AddBias), Some(FuseKind::RowsShared));
        assert_eq!(fuse_kind(&OpKind::Bilinear), Some(FuseKind::RowsShared));
        assert_eq!(fuse_kind(&OpKind::MatMulAT), Some(FuseKind::ColsShared));
        let sink = OpKind::GradSinkOuter {
            param: rdg_graph::ParamId(0),
        };
        assert_eq!(fuse_kind(&sink), Some(FuseKind::SinkRows));
        assert_eq!(fuse_kind(&OpKind::Add), None);
        assert_eq!(fuse_kind(&OpKind::Tanh), None);
        assert_eq!(fuse_kind(&OpKind::Identity), None);
    }

    #[test]
    fn plan_groups_preserves_first_occurrence_order() {
        // keys: a b a c b a  -> groups [0,2,5] [1,4] [3]
        let keys = [Some(1u64), Some(2), Some(1), Some(3), Some(2), Some(1)];
        let groups = plan_groups(&keys, 16);
        assert_eq!(groups, vec![vec![0, 2, 5], vec![1, 4], vec![3]]);
    }

    #[test]
    fn plan_groups_none_keys_are_singletons_in_place() {
        let keys = [Some(7u64), None, Some(7), None];
        let groups = plan_groups(&keys, 16);
        assert_eq!(groups, vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn plan_groups_chunks_at_max_group() {
        let keys = [Some(1u64); 7];
        let groups = plan_groups(&keys, 3);
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
        // max_group of zero is clamped to singletons, not a panic
        assert_eq!(plan_groups(&keys[..2], 0).len(), 2);
    }

    #[test]
    fn stack_rows_round_trips() {
        let a = Tensor::from_f32([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_f32([3], vec![7., 8., 9.]).unwrap(); // rank-1 = one row
        let (fused, rows) = stack_rows(&[&a, &b]).unwrap();
        assert_eq!(fused.shape().dims(), &[3, 3]);
        assert_eq!(rows, vec![2, 1]);
        let parts = split_rows(&fused, &rows).unwrap();
        assert_eq!(parts[0].f32s().unwrap(), a.f32s().unwrap());
        assert_eq!(parts[1].f32s().unwrap(), b.f32s().unwrap());
    }

    #[test]
    fn stack_rows_rejects_col_mismatch() {
        let a = Tensor::from_f32([1, 3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_f32([1, 2], vec![4., 5.]).unwrap();
        assert!(stack_rows(&[&a, &b]).is_err());
    }

    #[test]
    fn stack_cols_round_trips() {
        let a = Tensor::from_f32([2, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_f32([2, 1], vec![5., 6.]).unwrap();
        let (fused, cols) = stack_cols(&[&a, &b]).unwrap();
        assert_eq!(fused.shape().dims(), &[2, 3]);
        assert_eq!(fused.f32s().unwrap(), &[1., 2., 5., 3., 4., 6.]);
        let parts = split_cols(&fused, &cols).unwrap();
        assert_eq!(parts[0].f32s().unwrap(), a.f32s().unwrap());
        assert_eq!(parts[1].f32s().unwrap(), b.f32s().unwrap());
    }

    #[test]
    fn fused_matmul_matches_scalar_bitwise() {
        let w = Tensor::from_f32(
            [3, 2],
            (0..6).map(|i| i as f32 * 0.37 - 1.0).collect::<Vec<_>>(),
        )
        .unwrap();
        let xs: Vec<Tensor> = (0..4)
            .map(|s| {
                Tensor::from_f32(
                    [1, 3],
                    (0..3)
                        .map(|i| ((s * 3 + i) as f32).sin())
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            })
            .collect();
        let scalar: Vec<Tensor> = xs.iter().map(|x| ops::matmul(x, &w).unwrap()).collect();
        let (fused, rows) = stack_rows(&xs.iter().collect::<Vec<_>>()).unwrap();
        let out = ops::matmul(&fused, &w).unwrap();
        let parts = split_rows(&out, &rows).unwrap();
        for (p, s) in parts.iter().zip(&scalar) {
            assert_eq!(
                p.f32s().unwrap(),
                s.f32s().unwrap(),
                "row-stacked matmul must be bit-exact"
            );
        }
    }

    #[test]
    fn fused_matmul_at_matches_scalar_bitwise() {
        let a =
            Tensor::from_f32([3, 2], (0..6).map(|i| (i as f32).cos()).collect::<Vec<_>>()).unwrap();
        let bs: Vec<Tensor> = (0..3)
            .map(|s| {
                Tensor::from_f32(
                    [3, 2],
                    (0..6)
                        .map(|i| ((s * 7 + i) as f32).sin())
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            })
            .collect();
        let scalar: Vec<Tensor> = bs.iter().map(|b| ops::matmul_at(&a, b).unwrap()).collect();
        let (fused, cols) = stack_cols(&bs.iter().collect::<Vec<_>>()).unwrap();
        let out = ops::matmul_at(&a, &fused).unwrap();
        let parts = split_cols(&out, &cols).unwrap();
        for (p, s) in parts.iter().zip(&scalar) {
            assert_eq!(
                p.f32s().unwrap(),
                s.f32s().unwrap(),
                "col-stacked matmul_at must be bit-exact"
            );
        }
    }
}
