//! Virtual-time executor: a virtual clock over the real `execute_task`.
//!
//! The paper's evaluation ran on a 2×18-core Xeon; several of its results
//! (Figures 7, 8, 11, Table 1) are *shapes produced by parallelism* — how
//! throughput scales when many tree nodes can execute concurrently. On a
//! small host those shapes are truncated by the physical core count, so this
//! module runs a module on a configurable **virtual machine**: `n_workers`
//! virtual execution threads and a per-op [`CostModel`].
//!
//! **What is real: everything but time.** [`SimExecutor::run`] is a
//! single-threaded driver of the production interpreter, the way
//! `serve::test_support::ScriptedServe` runs the serve loop's own wave
//! step on a virtual clock. It
//! starts the run on an executor that has no worker threads and passes
//! every task to `execute_task` itself, so frames, `Cond` branch
//! selection, `Invoke`, prelude publishing, path keys, backprop-cache
//! traffic, gradient accumulation, error delivery and the run's
//! [`ExecStats`](crate::ExecStats) are produced by the one code path the
//! worker pool runs. There is no second interpreter to keep true; a training
//! run works because `grads`/`cache` are simply handed to the run.
//!
//! **What is modelled: FIFO list scheduling.** The paper's Figure 4, every
//! node through the queue: a task enters a virtual FIFO at the virtual time
//! its last producer finished; the earliest-free of `n_workers` workers
//! takes the front task at `max(worker free, task ready)` and holds it for
//! the task's [`CostModel`] cost. The continuation `execute_task` hands back
//! (the consumer a real worker would run next without a queue round-trip)
//! and the surplus it pushed to the ready queue are stamped alike and join
//! the FIFO, so the real executor's work-first rule, batched claims and
//! hand-back — which change constants and, where workers are scarcer than
//! the dataflow is wide, the order in which ready work starts — stay out of
//! the model. Only what reaches `execute_task` is priced. A frame's prelude
//! — `Input`, `Const`, `Param`, `FwdValue`, `FwdZeros`: every zero-input
//! node that needs no kernel — is resolved while the frame spawns, inside
//! the spawning task (whose `frame_ns` is the price of that), and costs
//! nothing of its own; a parameter or backprop-cache read is a pointer copy,
//! not a dispatch. The output is the virtual makespan, from which the
//! harness derives paper-style throughput numbers: parallelism *shapes*, not
//! absolute times.

use crate::cache::BackpropCache;
use crate::error::ExecError;
use crate::executor::{execute_task, Executor, Task};
use crate::params::{GradStore, ParamStore};
use crate::plan::ModulePlan;
use rdg_graph::OpKind;
use rdg_tensor::Tensor;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Per-op cost model for the virtual machine.
///
/// Cost = `dispatch_ns` (scheduling/kernel-launch overhead, the framework
/// tax every op pays) + work-dependent time. Work time is estimated from
/// the op's input element counts at `elem_ns` per element, with
/// matmul-class ops charged per multiply-accumulate instead. A call site
/// (`Invoke`, `Cond`) costs `frame_ns`.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Fixed per-op dispatch overhead, nanoseconds.
    pub dispatch_ns: f64,
    /// Per-element streaming cost, nanoseconds.
    pub elem_ns: f64,
    /// Per-multiply-accumulate cost for matmul/bilinear, nanoseconds.
    pub mac_ns: f64,
    /// Cost of spawning a frame (InvokeOp setup), nanoseconds.
    pub frame_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Rough CPU-like constants: ~1 µs dispatch, 1 ns/element streaming,
        // 0.5 ns/MAC (2 FLOP/cycle-ish), 2 µs frame setup.
        CostModel {
            dispatch_ns: 1_000.0,
            elem_ns: 1.0,
            mac_ns: 0.5,
            frame_ns: 2_000.0,
        }
    }
}

impl CostModel {
    /// Cost of one execution of `op` on `inputs`, in virtual nanoseconds.
    pub fn op_cost(&self, op: &OpKind, inputs: &[Tensor]) -> f64 {
        if op.is_control_flow() {
            return self.frame_ns;
        }
        let numel = |i: usize| inputs.get(i).map_or(0, Tensor::numel);
        let work = match op {
            OpKind::MatMul | OpKind::MatMulAT | OpKind::MatMulBT | OpKind::GradSinkOuter { .. } => {
                // m·k·n MACs: each element of the first operand meets every
                // output column, one per column of B (row, for ABᵀ). The
                // factored sink is priced as the `MatMulAT` it replaces.
                let n = match inputs.get(1).and_then(|b| b.shape().as_matrix()) {
                    Some((rows, _)) if matches!(op, OpKind::MatMulBT) => rows,
                    Some((_, cols)) => cols,
                    None => 1,
                };
                (numel(0) * n) as f64 * self.mac_ns
            }
            OpKind::Bilinear | OpKind::BilinearGradX | OpKind::BilinearGradV
                if inputs.get(1).is_some_and(|v| v.rank() == 3) =>
            {
                // k slices of m×m bilinear forms per row.
                numel(1) as f64 * self.mac_ns
            }
            _ => inputs.iter().map(Tensor::numel).sum::<usize>() as f64 * self.elem_ns,
        };
        self.dispatch_ns + work
    }
}

/// Result of a virtual-time run.
pub struct SimResult {
    /// Main-graph outputs (computed with real kernels).
    pub outputs: Vec<Tensor>,
    /// Virtual makespan in nanoseconds.
    pub virtual_ns: f64,
    /// Total ops executed (the run's `ops_executed`).
    pub ops: u64,
    /// Total frames spawned (the run's `frames_spawned`).
    pub frames: u64,
    /// Sum of task costs (single-worker lower bound), nanoseconds.
    pub total_work_ns: f64,
}

impl SimResult {
    /// Virtual makespan in seconds.
    pub fn seconds(&self) -> f64 {
        self.virtual_ns / 1e9
    }

    /// Parallel speedup achieved by the virtual machine: work / makespan.
    pub fn parallelism(&self) -> f64 {
        if self.virtual_ns > 0.0 {
            self.total_work_ns / self.virtual_ns
        } else {
            0.0
        }
    }
}

/// The virtual-time executor.
pub struct SimExecutor {
    /// Number of virtual workers (the paper's testbed: 36).
    pub n_workers: usize,
    /// Per-op cost model.
    pub cost: CostModel,
}

impl SimExecutor {
    /// Creates a virtual machine with `n_workers` workers.
    pub fn new(n_workers: usize) -> Self {
        SimExecutor {
            n_workers: n_workers.max(1),
            cost: CostModel::default(),
        }
    }

    /// Runs the module once on the calling thread, returning outputs plus
    /// virtual-time metrics.
    ///
    /// Training mode is selected by passing `grads`/`cache` (as in
    /// [`Executor::run`]).
    pub fn run(
        &self,
        plan: &Arc<ModulePlan>,
        params: &Arc<ParamStore>,
        feeds: Vec<Tensor>,
        grads: Option<Arc<GradStore>>,
        cache: Option<Arc<BackpropCache>>,
    ) -> Result<SimResult, ExecError> {
        let exec = Executor::with_pool(0);
        let (handle, root) = exec.start(plan, params, feeds, grads, cache, false)?;
        // The virtual FIFO: tasks with the virtual time they became ready.
        // No thread drains the executor's queue, so after a spawn or a task
        // it holds exactly what that step made ready beyond the one task
        // handed back; both join the FIFO with the same stamp.
        let mut ready: VecDeque<(Task, f64)> = VecDeque::new();
        let admit = |ready: &mut VecDeque<(Task, f64)>, first: Option<Task>, at: f64| {
            let surplus = std::iter::from_fn(|| exec.queue.try_pop());
            ready.extend(first.into_iter().chain(surplus).map(|t| (t, at)));
        };
        admit(&mut ready, root, 0.0);
        // When each worker is next free, earliest first. Times are never
        // negative, and non-negative floats order like their bit patterns.
        let mut free = BinaryHeap::from(vec![Reverse(0f64.to_bits()); self.n_workers]);
        let mut total_work_ns = 0.0f64;
        let mut virtual_ns = 0.0f64;
        while let Some((task, ready_at)) = ready.pop_front() {
            let Reverse(worker_free) = free.pop().expect("n_workers >= 1");
            // Priced in a block of its own: the peeked tensors must be gone
            // before the task runs, or its kernel could not reuse a buffer
            // it is the last reader of.
            let cost = {
                let (op, inputs) = task.peek();
                self.cost.op_cost(op, &inputs)
            };
            let t_done = f64::from_bits(worker_free).max(ready_at) + cost;
            free.push(Reverse(t_done.to_bits()));
            total_work_ns += cost;
            virtual_ns = virtual_ns.max(t_done);
            admit(&mut ready, execute_task(task), t_done);
        }
        if !handle.is_finished() {
            return Err(ExecError::internal("sim: run never completed"));
        }
        let stats = handle.stats().snapshot();
        Ok(SimResult {
            outputs: handle.wait()?,
            virtual_ns,
            ops: stats.ops_executed,
            frames: stats.frames_spawned,
            total_work_ns,
        })
    }
}
