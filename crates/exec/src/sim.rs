//! Virtual-time executor: a discrete-event twin of the parallel runtime.
//!
//! The paper's evaluation ran on a 2×18-core Xeon; several of its results
//! (Figures 7, 8, 11, Table 1) are *shapes produced by parallelism* — how
//! throughput scales when many tree nodes can execute concurrently. On a
//! small host those shapes are truncated by the physical core count, so this
//! module replays the exact dataflow schedule of a module under a
//! configurable **virtual machine**: `n_workers` virtual execution threads
//! and a per-op cost model. Values are computed for real (so control flow
//! and dynamic models behave identically); only *time* is simulated.
//!
//! The virtual machine is a **FIFO model**, and stays one: a FIFO ready
//! queue, workers that pick the front task as they become free,
//! dependency-count readiness, and frame spawning for `Invoke`/`Cond` —
//! the paper's Figure 4, every node through the queue. The output is the
//! virtual makespan, from which the harness derives paper-style throughput
//! numbers.
//!
//! It deliberately does not reproduce the real executor's hot path:
//! spawn-time prelude publishing of `Input`/`Const` nodes, batched queue
//! transfer, and above all the work-first continuations that keep a
//! finished op's first ready consumer on the finishing worker, so that the
//! real queue carries only the surplus of each fork (see the
//! [`crate::executor`] docs). Those change *constants* and, where workers
//! are scarcer than the dataflow is wide, the order in which ready work
//! starts; they do not change the dataflow, and the virtual-machine results
//! are parallelism *shapes*. When absolute agreement with the real executor
//! matters, derive [`CostModel`]'s `dispatch_ns`/`frame_ns` from a profile
//! of the current runtime (the calibration constructor) rather than the
//! defaults.

use crate::cache::{call_path, BackpropCache, CacheKey};
use crate::error::ExecError;
use crate::kernel::{self, KernelCtx};
use crate::params::{GradStore, ParamStore};
use crate::path::PathKey;
use crate::plan::ModulePlan;
use crate::stats::ExecStats;
use rdg_graph::{GraphRef, NodeId, OpKind, PortRef};
use rdg_tensor::Tensor;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Per-op cost model for the virtual machine.
///
/// Cost = `dispatch_ns` (scheduling/kernel-launch overhead, the framework
/// tax every op pays) + work-dependent time. Work time is estimated from
/// the op's output/input element counts at `elem_ns` per element, with
/// matmul-class ops additionally charged per multiply-accumulate. A
/// calibration constructor can derive the constants from the real
/// executor's kernel profile.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Fixed per-op dispatch overhead, nanoseconds.
    pub dispatch_ns: f64,
    /// Per-element streaming cost, nanoseconds.
    pub elem_ns: f64,
    /// Per-multiply-accumulate cost for matmul/bilinear, nanoseconds.
    pub mac_ns: f64,
    /// Extra cost of spawning a frame (InvokeOp setup), nanoseconds.
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
    /// Cost of one op execution, in virtual nanoseconds.
    pub fn op_cost(&self, op: &OpKind, inputs: &[Tensor], outputs: &[Tensor]) -> f64 {
        let out_elems: usize = outputs.iter().map(|t| t.numel()).sum();
        let in_elems: usize = inputs.iter().map(|t| t.numel()).sum();
        let work = match op {
            OpKind::MatMul | OpKind::MatMulAT | OpKind::MatMulBT => {
                // [m,k]·[k,n]: m·k·n MACs.
                let k = match op {
                    OpKind::MatMul => inputs[0].shape().as_matrix().map(|(_, k)| k),
                    OpKind::MatMulAT => inputs[0].shape().as_matrix().map(|(k, _)| k),
                    OpKind::MatMulBT => inputs[0].shape().as_matrix().map(|(_, k)| k),
                    _ => unreachable!(),
                }
                .unwrap_or(1);
                (out_elems * k) as f64 * self.mac_ns
            }
            OpKind::Bilinear | OpKind::BilinearGradX | OpKind::BilinearGradV => {
                // k slices of m×m bilinear forms per row.
                let v = &inputs[1];
                let macs = if v.rank() == 3 {
                    let d = v.shape().dims();
                    d[0] * d[1] * d[2]
                } else {
                    in_elems
                };
                macs as f64 * self.mac_ns
            }
            _ => (in_elems + out_elems) as f64 * self.elem_ns,
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
    /// Total ops executed.
    pub ops: u64,
    /// Total frames spawned.
    pub frames: u64,
    /// Sum of op costs (single-worker lower bound), nanoseconds.
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

struct SimFrame {
    gref: GraphRef,
    path: PathKey,
    args: Vec<Tensor>,
    values: Vec<Option<Vec<Tensor>>>,
    pending: Vec<u32>,
    nodes_left: usize,
    parent: Option<(usize, NodeId)>, // (frame index, node)
    depth: u32,
}

/// The virtual-time executor.
pub struct SimExecutor {
    /// Number of virtual workers (the paper's testbed: 36).
    pub n_workers: usize,
    /// Per-op cost model.
    pub cost: CostModel,
}

#[derive(PartialEq)]
struct FloatOrd(f64);
impl Eq for FloatOrd {}
impl PartialOrd for FloatOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl SimExecutor {
    /// Creates a virtual machine with `n_workers` workers.
    pub fn new(n_workers: usize) -> Self {
        SimExecutor {
            n_workers: n_workers.max(1),
            cost: CostModel::default(),
        }
    }

    /// Runs the module once, returning outputs plus virtual-time metrics.
    ///
    /// Training mode is selected by passing `grads`/`cache` (as in the real
    /// executor).
    pub fn run(
        &self,
        plan: &Arc<ModulePlan>,
        params: &Arc<ParamStore>,
        feeds: Vec<Tensor>,
        grads: Option<&GradStore>,
        cache: Option<&BackpropCache>,
    ) -> Result<SimResult, ExecError> {
        let module = &plan.module;
        let stats = ExecStats::new();
        let mut frames: Vec<SimFrame> = Vec::new();
        // Ready queue of (frame, node) with the virtual time it became ready.
        let mut ready: VecDeque<(usize, NodeId, f64)> = VecDeque::new();
        // Worker availability times (min-heap).
        let mut workers: BinaryHeap<Reverse<FloatOrd>> = (0..self.n_workers)
            .map(|_| Reverse(FloatOrd(0.0)))
            .collect();
        let mut ops = 0u64;
        let mut n_frames = 0u64;
        let mut total_work = 0.0f64;
        let mut makespan = 0.0f64;
        let mut result: Option<Vec<Tensor>> = None;

        let spawn = |frames: &mut Vec<SimFrame>,
                     ready: &mut VecDeque<(usize, NodeId, f64)>,
                     gref: GraphRef,
                     path: PathKey,
                     args: Vec<Tensor>,
                     parent: Option<(usize, NodeId)>,
                     depth: u32,
                     now: f64,
                     n_frames: &mut u64| {
            let gplan = plan.plan(gref);
            let g = module.graph(gref);
            *n_frames += 1;
            let fidx = frames.len();
            frames.push(SimFrame {
                gref,
                path,
                args,
                values: vec![None; g.len()],
                pending: gplan.pending.clone(),
                nodes_left: g.len(),
                parent,
                depth,
            });
            for &s in &gplan.sources {
                ready.push_back((fidx, s, now));
            }
            fidx
        };

        spawn(
            &mut frames,
            &mut ready,
            GraphRef::Main,
            PathKey::root(),
            feeds,
            None,
            0,
            0.0,
            &mut n_frames,
        );

        // Deliveries that finish at a known virtual time but whose dependent
        // bookkeeping runs immediately: (frame, node, outputs, finish_time).
        let mut pending_completions: Vec<(usize, NodeId, Vec<Tensor>, f64)> = Vec::new();

        while !ready.is_empty() || !pending_completions.is_empty() {
            // Apply any completion whose effects are due.
            if let Some((fidx, node, outs, t_done)) = pending_completions.pop() {
                self.complete(
                    plan,
                    module,
                    &mut frames,
                    &mut ready,
                    fidx,
                    node,
                    outs,
                    t_done,
                    grads,
                    cache,
                    &mut result,
                    &mut makespan,
                    &mut pending_completions,
                    &mut n_frames,
                )?;
                continue;
            }
            let (fidx, node, t_ready) = ready.pop_front().expect("nonempty");
            // Earliest-free worker picks up the task.
            let Reverse(FloatOrd(w_free)) = workers.pop().expect("worker");
            let start = w_free.max(t_ready);

            // Execute the node for real.
            let gref = frames[fidx].gref;
            let g = module.graph(gref);
            let n = g.node(node);
            let mut inputs = Vec::with_capacity(n.inputs.len());
            for &p in &n.inputs {
                let v = frames[fidx].values[p.node.0 as usize]
                    .as_ref()
                    .ok_or_else(|| ExecError::internal("sim: input not ready"))?;
                inputs.push(v[p.port as usize].clone());
            }
            ops += 1;

            match n.op.clone() {
                OpKind::Invoke { sub, site, .. } => {
                    let t_done = start + self.cost.frame_ns;
                    total_work += self.cost.frame_ns;
                    workers.push(Reverse(FloatOrd(t_done)));
                    let path = call_path(cache, &frames[fidx].path, site);
                    let depth = frames[fidx].depth + 1;
                    spawn(
                        &mut frames,
                        &mut ready,
                        GraphRef::Sub(sub),
                        path,
                        inputs,
                        Some((fidx, node)),
                        depth,
                        t_done,
                        &mut n_frames,
                    );
                }
                OpKind::Cond {
                    sub_then,
                    sub_else,
                    site_then,
                    site_else,
                    n_then_in,
                    ..
                } => {
                    let t_done = start + self.cost.frame_ns;
                    total_work += self.cost.frame_ns;
                    workers.push(Reverse(FloatOrd(t_done)));
                    let pred = inputs[0].as_i32_scalar().map_err(|e| ExecError::Kernel {
                        graph: module.graph_name(gref),
                        node: n.name.clone(),
                        source: e,
                    })?;
                    let mut rest = inputs.split_off(1);
                    let else_args = rest.split_off(n_then_in as usize);
                    let (sub, site, args) = if pred != 0 {
                        (sub_then, site_then, rest)
                    } else {
                        (sub_else, site_else, else_args)
                    };
                    let path = call_path(cache, &frames[fidx].path, site);
                    let depth = frames[fidx].depth + 1;
                    spawn(
                        &mut frames,
                        &mut ready,
                        GraphRef::Sub(sub),
                        path,
                        args,
                        Some((fidx, node)),
                        depth,
                        t_done,
                        &mut n_frames,
                    );
                }
                OpKind::FwdValue { of } | OpKind::FwdZeros { of } => {
                    let zeros = matches!(n.op, OpKind::FwdZeros { .. });
                    let out = self.read_fwd(module, cache, &frames[fidx], of, zeros)?;
                    let cost = self.cost.dispatch_ns;
                    total_work += cost;
                    let t_done = start + cost;
                    workers.push(Reverse(FloatOrd(t_done)));
                    pending_completions.push((fidx, node, vec![out], t_done));
                }
                ref op => {
                    let kctx = KernelCtx {
                        args: &frames[fidx].args,
                        params,
                        grads,
                        stats: &stats,
                    };
                    let outs = kernel::execute(op, inputs.clone(), &kctx).map_err(|e| {
                        ExecError::Kernel {
                            graph: module.graph_name(gref),
                            node: n.name.clone(),
                            source: e,
                        }
                    })?;
                    let cost = self.cost.op_cost(op, &inputs, &outs);
                    total_work += cost;
                    let t_done = start + cost;
                    workers.push(Reverse(FloatOrd(t_done)));
                    pending_completions.push((fidx, node, outs, t_done));
                }
            }
        }

        let outputs = result.ok_or_else(|| ExecError::internal("sim: run never completed"))?;
        Ok(SimResult {
            outputs,
            virtual_ns: makespan,
            ops,
            frames: n_frames,
            total_work_ns: total_work,
        })
    }

    fn read_fwd(
        &self,
        module: &rdg_graph::Module,
        cache: Option<&BackpropCache>,
        frame: &SimFrame,
        of: PortRef,
        zeros: bool,
    ) -> Result<Tensor, ExecError> {
        let fwd_gref = match frame.gref {
            GraphRef::Sub(id) => GraphRef::Sub(
                module
                    .subgraph(id)
                    .grad_of
                    .ok_or_else(|| ExecError::internal("sim: FwdValue in non-gradient graph"))?,
            ),
            GraphRef::Main => return Err(ExecError::internal("sim: FwdValue in main graph")),
        };
        let cache = cache.ok_or_else(|| ExecError::internal("sim: FwdValue outside training"))?;
        let key = CacheKey {
            gref: fwd_gref,
            path: frame.path.clone(),
            node: of.node,
            port: of.port,
        };
        if zeros {
            let shape = cache.shapes.get(&key).ok_or_else(|| ExecError::CacheMiss {
                msg: format!("sim: shape of {of}"),
            })?;
            Ok(Tensor::zeros(shape))
        } else {
            cache.values.get(&key).ok_or_else(|| ExecError::CacheMiss {
                msg: format!("sim: value of {of}"),
            })
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn complete(
        &self,
        plan: &Arc<ModulePlan>,
        module: &rdg_graph::Module,
        frames: &mut Vec<SimFrame>,
        ready: &mut VecDeque<(usize, NodeId, f64)>,
        mut fidx: usize,
        mut node: NodeId,
        mut outs: Vec<Tensor>,
        t_done: f64,
        grads: Option<&GradStore>,
        cache: Option<&BackpropCache>,
        result: &mut Option<Vec<Tensor>>,
        makespan: &mut f64,
        _pending: &mut [(usize, NodeId, Vec<Tensor>, f64)],
        _n_frames: &mut u64,
    ) -> Result<(), ExecError> {
        let _ = grads;
        loop {
            let gref = frames[fidx].gref;
            let gplan = plan.plan(gref);
            if let Some(cache) = cache {
                let ni = node.0 as usize;
                if gplan.keep_value[ni] {
                    for (port, t) in outs.iter().enumerate() {
                        cache.values.insert(
                            CacheKey {
                                gref,
                                path: frames[fidx].path.clone(),
                                node,
                                port: port as u16,
                            },
                            t.clone(),
                        );
                    }
                }
                if gplan.keep_shape[ni] {
                    for (port, t) in outs.iter().enumerate() {
                        cache.shapes.insert(
                            CacheKey {
                                gref,
                                path: frames[fidx].path.clone(),
                                node,
                                port: port as u16,
                            },
                            t.shape().clone(),
                        );
                    }
                }
            }
            frames[fidx].values[node.0 as usize] = Some(outs);
            for ci in 0..gplan.consumers[node.0 as usize].len() {
                let c = gplan.consumers[node.0 as usize][ci];
                let p = &mut frames[fidx].pending[c.0 as usize];
                *p -= 1;
                if *p == 0 {
                    ready.push_back((fidx, c, t_done));
                }
            }
            frames[fidx].nodes_left -= 1;
            if frames[fidx].nodes_left != 0 {
                return Ok(());
            }
            // Frame complete.
            let g = module.graph(gref);
            let mut fouts = Vec::with_capacity(g.outputs.len());
            for &p in &g.outputs {
                let v = frames[fidx].values[p.node.0 as usize]
                    .as_ref()
                    .ok_or_else(|| ExecError::internal("sim: output missing"))?;
                fouts.push(v[p.port as usize].clone());
            }
            // Free the frame's big buffers (values stay only in the cache).
            match frames[fidx].parent {
                None => {
                    *makespan = makespan.max(t_done);
                    *result = Some(fouts);
                    return Ok(());
                }
                Some((pfidx, pnode)) => {
                    frames[fidx].values.clear();
                    fidx = pfidx;
                    node = pnode;
                    outs = fouts;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_graph::ModuleBuilder;
    use rdg_tensor::DType;

    fn fib_module(n: i32) -> rdg_graph::Module {
        let mut mb = ModuleBuilder::new();
        let h = mb.declare_subgraph("fib", &[DType::I32], &[DType::I32]);
        mb.define_subgraph(&h, |b| {
            let n = b.input(0)?;
            let one = b.const_i32(1);
            let p = b.ile(n, one)?;
            let out = b.cond1(
                p,
                DType::I32,
                |b| b.identity(n),
                |b| {
                    let one = b.const_i32(1);
                    let two = b.const_i32(2);
                    let a = b.isub(n, one)?;
                    let bb = b.isub(n, two)?;
                    let fa = b.invoke(&h, &[a])?[0];
                    let fb = b.invoke(&h, &[bb])?[0];
                    b.iadd(fa, fb)
                },
            )?;
            Ok(vec![out])
        })
        .unwrap();
        let s = mb.const_i32(n);
        let out = mb.invoke(&h, &[s]).unwrap();
        mb.set_outputs(&[out[0]]).unwrap();
        mb.finish().unwrap()
    }

    #[test]
    fn sim_computes_correct_values() {
        let plan = ModulePlan::new(Arc::new(fib_module(10))).unwrap();
        let params = Arc::new(ParamStore::from_module(&plan.module));
        let sim = SimExecutor::new(4);
        let r = sim.run(&plan, &params, vec![], None, None).unwrap();
        assert_eq!(r.outputs[0].as_i32_scalar().unwrap(), 55);
        assert!(r.virtual_ns > 0.0);
        assert!(r.frames > 100);
    }

    #[test]
    fn more_workers_never_slower() {
        let plan = ModulePlan::new(Arc::new(fib_module(12))).unwrap();
        let params = Arc::new(ParamStore::from_module(&plan.module));
        let t1 = SimExecutor::new(1)
            .run(&plan, &params, vec![], None, None)
            .unwrap();
        let t8 = SimExecutor::new(8)
            .run(&plan, &params, vec![], None, None)
            .unwrap();
        let t64 = SimExecutor::new(64)
            .run(&plan, &params, vec![], None, None)
            .unwrap();
        assert!(t8.virtual_ns <= t1.virtual_ns, "8 workers beat 1");
        assert!(t64.virtual_ns <= t8.virtual_ns, "64 workers beat 8");
        // Same computation, same work.
        assert!((t1.total_work_ns - t64.total_work_ns).abs() < 1.0);
        // fib is massively parallel: expect real speedup at 8 workers.
        assert!(
            t1.virtual_ns / t8.virtual_ns > 2.0,
            "expected >2x speedup, got {:.2}",
            t1.virtual_ns / t8.virtual_ns
        );
    }

    #[test]
    fn single_worker_makespan_equals_total_work() {
        let plan = ModulePlan::new(Arc::new(fib_module(8))).unwrap();
        let params = Arc::new(ParamStore::from_module(&plan.module));
        let r = SimExecutor::new(1)
            .run(&plan, &params, vec![], None, None)
            .unwrap();
        assert!(
            (r.virtual_ns - r.total_work_ns).abs() / r.total_work_ns < 1e-9,
            "one worker serializes all work"
        );
        assert!((r.parallelism() - 1.0).abs() < 1e-9);
    }
}
