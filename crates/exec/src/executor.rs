//! The parallel dataflow executor (paper §4.1, Figure 4).
//!
//! The execution model matches the paper's description of embedded-control-
//! flow frameworks:
//!
//! 1. A run submits the main graph as the **root frame**; nodes with no
//!    unresolved inputs enter the global ready queue.
//! 2. Idle **execution threads** dequeue operations and run their kernels;
//!    when an operation completes, the dependents whose inputs are now all
//!    resolved become runnable. The finishing thread runs the first of them
//!    itself, as it comes off the kernel (*work-first*, what the TensorFlow
//!    executor the paper built on does with one ready successor); only the
//!    rest are enqueued, behind the existing work (FIFO).
//! 3. When an **InvokeOp** is dequeued, its associated SubGraph "is passed
//!    to and processed by the master, similar to step (1)": a child frame is
//!    spawned, born with the values of its source nodes, and what those make
//!    runnable is served by the *same* ready queue and the *same* workers.
//!    The InvokeOp itself completes when the child frame
//!    delivers its outputs — no thread ever blocks waiting, so recursion
//!    depth is bounded by memory, not by threads or stack.
//! 4. Frames form a **tree**, not a stack (paper §4.1.2 "graph execution
//!    stack"): each frame holds a parent link (its return location), and one
//!    frame can have many live children executing concurrently — that is
//!    where the parallel speedup on recursive models comes from.
//! 5. The runtime is **multi-run**: [`Executor::submit`] starts a run
//!    without blocking and returns a [`RunHandle`]; every run threads its
//!    own [`RunContext`] (feeds, result slot, grad/cache handles, stats,
//!    cancel state, fusion opt-in) through its frames, so any number of
//!    root frames — a training minibatch, a stream of serving requests —
//!    share one worker pool, and sibling parallelism extends across runs.
//!    The pool itself holds no per-tenant switch: what differs between two
//!    runs travels with their tasks.
//!
//! # Hot-path design
//!
//! Recursion must not tax the common case (paper §4.1.2), so the invoke
//! path is engineered down to near plain-op cost:
//!
//! * **Frame-core pooling** — a frame's pending counters and value slots
//!   are recycled through a per-graph free list on the [`ExecutionPlan`],
//!   so activating a SubGraph in the steady state allocates nothing but
//!   the `Frame` header itself.
//! * **Frames are born with their sources resolved** — every zero-input
//!   node that needs no kernel (`Input`, `Const`, `Param`, `FwdValue`,
//!   `FwdZeros`: the plan's prelude) gets its value *while the frame
//!   spawns*, written into the frame's core before the frame is shared
//!   with any other thread: no slot lock, no countdown, no task. What the
//!   prelude leaves behind is static, so the plan precomputed it: the
//!   countdown a frame starts from, the nodes it can run at once, and how
//!   many are left (see `spawn_frame`).
//! * **Work-first continuations** — one rule for every edge: whenever a
//!   node finishes (a kernel, a frame returning into its parent's
//!   Invoke/Cond node, a member of a fused group), the first consumer it
//!   made ready stays with the worker and only the surplus travels through
//!   the shared queue (see `finish_node`); a spawning frame's ready nodes
//!   are split the same way. A worker so runs depth-first inside its own subtree
//!   and a sibling subtree reaches another worker as one unit at the fork
//!   — the caller/callee relationship the paper says an executor should
//!   exploit — instead of every operation paying a push and a pop on the
//!   queue's lock. Tagged dataflow makes results independent of the order.
//!   Continuations run in the worker's loop, not on its call stack, so a
//!   chain of any length is safe; because one can last a whole subtree,
//!   claimed-but-unstarted tasks are handed back as soon as another worker
//!   has nothing to do (`run_batch`, `run_batch_fused`).
//! * **Batched queue transfer** — the surplus of a fork is pushed (and
//!   claimed) under one lock acquisition via [`ReadyQueue::push_batch`] /
//!   [`ReadyQueue::pop_batch`]. The queue is the paper's one global FIFO;
//!   it has no other policy.
//! * **One task body** — every task is *claimed* (`claim`: the cancel
//!   check, the input reads, the `ops_executed`/`fusable_seen` ticks), then
//!   either spawns a child frame (`Invoke`, `Cond`) or runs its kernel and
//!   publishes (`run_kernel`, `finish_node`). The fused path claims the
//!   members of a group the same way and differs only in making one stacked
//!   kernel call for them. A worker drains a claim with the scalar loop
//!   (`run_batch`) or, while any run that opted into fusion is alive, with
//!   the grouping loop (`run_batch_fused`).

use crate::batch::{self, FuseKind, GroupKey};
use crate::cache::{call_path, BackpropCache, CacheKey};
use crate::error::ExecError;
use crate::kernel::{self, KernelCtx};
use crate::params::{GradStore, ParamStore};
use crate::path::PathKey;
use crate::plan::{ExecutionPlan, ModulePlan, PreludeEntry, PreludeValue};
use crate::queue::ReadyQueue;
use crate::stats::{ExecStats, StatsSnapshot};
use crossbeam_channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rdg_graph::{CallSiteId, GraphRef, NodeId, OpKind, PortRef, SubGraphId};
use rdg_tensor::Tensor;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How many tasks a worker drains from the ready queue per lock round-trip.
/// Each claimed task heads a chain that can last a whole subtree, so the
/// claim is only a private buffer while every other worker is busy: see
/// [`run_batch`] for the hand-back rule that bounds hoarding.
const TASK_BATCH: usize = 8;

/// Drain size while any run that opted into cross-request fusion is alive.
/// Wider pops see more concurrent frames at once, which is what creates
/// fusable groups: the serving dispatcher's wave starts N requests'
/// identical graph nodes together, and their surplus reaches the queue in
/// rough lockstep.
const FUSED_TASK_BATCH: usize = 32;

/// How many recycled frame cores each graph's plan may cache.
const CORE_POOL_CAP: usize = 64;

/// A node's published outputs. The single-output case — almost every node —
/// stays inline, so publishing does not allocate.
enum Outs {
    /// Not produced yet.
    Pending,
    /// One output port (`None` once moved out by its last reader).
    One(Option<Tensor>),
    /// Multi-output nodes fall back to a boxed slice.
    Many(Box<[Option<Tensor>]>),
}

/// One output slot: values plus the number of reads still expected.
///
/// The counter implements consumer refcounting: the final read *moves* the
/// tensor out instead of cloning, which is what lets copy-on-write kernels
/// downstream mutate buffers in place.
pub(crate) struct SlotInner {
    outs: Outs,
    takes_left: i64,
}

/// The reusable allocation behind one frame: pending counters and value
/// slots, both sized by the graph's plan.
pub(crate) struct FrameCore {
    pending: Box<[AtomicU32]>,
    slots: Box<[Mutex<SlotInner>]>,
}

impl Default for FrameCore {
    fn default() -> Self {
        FrameCore {
            pending: Box::new([]),
            slots: Box::new([]),
        }
    }
}

impl FrameCore {
    /// Builds a fresh core sized and seeded from `plan`.
    fn fresh(plan: &ExecutionPlan) -> Self {
        FrameCore {
            pending: plan
                .pending_at_spawn
                .iter()
                .map(|&c| AtomicU32::new(c))
                .collect(),
            slots: plan
                .fetch_counts
                .iter()
                .map(|&fc| {
                    Mutex::new(SlotInner {
                        outs: Outs::Pending,
                        takes_left: fc as i64,
                    })
                })
                .collect(),
        }
    }

    /// Re-seeds a recycled core from `plan` (same graph, so same sizes).
    fn reset(&mut self, plan: &ExecutionPlan) {
        for (p, &c) in self.pending.iter().zip(plan.pending_at_spawn.iter()) {
            p.store(c, Ordering::Relaxed);
        }
        for (s, &fc) in self.slots.iter_mut().zip(plan.fetch_counts.iter()) {
            let inner = s.get_mut();
            inner.outs = Outs::Pending;
            inner.takes_left = fc as i64;
        }
    }
}

/// A free list of [`FrameCore`]s for one graph, owned by its plan.
#[derive(Default)]
pub(crate) struct CorePool(Mutex<Vec<FrameCore>>);

impl CorePool {
    /// Pops and re-seeds a recycled core, or builds a fresh one.
    fn acquire(&self, plan: &ExecutionPlan) -> FrameCore {
        let recycled = self.0.lock().pop();
        match recycled {
            Some(mut core) => {
                core.reset(plan);
                core
            }
            None => FrameCore::fresh(plan),
        }
    }

    /// Returns a core to the free list (bounded; extras are dropped).
    ///
    /// Slots are cleared *before* pooling so a recycled core never pins the
    /// previous activation's tensors (published-but-unread values survive a
    /// failed or cancelled run) while it sits idle in the free list.
    fn recycle(&self, mut core: FrameCore) {
        if core.pending.is_empty() && core.slots.is_empty() {
            return; // the empty graph's core: nothing to reuse
        }
        for s in core.slots.iter_mut() {
            s.get_mut().outs = Outs::Pending;
        }
        let mut pool = self.0.lock();
        if pool.len() < CORE_POOL_CAP {
            pool.push(core);
        }
    }
}

/// Link from a child frame back to the Invoke/Cond node awaiting its result.
struct ParentLink {
    frame: Arc<Frame>,
    node: NodeId,
}

/// One activation of a graph: the paper's unit of (recursive) execution.
pub struct Frame {
    run: Arc<RunContext>,
    gref: GraphRef,
    path: PathKey,
    depth: u32,
    args: Vec<Tensor>,
    core: FrameCore,
    nodes_left: AtomicUsize,
    parent: Option<ParentLink>,
}

impl Drop for Frame {
    fn drop(&mut self) {
        let core = std::mem::take(&mut self.core);
        self.run.plan.plan(self.gref).pool.recycle(core);
        // Tear down an exclusively-owned ancestor chain iteratively. When a
        // deep run is cancelled mid-recursion, each parent's only remaining
        // reference is its child's `ParentLink`; letting the default drop
        // glue unwind that chain would recurse once per frame and overflow
        // the worker stack at the depths tail recursion reaches (20 000+).
        let mut link = self.parent.take();
        while let Some(l) = link {
            match Arc::try_unwrap(l.frame) {
                Ok(mut parent) => {
                    // Steal the grandparent first so dropping `parent` at
                    // the end of this iteration cannot recurse.
                    link = parent.parent.take();
                }
                Err(_) => break, // other holders remain; they clean up later
            }
        }
    }
}

/// A schedulable unit: one node of one frame.
pub struct Task {
    frame: Arc<Frame>,
    node: NodeId,
}

impl Task {
    /// The op this task runs and the tensors it is about to read, without
    /// consuming a read: what the virtual clock ([`crate::sim`]) prices
    /// before it hands the task to [`execute_task`].
    pub(crate) fn peek(&self) -> (&OpKind, Vec<Tensor>) {
        let n = self
            .frame
            .run
            .plan
            .module
            .graph(self.frame.gref)
            .node(self.node);
        let read = |p: &PortRef| match &self.frame.core.slots[p.node.0 as usize].lock().outs {
            Outs::One(t) if p.port == 0 => t.clone(),
            Outs::Many(v) => v.get(p.port as usize).cloned().flatten(),
            _ => None,
        };
        (&n.op, n.inputs.iter().filter_map(read).collect())
    }
}

/// Shared state of one submitted run — the per-run half of the runtime.
///
/// Everything scoped to a single root frame lives here and is threaded
/// through that frame's tree: the module plan and parameters the run
/// executes against, the optional gradient/cache handles (training runs;
/// the cache's path table names the run's frames), the output slot
/// (`done_tx`), the error/cancel flags, the fusion opt-in, and the run's own
/// [`ExecStats`]. Because tasks carry an `Arc<RunContext>`, any number of
/// root frames can be in flight on one worker pool without sharing any
/// mutable per-run state.
pub struct RunContext {
    plan: Arc<ModulePlan>,
    params: Arc<ParamStore>,
    grads: Option<Arc<GradStore>>,
    cache: Option<Arc<BackpropCache>>,
    /// `Some` iff the run opted into cross-request fusion: the executor's
    /// count of live opted-in runs, which this run holds up until it drops.
    /// Only tasks of such runs join fused groups (see [`group_key`]).
    fusing: Option<Arc<AtomicUsize>>,
    finished: AtomicBool,
    cancelled: AtomicBool,
    done_tx: Sender<Result<Vec<Tensor>, ExecError>>,
    queue: Arc<ReadyQueue<Task>>,
    /// This run's private counters (exposed via [`RunHandle::stats`]).
    run_stats: Arc<ExecStats>,
    /// The owning executor's lifetime aggregate (absorbs `run_stats` at
    /// completion; also carries the kernel-profiling switch).
    exec_stats: Arc<ExecStats>,
    /// Snapshot of what the completion-time absorb folded into
    /// `exec_stats`, so the teardown fold in `Drop` takes only the
    /// straggler delta (`None` until the run delivers a result).
    absorbed: Mutex<Option<StatsSnapshot>>,
    /// Which thread executed which node, in execution order per thread,
    /// and the path of the frame the node belongs to.
    #[cfg(test)]
    trace: Mutex<Vec<(std::thread::ThreadId, NodeId, PathKey)>>,
}

impl RunContext {
    fn fail(&self, e: ExecError) {
        self.cancelled.store(true, Ordering::Release);
        self.deliver(Err(e));
    }

    /// Publishes the run's result; only the first call has any effect.
    fn deliver(&self, result: Result<Vec<Tensor>, ExecError>) {
        if !self.finished.swap(true, Ordering::AcqRel) {
            // Fold per-run counters into the lifetime aggregate *before*
            // publishing the result, so a caller that reads executor stats
            // right after `wait()` returns sees this run included — the
            // chain the delivering worker is in the middle of too. A failed
            // run's straggler tasks may still increment afterwards; the
            // `Drop` fold below picks up that delta at frame teardown.
            flush_chain(&self.run_stats);
            *self.absorbed.lock() = Some(self.exec_stats.absorb(&self.run_stats));
            let _ = self.done_tx.send(result);
        }
    }

    fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

impl Drop for RunContext {
    /// Final frame teardown: every task holds its frame and every frame
    /// holds this context, so when the context drops no increment can
    /// follow — fold whatever accumulated past the completion-time absorb
    /// (straggler tasks of a failed/cancelled run draining after the error
    /// was reported, including their `cancelled_tasks` counts) into the
    /// executor-lifetime aggregate. A run that never delivered a result
    /// (e.g. its queue was torn down) folds in full here.
    fn drop(&mut self) {
        let base = self.absorbed.get_mut().take().unwrap_or_default();
        self.exec_stats.absorb_since(&self.run_stats, &base);
        if let Some(live) = &self.fusing {
            live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A handle to an in-flight run submitted with [`Executor::submit`].
///
/// Dropping the handle does **not** cancel the run — it keeps executing
/// (and, for training runs, keeps accumulating gradients) detached; call
/// [`RunHandle::cancel`] first for a prompt teardown.
///
/// The handle keeps the executor (and so its worker pool) alive: a run can
/// outlive the `Session` — and even the last user-held `Arc<Executor>` —
/// that launched it, and [`RunHandle::wait`] still completes.
pub struct RunHandle {
    ctx: Arc<RunContext>,
    done_rx: Receiver<Result<Vec<Tensor>, ExecError>>,
    /// Keeps the worker pool running until the handle is resolved/dropped.
    _exec: Arc<Executor>,
}

impl RunHandle {
    /// Blocks until the run completes and returns its outputs.
    pub fn wait(self) -> Result<Vec<Tensor>, ExecError> {
        self.done_rx
            .recv()
            .map_err(|_| ExecError::internal("run channel closed without a result"))?
    }

    /// This run's private statistics.
    ///
    /// The counters are live while the run executes and final once
    /// [`RunHandle::wait`] has returned a success. After a failure or
    /// [`RunHandle::cancel`], the run's stray in-flight tasks may still be
    /// draining briefly, so late increments can trickle in; those
    /// stragglers are folded into the executor-lifetime aggregate when the
    /// run's last frame tears down, so `Executor::stats` eventually counts
    /// every task (`cancelled_tasks` included) exactly once. Clone the
    /// `Arc` out before calling `wait` (which consumes the handle) to
    /// inspect the counters afterwards; once the `Arc`'s only holders are
    /// external (strong count from the runtime reaches zero), the counters
    /// are final and fully folded.
    pub fn stats(&self) -> &Arc<ExecStats> {
        &self.ctx.run_stats
    }

    /// Requests cancellation: in-flight tasks drain without executing and
    /// [`RunHandle::wait`] returns [`ExecError::Cancelled`].
    ///
    /// A run that already finished keeps its original result.
    pub fn cancel(&self) {
        self.ctx.fail(ExecError::Cancelled);
    }

    /// Whether the run has delivered a result (ok, error, or cancelled).
    pub fn is_finished(&self) -> bool {
        self.ctx.finished.load(Ordering::Acquire)
    }
}

/// The shared worker pool plus its ready queue.
///
/// One executor serves any number of concurrent runs, sessions and serve
/// loops, exactly like a framework runtime: tasks carry their run state
/// with them, and the executor has no setting one tenant could flip under
/// another. What it owns is the queue, the threads, the lifetime stats and
/// one derived number — how many live runs opted into cross-request fusion
/// — which only tells workers whether a wide, grouping drain can pay.
pub struct Executor {
    pub(crate) queue: Arc<ReadyQueue<Task>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ExecStats>,
    /// Live runs started with `fuse` (see [`RunContext::fusing`]). A count
    /// publishes nothing else, so every access is `Relaxed`: a worker that
    /// reads it late drains one more batch the scalar way.
    fusing_runs: Arc<AtomicUsize>,
    n_threads: usize,
}

impl Executor {
    /// Spawns `n_threads` (at least one) execution threads.
    pub fn with_threads(n_threads: usize) -> Arc<Self> {
        Self::with_pool(n_threads.max(1))
    }

    /// An executor with exactly `n_threads` workers. Zero is the virtual
    /// clock's ([`crate::sim`]): it executes every task of its runs itself,
    /// so nothing ever waits on the queue.
    pub(crate) fn with_pool(n_threads: usize) -> Arc<Self> {
        let queue = Arc::new(ReadyQueue::default());
        let stats = Arc::new(ExecStats::new());
        let fusing_runs = Arc::new(AtomicUsize::new(0));
        let workers = (0..n_threads)
            .map(|i| {
                let q = Arc::clone(&queue);
                let fusing_runs = Arc::clone(&fusing_runs);
                std::thread::Builder::new()
                    .name(format!("rdg-worker-{i}"))
                    .spawn(move || {
                        crate::params::bind_worker_shard(i);
                        let mut batch: Vec<Task> = Vec::with_capacity(FUSED_TASK_BATCH);
                        let fusing = || fusing_runs.load(Ordering::Relaxed) != 0;
                        loop {
                            let take = if fusing() {
                                FUSED_TASK_BATCH
                            } else {
                                TASK_BATCH
                            };
                            if !q.pop_batch(&mut batch, take) {
                                break;
                            }
                            // Read again: a worker parks in `pop_batch`
                            // between waves, and the run that wakes it
                            // opted in before its first task was queued.
                            if fusing() {
                                run_batch_fused(&q, &mut batch);
                            } else {
                                run_batch(&q, &mut batch);
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Arc::new(Executor {
            queue,
            workers,
            stats,
            fusing_runs,
            n_threads,
        })
    }

    /// Number of execution threads.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &Arc<ExecStats> {
        &self.stats
    }

    /// Runs a planned module to completion (blocking).
    ///
    /// `feeds` are the main graph's inputs, positionally. Training runs pass
    /// `grads` and `cache`; inference runs pass `None` for both.
    pub fn run(
        self: &Arc<Self>,
        plan: &Arc<ModulePlan>,
        params: &Arc<ParamStore>,
        feeds: Vec<Tensor>,
        grads: Option<Arc<GradStore>>,
        cache: Option<Arc<BackpropCache>>,
    ) -> Result<Vec<Tensor>, ExecError> {
        self.submit(plan, params, feeds, grads, cache)?.wait()
    }

    /// Submits an inference run that opts into cross-request batch fusion:
    /// its batchable kernels may be stacked with those of other opted-in
    /// runs of the same plan into one kernel call (see [`crate::batch`]),
    /// bit-for-bit equal to the scalar calls it replaces. This is how the
    /// serving dispatcher starts every request; a run submitted any other
    /// way never joins a group, whatever else the pool is serving.
    pub fn submit_fused(
        self: &Arc<Self>,
        plan: &Arc<ModulePlan>,
        params: &Arc<ParamStore>,
        feeds: Vec<Tensor>,
    ) -> Result<RunHandle, ExecError> {
        let (handle, root) = self.start(plan, params, feeds, None, None, true)?;
        self.queue.push_batch(root);
        Ok(handle)
    }

    /// Submits a run without blocking and returns its [`RunHandle`].
    ///
    /// Any number of runs may be in flight concurrently on one executor;
    /// their root frames all feed the same worker pool, so sibling
    /// parallelism extends across runs exactly as it does across the
    /// recursive calls inside one run. Feed validation happens here, so a
    /// malformed request fails fast without touching the queue.
    pub fn submit(
        self: &Arc<Self>,
        plan: &Arc<ModulePlan>,
        params: &Arc<ParamStore>,
        feeds: Vec<Tensor>,
        grads: Option<Arc<GradStore>>,
        cache: Option<Arc<BackpropCache>>,
    ) -> Result<RunHandle, ExecError> {
        let (handle, root) = self.start(plan, params, feeds, grads, cache, false)?;
        self.queue.push_batch(root);
        Ok(handle)
    }

    /// Validates the feeds and spawns the root frame; returns the run's
    /// handle and the root frame's first runnable task, not yet enqueued.
    pub(crate) fn start(
        self: &Arc<Self>,
        plan: &Arc<ModulePlan>,
        params: &Arc<ParamStore>,
        feeds: Vec<Tensor>,
        grads: Option<Arc<GradStore>>,
        cache: Option<Arc<BackpropCache>>,
        fuse: bool,
    ) -> Result<(RunHandle, Option<Task>), ExecError> {
        let main = &plan.module.main;
        if feeds.len() != main.input_nodes.len() {
            return Err(ExecError::BadFeed {
                msg: format!(
                    "main graph has {} inputs, {} fed",
                    main.input_nodes.len(),
                    feeds.len()
                ),
            });
        }
        for (i, (&nid, t)) in main.input_nodes.iter().zip(feeds.iter()).enumerate() {
            let want = main.out_dtypes[nid.0 as usize][0];
            if t.dtype() != want {
                return Err(ExecError::BadFeed {
                    msg: format!("input {i} expects {want}, fed {}", t.dtype()),
                });
            }
        }
        let (done_tx, done_rx) = bounded(1);
        let fusing = fuse.then(|| {
            self.fusing_runs.fetch_add(1, Ordering::Relaxed);
            Arc::clone(&self.fusing_runs)
        });
        let run = Arc::new(RunContext {
            plan: Arc::clone(plan),
            params: Arc::clone(params),
            grads,
            cache,
            fusing,
            finished: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            done_tx,
            queue: Arc::clone(&self.queue),
            run_stats: Arc::new(ExecStats::new()),
            exec_stats: Arc::clone(&self.stats),
            absorbed: Mutex::new(None),
            #[cfg(test)]
            trace: Mutex::default(),
        });
        let root = spawn_frame(
            Arc::clone(&run),
            GraphRef::Main,
            PathKey::root(),
            feeds,
            None,
            0,
        );
        let handle = RunHandle {
            ctx: run,
            done_rx,
            _exec: Arc::clone(self),
        };
        Ok((handle, root))
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.queue.stop(self.workers.len());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Spawns a frame with its prelude already published.
///
/// The prelude values are written into the frame's core through `&mut`,
/// **before** the frame is shared: nobody else can see the frame yet, so a
/// value costs no slot lock, no countdown and no task — the plan's
/// `pending_at_spawn` / `live_at_spawn` are the counters as the prelude
/// would have left them. Training and inference run the same code; a
/// `keep_value`/`keep_shape` prelude node reaches the backprop cache through
/// the helper `finish_node` uses.
///
/// Returns at most one **continuation**: the first of the plan's
/// `ready_at_spawn` nodes, which the calling worker executes next instead of
/// paying a queue round-trip; the rest are enqueued as one batch. A graph
/// with nothing left to run (it returns captures, constants or parameters,
/// or is empty) returns to its parent on the spot.
fn spawn_frame(
    run: Arc<RunContext>,
    gref: GraphRef,
    path: PathKey,
    args: Vec<Tensor>,
    parent: Option<ParentLink>,
    depth: u32,
) -> Option<Task> {
    let plan = run.plan.plan(gref);
    let n_prelude = plan.prelude.len() as u64;
    let stats = &run.run_stats;
    stats.frames_spawned.fetch_add(1, Ordering::Relaxed);
    stats.observe_depth(depth as u64);
    stats.ops_executed.fetch_add(n_prelude, Ordering::Relaxed);
    stats
        .prelude_published
        .fetch_add(n_prelude, Ordering::Relaxed);
    let mut frame = Frame {
        core: plan.pool.acquire(plan),
        nodes_left: AtomicUsize::new(plan.live_at_spawn),
        run,
        gref,
        path,
        depth,
        args,
        parent,
    };
    // The plan lives in the run, which the frame now owns.
    let plan = frame.run.plan.plan(gref);
    for entry in &plan.prelude {
        let out = match prelude_value(&frame, entry) {
            Ok(t) => t,
            Err(e) => {
                frame.run.fail(e);
                return None;
            }
        };
        let out = Outs::One(Some(out));
        cache_outputs(&frame, plan, entry.node, &out);
        frame.core.slots[entry.node.0 as usize].get_mut().outs = out;
    }
    if plan.live_at_spawn == 0 {
        let (parent, node, outs) = frame_return(&frame)?;
        drop(frame);
        return finish_node(parent, node, outs);
    }
    let frame = Arc::new(frame);
    let (&first, rest) = frame
        .run
        .plan
        .plan(gref)
        .ready_at_spawn
        .split_first()
        .expect("an acyclic graph with live nodes has one ready at spawn");
    let task = |node| Task {
        frame: Arc::clone(&frame),
        node,
    };
    if !rest.is_empty() {
        let queue = &frame.run.queue;
        queue.push_batch(rest.iter().map(|&n| task(n)));
    }
    Some(task(first))
}

/// Resolves one prelude node for a frame that is not shared yet.
fn prelude_value(frame: &Frame, entry: &PreludeEntry) -> Result<Tensor, ExecError> {
    match &entry.value {
        PreludeValue::Arg { index, dtype } => {
            let source = match frame.args.get(*index) {
                Some(t) if t.dtype() == *dtype => return Ok(t.clone()),
                Some(t) => rdg_tensor::TensorError::DTypeMismatch {
                    expected: *dtype,
                    got: t.dtype(),
                    ctx: "Input",
                },
                None => rdg_tensor::TensorError::invalid(format!("frame has no argument {index}")),
            };
            Err(kernel_error(frame, entry.node, source))
        }
        PreludeValue::Const(t) => Ok(t.clone()),
        PreludeValue::Param(p) => Ok(frame.run.params.read(*p)),
        PreludeValue::Fwd { of, zeros } => read_fwd(frame, *of, *zeros),
    }
}

/// Reads one input port, implementing last-reader-takes semantics.
fn fetch(frame: &Frame, p: PortRef) -> Result<Tensor, ExecError> {
    let mut guard = frame.core.slots[p.node.0 as usize].lock();
    let inner = &mut *guard;
    if matches!(inner.outs, Outs::Pending) {
        return Err(ExecError::internal(format!(
            "value of {p} read before it was produced"
        )));
    }
    inner.takes_left -= 1;
    let port = p.port as usize;
    let got = if inner.takes_left <= 0 {
        // Last reader: move the tensor out (enables in-place reuse).
        match std::mem::replace(&mut inner.outs, Outs::Pending) {
            Outs::One(t) if port == 0 => t,
            Outs::One(_) => None,
            Outs::Many(mut v) => v.get_mut(port).and_then(Option::take),
            Outs::Pending => unreachable!("checked above"),
        }
    } else {
        match &inner.outs {
            Outs::One(t) if port == 0 => t.clone(),
            Outs::One(_) => None,
            Outs::Many(v) => v.get(port).cloned().flatten(),
            Outs::Pending => unreachable!("checked above"),
        }
    };
    got.ok_or_else(|| ExecError::internal(format!("port {p} missing or taken twice")))
}

/// Spawns the child frame of a call site (`Invoke`, or the branch a `Cond`
/// chose); `node` in `frame` is its return location.
fn call(
    frame: Arc<Frame>,
    node: NodeId,
    sub: SubGraphId,
    site: CallSiteId,
    args: Vec<Tensor>,
) -> Option<Task> {
    // The one refcount a frame takes on its run; ops read through it.
    let run = Arc::clone(&frame.run);
    let path = call_path(run.cache.as_deref(), &frame.path, site);
    let depth = frame.depth + 1;
    let link = ParentLink { frame, node };
    spawn_frame(run, GraphRef::Sub(sub), path, args, Some(link), depth)
}

/// Executes one scheduled node; may return a continuation task the worker
/// should run next (see the module docs on work-first continuations).
///
/// Every task runs the same sequence: [`claim`], then a call site spawns
/// its child frame (`Invoke`, or the branch a `Cond` picks) and any other
/// node runs [`run_kernel`]. The fused path ([`execute_group`]) is the same
/// two steps with one stacked kernel call in between.
pub(crate) fn execute_task(task: Task) -> Option<Task> {
    let mut inputs = claim(&task)?;
    let frame = &task.frame;
    let (sub, site, args) = match &frame.run.plan.module.graph(frame.gref).node(task.node).op {
        OpKind::Invoke { sub, site, .. } => (*sub, *site, inputs),
        OpKind::Cond {
            sub_then,
            sub_else,
            site_then,
            site_else,
            n_then_in,
            ..
        } => {
            let pred = match inputs[0].as_i32_scalar() {
                Ok(v) => v,
                Err(e) => {
                    frame.run.fail(kernel_error(frame, task.node, e));
                    return None;
                }
            };
            let mut rest = inputs.split_off(1);
            let else_args = rest.split_off(*n_then_in as usize);
            if pred != 0 {
                (*sub_then, *site_then, rest)
            } else {
                (*sub_else, *site_else, else_args)
            }
        }
        _ => return run_kernel(task, inputs),
    };
    call(task.frame, task.node, sub, site, args)
}

/// Takes a task's inputs, or drops the task: `None` if its run is cancelled
/// (counted in `cancelled_tasks`) or a read fails (which fails the run).
/// A claimed task counts as executed, and as fusion-eligible when the plan's
/// `fuse` metadata says its node is batchable — ticked whether or not a
/// partner turns up, so the fused fraction compares like against like in
/// scalar A/B runs.
fn claim(task: &Task) -> Option<Vec<Tensor>> {
    let Task { frame, node } = task;
    // Read through the frame: a per-op clone of the run's `Arc` would put a
    // refcount write on the cache line every op of the run reads.
    let run = &*frame.run;
    if run.cancelled() {
        // Counted on the run's own stats only; the straggler delta past the
        // completion-time absorb reaches the lifetime aggregate exactly
        // once, in `RunContext::drop` at final frame teardown.
        run.run_stats
            .cancelled_tasks
            .fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let ports = &run.plan.module.graph(frame.gref).node(*node).inputs;
    let mut inputs = Vec::with_capacity(ports.len());
    for &p in ports {
        match fetch(frame, p) {
            Ok(t) => inputs.push(t),
            Err(e) => {
                run.fail(e);
                return None;
            }
        }
    }
    run.run_stats.ops_executed.fetch_add(1, Ordering::Relaxed);
    if run.plan.plan(frame.gref).fuse[node.0 as usize].is_some() {
        run.run_stats.fusable_seen.fetch_add(1, Ordering::Relaxed);
    }
    #[cfg(test)]
    run.trace
        .lock()
        .push((std::thread::current().id(), *node, frame.path.clone()));
    Some(inputs)
}

/// Runs a claimed task's kernel on its inputs and publishes the outputs;
/// returns the continuation `finish_node` hands back. A kernel error fails
/// the task's run only.
fn run_kernel(task: Task, inputs: Vec<Tensor>) -> Option<Task> {
    let Task { frame, node } = task;
    let run = &*frame.run;
    let op = &run.plan.module.graph(frame.gref).node(node).op;
    let kctx = KernelCtx {
        args: &frame.args,
        params: &run.params,
        grads: run.grads.as_deref(),
        stats: &run.run_stats,
    };
    match timed_kernel(run, op, || kernel::execute(op, inputs, &kctx)) {
        Ok(out) => finish_node(frame, node, Outs::One(Some(out))),
        Err(e) => {
            run.fail(kernel_error(&frame, node, e));
            None
        }
    }
}

/// The error a node of `frame` reports when its kernel, its `Cond`
/// predicate or its prelude argument fails: the graph and node by name.
fn kernel_error(frame: &Frame, node: NodeId, source: rdg_tensor::TensorError) -> ExecError {
    let module = &frame.run.plan.module;
    ExecError::Kernel {
        graph: module.graph_name(frame.gref),
        node: module.graph(frame.gref).node(node).name.clone(),
        source: Box::new(source),
    }
}

/// Runs one kernel call — scalar or stacked — and, when the executor's
/// kernel profile is on, records its wall time under `op`'s mnemonic (a
/// stacked call counts once). Profiling is an executor-lifetime concern:
/// the switch and the sample table live on the aggregate, not the run. Off,
/// this costs one relaxed load.
fn timed_kernel<R>(run: &RunContext, op: &OpKind, call: impl FnOnce() -> R) -> R {
    if !run.exec_stats.profiling() {
        return call();
    }
    let t0 = std::time::Instant::now();
    let out = call();
    run.exec_stats.record_kernel(op.mnemonic(), t0.elapsed());
    out
}

/// The static fusion identity of one ready task: `Some` iff its run opted
/// into fusion and its node is batchable per the plan's precomputed `fuse`
/// metadata. Same key ⇒ same compiled plan object, graph, and node — hence
/// same op and param wiring.
fn group_key(t: &Task) -> Option<GroupKey> {
    t.frame.run.fusing.as_ref()?;
    let plan = &t.frame.run.plan;
    plan.plan(t.frame.gref).fuse[t.node.0 as usize]?;
    Some(GroupKey {
        plan: Arc::as_ptr(plan) as usize,
        gref: t.frame.gref,
        node: t.node,
    })
}

thread_local! {
    /// Length of the continuation chain this thread is running that is not
    /// yet added to its run's `continuations`. A chain never leaves its run
    /// (consumers live in the producer's frame or its parent's), so one
    /// number per thread is enough.
    static CHAIN: Cell<u64> = const { Cell::new(0) };
}

/// Adds the calling thread's unflushed chain length to `stats`: when the
/// chain ends, and before a run's result is published so the count is
/// exact once `RunHandle::wait` returns.
fn flush_chain(stats: &ExecStats) {
    let n = CHAIN.replace(0);
    if n != 0 {
        stats.continuations.fetch_add(n, Ordering::Relaxed);
    }
}

/// Scalar drain of one popped batch: each claimed task heads a chain of
/// continuations that the worker follows until no consumer is ready.
///
/// **Hoarding bound.** A chain lasts as long as the subtree under its head,
/// so the rest of the claim must not wait it out in this private buffer
/// while another worker is parked: before every continuation the worker
/// checks [`ReadyQueue::has_idle`] and hands the unstarted claim back. A
/// claimed task therefore waits behind at most one operation once any
/// worker has nothing to do, whatever the chain length; while every worker
/// is busy the buffer costs nothing, because nobody could run it sooner.
fn run_batch(q: &ReadyQueue<Task>, batch: &mut Vec<Task>) {
    // Pop from the back = FIFO order within the batch.
    batch.reverse();
    while let Some(task) = batch.pop() {
        let run = Arc::clone(&task.frame.run);
        let mut next = execute_task(task);
        while let Some(t) = next {
            if !batch.is_empty() && q.has_idle() {
                q.push_batch(batch.drain(..).rev());
            }
            CHAIN.set(CHAIN.get() + 1);
            next = execute_task(t);
        }
        flush_chain(&run.run_stats);
    }
}

/// Fused drain of one popped batch: the worker's group-execute entry point.
///
/// Rounds: group the claimed tasks with [`batch::plan_groups`] (at most
/// [`batch::MAX_GROUP`] members each), execute singletons — every task of a
/// run that did not opt in is one — through the unchanged scalar path and
/// groups through one stacked kernel call each, then feed all continuations
/// into the next round — so the members of one fused group arrive at their
/// consumers together and regroup. Every claimed task executes within its
/// round; nothing is parked.
///
/// **Hoarding bound.** The rounds go on until every chain under the claim
/// has ended, so the equivalent of [`run_batch`]'s rule is applied between
/// rounds: while another worker is parked, the back half of the next round
/// is handed to it through the queue.
fn run_batch_fused(q: &ReadyQueue<Task>, batch: &mut Vec<Task>) {
    let mut round: Vec<Task> = batch.drain(..).collect();
    let mut pending: Vec<Task> = Vec::new();
    while !round.is_empty() {
        let keys: Vec<Option<GroupKey>> = round.iter().map(group_key).collect();
        let groups = batch::plan_groups(&keys, batch::MAX_GROUP);
        let mut slots: Vec<Option<Task>> = round.drain(..).map(Some).collect();
        for g in groups {
            if g.len() == 1 {
                let t = slots[g[0]].take().expect("group indices are disjoint");
                pending.extend(execute_task(t));
            } else {
                let members: Vec<Task> = g
                    .iter()
                    .map(|&i| slots[i].take().expect("group indices are disjoint"))
                    .collect();
                execute_group(members, &mut pending);
            }
        }
        if pending.len() > 1 && q.has_idle() {
            let keep = pending.len().div_ceil(2);
            q.push_batch(pending.drain(keep..));
        }
        // What is left runs next, as continuations. Counted before it runs
        // (a run cannot complete while one is outstanding), one add per
        // stretch of same-run tasks.
        for g in pending.chunk_by(|a, b| Arc::ptr_eq(&a.frame.run, &b.frame.run)) {
            let stats = &g[0].frame.run.run_stats;
            stats
                .continuations
                .fetch_add(g.len() as u64, Ordering::Relaxed);
        }
        std::mem::swap(&mut round, &mut pending);
    }
}

/// A claimed task whose inputs have already been fetched.
struct Fetched {
    task: Task,
    inputs: Vec<Tensor>,
}

/// Runtime fusion signature, checked after fetch: members may share one
/// stacked kernel call only when their shared operand is the *same buffer*
/// with the same view (parameter reads from one store clone the `Arc`, so
/// this is a pointer compare) and their stacked operands agree on the
/// non-stacked dimension.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Sig {
    shared_ptr: usize,
    shared_rank: usize,
    shared_dims: [usize; 3],
    lane: usize,
}

fn buf_ptr(t: &Tensor) -> usize {
    match t.buffer() {
        rdg_tensor::Buffer::F32(a) => Arc::as_ptr(a) as usize,
        rdg_tensor::Buffer::I32(a) => Arc::as_ptr(a) as usize,
    }
}

fn sig_of(kind: FuseKind, stacked: &Tensor, shared: &Tensor) -> Option<Sig> {
    if !matches!(stacked.buffer(), rdg_tensor::Buffer::F32(_)) {
        return None;
    }
    let (r, c) = stacked.shape().as_matrix()?;
    let lane = match kind {
        FuseKind::RowsShared => c,
        FuseKind::ColsShared => r,
    };
    let dims = shared.shape().dims();
    if dims.len() > 3 {
        return None;
    }
    let mut shared_dims = [usize::MAX; 3];
    shared_dims[..dims.len()].copy_from_slice(dims);
    Some(Sig {
        shared_ptr: buf_ptr(shared),
        shared_rank: dims.len(),
        shared_dims,
        lane,
    })
}

/// Executes a same-node group of tasks, fusing as many members as the
/// runtime signatures allow into single stacked kernel calls.
///
/// All members share `(plan, gref, node)`, so op and graph metadata come
/// from the first member. Per-request semantics are fully preserved:
/// cancellation and fetch errors are handled per member before stacking,
/// and a fused kernel error falls back to per-member scalar execution so a
/// failing instance fails only its own run.
fn execute_group(members: Vec<Task>, pending: &mut Vec<Task>) {
    let (op, kind) = {
        let (f0, node) = (&members[0].frame, members[0].node);
        let kind = f0.run.plan.plan(f0.gref).fuse[node.0 as usize]
            .expect("grouped tasks are batchable by construction");
        (
            f0.run.plan.module.graph(f0.gref).node(node).op.clone(),
            kind,
        )
    };
    let (stack_idx, shared_idx) = kind.operands();

    let fetched: Vec<Fetched> = members
        .into_iter()
        .filter_map(|task| {
            let inputs = claim(&task)?;
            Some(Fetched { task, inputs })
        })
        .collect();
    if fetched.is_empty() {
        return;
    }

    let sigs: Vec<Option<Sig>> = fetched
        .iter()
        .map(|m| sig_of(kind, &m.inputs[stack_idx], &m.inputs[shared_idx]))
        .collect();
    let subgroups = batch::plan_groups(&sigs, usize::MAX);
    let mut slots: Vec<Option<Fetched>> = fetched.into_iter().map(Some).collect();
    for sub in subgroups {
        if sub.len() == 1 {
            let m = slots[sub[0]].take().expect("subgroup indices are disjoint");
            pending.extend(run_kernel(m.task, m.inputs));
            continue;
        }
        let group: Vec<Fetched> = sub
            .iter()
            .map(|&i| slots[i].take().expect("subgroup indices are disjoint"))
            .collect();
        execute_fused_subgroup(&op, kind, group, stack_idx, shared_idx, pending);
    }
}

/// One stacked kernel call over ≥2 signature-matched members, plus the
/// scatter back into each member's frame slot.
fn execute_fused_subgroup(
    op: &OpKind,
    kind: FuseKind,
    group: Vec<Fetched>,
    stack_idx: usize,
    shared_idx: usize,
    pending: &mut Vec<Task>,
) {
    let parts: Vec<&Tensor> = group.iter().map(|m| &m.inputs[stack_idx]).collect();
    let fused = match kind {
        FuseKind::RowsShared => batch::stack_rows(&parts),
        FuseKind::ColsShared => batch::stack_cols(&parts),
    }
    .and_then(|(stacked, sizes)| {
        let (run, shared) = (&group[0].task.frame.run, &group[0].inputs[shared_idx]);
        let out = timed_kernel(run, op, || kernel::execute_stacked(op, &stacked, shared))?;
        match kind {
            FuseKind::RowsShared => batch::split_rows(&out, &sizes),
            FuseKind::ColsShared => batch::split_cols(&out, &sizes),
        }
    });
    match fused {
        Ok(outs) => {
            debug_assert_eq!(outs.len(), group.len());
            group[0]
                .task
                .frame
                .run
                .run_stats
                .fused_groups
                .fetch_add(1, Ordering::Relaxed);
            for (m, mut out) in group.into_iter().zip(outs) {
                // AddBias preserves its input's shape; a rank-1 member came
                // back as `[1, n]`, so restore the original view (the buffer
                // is untouched — reshape is metadata only).
                if matches!(op, OpKind::AddBias) && out.shape() != m.inputs[0].shape() {
                    match out.reshape(m.inputs[0].shape().clone()) {
                        Ok(t) => out = t,
                        Err(_) => {
                            pending.extend(run_kernel(m.task, m.inputs));
                            continue;
                        }
                    }
                }
                let Task { frame, node } = m.task;
                frame
                    .run
                    .run_stats
                    .fused_tasks
                    .fetch_add(1, Ordering::Relaxed);
                pending.extend(finish_node(frame, node, Outs::One(Some(out))));
            }
        }
        Err(_) => {
            // Error isolation: a fused failure must not smear across runs.
            // Re-run every member scalar with its own (already fetched)
            // inputs so only genuinely failing instances fail their runs.
            for m in group {
                pending.extend(run_kernel(m.task, m.inputs));
            }
        }
    }
}

/// Resolves a `FwdValue`/`FwdZeros` read against the backprop cache.
fn read_fwd(frame: &Frame, of: PortRef, zeros: bool) -> Result<Tensor, ExecError> {
    let run = &frame.run;
    let fwd_gref = match frame.gref {
        GraphRef::Sub(id) => {
            let sg = run.plan.module.subgraph(id);
            GraphRef::Sub(sg.grad_of.ok_or_else(|| {
                ExecError::internal(format!("FwdValue in non-gradient SubGraph '{}'", sg.name))
            })?)
        }
        GraphRef::Main => {
            return Err(ExecError::internal("FwdValue in the main graph"));
        }
    };
    let cache = run
        .cache
        .as_ref()
        .ok_or_else(|| ExecError::internal("FwdValue outside a training run"))?;
    let key = CacheKey {
        gref: fwd_gref,
        path: frame.path.clone(),
        node: of.node,
        port: of.port,
    };
    run.run_stats.cache_reads.fetch_add(1, Ordering::Relaxed);
    if zeros {
        let shape = cache.shapes.get(&key).ok_or_else(|| ExecError::CacheMiss {
            msg: format!("shape of {of} at path {}", frame.path),
        })?;
        Ok(Tensor::zeros(shape))
    } else {
        cache.values.get(&key).ok_or_else(|| ExecError::CacheMiss {
            msg: format!("value of {of} at path {}", frame.path),
        })
    }
}

/// Backprop-cache writes for one published node: its values if the plan
/// keeps them, its shapes if it keeps those. Training runs only.
fn cache_outputs(frame: &Frame, plan: &ExecutionPlan, node: NodeId, outs: &Outs) {
    let Some(cache) = &frame.run.cache else {
        return;
    };
    let (value, shape) = (
        plan.keep_value[node.0 as usize],
        plan.keep_shape[node.0 as usize],
    );
    if !(value || shape) {
        return;
    }
    let ports = match outs {
        Outs::One(t) => std::slice::from_ref(t),
        Outs::Many(ts) => ts,
        Outs::Pending => &[],
    };
    for (port, t) in ports.iter().enumerate() {
        let Some(t) = t else { continue };
        let key = CacheKey {
            gref: frame.gref,
            path: frame.path.clone(),
            node,
            port: port as u16,
        };
        if shape {
            cache.shapes.insert(key.clone(), t.shape().clone());
        }
        if value {
            cache.values.insert(key, t.clone());
            frame
                .run
                .run_stats
                .cache_writes
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A completed frame's results. The root's finish the run; any other
/// frame's are handed back with their return location, the parent's
/// Invoke/Cond node, on which they are a publish like any other — one
/// value, or a boxed slice when the graph returns several.
fn frame_return(frame: &Frame) -> Option<(Arc<Frame>, NodeId, Outs)> {
    let run = &frame.run;
    let ports = &run.plan.module.graph(frame.gref).outputs;
    let take = |p| fetch(frame, p).map_err(|e| run.fail(e)).ok();
    let Some(link) = &frame.parent else {
        let outs = ports.iter().map(|&p| take(p)).collect::<Option<Vec<_>>>()?;
        run.deliver(Ok(outs));
        return None;
    };
    let outs = match ports.as_slice() {
        &[p] => Outs::One(Some(take(p)?)),
        ports => Outs::Many(
            ports
                .iter()
                .map(|&p| take(p).map(Some))
                .collect::<Option<_>>()?,
        ),
    };
    Some((Arc::clone(&link.frame), link.node, outs))
}

/// Publishes a node's outputs, notifies dependents, and cascades frame
/// completions up the frame tree (iteratively — tail-recursive frames can be
/// thousands deep).
///
/// One **work-first** rule covers every edge: of the consumers this
/// publish makes ready, the first in [`ExecutionPlan::consumers`] order is
/// returned as the caller's continuation and only the surplus is pushed to
/// the shared queue. A completed frame's results are a publish on the
/// parent's Invoke/Cond node, so a return edge follows the same rule. At
/// most one task is returned: a ready consumer keeps its frame open, so the
/// cascade cannot climb past a frame that yielded one.
fn finish_node(mut frame: Arc<Frame>, mut node: NodeId, mut outs: Outs) -> Option<Task> {
    loop {
        let plan = frame.run.plan.plan(frame.gref);
        cache_outputs(&frame, plan, node, &outs);
        frame.core.slots[node.0 as usize].lock().outs = outs;
        // Notify dependents; keep the first newly-ready one, queue the rest.
        let mut cont: Option<NodeId> = None;
        let mut surplus: Vec<NodeId> = Vec::new();
        for &c in &plan.consumers[node.0 as usize] {
            if frame.core.pending[c.0 as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                match cont {
                    None => cont = Some(c),
                    Some(_) => surplus.push(c),
                }
            }
        }
        if !surplus.is_empty() {
            frame
                .run
                .queue
                .push_batch(surplus.into_iter().map(|node| Task {
                    frame: Arc::clone(&frame),
                    node,
                }));
        }
        // Frame countdown.
        if frame.nodes_left.fetch_sub(1, Ordering::AcqRel) != 1 {
            return cont.map(|node| Task { frame, node });
        }
        // Frame complete: its outputs go to the parent's Invoke/Cond node
        // (its "return location"), or finish the run.
        (frame, node, outs) = frame_return(&frame)?;
    }
}

#[cfg(test)]
mod tests;
