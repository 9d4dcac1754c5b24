//! [`Session`]: a planned module bound to parameters and an executor.
//!
//! A session is the user-facing entry point of the runtime: it plans the
//! module once ([`crate::ModulePlan`]), allocates (or shares) a parameter
//! store, and exposes [`Session::run`] for inference and
//! [`Session::run_training`] for loss + gradient runs. Every run — inference,
//! training or served — executes that one plan.
//!
//! # Concurrency
//!
//! A session is a *concurrent* entry point: any number of runs may be in
//! flight at once on the shared executor. [`Session::submit_run`] starts an
//! inference run without blocking, [`Session::run_many`] serves a batch of
//! independent requests concurrently (a serving minibatch), and
//! [`Session::run_training_batch`] trains a minibatch of instances as
//! concurrent root frames whose gradients all accumulate into the one
//! shared [`GradStore`]. Each training run gets its own private
//! [`BackpropCache`], so concurrent activations of the same module never
//! collide on cached forward values.
//!
//! The one rule: calls that *reset* the gradient store
//! ([`Session::run_training`] / [`Session::run_training_batch`]) must not
//! overlap each other — they clear the shared accumulators at step start.
//! The rule is *enforced*: each session carries a training-step token, and
//! a clearing call that arrives while another is in flight is rejected
//! deterministically with [`ExecError::TrainingOverlap`] instead of
//! silently corrupting the gradients mid-accumulation. Inference (`run` /
//! `run_many` / `submit_run` / [`Session::serve`]) is unrestricted.
//!
//! # Example
//!
//! ```
//! use rdg_exec::{Executor, Session};
//! use rdg_graph::ModuleBuilder;
//!
//! let mut mb = ModuleBuilder::new();
//! let a = mb.const_f32(2.0);
//! let b = mb.const_f32(3.0);
//! let c = mb.add(a, b).unwrap();
//! mb.set_outputs(&[c]).unwrap();
//!
//! let exec = Executor::with_threads(2);
//! let session = Session::new(exec, mb.finish().unwrap()).unwrap();
//! let out = session.run(vec![]).unwrap();
//! assert_eq!(out[0].as_f32_scalar().unwrap(), 5.0);
//! ```

use crate::cache::BackpropCache;
use crate::error::ExecError;
use crate::executor::{Executor, RunHandle};
use crate::params::{GradStore, ParamStore};
use crate::plan::ModulePlan;
use crate::serve::{ServeClient, ServeConfig, ServeQueue};
use rdg_graph::Module;
use rdg_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A module ready to run: plan + parameter store + gradient machinery.
///
/// Sessions are cheap to clone conceptually (everything is `Arc`-shared);
/// several sessions may share one [`ParamStore`] — that is how the
/// equivalence tests run the recursive and iterative implementations on
/// identical weights, and how data-parallel replicas share nothing but
/// parameters.
///
/// Ownership story: the *executor* (worker pool + ready queue + lifetime
/// stats) is shared by any number of sessions; the *session* owns the plan,
/// the parameter store, and one gradient store; each *run* owns its feeds,
/// its result slot, its stats, its fusion opt-in, and (for training) a
/// private backprop cache holding the run's path table.
pub struct Session {
    exec: Arc<Executor>,
    plan: Arc<ModulePlan>,
    params: Arc<ParamStore>,
    grads: Arc<GradStore>,
    /// Training-step token: held (true) while a clearing training call
    /// (`run_training` / `run_training_batch`) is in flight. The second
    /// overlapping clearer is rejected with [`ExecError::TrainingOverlap`].
    training_step: AtomicBool,
}

/// RAII release of the training-step token: the token frees on every exit
/// path of a clearing training call, including the error ones.
struct StepToken<'a>(&'a AtomicBool);

impl Drop for StepToken<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Session {
    /// Plans `module` and initializes fresh parameters from its specs.
    pub fn new(exec: Arc<Executor>, module: Module) -> Result<Self, ExecError> {
        Self::from_plan(exec, ModulePlan::new(Arc::new(module))?, None)
    }

    /// Plans `module` but shares an existing parameter store (checked as
    /// in [`Session::from_plan`]).
    pub fn with_params(
        exec: Arc<Executor>,
        module: Module,
        params: Arc<ParamStore>,
    ) -> Result<Self, ExecError> {
        Self::from_plan(exec, ModulePlan::new(Arc::new(module))?, Some(params))
    }

    /// Binds an already-built plan to `params`, or to fresh parameters
    /// initialized from the module's specs when `None`.
    ///
    /// A shared store must match the module's parameter specs — same count
    /// and, per parameter, same dtype and shape. A mismatched store is
    /// rejected here with [`ExecError::ParamMismatch`] instead of failing
    /// later inside a kernel mid-run.
    pub fn from_plan(
        exec: Arc<Executor>,
        plan: Arc<ModulePlan>,
        params: Option<Arc<ParamStore>>,
    ) -> Result<Self, ExecError> {
        let params = match params {
            Some(params) => {
                Self::check_params(&plan, &params)?;
                params
            }
            None => Arc::new(ParamStore::from_module(&plan.module)),
        };
        let grads = GradStore::sharded(plan.module.params.len(), exec.n_threads());
        Ok(Session {
            exec,
            plan,
            params,
            grads: Arc::new(grads),
            training_step: AtomicBool::new(false),
        })
    }

    fn check_params(plan: &Arc<ModulePlan>, params: &Arc<ParamStore>) -> Result<(), ExecError> {
        if params.len() != plan.module.params.len() {
            return Err(ExecError::ParamMismatch {
                msg: format!(
                    "shared ParamStore has {} params, module declares {}",
                    params.len(),
                    plan.module.params.len()
                ),
            });
        }
        for (i, spec) in plan.module.params.iter().enumerate() {
            let got = params.read(rdg_graph::ParamId(i as u32));
            if got.dtype() != spec.init.dtype() {
                return Err(ExecError::ParamMismatch {
                    msg: format!(
                        "param {i} '{}': module declares dtype {}, shared store holds {}",
                        spec.name,
                        spec.init.dtype(),
                        got.dtype()
                    ),
                });
            }
            if got.shape() != spec.init.shape() {
                return Err(ExecError::ParamMismatch {
                    msg: format!(
                        "param {i} '{}': module declares shape {:?}, shared store holds {:?}",
                        spec.name,
                        spec.init.shape(),
                        got.shape()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Claims the training-step token for one clearing training call.
    fn begin_training_step(&self) -> Result<StepToken<'_>, ExecError> {
        if self
            .training_step
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return Err(ExecError::TrainingOverlap);
        }
        Ok(StepToken(&self.training_step))
    }

    /// The planned module.
    pub fn module(&self) -> &Arc<Module> {
        &self.plan.module
    }

    /// The parameter store.
    pub fn params(&self) -> &Arc<ParamStore> {
        &self.params
    }

    /// The gradient store (filled by training runs).
    pub fn grads(&self) -> &Arc<GradStore> {
        &self.grads
    }

    /// The executor this session runs on.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.exec
    }

    /// The session's module plan, which every one of its runs executes.
    pub fn plan(&self) -> &Arc<ModulePlan> {
        &self.plan
    }

    /// Inference run: no gradient accumulation, no activation caching.
    pub fn run(&self, feeds: Vec<Tensor>) -> Result<Vec<Tensor>, ExecError> {
        self.submit_run(feeds)?.wait()
    }

    /// Starts an inference run without blocking (serving path).
    ///
    /// The returned [`RunHandle`] joins the run; any number may be in
    /// flight at once, sharing the executor's worker pool. No cache: an
    /// inference run builds no paths.
    pub fn submit_run(&self, feeds: Vec<Tensor>) -> Result<RunHandle, ExecError> {
        self.exec
            .submit(&self.plan, &self.params, feeds, None, None)
    }

    /// Serves a batch of independent inference requests concurrently.
    ///
    /// All requests are submitted before any is waited on, so they execute
    /// as concurrent root frames on the shared worker pool. Results come
    /// back positionally; each request fails or succeeds on its own (a bad
    /// feed in one request does not poison its neighbours).
    pub fn run_many(&self, feeds_list: Vec<Vec<Tensor>>) -> Vec<Result<Vec<Tensor>, ExecError>> {
        let runs: Vec<Result<RunHandle, ExecError>> =
            feeds_list.into_iter().map(|f| self.submit_run(f)).collect();
        runs.into_iter()
            .map(|r| r.and_then(RunHandle::wait))
            .collect()
    }

    /// Opens an admission-controlled serving loop on this session with the
    /// default [`ServeConfig`].
    ///
    /// The returned [`ServeClient`] is cloneable and usable from any
    /// number of client threads; requests pass through per-class bounded
    /// lanes ([`crate::Priority`]) with backpressure, and a dispatcher
    /// keeps the number of in-flight root frames at a service-time-adapted
    /// multiple of the executor's worker count (see [`crate::serve`]).
    /// The first client submits into [`crate::Priority::Interactive`]; use
    /// [`ServeClient::with_priority`] to make clones for lower-priority
    /// traffic sources. The loop outlives this `Session`
    /// value — it holds its own handles to the plan, parameters, and
    /// executor — and shuts down when the last client is dropped or
    /// [`ServeClient::shutdown`] is called.
    pub fn serve(&self) -> ServeClient {
        self.serve_with(ServeConfig::default())
    }

    /// Opens an admission-controlled serving loop with an explicit
    /// [`ServeConfig`] (per-class lane capacity, wave sizing, aging) — the
    /// one constructor of a serving loop. Every loop fuses same-shape
    /// kernels across its requests.
    pub fn serve_with(&self, config: ServeConfig) -> ServeClient {
        ServeQueue::spawn(
            Arc::clone(&self.exec),
            Arc::clone(&self.plan),
            Arc::clone(&self.params),
            config,
        )
    }

    /// Starts a training run without blocking or clearing the gradient
    /// store: gradients *accumulate* into [`Session::grads`] on top of
    /// whatever is already there.
    ///
    /// Each submission gets a private [`BackpropCache`], so concurrent
    /// training runs of the same module cannot collide on cached forward
    /// values (their invocation paths have identical sites, but each
    /// cache names them with its own nodes); the cache, and every path
    /// node in it, is dropped with the run.
    pub fn submit_training(&self, feeds: Vec<Tensor>) -> Result<RunHandle, ExecError> {
        self.exec.submit(
            &self.plan,
            &self.params,
            feeds,
            Some(Arc::clone(&self.grads)),
            Some(Arc::new(BackpropCache::new())),
        )
    }

    /// Training run: clears the gradient store, then executes with
    /// activation caching and gradient sinks enabled.
    ///
    /// Accumulated gradients stay in [`Session::grads`] for the optimizer.
    /// Training calls that clear the store (`run_training` /
    /// [`Session::run_training_batch`]) must not overlap each other: the
    /// session's training-step token rejects the second overlapping
    /// clearer with [`ExecError::TrainingOverlap`] (released when this
    /// call returns, on success and error alike).
    pub fn run_training(&self, feeds: Vec<Tensor>) -> Result<Vec<Tensor>, ExecError> {
        let _step = self.begin_training_step()?;
        self.grads.clear();
        self.submit_training(feeds)?.wait()
    }

    /// Trains a minibatch: all instances launch as concurrent root frames,
    /// their gradients accumulate into the one shared [`Session::grads`],
    /// and per-instance outputs come back positionally.
    ///
    /// The gradient store is cleared once at step start (not per run), so
    /// the result is the **sum** of the per-instance gradients — what the
    /// same instances run sequentially through
    /// [`Session::submit_training`] would accumulate, up to floating-point
    /// reordering (concurrent contributions land in nondeterministic
    /// order). Callers wanting the minibatch mean divide once via
    /// [`GradStore::scale_all`].
    ///
    /// On a per-instance failure the first error is returned — but only
    /// after *every* run has finished, so no detached run is still writing
    /// gradients when this returns.
    ///
    /// Like [`Session::run_training`], this is a *clearing* call: a second
    /// clearer overlapping it is rejected with
    /// [`ExecError::TrainingOverlap`].
    pub fn run_training_batch(
        &self,
        feeds_list: Vec<Vec<Tensor>>,
    ) -> Result<Vec<Vec<Tensor>>, ExecError> {
        let _step = self.begin_training_step()?;
        self.grads.clear();
        let handles: Vec<Result<RunHandle, ExecError>> = feeds_list
            .into_iter()
            .map(|feeds| self.submit_training(feeds))
            .collect();
        // Join everything before surfacing any error.
        let results: Vec<Result<Vec<Tensor>, ExecError>> = handles
            .into_iter()
            .map(|h| h.and_then(RunHandle::wait))
            .collect();
        results.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdg_graph::ModuleBuilder;
    use rdg_tensor::DType;

    fn exec() -> Arc<Executor> {
        Executor::with_threads(2)
    }

    #[test]
    fn arithmetic_main_graph() {
        let mut mb = ModuleBuilder::new();
        let a = mb.const_f32(2.0);
        let b = mb.const_f32(3.0);
        let c = mb.add(a, b).unwrap();
        let d = mb.mul(c, c).unwrap();
        mb.set_outputs(&[d]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let out = s.run(vec![]).unwrap();
        assert_eq!(out[0].as_f32_scalar().unwrap(), 25.0);
    }

    #[test]
    fn feeds_are_validated() {
        let mb = ModuleBuilder::new();
        let mut g = rdg_graph::Graph::new();
        let i = g.push_node(
            rdg_graph::OpKind::Input {
                index: 0,
                dtype: DType::F32,
            },
            vec![],
            vec![DType::F32],
        );
        g.outputs.push(rdg_graph::PortRef::of(i));
        // Hand-assemble a module whose main graph has one input.
        let mut m = mb.finish().unwrap();
        m.main = g;
        let s = Session::new(exec(), m).unwrap();
        assert!(s.run(vec![]).is_err(), "missing feed");
        assert!(s.run(vec![Tensor::scalar_i32(1)]).is_err(), "wrong dtype");
        let out = s.run(vec![Tensor::scalar_f32(9.0)]).unwrap();
        assert_eq!(out[0].as_f32_scalar().unwrap(), 9.0);
    }

    #[test]
    fn subgraph_invocation_and_captures() {
        let mut mb = ModuleBuilder::new();
        let bias = mb.const_f32(100.0);
        let sg = mb
            .subgraph("affine", &[DType::F32], &[DType::F32], |b| {
                let x = b.input(0)?;
                let y = b.scale(x, 2.0)?;
                Ok(vec![b.add(y, bias)?]) // captures `bias`
            })
            .unwrap();
        let a = mb.const_f32(5.0);
        let out = mb.invoke(&sg, &[a]).unwrap();
        mb.set_outputs(&[out[0]]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let out = s.run(vec![]).unwrap();
        assert_eq!(out[0].as_f32_scalar().unwrap(), 110.0);
    }

    #[test]
    fn recursion_countdown() {
        // sum(n) = n == 0 ? 0 : n + sum(n-1), computed on i32 scalars.
        let mut mb = ModuleBuilder::new();
        let h = mb.declare_subgraph("sum", &[DType::I32], &[DType::I32]);
        mb.define_subgraph(&h, |b| {
            let n = b.input(0)?;
            let zero = b.const_i32(0);
            let p = b.igt(n, zero)?;
            let out = b.cond1(
                p,
                DType::I32,
                |b| {
                    let one = b.const_i32(1);
                    let m = b.isub(n, one)?;
                    let rec = b.invoke(&h, &[m])?[0];
                    b.iadd(n, rec)
                },
                |b| b.identity(zero),
            )?;
            Ok(vec![out])
        })
        .unwrap();
        let start = mb.const_i32(10);
        let out = mb.invoke(&h, &[start]).unwrap();
        mb.set_outputs(&[out[0]]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let out = s.run(vec![]).unwrap();
        assert_eq!(out[0].as_i32_scalar().unwrap(), 55);
    }

    #[test]
    fn deep_recursion_does_not_overflow_stack() {
        // Tail recursion 20_000 deep: frames are heap objects and the
        // completion cascade is iterative, so this must succeed on a
        // 2-thread pool with default stack sizes.
        let mut mb = ModuleBuilder::new();
        let h = mb.declare_subgraph("down", &[DType::I32], &[DType::I32]);
        mb.define_subgraph(&h, |b| {
            let n = b.input(0)?;
            let zero = b.const_i32(0);
            let p = b.igt(n, zero)?;
            let out = b.cond1(
                p,
                DType::I32,
                |b| {
                    let one = b.const_i32(1);
                    let m = b.isub(n, one)?;
                    Ok(b.invoke(&h, &[m])?[0])
                },
                |b| b.identity(n),
            )?;
            Ok(vec![out])
        })
        .unwrap();
        let start = mb.const_i32(20_000);
        let out = mb.invoke(&h, &[start]).unwrap();
        mb.set_outputs(&[out[0]]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let out = s.run(vec![]).unwrap();
        assert_eq!(out[0].as_i32_scalar().unwrap(), 0);
        assert!(
            s.executor()
                .stats()
                .max_depth
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 20_000
        );
    }

    #[test]
    fn cond_is_lazy() {
        // The else-branch divides by zero; with a true predicate it must
        // never execute.
        let mut mb = ModuleBuilder::new();
        let t = mb.const_i32(1);
        let out = mb
            .cond1(
                t,
                DType::I32,
                |b| Ok(b.const_i32(7)),
                |b| {
                    let one = b.const_i32(1);
                    let zero = b.const_i32(0);
                    b.idiv(one, zero)
                },
            )
            .unwrap();
        mb.set_outputs(&[out]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let out = s.run(vec![]).unwrap();
        assert_eq!(out[0].as_i32_scalar().unwrap(), 7);
    }

    #[test]
    fn kernel_errors_propagate() {
        let mut mb = ModuleBuilder::new();
        let one = mb.const_i32(1);
        let zero = mb.const_i32(0);
        let bad = mb.idiv(one, zero).unwrap();
        mb.set_outputs(&[bad]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let err = s.run(vec![]).unwrap_err();
        assert!(matches!(err, ExecError::Kernel { .. }), "{err}");
    }

    #[test]
    fn while_loop_executes() {
        let mut mb = ModuleBuilder::new();
        let i0 = mb.const_i32(0);
        let acc0 = mb.const_f32(0.0);
        let limit = mb.const_i32(100);
        let outs = mb
            .while_loop(
                "accumulate",
                &[i0, acc0],
                |b, s| b.ilt(s[0], limit),
                |b, s| {
                    let one = b.const_i32(1);
                    let i = b.iadd(s[0], one)?;
                    let acc = b.add_const(s[1], 0.5)?;
                    Ok(vec![i, acc])
                },
            )
            .unwrap();
        mb.set_outputs(&[outs[0], outs[1]]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let out = s.run(vec![]).unwrap();
        assert_eq!(out[0].as_i32_scalar().unwrap(), 100);
        assert!((out[1].as_f32_scalar().unwrap() - 50.0).abs() < 1e-4);
    }

    #[test]
    fn parallel_siblings_both_execute() {
        // fib-style double recursion: checks that sibling frames fan out and
        // rejoin correctly. fib(10) = 55 with fib(0)=0, fib(1)=1.
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
                    let n1 = b.isub(n, one)?;
                    let n2 = b.isub(n, two)?;
                    let f1 = b.invoke(&h, &[n1])?[0];
                    let f2 = b.invoke(&h, &[n2])?[0];
                    b.iadd(f1, f2)
                },
            )?;
            Ok(vec![out])
        })
        .unwrap();
        let start = mb.const_i32(10);
        let out = mb.invoke(&h, &[start]).unwrap();
        mb.set_outputs(&[out[0]]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        let out = s.run(vec![]).unwrap();
        assert_eq!(out[0].as_i32_scalar().unwrap(), 55);
        // fib spawns an exponential number of frames; make sure we saw them.
        let frames = s
            .executor()
            .stats()
            .frames_spawned
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(frames > 100, "fib(10) must spawn many frames, saw {frames}");
    }

    #[test]
    fn with_params_rejects_wrong_count() {
        // Module with one param vs a store built for a param-less module.
        let mut mb = ModuleBuilder::new();
        let w = mb.param_wire("w", Tensor::scalar_f32(1.0)).unwrap();
        mb.set_outputs(&[w]).unwrap();
        let with_param = mb.finish().unwrap();

        let mut mb = ModuleBuilder::new();
        let c = mb.const_f32(0.0);
        mb.set_outputs(&[c]).unwrap();
        let no_params = mb.finish().unwrap();

        let e = exec();
        let donor = Session::new(Arc::clone(&e), no_params).unwrap();
        match Session::with_params(e, with_param, Arc::clone(donor.params())) {
            Err(ExecError::ParamMismatch { .. }) => {}
            Err(other) => panic!("expected ParamMismatch, got {other:?}"),
            Ok(_) => panic!("count mismatch was accepted"),
        }
    }

    #[test]
    fn with_params_rejects_wrong_shape() {
        let mut mb = ModuleBuilder::new();
        let w = mb
            .param_wire("w", Tensor::from_f32([2], vec![1.0, 2.0]).unwrap())
            .unwrap();
        mb.set_outputs(&[w]).unwrap();
        let vec_param = mb.finish().unwrap();

        let mut mb = ModuleBuilder::new();
        let w = mb
            .param_wire("w", Tensor::from_f32([3], vec![1.0, 2.0, 3.0]).unwrap())
            .unwrap();
        mb.set_outputs(&[w]).unwrap();
        let longer_param = mb.finish().unwrap();

        let e = exec();
        let donor = Session::new(Arc::clone(&e), vec_param).unwrap();
        // Same param count, same dtype, different shape: must be rejected
        // at construction, not inside a kernel mid-run.
        match Session::with_params(e, longer_param, Arc::clone(donor.params())) {
            Err(ExecError::ParamMismatch { msg }) => {
                assert!(msg.contains("'w'"), "names the parameter: {msg}");
            }
            Err(other) => panic!("expected ParamMismatch, got {other:?}"),
            Ok(_) => panic!("shape mismatch was accepted"),
        }
    }

    #[test]
    fn with_params_rejects_wrong_dtype() {
        let mut mb = ModuleBuilder::new();
        let w = mb.param_wire("w", Tensor::scalar_f32(1.0)).unwrap();
        mb.set_outputs(&[w]).unwrap();
        let f32_param = mb.finish().unwrap();

        let mut mb = ModuleBuilder::new();
        let w = mb.param_wire("w", Tensor::scalar_i32(1)).unwrap();
        mb.set_outputs(&[w]).unwrap();
        let i32_param = mb.finish().unwrap();

        let e = exec();
        let donor = Session::new(Arc::clone(&e), f32_param).unwrap();
        match Session::with_params(e, i32_param, Arc::clone(donor.params())) {
            Err(ExecError::ParamMismatch { .. }) => {}
            Err(other) => panic!("expected ParamMismatch, got {other:?}"),
            Ok(_) => panic!("dtype mismatch was accepted"),
        }
    }

    #[test]
    fn matching_shared_store_is_accepted() {
        let mut mb = ModuleBuilder::new();
        let w = mb
            .param_wire("w", Tensor::from_f32([2], vec![1.0, 2.0]).unwrap())
            .unwrap();
        mb.set_outputs(&[w]).unwrap();
        let m = mb.finish().unwrap();
        let e = exec();
        let donor = Session::new(Arc::clone(&e), m.clone()).unwrap();
        assert!(Session::with_params(e, m, Arc::clone(donor.params())).is_ok());
    }

    #[test]
    fn overlapping_clearing_training_calls_are_rejected() {
        let mut mb = ModuleBuilder::new();
        let w = mb.param_wire("w", Tensor::scalar_f32(3.0)).unwrap();
        let x = mb.const_f32(2.0);
        let y = mb.mul(w, x).unwrap();
        mb.set_outputs(&[y]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        // Simulate a clearing step in flight by holding the token the way
        // run_training/run_training_batch do.
        let step = s.begin_training_step().unwrap();
        let err = s.run_training(vec![]).unwrap_err();
        assert!(matches!(err, ExecError::TrainingOverlap), "{err}");
        let err = s.run_training_batch(vec![vec![]]).unwrap_err();
        assert!(matches!(err, ExecError::TrainingOverlap), "{err}");
        // Inference stays unrestricted while a training step is active.
        assert_eq!(s.run(vec![]).unwrap()[0].as_f32_scalar().unwrap(), 6.0);
        // Non-clearing accumulation (`submit_training`) is also exempt.
        s.submit_training(vec![]).unwrap().wait().unwrap();
        drop(step);
        // Token released: the next clearing call proceeds.
        assert!(s.run_training(vec![]).is_ok());
    }

    #[test]
    fn training_token_releases_on_error_paths() {
        // A clearing call that fails (bad feed) must still release the
        // token, or the session would be deadlocked for training forever.
        let mut mb = ModuleBuilder::new();
        let w = mb.param_wire("w", Tensor::scalar_f32(3.0)).unwrap();
        mb.set_outputs(&[w]).unwrap();
        let s = Session::new(exec(), mb.finish().unwrap()).unwrap();
        assert!(s.run_training(vec![Tensor::scalar_f32(0.0)]).is_err());
        assert!(s.run_training(vec![]).is_ok(), "token was released");
    }

    #[test]
    fn shared_params_are_visible_across_sessions() {
        let mut mb = ModuleBuilder::new();
        let w = mb.param_wire("w", Tensor::scalar_f32(3.0)).unwrap();
        let x = mb.const_f32(2.0);
        let y = mb.mul(w, x).unwrap();
        mb.set_outputs(&[y]).unwrap();
        let m = mb.finish().unwrap();

        let e = exec();
        let s1 = Session::new(Arc::clone(&e), m.clone()).unwrap();
        let s2 = Session::with_params(e, m, Arc::clone(s1.params())).unwrap();
        assert_eq!(s1.run(vec![]).unwrap()[0].as_f32_scalar().unwrap(), 6.0);
        // Mutate through the shared store; both sessions see it.
        s1.params()
            .write(rdg_graph::ParamId(0), Tensor::scalar_f32(5.0));
        assert_eq!(s2.run(vec![]).unwrap()[0].as_f32_scalar().unwrap(), 10.0);
    }
}
