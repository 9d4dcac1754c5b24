//! Parameter and gradient stores.
//!
//! Parameters live outside the dataflow graphs (like TensorFlow variables):
//! `Param` nodes read them, `GradSink` / `GradSinkRows` / `GradSinkOuter`
//! nodes accumulate gradients, and optimizers apply updates between steps.
//! Because many frames of a recursive graph read and contribute gradients
//! to the *same* parameter concurrently, reads are lock-free clones of
//! `Arc`-backed tensors and accumulation takes the mutex of the worker's
//! own shard of that parameter.

use parking_lot::{Mutex, MutexGuard, RwLock};
use rdg_graph::{Module, ParamId};
use rdg_tensor::{ops, Tensor, TensorError};
use std::cell::Cell;

/// Shared storage for trainable parameters.
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<RwLock<Tensor>>,
}

impl ParamStore {
    /// Initializes the store from a module's parameter specs.
    pub fn from_module(m: &Module) -> Self {
        ParamStore {
            names: m.params.iter().map(|p| p.name.clone()).collect(),
            values: m
                .params
                .iter()
                .map(|p| RwLock::new(p.init.clone()))
                .collect(),
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Cheap snapshot read (clones the `Arc`, not the data).
    pub fn read(&self, p: ParamId) -> Tensor {
        self.values[p.0 as usize].read().clone()
    }

    /// Replaces a parameter value (optimizer updates).
    pub fn write(&self, p: ParamId, t: Tensor) {
        *self.values[p.0 as usize].write() = t;
    }

    /// Parameter name (diagnostics).
    pub fn name(&self, p: ParamId) -> &str {
        &self.names[p.0 as usize]
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len() as u32).map(ParamId)
    }

    /// Total number of scalar elements across all parameters.
    pub fn total_elems(&self) -> usize {
        self.values.iter().map(|v| v.read().numel()).sum()
    }
}

thread_local! {
    /// The [`GradStore`] shard this thread accumulates into: a pool worker's
    /// index, 0 on every other thread (tests, the virtual clock).
    static SHARD: Cell<usize> = const { Cell::new(0) };
}

/// Binds the calling pool worker to gradient shard `i`, once, as it starts.
pub(crate) fn bind_worker_shard(i: usize) {
    SHARD.with(|s| s.set(i));
}

type Slot = Mutex<Option<Tensor>>;

/// Gradient accumulation buffers, one per parameter and shard.
///
/// Accumulation happens concurrently from many frames. A session's store
/// has one shard per pool worker: a worker accumulates into its own
/// (lazily allocated on its first contribution), so two workers neither
/// wait on one parameter's mutex nor pass its accumulator between their
/// caches. Every reader first folds the shards into shard 0, in shard
/// order, so it sees each contribution exactly once.
pub struct GradStore {
    /// `shards[s][p]`: what threads bound to shard `s` added for `p` since
    /// the last fold.
    shards: Vec<Vec<Slot>>,
}

/// `*slot += g`, the first contribution becoming the accumulator.
fn add(slot: &mut Option<Tensor>, g: &Tensor) -> Result<(), TensorError> {
    let Some(acc) = slot.as_mut() else {
        *slot = Some(g.clone());
        return Ok(());
    };
    if acc.shape() != g.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: acc.shape().clone(),
            rhs: g.shape().clone(),
            ctx: "GradStore::accumulate",
        });
    }
    // In place: the accumulator is uniquely owned by the slot unless a
    // snapshot was taken mid-step (then CoW copies).
    let gv = g.f32s()?;
    for (a, &x) in acc.make_f32_mut()?.iter_mut().zip(gv) {
        *a += x;
    }
    Ok(())
}

impl GradStore {
    /// Creates an empty single-shard store sized for `n` parameters.
    pub fn new(n: usize) -> Self {
        Self::sharded(n, 1)
    }

    /// A store with one shard per pool worker (at least one).
    pub(crate) fn sharded(n: usize, workers: usize) -> Self {
        let shard = || (0..n).map(|_| Mutex::new(None)).collect();
        GradStore {
            shards: (0..workers.max(1)).map(|_| shard()).collect(),
        }
    }

    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.shards[0].len()
    }

    /// Returns `true` when sized for zero parameters.
    pub fn is_empty(&self) -> bool {
        self.shards[0].is_empty()
    }

    /// The calling thread's accumulator for `p`.
    fn mine(&self, p: ParamId) -> MutexGuard<'_, Option<Tensor>> {
        let shard = SHARD.with(Cell::get) % self.shards.len();
        self.shards[shard][p.0 as usize].lock()
    }

    /// Shard 0's accumulator for parameter `p`, locked, after every other
    /// shard's has been added to it and emptied. A shard whose accumulator
    /// does not fit (its sinks disagree on the gradient's shape) keeps it
    /// and is the `Err`.
    fn fold(&self, p: usize) -> Result<MutexGuard<'_, Option<Tensor>>, TensorError> {
        let mut head = self.shards[0][p].lock();
        for shard in &self.shards[1..] {
            let mut part = shard[p].lock();
            if let Some(g) = part.as_ref() {
                add(&mut head, g)?;
                *part = None;
            }
        }
        Ok(head)
    }

    /// Adds a dense gradient contribution for `p`.
    pub fn accumulate(&self, p: ParamId, g: &Tensor) -> Result<(), TensorError> {
        add(&mut self.mine(p), g)
    }

    /// Adds the weight-gradient contribution `aᵀ·dy` (`a: [k, m]`,
    /// `dy: [k, n]`) for `p` without materializing it: the `matmul_at` loop
    /// nest writes into the accumulator.
    pub fn accumulate_outer(&self, p: ParamId, a: &Tensor, dy: &Tensor) -> Result<(), TensorError> {
        let mut slot = self.mine(p);
        match slot.as_mut() {
            None => *slot = Some(ops::matmul_at(a, dy)?),
            Some(acc) => ops::matmul_at_acc(acc, a, dy)?,
        }
        Ok(())
    }

    /// Adds a row-sparse gradient contribution (embedding tables).
    ///
    /// `like` provides the dense shape for lazy initialization.
    pub fn accumulate_rows(
        &self,
        p: ParamId,
        like: &Tensor,
        ids: &Tensor,
        rows: &Tensor,
    ) -> Result<(), TensorError> {
        let mut slot = self.mine(p);
        let acc = slot.get_or_insert_with(|| Tensor::zeros(like.shape().clone()));
        ops::scatter_add_rows(acc, ids, rows)
    }

    /// Reads the accumulated gradient for `p`: `None` when nothing was
    /// contributed — or when the shards cannot be folded, which
    /// [`GradStore::scale_all`] reports as the error it is.
    pub fn get(&self, p: ParamId) -> Option<Tensor> {
        self.fold(p.0 as usize).ok()?.clone()
    }

    /// Clears all accumulators (start of a step).
    pub fn clear(&self) {
        for s in self.shards.iter().flatten() {
            *s.lock() = None;
        }
    }

    /// Scales every accumulated gradient in place by `factor`.
    ///
    /// Batched training accumulates raw per-instance sums (equal to the
    /// sequential sum up to floating-point reordering — concurrent slot
    /// updates land in nondeterministic order); callers that want the
    /// minibatch *mean* divide once here before the optimizer step
    /// instead of paying a scale per instance.
    pub fn scale_all(&self, factor: f32) -> Result<(), TensorError> {
        for p in 0..self.len() {
            if let Some(acc) = self.fold(p)?.as_mut() {
                for a in acc.make_f32_mut()?.iter_mut() {
                    *a *= factor;
                }
            }
        }
        Ok(())
    }

    /// Takes all gradients out, leaving the store cleared.
    pub fn take_all(&self) -> Vec<Option<Tensor>> {
        let all = (0..self.len()).map(|p| self.fold(p).ok()?.take()).collect();
        self.clear();
        all
    }

    /// Global L2 norm over all accumulated gradients.
    pub fn global_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        for p in 0..self.len() {
            if let Some(Ok(v)) = self.get(ParamId(p as u32)).as_ref().map(Tensor::f32s) {
                acc += v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
            }
        }
        acc.sqrt() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn dense_accumulation_sums() {
        let gs = GradStore::new(1);
        let p = ParamId(0);
        gs.accumulate(p, &Tensor::from_f32([2], vec![1.0, 2.0]).unwrap())
            .unwrap();
        gs.accumulate(p, &Tensor::from_f32([2], vec![10.0, 20.0]).unwrap())
            .unwrap();
        let g = gs.get(p).unwrap();
        assert_eq!(g.f32s().unwrap(), &[11.0, 22.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let gs = GradStore::new(1);
        let p = ParamId(0);
        gs.accumulate(p, &Tensor::zeros([2])).unwrap();
        assert!(gs.accumulate(p, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn sparse_rows_accumulate() {
        let gs = GradStore::new(1);
        let p = ParamId(0);
        let like = Tensor::zeros([4, 2]);
        let ids = Tensor::from_i32([2], vec![1, 1]).unwrap();
        let rows = Tensor::from_f32([2, 2], vec![1.0, 1.0, 2.0, 2.0]).unwrap();
        gs.accumulate_rows(p, &like, &ids, &rows).unwrap();
        let g = gs.get(p).unwrap();
        assert_eq!(g.f32s().unwrap(), &[0.0, 0.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn factored_accumulation_matches_dense() {
        let p = ParamId(0);
        let mat = |r: usize, c: usize, seed: f32| {
            let v = (0..r * c).map(|i| ((i as f32 + seed) * 0.618).sin());
            let mut v: Vec<f32> = v.collect();
            v[r * c / 2] = 0.0; // a zero takes the row skip
            Tensor::from_f32([r, c], v).unwrap()
        };
        // k = 1 (one tree node per contribution): the same products added
        // in the same order, so bit-for-bit; k = 5 reassociates the last bit.
        for (k, tol) in [(1usize, 0.0f32), (5, 1e-6)] {
            let (dense, factored) = (GradStore::new(1), GradStore::new(1));
            for step in 0..4 {
                let (a, dy) = (mat(k, 3, step as f32), mat(k, 4, 7.0 + step as f32));
                dense
                    .accumulate(p, &ops::matmul_at(&a, &dy).unwrap())
                    .unwrap();
                factored.accumulate_outer(p, &a, &dy).unwrap();
            }
            let (d, f) = (dense.get(p).unwrap(), factored.get(p).unwrap());
            assert_eq!(d.shape(), f.shape());
            for (x, y) in d.f32s().unwrap().iter().zip(f.f32s().unwrap()) {
                assert!(
                    (x - y).abs() <= tol * x.abs().max(1.0),
                    "k = {k}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn factored_shape_mismatch_rejected() {
        let gs = GradStore::new(1);
        let p = ParamId(0);
        let (a, dy) = (Tensor::ones([1, 3]), Tensor::ones([1, 4]));
        // Row counts that differ, and an operand that is no matrix.
        assert!(gs.accumulate_outer(p, &Tensor::ones([2, 3]), &dy).is_err());
        assert!(gs
            .accumulate_outer(p, &Tensor::ones([1, 3, 1]), &dy)
            .is_err());
        assert!(
            gs.get(p).is_none(),
            "a rejected contribution leaves nothing"
        );
        gs.accumulate_outer(p, &a, &dy).unwrap();
        // A product that does not fit the [3, 4] accumulator.
        assert!(gs.accumulate_outer(p, &dy, &a).is_err());
        assert!(gs.accumulate_outer(p, &a, &a).is_err());
        assert!(gs.get(p).unwrap().f32s().unwrap().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn concurrent_accumulation_is_complete() {
        // 8 threads on 4 shards, each mixing the three kinds of contribution
        // (each adds 1 to every element), while a reader folds underneath
        // them: every contribution is seen exactly once.
        let gs = Arc::new(GradStore::sharded(1, 4));
        let p = ParamId(0);
        let start = Arc::new(std::sync::Barrier::new(9));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (gs, start) = (Arc::clone(&gs), Arc::clone(&start));
                std::thread::spawn(move || {
                    bind_worker_shard(t);
                    let like = Tensor::zeros([4, 2]);
                    let ids = Tensor::from_i32([4], vec![0, 1, 2, 3]).unwrap();
                    start.wait();
                    for _ in 0..100 {
                        gs.accumulate(p, &Tensor::ones([4, 2])).unwrap();
                        gs.accumulate_outer(p, &Tensor::ones([1, 4]), &Tensor::ones([1, 2]))
                            .unwrap();
                        gs.accumulate_rows(p, &like, &ids, &Tensor::ones([4, 2]))
                            .unwrap();
                    }
                })
            })
            .collect();
        start.wait();
        while !handles.iter().all(|h| h.is_finished()) {
            let seen = gs.get(p).map_or(0.0, |g| g.f32s().unwrap()[0]);
            assert!(seen <= 2400.0);
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = |want: f32| {
            let g = gs.get(p).unwrap();
            assert!(g.f32s().unwrap().iter().all(|&x| x == want), "{g:?}");
        };
        all(2400.0);
        all(2400.0); // a second read folds nothing twice
        assert!(gs.shards[1..].iter().all(|s| s[0].lock().is_none()));
        gs.scale_all(0.5).unwrap();
        all(1200.0);
        let taken = gs.take_all();
        assert!(taken[0]
            .as_ref()
            .unwrap()
            .f32s()
            .unwrap()
            .iter()
            .all(|&x| x == 1200.0));
        assert!(gs.get(p).is_none());
    }

    #[test]
    fn readers_fold_every_shard() {
        let p = ParamId(0);
        let on_shard = |gs: &Arc<GradStore>, shard: usize, g: Tensor| {
            let gs = Arc::clone(gs);
            std::thread::spawn(move || {
                bind_worker_shard(shard);
                gs.accumulate(p, &g).unwrap();
            })
            .join()
            .unwrap();
        };
        let fresh = || {
            let gs = Arc::new(GradStore::sharded(1, 3));
            on_shard(&gs, 1, Tensor::full([2], 3.0));
            on_shard(&gs, 2, Tensor::full([2], 4.0));
            gs
        };
        // Shard 0 is empty: the others still reach every reader.
        assert_eq!(fresh().get(p).unwrap().f32s().unwrap(), &[7.0, 7.0]);
        assert!((fresh().global_norm() - 98f32.sqrt()).abs() < 1e-5);
        let gs = fresh();
        gs.scale_all(2.0).unwrap();
        assert_eq!(
            gs.take_all()[0].as_ref().unwrap().f32s().unwrap(),
            &[14.0, 14.0]
        );
        let gs = fresh();
        gs.clear();
        assert!(gs.get(p).is_none());
        // A worker index beyond the store's shards wraps instead of panicking.
        on_shard(&gs, 7, Tensor::ones([2]));
        assert_eq!(gs.get(p).unwrap().f32s().unwrap(), &[1.0, 1.0]);
        // Sinks that disagree on the shape, on two shards: an error at the
        // fold instead of at the second contribution, never a panic.
        on_shard(&gs, 2, Tensor::ones([3]));
        assert!(gs.scale_all(1.0).is_err());
        assert!(gs.get(p).is_none());
        gs.clear();
        gs.scale_all(1.0).unwrap();
    }

    #[test]
    fn a_session_has_one_shard_per_worker() {
        use rdg_graph::ModuleBuilder;
        let module = || {
            let mut mb = ModuleBuilder::new();
            let w = mb.param_wire("w", Tensor::ones([3, 2])).unwrap();
            let x = mb.constant(Tensor::from_f32([1, 3], vec![1.0, 2.0, 3.0]).unwrap());
            let y = mb.matmul(x, w).unwrap();
            let loss = mb.sum_all(y).unwrap();
            mb.set_outputs(&[loss]).unwrap();
            let fwd = mb.finish().unwrap();
            rdg_autodiff::build_training_module(&fwd, fwd.main.outputs[0]).unwrap()
        };
        for workers in [1usize, 3] {
            let s = crate::Session::new(crate::Executor::with_threads(workers), module()).unwrap();
            assert_eq!(s.grads().shards.len(), workers);
            s.run_training(vec![]).unwrap();
            let g = s.grads().get(ParamId(0)).unwrap();
            assert_eq!(g.f32s().unwrap(), &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        }
    }

    #[test]
    fn scale_all_rescales_every_slot() {
        let gs = GradStore::new(2);
        gs.accumulate(ParamId(0), &Tensor::from_f32([2], vec![2.0, 4.0]).unwrap())
            .unwrap();
        gs.accumulate(ParamId(1), &Tensor::from_f32([1], vec![8.0]).unwrap())
            .unwrap();
        gs.scale_all(0.25).unwrap();
        assert_eq!(gs.get(ParamId(0)).unwrap().f32s().unwrap(), &[0.5, 1.0]);
        assert_eq!(gs.get(ParamId(1)).unwrap().f32s().unwrap(), &[2.0]);
    }

    #[test]
    fn take_all_clears() {
        let gs = GradStore::new(2);
        gs.accumulate(ParamId(1), &Tensor::ones([1])).unwrap();
        let all = gs.take_all();
        assert!(all[0].is_none());
        assert!(all[1].is_some());
        assert!(gs.get(ParamId(1)).is_none());
    }

    #[test]
    fn global_norm_is_l2() {
        let gs = GradStore::new(2);
        gs.accumulate(ParamId(0), &Tensor::from_f32([2], vec![3.0, 0.0]).unwrap())
            .unwrap();
        gs.accumulate(ParamId(1), &Tensor::from_f32([1], vec![4.0]).unwrap())
            .unwrap();
        assert!((gs.global_norm() - 5.0).abs() < 1e-5);
    }
}
