//! The worker ready queue (paper Figure 4).
//!
//! The queue carries **surplus** work only. A worker that finishes an
//! operation keeps the first consumer it made ready and runs it next (the
//! executor's work-first rule); what enters the queue is the head of each
//! run and, at every fork, the consumers beyond the first — whole sibling
//! subtrees for whichever worker is free. Most operations never touch it.
//!
//! Two scheduling policies are provided for what does:
//!
//! * [`SchedulerKind::Fifo`] — the paper's policy: operations enter a global
//!   FIFO ready queue as their dependencies resolve and idle execution
//!   threads dequeue from the front.
//! * [`SchedulerKind::DepthPriority`] — the paper's §4.1.2 *future work*
//!   suggestion, implemented here as an extension: deeper frames first, so
//!   inner recursive work that unblocks many outer operations is preferred
//!   when threads are scarce. An ablation bench compares the two.
//!
//! Both policies expose **batched** transfer: [`ReadyQueue::push_batch`]
//! enqueues the surplus of one fork under one lock acquisition, and
//! [`ReadyQueue::pop_batch`] lets a worker claim several runnable
//! operations per round-trip. [`ReadyQueue::has_idle`] tells a worker that
//! is holding such a claim whether someone else could be running it.

use parking_lot::{Condvar, Mutex};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Scheduling policy selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Global FIFO ready queue (the paper's design).
    #[default]
    Fifo,
    /// Deeper-frame-first priority queue (paper's future-work extension).
    DepthPriority,
}

/// Items carried by the queue: a task payload with a scheduling priority.
pub struct Prioritized<T> {
    /// Larger = scheduled earlier under `DepthPriority`.
    pub priority: u64,
    /// Monotone sequence number: FIFO tie-break inside a priority class.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

impl<T> PartialEq for Prioritized<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Prioritized<T> {}
impl<T> PartialOrd for Prioritized<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Prioritized<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap on priority; FIFO (smaller seq first) within a class.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct FifoState<T> {
    queue: VecDeque<T>,
    stop_tokens: usize,
}

struct PrioState<T> {
    heap: BinaryHeap<Prioritized<T>>,
    next_seq: u64,
    stop_tokens: usize,
}

/// How many tasks one `pop_batch` may claim from a queue of `len` tasks
/// when `waiting` other workers are blocked on the same queue.
///
/// A greedy drain would let one worker walk off with an entire sibling
/// wave and serialize work the other workers should run in parallel, so
/// the batch is capped at a fair share: the queue is split among the known
/// waiters plus the caller, and never less than half is left behind when
/// there is more than one task (covering workers that are momentarily busy
/// rather than parked).
fn fair_take(len: usize, waiting: usize, max: usize) -> usize {
    let shares = (waiting + 1).max(2);
    max.min(len).min(len.div_ceil(shares).max(1))
}

enum Impl<T> {
    Fifo {
        state: Mutex<FifoState<T>>,
        cond: Condvar,
    },
    Prio {
        heap: Mutex<PrioState<T>>,
        cond: Condvar,
    },
}

/// A multi-producer multi-consumer ready queue with batched push and
/// blocking batched pop.
pub struct ReadyQueue<T> {
    inner: Impl<T>,
    /// Workers currently parked in `pop_batch`. Written only under
    /// the queue lock (fair batch splitting reads it there); read without
    /// the lock by [`ReadyQueue::has_idle`]. It publishes no data, so
    /// `Relaxed` is enough.
    waiting: AtomicUsize,
}

impl<T> ReadyQueue<T> {
    /// Creates a queue with the given policy.
    pub fn new(kind: SchedulerKind) -> Self {
        let inner = match kind {
            SchedulerKind::Fifo => Impl::Fifo {
                state: Mutex::new(FifoState {
                    queue: VecDeque::new(),
                    stop_tokens: 0,
                }),
                cond: Condvar::new(),
            },
            SchedulerKind::DepthPriority => Impl::Prio {
                heap: Mutex::new(PrioState {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                    stop_tokens: 0,
                }),
                cond: Condvar::new(),
            },
        };
        ReadyQueue {
            inner,
            waiting: AtomicUsize::new(0),
        }
    }

    /// Whether some worker is parked waiting for work right now. A worker
    /// holding claimed-but-unstarted tasks uses this to decide to hand them
    /// back; a stale answer only delays or hastens that by one operation.
    pub fn has_idle(&self) -> bool {
        self.waiting.load(Ordering::Relaxed) != 0
    }

    /// Enqueues a task with a scheduling priority (ignored under FIFO).
    pub fn push(&self, priority: u64, item: T) {
        match &self.inner {
            Impl::Fifo { state, cond } => {
                state.lock().queue.push_back(item);
                cond.notify_one();
            }
            Impl::Prio { heap, cond } => {
                let mut st = heap.lock();
                let seq = st.next_seq;
                st.next_seq += 1;
                st.heap.push(Prioritized {
                    priority,
                    seq,
                    item,
                });
                drop(st);
                cond.notify_one();
            }
        }
    }

    /// Enqueues a wave of `(priority, task)` pairs under **one** lock
    /// acquisition, waking as many workers as there are new tasks.
    pub fn push_batch(&self, items: impl IntoIterator<Item = (u64, T)>) {
        let (pushed, cond) = match &self.inner {
            Impl::Fifo { state, cond } => {
                let mut st = state.lock();
                let before = st.queue.len();
                st.queue.extend(items.into_iter().map(|(_, item)| item));
                (st.queue.len() - before, cond)
            }
            Impl::Prio { heap, cond } => {
                let mut st = heap.lock();
                let before = st.heap.len();
                for (priority, item) in items {
                    let seq = st.next_seq;
                    st.next_seq += 1;
                    st.heap.push(Prioritized {
                        priority,
                        seq,
                        item,
                    });
                }
                (st.heap.len() - before, cond)
            }
        };
        match pushed {
            0 => {}
            1 => {
                cond.notify_one();
            }
            _ => {
                cond.notify_all();
            }
        }
    }

    /// Non-blocking pop: the next task in scheduling order, or `None` when
    /// the queue is empty. Never parks and never consumes a stop token — for
    /// a caller that drives the queue itself instead of waiting on it (the
    /// virtual clock, [`crate::sim`]).
    pub fn try_pop(&self) -> Option<T> {
        match &self.inner {
            Impl::Fifo { state, .. } => state.lock().queue.pop_front(),
            Impl::Prio { heap, .. } => heap.lock().heap.pop().map(|p| p.item),
        }
    }

    /// Blocking batched pop: waits for work, then drains a **fair share**
    /// of the queue — at most `max` tasks, and never more than the caller's
    /// split of the available work given the other blocked workers — into
    /// `buf` under the single lock acquisition.
    /// Returns `false` iff a stop token was consumed instead (in which case
    /// `buf` is untouched).
    ///
    /// Stop tokens are only consumed when no work is available, so a
    /// `false` return always means `buf` received nothing.
    pub fn pop_batch(&self, buf: &mut Vec<T>, max: usize) -> bool {
        let max = max.max(1);
        match &self.inner {
            Impl::Fifo { state, cond } => {
                let mut st = state.lock();
                loop {
                    if !st.queue.is_empty() {
                        let take =
                            fair_take(st.queue.len(), self.waiting.load(Ordering::Relaxed), max);
                        buf.extend(st.queue.drain(..take));
                        return true;
                    }
                    if st.stop_tokens > 0 {
                        st.stop_tokens -= 1;
                        return false;
                    }
                    self.waiting.fetch_add(1, Ordering::Relaxed);
                    cond.wait(&mut st);
                    self.waiting.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Impl::Prio { heap, cond } => {
                let mut st = heap.lock();
                loop {
                    if !st.heap.is_empty() {
                        let take =
                            fair_take(st.heap.len(), self.waiting.load(Ordering::Relaxed), max);
                        for _ in 0..take {
                            match st.heap.pop() {
                                Some(p) => buf.push(p.item),
                                None => break,
                            }
                        }
                        return true;
                    }
                    if st.stop_tokens > 0 {
                        st.stop_tokens -= 1;
                        return false;
                    }
                    self.waiting.fetch_add(1, Ordering::Relaxed);
                    cond.wait(&mut st);
                    self.waiting.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Sends `n` stop tokens, releasing `n` blocked workers.
    pub fn stop(&self, n: usize) {
        match &self.inner {
            Impl::Fifo { state, cond } => {
                state.lock().stop_tokens += n;
                cond.notify_all();
            }
            Impl::Prio { heap, cond } => {
                heap.lock().stop_tokens += n;
                cond.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_preserves_order() {
        let q = ReadyQueue::new(SchedulerKind::Fifo);
        q.push(0, 1);
        q.push(9, 2);
        q.push(5, 3);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
    }

    #[test]
    fn priority_pops_deepest_first() {
        let q = ReadyQueue::new(SchedulerKind::DepthPriority);
        q.push(1, "shallow");
        q.push(5, "deep");
        q.push(3, "mid");
        assert_eq!(q.try_pop(), Some("deep"));
        assert_eq!(q.try_pop(), Some("mid"));
        assert_eq!(q.try_pop(), Some("shallow"));
    }

    #[test]
    fn priority_is_fifo_within_class() {
        let q = ReadyQueue::new(SchedulerKind::DepthPriority);
        q.push(2, "a");
        q.push(2, "b");
        q.push(2, "c");
        assert_eq!(q.try_pop(), Some("a"));
        assert_eq!(q.try_pop(), Some("b"));
        assert_eq!(q.try_pop(), Some("c"));
    }

    #[test]
    fn push_batch_preserves_fifo_order() {
        let q = ReadyQueue::new(SchedulerKind::Fifo);
        q.push(0, 1);
        q.push_batch([2, 3, 4].map(|i| (0, i)));
        for want in 1..=4 {
            assert_eq!(q.try_pop(), Some(want));
        }
    }

    #[test]
    fn push_batch_orders_a_mixed_wave_by_its_own_priorities() {
        // A hand-back returns tasks of different frames, so of different
        // depths, in one batch: each keeps its own priority.
        let q = ReadyQueue::new(SchedulerKind::DepthPriority);
        q.push_batch([(1, "shallow"), (7, "deep"), (1, "shallow too"), (4, "mid")]);
        for want in ["deep", "mid", "shallow", "shallow too"] {
            assert_eq!(q.try_pop(), Some(want));
        }
    }

    #[test]
    fn fair_take_splits_work() {
        // A lone caller still leaves half behind (momentarily-busy peers).
        assert_eq!(fair_take(8, 0, 8), 4);
        // Known waiters shrink the share further.
        assert_eq!(fair_take(8, 3, 8), 2);
        // `max` caps the share; a single task is always takeable.
        assert_eq!(fair_take(10, 0, 4), 4);
        assert_eq!(fair_take(1, 5, 8), 1);
        assert_eq!(fair_take(2, 0, 8), 1);
    }

    #[test]
    fn pop_batch_drains_fair_shares_in_order() {
        for kind in [SchedulerKind::Fifo, SchedulerKind::DepthPriority] {
            let q = ReadyQueue::new(kind);
            q.push_batch((0..10).map(|i| (0, i)));
            let mut buf = Vec::new();
            assert!(q.pop_batch(&mut buf, 4));
            assert!(
                !buf.is_empty() && buf.len() <= 4,
                "first batch is bounded by max, got {}",
                buf.len()
            );
            while buf.len() < 10 {
                assert!(q.pop_batch(&mut buf, 100));
            }
            assert_eq!(buf.len(), 10, "repeated pops drain everything");
            if kind == SchedulerKind::Fifo {
                assert_eq!(buf, (0..10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn pop_batch_consumes_stop_token_only_when_empty() {
        let q = ReadyQueue::new(SchedulerKind::Fifo);
        q.push(0, 7);
        q.stop(1);
        let mut buf = Vec::new();
        assert!(q.pop_batch(&mut buf, 8), "work is served before the stop");
        assert_eq!(buf, vec![7]);
        buf.clear();
        assert!(!q.pop_batch(&mut buf, 8));
        assert!(buf.is_empty());
    }

    #[test]
    fn stop_tokens_release_workers() {
        for kind in [SchedulerKind::Fifo, SchedulerKind::DepthPriority] {
            let q = Arc::new(ReadyQueue::<u32>::new(kind));
            let q2 = Arc::clone(&q);
            let h = std::thread::spawn(move || q2.pop_batch(&mut Vec::new(), 1));
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.stop(1);
            assert!(!h.join().unwrap(), "released by the stop token");
        }
    }

    #[test]
    fn concurrent_producers_consumers_drain_everything() {
        let q = Arc::new(ReadyQueue::<u64>::new(SchedulerKind::Fifo));
        let mut producers = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..100 {
                    q.push(0, t * 1000 + i);
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = 0u64;
                let mut buf = Vec::new();
                while q.pop_batch(&mut buf, 8) {
                    got += buf.len() as u64;
                    buf.clear();
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.stop(4);
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }
}
