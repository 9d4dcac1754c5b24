//! The worker ready queue (paper Figure 4): one global FIFO.
//!
//! The queue carries **surplus** work only. A worker that finishes an
//! operation keeps the first consumer it made ready and runs it next (the
//! executor's work-first rule); what enters the queue is the head of each
//! run and, at every fork, the consumers beyond the first — whole sibling
//! subtrees for whichever worker is free. Most operations never touch it.
//!
//! What does is served in the paper's order: operations enter at the back
//! as their dependencies resolve and idle execution threads dequeue from the
//! front. This is the only policy. A deeper-frame-first priority queue (the
//! paper's §4.1.2 future-work idea) lived beside it until PR 21 and never
//! paid: made the default it cost 5.3 % on `infer.fresh` (FIFO ahead in 5
//! of 5 pairs) and tied on `scheduler/*` (PERFORMANCE.md § PR 16), while
//! no workload or caller used it. A future policy (per-worker deques, say)
//! has to beat this FIFO on its own evidence.
//!
//! Transfer is **batched**: [`ReadyQueue::push_batch`] enqueues the surplus
//! of one fork under one lock acquisition, and [`ReadyQueue::pop_batch`]
//! lets a worker claim several runnable operations per round-trip.
//! [`ReadyQueue::has_idle`] tells a worker that is holding such a claim
//! whether someone else could be running it.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

struct State<T> {
    queue: VecDeque<T>,
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

/// A multi-producer multi-consumer FIFO with batched push and blocking
/// batched pop.
pub struct ReadyQueue<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    /// Workers currently parked in `pop_batch`. Written only under
    /// the queue lock (fair batch splitting reads it there); read without
    /// the lock by [`ReadyQueue::has_idle`]. It publishes no data, so
    /// `Relaxed` is enough.
    waiting: AtomicUsize,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        ReadyQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                stop_tokens: 0,
            }),
            cond: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }
}

impl<T> ReadyQueue<T> {
    /// Whether some worker is parked waiting for work right now. A worker
    /// holding claimed-but-unstarted tasks uses this to decide to hand them
    /// back; a stale answer only delays or hastens that by one operation.
    pub fn has_idle(&self) -> bool {
        self.waiting.load(Ordering::Relaxed) != 0
    }

    /// Enqueues a wave of tasks, in order, under **one** lock acquisition,
    /// waking as many workers as there are new tasks.
    pub fn push_batch(&self, items: impl IntoIterator<Item = T>) {
        let pushed = {
            let mut st = self.state.lock();
            let before = st.queue.len();
            st.queue.extend(items);
            st.queue.len() - before
        };
        if pushed == 1 {
            self.cond.notify_one();
        } else if pushed > 1 {
            self.cond.notify_all();
        }
    }

    /// Non-blocking pop: the front task, or `None` when the queue is empty.
    /// Never parks and never consumes a stop token — for a caller that
    /// drives the queue itself instead of waiting on it (the virtual clock,
    /// [`crate::sim`]).
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().queue.pop_front()
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
        let mut st = self.state.lock();
        loop {
            if !st.queue.is_empty() {
                let take = fair_take(st.queue.len(), self.waiting.load(Ordering::Relaxed), max);
                buf.extend(st.queue.drain(..take));
                return true;
            }
            if st.stop_tokens > 0 {
                st.stop_tokens -= 1;
                return false;
            }
            self.waiting.fetch_add(1, Ordering::Relaxed);
            self.cond.wait(&mut st);
            self.waiting.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Sends `n` stop tokens, releasing `n` blocked workers.
    pub fn stop(&self, n: usize) {
        self.state.lock().stop_tokens += n;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_preserves_order() {
        let q = ReadyQueue::default();
        for i in 1..=3 {
            q.push_batch([i]);
        }
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn push_batch_preserves_fifo_order() {
        let q = ReadyQueue::default();
        q.push_batch([1]);
        q.push_batch([2, 3, 4]);
        for want in 1..=4 {
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
        let q = ReadyQueue::default();
        q.push_batch(0..10);
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
        assert_eq!(buf, (0..10).collect::<Vec<_>>(), "drained, in order");
    }

    #[test]
    fn pop_batch_consumes_stop_token_only_when_empty() {
        let q = ReadyQueue::default();
        q.push_batch([7]);
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
        let q = Arc::new(ReadyQueue::<u32>::default());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_batch(&mut Vec::new(), 1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.stop(1);
        assert!(!h.join().unwrap(), "released by the stop token");
    }

    #[test]
    fn concurrent_producers_consumers_drain_everything() {
        let q = Arc::new(ReadyQueue::<u64>::default());
        let mut producers = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..100 {
                    q.push_batch([t * 1000 + i]);
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
