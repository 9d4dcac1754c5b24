//! Per-class admission lanes with a deterministic aged-priority pop.
//!
//! The admission queue is not one deque but one per [`Priority`] class.
//! Arrival order within a class is FIFO; *across* classes the dispatcher
//! picks by **effective class**: a request's class index, minus one
//! promotion for every `aging_step` it has waited. Strict priority for
//! fresh requests, bounded starvation for old ones — a `Batch` request
//! left behind by a hot `Interactive` stream promotes itself one class
//! per aging step until it competes at `Interactive` level, where the
//! earliest-enqueued request wins.
//!
//! The pop rule is a pure function of `(queue contents, now_ns)` — no
//! clock is read in here. The lanes are owned by `core::DispatchCore`,
//! whose `form_wave` is the only caller of [`ClassQueues::pop_next`]; the
//! one wave step drives that core, on wall-clock nanoseconds in the live
//! loop and on a virtual clock in [`super::test_support`] — which is what
//! lets tests assert dispatch decisions exactly.

use super::Priority;
use std::collections::VecDeque;

/// One queued entry: the payload plus everything the pop rule and the
/// latency split need to know about it.
pub(crate) struct Queued<T> {
    /// The request payload (feeds + ticket channel in the live queue,
    /// a bare id in the scripted harness).
    pub item: T,
    /// Admission class, fixed at submit time.
    pub class: Priority,
    /// Enqueue timestamp, nanoseconds on the owning queue's clock.
    pub enqueued_ns: u64,
    /// Global admission sequence number (total order on submissions).
    pub seq: u64,
    /// Absolute end-to-end deadline on the owning queue's clock, if the
    /// request carries an SLO. The pop rule ignores it — eviction of
    /// expired entries is `DispatchCore::form_wave`'s decision, made on
    /// each popped entry, for the live loop and the scripted driver alike.
    pub deadline_ns: Option<u64>,
}

/// The per-class lanes. FIFO within a lane; aged strict priority across
/// lanes. All timestamps are caller-supplied nanoseconds, so the same
/// structure runs under the real clock and the tests' virtual one.
pub(crate) struct ClassQueues<T> {
    lanes: [VecDeque<Queued<T>>; Priority::COUNT],
    /// Nanoseconds of queue wait that promote a request one class, at
    /// least 1. At 1 ns every request that has waited 2 ns sits at
    /// effective class 0, so the pop is FIFO by enqueue time — the
    /// class-blind queue.
    aging_step_ns: u64,
    next_seq: u64,
}

impl<T> ClassQueues<T> {
    /// Empty lanes promoting one class per `aging_step_ns` waited (a step
    /// of 0 counts as 1).
    pub(crate) fn new(aging_step_ns: u64) -> Self {
        ClassQueues {
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            aging_step_ns: aging_step_ns.max(1),
            next_seq: 0,
        }
    }

    /// Queued entries in `class`'s lane (each lane has its own capacity).
    pub(crate) fn len_class(&self, class: Priority) -> usize {
        self.lanes[class.index()].len()
    }

    /// Queued entries across all lanes.
    pub(crate) fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    /// [`ClassQueues::push_deadline`] without a deadline.
    #[cfg(test)]
    pub(crate) fn push(&mut self, class: Priority, item: T, now_ns: u64) {
        self.push_deadline(class, item, now_ns, None);
    }

    /// Appends to `class`'s lane, stamping `now_ns` and the next global
    /// sequence number, plus the absolute end-to-end deadline of an
    /// SLO-carrying request.
    pub(crate) fn push_deadline(
        &mut self,
        class: Priority,
        item: T,
        now_ns: u64,
        deadline_ns: Option<u64>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lanes[class.index()].push_back(Queued {
            item,
            class,
            enqueued_ns: now_ns,
            seq,
            deadline_ns,
        });
    }

    /// Effective class index of a queued entry at `now_ns`: the nominal
    /// index minus one promotion per full aging step waited, floored at
    /// class 0 (`Interactive`).
    fn effective(&self, q: &Queued<T>, now_ns: u64) -> usize {
        let waited = now_ns.saturating_sub(q.enqueued_ns);
        q.class
            .index()
            .saturating_sub((waited / self.aging_step_ns) as usize)
    }

    /// Pops the next request to dispatch at `now_ns`.
    ///
    /// Deterministic selection among the lane *heads* (FIFO makes each
    /// head the oldest — and therefore most-aged — entry of its lane):
    /// lowest effective class wins; ties go to the earliest enqueue
    /// timestamp, then the lowest sequence number. Consequences, proved
    /// over arbitrary traces by `tests/serve_qos.rs`:
    ///
    /// * a request never dispatches after a *later-submitted* request of
    ///   an equal or lower class (strict priority + class FIFO);
    /// * once a request has waited `class_index × aging_step`, nothing
    ///   submitted after that point — any class — can pass it (the
    ///   anti-starvation bound).
    pub(crate) fn pop_next(&mut self, now_ns: u64) -> Option<Queued<T>> {
        let mut best: Option<(usize, (usize, u64, u64))> = None;
        for (lane, dq) in self.lanes.iter().enumerate() {
            if let Some(head) = dq.front() {
                let key = (self.effective(head, now_ns), head.enqueued_ns, head.seq);
                if best.as_ref().map_or(true, |(_, k)| key < *k) {
                    best = Some((lane, key));
                }
            }
        }
        best.map(|(lane, _)| self.lanes[lane].pop_front().expect("non-empty lane"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Priority::{Batch, BestEffort, Interactive};

    const STEP: u64 = 1_000;

    #[test]
    fn strict_priority_between_fresh_lanes() {
        let mut q = ClassQueues::new(STEP);
        q.push(Batch, "b", 0);
        q.push(BestEffort, "e", 1);
        q.push(Interactive, "i", 2);
        assert_eq!(q.pop_next(3).unwrap().item, "i");
        assert_eq!(q.pop_next(3).unwrap().item, "b");
        assert_eq!(q.pop_next(3).unwrap().item, "e");
        assert!(q.pop_next(3).is_none());
    }

    #[test]
    fn fifo_within_a_class() {
        let mut q = ClassQueues::new(STEP);
        for i in 0..4u32 {
            q.push(Batch, i, i as u64);
        }
        for i in 0..4u32 {
            assert_eq!(q.pop_next(10).unwrap().item, i);
        }
    }

    #[test]
    fn aged_batch_overtakes_fresh_interactive() {
        let mut q = ClassQueues::new(STEP);
        q.push(Batch, "old-batch", 0);
        q.push(Interactive, "fresh", STEP + 5);
        // At STEP+5 the batch head has one promotion: effective class 0,
        // and the earlier enqueue time wins the tie.
        assert_eq!(q.pop_next(STEP + 5).unwrap().item, "old-batch");
        assert_eq!(q.pop_next(STEP + 5).unwrap().item, "fresh");
    }

    #[test]
    fn best_effort_needs_two_steps_to_reach_interactive() {
        let mut q = ClassQueues::new(STEP);
        q.push(BestEffort, "be", 0);
        q.push(Interactive, "i1", STEP + 1);
        // One step waited: effective 1 — still behind Interactive.
        assert_eq!(q.pop_next(STEP + 2).unwrap().item, "i1");
        q.push(Interactive, "i2", 2 * STEP + 1);
        // Two steps waited: effective 0, earlier enqueue wins.
        assert_eq!(q.pop_next(2 * STEP + 2).unwrap().item, "be");
        assert_eq!(q.pop_next(2 * STEP + 2).unwrap().item, "i2");
    }

    #[test]
    fn zero_aging_step_is_global_fifo() {
        let mut q = ClassQueues::new(0);
        q.push(BestEffort, "first", 0);
        q.push(Interactive, "second", 1);
        q.push(Batch, "third", 2);
        assert_eq!(q.pop_next(2).unwrap().item, "first");
        assert_eq!(q.pop_next(2).unwrap().item, "second");
        assert_eq!(q.pop_next(2).unwrap().item, "third");
    }

    #[test]
    fn deadlines_ride_through_push_and_pop_untouched() {
        let mut q = ClassQueues::new(STEP);
        q.push(Interactive, "plain", 0);
        q.push_deadline(Batch, "slo", 1, Some(5_000));
        let first = q.pop_next(2).unwrap();
        assert_eq!(first.item, "plain");
        assert_eq!(first.deadline_ns, None);
        // The pop rule never looks at the deadline: an expired entry is
        // still *popped* (and then evicted by the dispatcher), so lane
        // order stays a pure function of (class, enqueue time, seq).
        let second = q.pop_next(10_000).unwrap();
        assert_eq!(second.item, "slo");
        assert_eq!(second.deadline_ns, Some(5_000));
    }

    #[test]
    fn lane_lengths_track_pushes_and_pops() {
        let mut q: ClassQueues<u8> = ClassQueues::new(STEP);
        assert!(q.is_empty());
        q.push(Interactive, 1, 0);
        q.push(Interactive, 2, 0);
        q.push(Batch, 3, 0);
        assert_eq!(q.len_class(Interactive), 2);
        assert_eq!(q.len_class(Batch), 1);
        assert_eq!(q.len_class(BestEffort), 0);
        assert_eq!(q.len(), 3);
        q.pop_next(0);
        assert_eq!(q.len_class(Interactive), 1);
        assert_eq!(q.len(), 2);
    }
}
