//! The dispatcher core: every serving *rule*, once.
//!
//! [`DispatchCore`] owns the admission state of one serving loop — the
//! class lanes, the wave controller, the open flag and client count, the
//! lane capacity — and is the only code that decides
//!
//! * whether a submission is admitted, bounced off a full lane, refused
//!   because admission closed, or shed up front because its predicted wait
//!   already overruns its deadline ([`DispatchCore::admit`]);
//! * which requests form the next wave — the controller's budget target,
//!   or a backlog wave of its upper clamp when a stacked weight makes one
//!   pay — and which are evicted at pop because their deadline already
//!   passed ([`DispatchCore::form_wave`]);
//! * whether a dispatched request is cancelled when the join loop reaches
//!   it ([`must_cancel`]);
//! * what the controller learns from a finished wave
//!   ([`DispatchCore::wave_done`]).
//!
//! It reads no clock, takes no lock, spawns nothing and sleeps nowhere:
//! time arrives as `now_ns` arguments, results leave as return values.
//! Submissions reach it straight from the submit calls; waves reach it
//! through the one wave step, `driver::Driver::step`, which both clocks
//! run —
//!
//! ```text
//!   live: ServeClient + dispatcher thread    ScriptedServe
//!   wall clock, executor submit/join         virtual clock, scripted
//!                                            services on simulated lanes
//!      submit ─────────┐   wave: Driver::step   ┌───────── submit
//!                      ▼           │            ▼
//!                  DispatchCore ◀──┘
//!                     admit · form_wave · must_cancel · wave_done
//!                     close · add_client · drop_client
//! ```
//!
//! — so what the scripted suites and the schedule fuzzer (`rdg_serve_fuzz`,
//! with its RON corpus) exercise through `ScriptedServe` is the code the
//! live loop ships, not a model of it.

use super::classes::{ClassQueues, Queued};
use super::controller::{predicted_wait_ns, WaveController};
use super::{Priority, ServeConfig};

/// Why [`DispatchCore::admit`] turned a submission away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Admission is closed (shutdown, or the last client dropped).
    Closed,
    /// The class lane has no free slot; the caller may retry once one frees.
    Full,
    /// Predictive shedding: the lane's predicted wait already overruns the
    /// request's deadline, so queueing it would only waste a slot.
    ShedPredicted,
}

/// The clock-free, lock-free state machine of one serving loop.
pub(crate) struct DispatchCore<T> {
    queue: ClassQueues<T>,
    controller: WaveController,
    /// `false` once shutdown began: submits are refused, queued work drains.
    open: bool,
    /// Live client handles; the last drop closes admission.
    clients: usize,
    /// Slots per class lane.
    capacity: usize,
    /// What the lanes drain through: the denominator of predicted waits.
    workers: usize,
    /// Whether a saturated `Interactive` lane gets backlog waves of the
    /// controller's upper clamp (see [`DispatchCore::form_wave`]).
    backlog_waves: bool,
    /// Waves formed with at least one request to run.
    batches: u64,
}

impl<T> DispatchCore<T> {
    /// A core over `workers` lanes with `config`'s capacity, sizing and
    /// aging parameters; open, with one client. `backlog_waves` says
    /// whether the loop's plan stacks a large weight, which is what makes a
    /// backlog wave pay (the live loop decides it from its plan and
    /// parameters; `ScriptedServe` passes `false`).
    pub(crate) fn new(workers: usize, config: &ServeConfig, backlog_waves: bool) -> Self {
        let workers = workers.max(1);
        let aging_ns = config.aging_step.as_nanos().min(u64::MAX as u128) as u64;
        DispatchCore {
            queue: ClassQueues::new(aging_ns),
            controller: WaveController::new(config.sizing, config.batch_multiple, workers),
            open: true,
            clients: 1,
            capacity: config.capacity.max(1),
            workers,
            backlog_waves,
            batches: 0,
        }
    }

    /// Admits `item` into `class`'s lane at `now_ns`, carrying the absolute
    /// `deadline_ns` if it has an SLO — or hands it back with the reason.
    ///
    /// The checks run in a fixed order: closed, then full, then (only with
    /// a deadline, a `BestEffort` request, and a live EWMA) predicted wait
    /// `depth × ewma ÷ workers` past the deadline. Predictive shedding
    /// covers the scavenger class alone: overload sheds the cheapest work
    /// before it queues, and the classes above it wait for a slot instead.
    pub(crate) fn admit(
        &mut self,
        class: Priority,
        item: T,
        now_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<(), (Refusal, T)> {
        let depth = self.queue.len_class(class);
        let predicted_miss = match (deadline_ns, self.service_ewma_ns()) {
            (Some(deadline), Some(ewma)) if class == Priority::BestEffort => {
                now_ns.saturating_add(predicted_wait_ns(depth, ewma, self.workers)) > deadline
            }
            _ => false,
        };
        let refusal = if !self.open {
            Refusal::Closed
        } else if depth >= self.capacity {
            Refusal::Full
        } else if predicted_miss {
            Refusal::ShedPredicted
        } else {
            self.queue.push_deadline(class, item, now_ns, deadline_ns);
            return Ok(());
        };
        Err((refusal, item))
    }

    /// Forms the next wave at `now_ns`: pops by aged priority until `run`
    /// holds the wave's size, diverting every popped request whose deadline
    /// has already passed into `evicted` — evictions consume no wave slot.
    /// Both vectors are appended to; pass them in empty.
    ///
    /// The size is the controller's budget target, except for a *backlog
    /// wave*: with `backlog_waves` on and at least `hi` (the controller's
    /// upper clamp) `Interactive` requests queued, the wave takes `hi`. The
    /// budget bounds how long the next arrival waits behind a wave, and no
    /// arrival overtakes a queued `Interactive` request, so every arrival
    /// waits for those `hi` anyway; one stacked wave drains them sooner
    /// than `hi / target` budget waves. A backlog of `Batch` or
    /// `BestEffort` work gets no such wave: a fresh `Interactive` arrival
    /// would overtake it at the next wave boundary.
    ///
    /// Returns the size the wave was formed to, or `None` when nothing was
    /// queued. A wave whose every pop was evicted comes back with an empty
    /// `run` and counts no batch.
    pub(crate) fn form_wave(
        &mut self,
        now_ns: u64,
        run: &mut Vec<Queued<T>>,
        evicted: &mut Vec<Queued<T>>,
    ) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        let target = match self.controller.hi() {
            Some(hi) if self.backlog_waves && self.queue.len_class(Priority::Interactive) >= hi => {
                hi
            }
            _ => self.controller.target(),
        };
        while run.len() < target {
            let Some(q) = self.queue.pop_next(now_ns) else {
                break;
            };
            if q.deadline_ns.is_some_and(|d| now_ns >= d) {
                evicted.push(q);
            } else {
                run.push(q);
            }
        }
        if !run.is_empty() {
            self.batches += 1;
        }
        Some(target)
    }

    /// Feeds the controller one finished wave: how many requests it ran
    /// (cancelled ones included — they held a lane) and how long it took to
    /// drain. A wave that ran nothing teaches nothing.
    pub(crate) fn wave_done(&mut self, len: usize, drain_ns: u64) {
        self.controller.observe_wave(len, drain_ns);
    }

    /// Closes admission; queued requests still drain.
    pub(crate) fn close(&mut self) {
        self.open = false;
    }

    /// Counts one more client handle. Never reopens a closed core.
    pub(crate) fn add_client(&mut self) {
        self.clients += 1;
    }

    /// Counts one client handle gone; the last one closes admission.
    /// Returns whether this call was that last one.
    pub(crate) fn drop_client(&mut self) -> bool {
        self.clients = self.clients.saturating_sub(1);
        if self.clients == 0 {
            self.open = false;
        }
        self.clients == 0
    }

    /// Whether admission is still open.
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }

    /// The lanes, read-only (depths).
    pub(crate) fn queue(&self) -> &ClassQueues<T> {
        &self.queue
    }

    /// The wave controller, read-only (next target, raw EWMA).
    pub(crate) fn controller(&self) -> &WaveController {
        &self.controller
    }

    /// The per-request service EWMA in whole nanoseconds — what predicted
    /// waits divide by. `None` until a dynamically-sized wave finished;
    /// never `Some(0)`, because the controller floors every sample at 1 ns.
    pub(crate) fn service_ewma_ns(&self) -> Option<u64> {
        self.controller.ewma_ns().map(|e| e as u64)
    }

    /// Waves formed so far that had something to run.
    pub(crate) fn batches(&self) -> u64 {
        self.batches
    }

    /// Slots per class lane.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The worker count predicted waits divide by.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }
}

/// The mid-service cancel rule, evaluated when the join loop reaches a
/// dispatched request at `observed_ns`: cancel iff it carries a deadline,
/// the deadline has passed, and its run has not `finished`. A finished run
/// keeps its result however late — an answer that exists is delivered.
pub(crate) fn must_cancel(deadline_ns: Option<u64>, observed_ns: u64, finished: bool) -> bool {
    deadline_ns.is_some_and(|d| observed_ns >= d && !finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::WaveSizing;
    use std::time::Duration;
    use Priority::{Batch, BestEffort, Interactive};

    const MS: u64 = 1_000_000;

    /// 2 workers, 2 slots per lane, waves of 4; α = 1 so one observed wave
    /// sets the EWMA exactly.
    fn core() -> DispatchCore<u64> {
        DispatchCore::new(
            2,
            &ServeConfig {
                capacity: 2,
                batch_multiple: 2,
                sizing: WaveSizing::Dynamic {
                    max_multiple: 8,
                    wave_budget: Duration::from_millis(4),
                    ewma_alpha: 1.0,
                },
                aging_step: Duration::from_millis(1),
                ..ServeConfig::default()
            },
            false,
        )
    }

    /// One admission case: a core with an EWMA of 1 ms if `ewma`, `depth`
    /// requests already in `class`'s lane, closed unless `open` — then one
    /// more submit with `deadline` must come back `want`.
    fn case(
        name: &str,
        open: bool,
        depth: usize,
        ewma: bool,
        class: Priority,
        deadline: Option<u64>,
        want: Result<(), Refusal>,
    ) {
        let mut c = core();
        if ewma {
            c.wave_done(2, MS);
            assert_eq!(c.service_ewma_ns(), Some(MS), "{name}");
        }
        for id in 0..depth as u64 {
            c.admit(class, id, 0, None).unwrap();
        }
        if !open {
            c.close();
        }
        let got = c.admit(class, 99, 0, deadline);
        assert_eq!(got, want.map_err(|why| (why, 99)), "{name}");
        let admitted = usize::from(want.is_ok());
        assert_eq!(c.queue().len_class(class), depth + admitted, "{name}");
    }

    #[test]
    fn admission_matrix() {
        use Refusal::{Closed, Full, ShedPredicted};
        // `BestEffort` is the one class predictive shedding covers. The
        // predictive rows look at a 1-deep lane at 1 ms EWMA on 2 workers:
        // predicted wait 0.5 ms.
        let (over, under) = (Some(MS / 2 - 1), Some(MS / 2));
        let shed = BestEffort;
        //   name                        open   depth ewma  class        deadline  want
        case("open, space, no SLO", true, 0, true, shed, None, Ok(()));
        case(
            "open, space, loose SLO",
            true,
            0,
            true,
            shed,
            Some(0),
            Ok(()),
        );
        case("closed", false, 0, true, shed, None, Err(Closed));
        case("closed beats full", false, 2, true, shed, over, Err(Closed));
        case("full, no SLO", true, 2, true, shed, None, Err(Full));
        case(
            "full beats predicted",
            true,
            2,
            true,
            shed,
            Some(0),
            Err(Full),
        );
        case(
            "SLO under predicted wait",
            true,
            1,
            true,
            shed,
            over,
            Err(ShedPredicted),
        );
        case("SLO at predicted wait", true, 1, true, shed, under, Ok(()));
        case(
            "Batch is above the shed class",
            true,
            1,
            true,
            Batch,
            over,
            Ok(()),
        );
        case(
            "Interactive is above the shed class",
            true,
            1,
            true,
            Interactive,
            over,
            Ok(()),
        );
        case("EWMA unset", true, 1, false, shed, over, Ok(()));
        case("no SLO never sheds", true, 1, true, shed, None, Ok(()));
    }

    #[test]
    fn evictions_take_no_wave_slots() {
        let mut c = core();
        // Two expired interactive requests ahead of four live ones across
        // the lanes: the wave of 4 must still fill with live work.
        c.admit(Interactive, 0, 0, Some(5)).unwrap();
        c.admit(Interactive, 1, 0, Some(10)).unwrap();
        c.admit(Batch, 2, 0, None).unwrap();
        c.admit(Batch, 3, 0, Some(11)).unwrap();
        c.admit(BestEffort, 4, 0, None).unwrap();
        c.admit(BestEffort, 5, 0, None).unwrap();
        let (mut run, mut evicted) = (Vec::new(), Vec::new());
        assert_eq!(c.form_wave(10, &mut run, &mut evicted), Some(4));
        let ids = |v: &[Queued<u64>]| v.iter().map(|q| q.item).collect::<Vec<_>>();
        assert_eq!(ids(&evicted), [0, 1], "deadline == now is already expired");
        assert_eq!(ids(&run), [2, 3, 4, 5]);
        assert_eq!(c.batches(), 1);
        assert!(c.queue().is_empty());
        assert_eq!(
            c.form_wave(10, &mut run, &mut evicted),
            None,
            "nothing queued"
        );
    }

    #[test]
    fn all_evicted_wave_counts_no_batch_and_teaches_nothing() {
        let mut c = core();
        c.wave_done(2, MS);
        let (target, ewma) = (c.controller().target(), c.controller().ewma_ns());
        c.admit(Interactive, 0, 0, Some(1)).unwrap();
        c.admit(Batch, 1, 0, Some(1)).unwrap();
        let (mut run, mut evicted) = (Vec::new(), Vec::new());
        assert_eq!(c.form_wave(2, &mut run, &mut evicted), Some(target));
        assert!(run.is_empty());
        assert_eq!(evicted.len(), 2);
        assert_eq!(c.batches(), 0);
        // What a driver does with an empty run: report it, or not — either
        // way the estimate must not move.
        c.wave_done(run.len(), 7 * MS);
        assert_eq!(c.controller().ewma_ns(), ewma);
        assert_eq!(c.controller().target(), target);
    }

    /// 2 workers, 64 slots per lane, `hi` = 2 × 8 = 16, backlog waves
    /// `on` or off, and one 20 ms-per-request wave observed: the budget
    /// target sits at its floor of 2. Then `n` requests of `class` queue.
    fn saturated(on: bool, class: Priority, n: u64) -> DispatchCore<u64> {
        let mut c = DispatchCore::new(
            2,
            &ServeConfig {
                capacity: 64,
                sizing: WaveSizing::Dynamic {
                    max_multiple: 8,
                    wave_budget: Duration::from_millis(4),
                    ewma_alpha: 1.0,
                },
                ..ServeConfig::default()
            },
            on,
        );
        c.wave_done(2, 20 * MS);
        assert_eq!(c.controller().target(), 2);
        assert_eq!(c.controller().hi(), Some(16));
        for id in 0..n {
            c.admit(class, id, 0, None).unwrap();
        }
        c
    }

    /// The size of the next wave formed at t = 0.
    fn next_wave(c: &mut DispatchCore<u64>) -> usize {
        let (mut run, mut evicted) = (Vec::new(), Vec::new());
        let sized = c.form_wave(0, &mut run, &mut evicted).unwrap();
        assert_eq!(run.len(), sized);
        assert!(evicted.is_empty());
        sized
    }

    #[test]
    fn backlog_of_hi_interactive_requests_gets_a_wave_of_hi() {
        let mut c = saturated(true, Interactive, 16);
        assert_eq!(next_wave(&mut c), 16);
        assert_eq!(
            c.controller().target(),
            2,
            "the budget target does not move"
        );
        assert!(c.queue().is_empty());
        assert_eq!(c.batches(), 1);
    }

    #[test]
    fn backlog_below_hi_gets_the_budget_target() {
        let mut c = saturated(true, Interactive, 15);
        assert_eq!(next_wave(&mut c), 2);
        assert_eq!(c.queue().len_class(Interactive), 13);
    }

    #[test]
    fn backlog_of_batch_requests_gets_the_budget_target() {
        // A fresh Interactive arrival would overtake this backlog at the
        // next wave boundary, so a wave of 16 would hold it back.
        let mut c = saturated(true, Batch, 16);
        assert_eq!(next_wave(&mut c), 2);
    }

    #[test]
    fn backlog_waves_off_keeps_budget_waves() {
        let mut c = saturated(false, Interactive, 32);
        let waves: Vec<usize> = (0..16).map(|_| next_wave(&mut c)).collect();
        assert_eq!(waves, [2; 16]);
    }

    #[test]
    fn cancel_rule() {
        // (deadline, observed, finished) → cancel?
        for (deadline, observed, finished, want) in [
            (None, u64::MAX, false, false), // no deadline: never
            (Some(10), 9, false, false),    // not due yet
            (Some(10), 10, false, true),    // observed == deadline is due
            (Some(10), 11, false, true),    // overdue and still running
            (Some(10), 11, true, false),    // finished late keeps its result
            (Some(10), 10, true, false),
        ] {
            assert_eq!(
                must_cancel(deadline, observed, finished),
                want,
                "deadline {deadline:?} observed {observed} finished {finished}"
            );
        }
    }

    #[test]
    fn last_client_closes_and_nothing_reopens() {
        let mut c = core();
        c.add_client();
        assert!(!c.drop_client(), "one handle left");
        assert!(c.is_open());
        c.admit(Batch, 0, 0, None).unwrap();
        assert!(c.drop_client(), "last handle");
        assert!(!c.is_open());
        c.add_client();
        assert!(!c.is_open(), "a late clone does not reopen admission");
        assert_eq!(c.admit(Batch, 1, 0, None), Err((Refusal::Closed, 1)));
        // What was accepted before the close still drains.
        let (mut run, mut evicted) = (Vec::new(), Vec::new());
        assert!(c.form_wave(0, &mut run, &mut evicted).is_some());
        assert_eq!(run.len(), 1);
        // Dropping past zero stays closed and does not underflow.
        assert!(c.drop_client());
        assert!(c.drop_client());
    }

    #[test]
    fn explicit_close_keeps_the_client_count() {
        let mut c = core();
        c.close();
        assert!(!c.is_open());
        assert!(c.drop_client(), "the one client was still counted");
    }
}
