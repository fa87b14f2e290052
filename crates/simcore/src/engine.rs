//! The discrete-event executor.
//!
//! An [`Engine<W>`] advances a virtual clock by repeatedly popping the
//! earliest pending event and invoking its handler with exclusive
//! access to both the caller's world state `W` and the engine itself
//! (so handlers can schedule follow-up events). Determinism follows
//! from the queue's `(time, sequence)` total order and from all
//! randomness flowing through [`crate::rng::SimRng`].
//!
//! ## Allocation-free dispatch
//!
//! Events are stored as an [`Event<W>`] enum directly inside the
//! queue's recycled arena slots. Handlers that are plain function
//! pointers — optionally carrying one or two machine words of state —
//! live entirely in the slot; only closures with larger captures fall
//! back to a heap `Box`, counted by the `sim.events_boxed` metric so
//! experiments can prove the fallback is rare. A zero-sized closure
//! (no captures) nominally takes the boxed path but `Box::new` of a
//! zero-sized type performs no allocation, so it is neither counted
//! nor costed. Steady-state scheduling through the inline variants
//! therefore makes zero allocator calls.

use crate::event::{EventId, EventQueue};
use crate::metrics::Counter;
use crate::time::{SimDuration, SimTime};

/// Events executed across all engine run loops (pre-resolved handle:
/// the increment happens once per run call, but runs themselves can be
/// hot — e.g. the host scheduler's micro-simulations).
static EVENTS_EXECUTED: Counter = Counter::new("sim.events_executed");

/// Events whose handler captured too much state to store inline and
/// fell back to a heap allocation. A healthy model keeps this a tiny
/// fraction of `sim.events_executed`.
static EVENTS_BOXED: Counter = Counter::new("sim.events_boxed");

/// A boxed event handler: the fallback representation for closures
/// whose captures do not fit an [`Event`]'s inline variants. `Send`
/// so an engine (and its pending events) can migrate between the
/// worker threads of a [`crate::shard::ShardedSim`] window.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>) + Send>;

/// A schedulable event: the handler plus up to two machine words of
/// inline state, stored directly in the event queue's arena.
///
/// Construct the inline variants through
/// [`Engine::schedule_fn_at`] / [`Engine::schedule_arg_in`] and
/// friends; captureless closures coerce to the `fn` pointers these
/// take. The generic [`Engine::schedule_at`] family accepts arbitrary
/// closures and boxes the ones with non-zero-sized captures.
pub enum Event<W> {
    /// A bare function pointer; no state beyond the world.
    Fn(fn(&mut W, &mut Engine<W>)),
    /// A function pointer plus one word of state, passed back as the
    /// first argument.
    Arg(u64, fn(u64, &mut W, &mut Engine<W>)),
    /// A function pointer plus two words of state.
    Arg2([u64; 2], fn([u64; 2], &mut W, &mut Engine<W>)),
    /// The boxing fallback for handlers with larger captures.
    Boxed(EventFn<W>),
}

impl<W> Event<W> {
    /// Runs the handler, consuming the event.
    #[inline]
    pub fn invoke(self, world: &mut W, en: &mut Engine<W>) {
        match self {
            Event::Fn(f) => f(world, en),
            Event::Arg(a, f) => f(a, world, en),
            Event::Arg2(a, f) => f(a, world, en),
            Event::Boxed(f) => f(world, en),
        }
    }
}

impl<W> std::fmt::Debug for Event<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Event::Fn(_) => "Event::Fn",
            Event::Arg(..) => "Event::Arg",
            Event::Arg2(..) => "Event::Arg2",
            Event::Boxed(_) => "Event::Boxed",
        })
    }
}

/// Boxes a closure into the fallback variant, counting it against
/// `sim.events_boxed` only when the capture is non-zero-sized (boxing
/// a zero-sized closure performs no allocation).
fn boxed_event<W, F>(f: F) -> Event<W>
where
    F: FnOnce(&mut W, &mut Engine<W>) + Send + 'static,
{
    if std::mem::size_of::<F>() > 0 {
        EVENTS_BOXED.add(1);
    }
    Event::Boxed(Box::new(f))
}

/// A discrete-event simulation executor over a world type `W`.
///
/// See the [crate-level example](crate) for typical use.
pub struct Engine<W> {
    clock: SimTime,
    queue: EventQueue<Event<W>>,
    executed: u64,
    horizon: Option<SimTime>,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("clock", &self.clock)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W> Engine<W> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            horizon: None,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a pre-built [`Event`] at the absolute instant `at` —
    /// the core all `schedule_*` helpers funnel through.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock: the past is
    /// immutable in a discrete-event simulation, so this is always a
    /// caller bug.
    pub fn schedule_event_at(&mut self, at: SimTime, ev: Event<W>) -> EventId {
        assert!(
            at >= self.clock,
            "schedule_at: {at} is before current time {}",
            self.clock
        );
        self.queue.push(at, ev)
    }

    /// Schedules a pre-built [`Event`] `delay` after the current
    /// instant.
    pub fn schedule_event_in(&mut self, delay: SimDuration, ev: Event<W>) -> EventId {
        self.queue.push(self.clock + delay, ev)
    }

    /// Schedules a pre-built [`Event`] at the current instant, after
    /// all events already scheduled for this instant.
    pub fn schedule_event_now(&mut self, ev: Event<W>) -> EventId {
        self.queue.push(self.clock, ev)
    }

    /// Schedules `f` to run at the absolute instant `at`.
    ///
    /// Closures with non-zero-sized captures are boxed (counted by
    /// `sim.events_boxed`); prefer the `schedule_fn_*` /
    /// `schedule_arg_*` variants on hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W>) + Send + 'static,
    {
        self.schedule_event_at(at, boxed_event(f))
    }

    /// Schedules `f` to run `delay` after the current instant.
    ///
    /// Closures with non-zero-sized captures are boxed; see
    /// [`schedule_at`](Engine::schedule_at).
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W>) + Send + 'static,
    {
        self.schedule_event_in(delay, boxed_event(f))
    }

    /// Schedules `f` to run at the current instant, after all events
    /// already scheduled for this instant.
    ///
    /// Closures with non-zero-sized captures are boxed; see
    /// [`schedule_at`](Engine::schedule_at).
    pub fn schedule_now<F>(&mut self, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W>) + Send + 'static,
    {
        self.schedule_event_now(boxed_event(f))
    }

    /// Schedules a bare function pointer at the absolute instant `at`
    /// — fully inline, no allocation. Captureless closures coerce.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_fn_at(&mut self, at: SimTime, f: fn(&mut W, &mut Engine<W>)) -> EventId {
        self.schedule_event_at(at, Event::Fn(f))
    }

    /// Schedules a bare function pointer `delay` after the current
    /// instant — fully inline, no allocation.
    pub fn schedule_fn_in(&mut self, delay: SimDuration, f: fn(&mut W, &mut Engine<W>)) -> EventId {
        self.schedule_event_in(delay, Event::Fn(f))
    }

    /// Schedules a bare function pointer at the current instant —
    /// fully inline, no allocation.
    pub fn schedule_fn_now(&mut self, f: fn(&mut W, &mut Engine<W>)) -> EventId {
        self.schedule_event_now(Event::Fn(f))
    }

    /// Schedules a function pointer carrying one word of state at the
    /// absolute instant `at` — fully inline, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_arg_at(
        &mut self,
        at: SimTime,
        arg: u64,
        f: fn(u64, &mut W, &mut Engine<W>),
    ) -> EventId {
        self.schedule_event_at(at, Event::Arg(arg, f))
    }

    /// Schedules a function pointer carrying one word of state `delay`
    /// after the current instant — fully inline, no allocation.
    pub fn schedule_arg_in(
        &mut self,
        delay: SimDuration,
        arg: u64,
        f: fn(u64, &mut W, &mut Engine<W>),
    ) -> EventId {
        self.schedule_event_in(delay, Event::Arg(arg, f))
    }

    /// Schedules a function pointer carrying one word of state at the
    /// current instant — fully inline, no allocation.
    pub fn schedule_arg_now(&mut self, arg: u64, f: fn(u64, &mut W, &mut Engine<W>)) -> EventId {
        self.schedule_event_now(Event::Arg(arg, f))
    }

    /// Schedules a function pointer carrying two words of state at the
    /// absolute instant `at` — fully inline, no allocation. This is
    /// the widest inline shape, and the one the sharded mailbox drain
    /// uses to deliver encoded cross-site messages without boxing.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_arg2_at(
        &mut self,
        at: SimTime,
        arg: [u64; 2],
        f: fn([u64; 2], &mut W, &mut Engine<W>),
    ) -> EventId {
        self.schedule_event_at(at, Event::Arg2(arg, f))
    }

    /// Schedules a function pointer carrying two words of state
    /// `delay` after the current instant — fully inline, no
    /// allocation.
    pub fn schedule_arg2_in(
        &mut self,
        delay: SimDuration,
        arg: [u64; 2],
        f: fn([u64; 2], &mut W, &mut Engine<W>),
    ) -> EventId {
        self.schedule_event_in(delay, Event::Arg2(arg, f))
    }

    /// Schedules a function pointer carrying two words of state at the
    /// current instant — fully inline, no allocation.
    pub fn schedule_arg2_now(
        &mut self,
        arg: [u64; 2],
        f: fn([u64; 2], &mut W, &mut Engine<W>),
    ) -> EventId {
        self.schedule_event_now(Event::Arg2(arg, f))
    }

    /// Cancels a pending event. Returns `true` if it had not yet run.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Executes a single event, if any remains (and none lies beyond
    /// the horizon set by [`run_until`](Engine::run_until)). Returns
    /// `true` if an event ran.
    pub fn step(&mut self, world: &mut W) -> bool {
        // One fused queue operation: the horizon check reads the heap
        // root that the pop then removes.
        let Some((time, _, ev)) = self.queue.pop_due(self.horizon) else {
            return false;
        };
        debug_assert!(time >= self.clock, "event queue produced the past");
        self.clock = time;
        self.executed += 1;
        // Periodic self-audit: every dev-profile run continuously
        // sweeps the queue invariants without O(n) work per event.
        #[cfg(any(debug_assertions, feature = "audit"))]
        if self
            .executed
            .is_multiple_of(crate::audit::AUTO_AUDIT_INTERVAL)
        {
            if let Err(v) = self.audit() {
                panic!(
                    "engine self-audit failed after {} events: {v}",
                    self.executed
                );
            }
        }
        ev.invoke(world, self);
        true
    }

    /// Re-verifies the engine's invariants (runtime audit layer; see
    /// [`crate::audit`]): the event queue's structural checks plus
    /// causality — no pending event may be earlier than the clock,
    /// since the past is immutable in a discrete-event simulation.
    #[cfg(any(debug_assertions, feature = "audit"))]
    pub fn audit(&self) -> crate::audit::AuditResult {
        self.queue.audit()?;
        if let Some(next) = self.queue.earliest_time() {
            if next < self.clock {
                return Err(crate::audit::AuditViolation {
                    invariant: "causality",
                    detail: format!("pending event at {next} is before the clock {}", self.clock),
                });
            }
        }
        Ok(())
    }

    /// Runs until no events remain.
    pub fn run(&mut self, world: &mut W) {
        self.horizon = None;
        let before = self.executed;
        while self.step(world) {}
        EVENTS_EXECUTED.add(self.executed - before);
    }

    /// Runs until the queue is empty or the next event lies strictly
    /// after `deadline`; then sets the clock to `deadline` if it has
    /// not yet reached it. Events exactly at `deadline` run.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        self.horizon = Some(deadline);
        let before = self.executed;
        while self.step(world) {}
        EVENTS_EXECUTED.add(self.executed - before);
        self.horizon = None;
        if self.clock < deadline {
            self.clock = deadline;
        }
    }

    /// Runs every event strictly before `bound`, leaving the clock at
    /// the last executed event (or untouched when nothing ran) — the
    /// window-execution primitive of the conservative synchronizer in
    /// [`crate::shard`]. Unlike [`run_until`](Engine::run_until), the
    /// bound itself is *exclusive* and the clock is **not** bumped to
    /// it: an event delivered exactly at the bound (the next window's
    /// horizon) must still be schedulable, and schedule-time causality
    /// checks compare against the clock.
    ///
    /// Returns how many events ran.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is [`SimTime::ZERO`]: an empty window is
    /// always a synchronizer bug.
    pub fn run_before(&mut self, world: &mut W, bound: SimTime) -> u64 {
        assert!(bound > SimTime::ZERO, "run_before: empty window");
        // Exclusive bound over integer nanoseconds: everything up to
        // and including `bound - 1ns`.
        self.horizon = Some(bound - SimDuration::from_nanos(1));
        let before = self.executed;
        while self.step(world) {}
        EVENTS_EXECUTED.add(self.executed - before);
        self.horizon = None;
        self.executed - before
    }

    /// Time of the earliest pending event without popping it, if any —
    /// what the conservative synchronizer folds into the global
    /// safe-advance minimum.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.earliest_time()
    }

    /// Runs at most `max_events` events; returns how many ran.
    pub fn run_steps(&mut self, world: &mut W, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step(world) {
            n += 1;
        }
        EVENTS_EXECUTED.add(n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn events_run_in_time_order() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(2), |w: &mut W, en| {
            w.log.push((en.now().as_nanos(), "b"))
        });
        en.schedule_at(secs(1), |w: &mut W, en| {
            w.log.push((en.now().as_nanos(), "a"))
        });
        en.run(&mut w);
        assert_eq!(
            w.log,
            vec![(secs(1).as_nanos(), "a"), (secs(2).as_nanos(), "b")]
        );
        assert_eq!(en.executed(), 2);
    }

    #[test]
    fn handlers_can_chain() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_in(SimDuration::from_secs(1), |w: &mut W, en| {
            w.log.push((en.now().as_nanos(), "first"));
            en.schedule_in(SimDuration::from_secs(1), |w: &mut W, en| {
                w.log.push((en.now().as_nanos(), "second"));
            });
        });
        en.run(&mut w);
        assert_eq!(en.now(), secs(2));
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(1), |w: &mut W, en| {
            w.log.push((0, "outer"));
            en.schedule_now(|w: &mut W, _| w.log.push((0, "inner")));
        });
        en.schedule_at(secs(1), |w: &mut W, _| w.log.push((0, "peer")));
        en.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["outer", "peer", "inner"]);
    }

    #[test]
    fn inline_variants_interleave_with_boxed_in_schedule_order() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_fn_at(secs(1), |w, _| w.log.push((0, "fn")));
        en.schedule_arg_at(secs(1), 7, |a, w, _| {
            assert_eq!(a, 7);
            w.log.push((a, "arg"));
        });
        en.schedule_at(secs(1), |w: &mut W, _| w.log.push((0, "boxed")));
        en.schedule_event_at(
            secs(1),
            Event::Arg2([3, 4], |a, w, _| w.log.push((a[0] + a[1], "arg2"))),
        );
        en.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["fn", "arg", "boxed", "arg2"]);
        assert_eq!(w.log[3].0, 7, "arg2 words delivered");
    }

    #[test]
    fn inline_fn_and_arg_events_chain_and_cancel() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        fn tick(left: u64, w: &mut W, en: &mut Engine<W>) {
            w.log.push((left, "tick"));
            if left > 0 {
                en.schedule_arg_in(SimDuration::from_secs(1), left - 1, tick);
            }
        }
        en.schedule_arg_now(3, tick);
        let doomed = en.schedule_fn_in(SimDuration::from_secs(10), |w, _| w.log.push((0, "no")));
        assert!(en.cancel(doomed));
        en.run(&mut w);
        let ticks: Vec<u64> = w.log.iter().map(|(n, _)| *n).collect();
        assert_eq!(ticks, vec![3, 2, 1, 0]);
        assert_eq!(en.now(), secs(3));
    }

    #[test]
    fn events_boxed_counts_only_real_captures() {
        metrics::reset();
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        // Inline variants and captureless (zero-sized) closures never
        // count as boxed.
        en.schedule_fn_at(secs(1), |w, _| w.log.push((0, "a")));
        en.schedule_arg_in(SimDuration::from_secs(1), 1, |_, w, _| w.log.push((0, "b")));
        en.schedule_now(|w: &mut W, _| w.log.push((0, "c")));
        let snap = metrics::take();
        assert_eq!(snap.counter("sim.events_boxed"), 0);
        // A closure with a real capture does.
        let payload = [1u8, 2, 3].to_vec();
        en.schedule_at(secs(2), move |w: &mut W, _| {
            w.log.push((payload.len() as u64, "d"))
        });
        let snap = metrics::take();
        assert_eq!(snap.counter("sim.events_boxed"), 1);
        en.run(&mut w);
        assert_eq!(w.log.len(), 4);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(1), |w: &mut W, _| w.log.push((1, "in")));
        en.schedule_at(secs(5), |w: &mut W, _| w.log.push((5, "out")));
        en.run_until(&mut w, secs(3));
        assert_eq!(w.log.len(), 1);
        assert_eq!(en.now(), secs(3), "clock advances to deadline");
        assert_eq!(en.pending(), 1);
        en.run(&mut w);
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn run_until_includes_deadline_events() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(3), |w: &mut W, _| w.log.push((3, "at")));
        en.run_until(&mut w, secs(3));
        assert_eq!(w.log.len(), 1);
    }

    #[test]
    fn run_before_excludes_bound_and_leaves_clock() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(1), |w: &mut W, _| w.log.push((1, "in")));
        en.schedule_at(secs(3), |w: &mut W, _| w.log.push((3, "at-bound")));
        assert_eq!(en.next_event_time(), Some(secs(1)));
        assert_eq!(en.run_before(&mut w, secs(3)), 1, "bound is exclusive");
        assert_eq!(en.now(), secs(1), "clock stays at the last event");
        assert_eq!(en.next_event_time(), Some(secs(3)));
        // An event landing exactly at the previous bound is legal.
        en.schedule_at(secs(3), |w: &mut W, _| w.log.push((3, "delivered")));
        assert_eq!(en.run_before(&mut w, secs(4)), 2);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["in", "at-bound", "delivered"]);
        assert_eq!(en.next_event_time(), None);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        let id = en.schedule_at(secs(1), |w: &mut W, _| w.log.push((1, "no")));
        assert!(en.cancel(id));
        en.run(&mut w);
        assert!(w.log.is_empty());
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(5), |_, en| {
            en.schedule_at(secs(1), |_, _| {});
        });
        en.run(&mut w);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_fn_in_the_past_panics() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_at(secs(5), |_, en| {
            en.schedule_fn_at(secs(1), |_, _| {});
        });
        en.run(&mut w);
    }

    #[test]
    fn audit_passes_during_and_after_run() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        for i in 0..50 {
            en.schedule_at(secs(i / 5), |w: &mut W, en| {
                w.log.push((0, "x"));
                en.schedule_in(SimDuration::from_secs(1), |_, _| {});
            });
        }
        en.audit().expect("clean before running");
        while en.step(&mut w) {
            en.audit().expect("clean after every step");
        }
        en.audit().expect("clean when drained");
    }

    #[test]
    fn periodic_self_audit_covers_long_runs() {
        // Schedules several times AUTO_AUDIT_INTERVAL chained events so
        // the in-step sweep fires repeatedly; a corrupted queue would
        // panic the run.
        fn chain(w: &mut W, en: &mut Engine<W>) {
            if en.executed() < 4 * crate::audit::AUTO_AUDIT_INTERVAL {
                w.log.push((0, "t"));
                en.schedule_fn_in(SimDuration::from_nanos(1), chain);
            }
        }
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        en.schedule_fn_now(chain);
        en.run(&mut w);
        assert!(en.executed() >= 4 * crate::audit::AUTO_AUDIT_INTERVAL);
    }

    #[test]
    fn run_steps_bounds_execution() {
        let mut en: Engine<W> = Engine::new();
        let mut w = W::default();
        for i in 0..10 {
            en.schedule_at(secs(i), |w: &mut W, _| w.log.push((0, "x")));
        }
        assert_eq!(en.run_steps(&mut w, 3), 3);
        assert_eq!(w.log.len(), 3);
        assert_eq!(en.pending(), 7);
    }
}
