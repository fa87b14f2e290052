//! Sharded conservative parallel simulation: per-site event queues
//! synchronized by a lookahead barrier protocol.
//!
//! The paper's target is a *grid* — many administrative sites, each
//! dynamically instantiating VMs, separated by wide-area links. That
//! topology is exactly what a conservative parallel discrete-event
//! simulation needs: cross-site interactions ride
//! [`NetLink`](https://docs.rs)-style links whose propagation latency
//! bounds how soon one site can affect another. If every cross-site
//! message sent at time `t` arrives no earlier than `t + latency`,
//! then each site can execute independently up to the earliest instant
//! any *other* site's pending work could reach it — its **horizon** —
//! without ever receiving a message from the past.
//!
//! ## The window protocol
//!
//! A [`ShardedSim`] owns one runtime per site — its own
//! [`Engine`] (event queue), world state, [`TraceLog`] segment,
//! [`Metrics`] registry and (by caller convention) seeded RNG stream.
//! `run` repeats:
//!
//! 1. **Drain mailboxes** in fixed site-id order: every pending
//!    cross-site message is scheduled into its destination engine.
//!    Outboxes are kept per destination, so the drain swaps each
//!    non-empty (src,dst) batch out under the source's lock and then
//!    locks each destination once per batch — not once per message —
//!    recycling buffer capacity through a double-buffer swap so
//!    steady-state traffic allocates nothing. A message timestamped
//!    before its destination's already-executed horizon is a
//!    *lookahead violation* and panics — it could only exist if a
//!    caller sent "faster than light", i.e. below the declared
//!    minimum link latency.
//! 2. **Compute horizons.** Under the default *global* lookahead, all
//!    sites share `t_min + lookahead` (`t_min` the global earliest
//!    pending event; `lookahead` the minimum link latency anywhere).
//!    With a [`LookaheadMatrix`] installed
//!    ([`ShardedSim::per_pair_lookahead`]), each site gets its own
//!    horizon `min over active sources s of (t_s + lookahead(s→i))` —
//!    on topologies mixing metro and WAN latencies, per-site horizons
//!    are far wider than the global minimum, cutting barrier windows
//!    by multiples.
//! 3. **Execute the window**: each site runs every local event
//!    strictly before its horizon ([`Engine::run_before`]). Under
//!    per-pair lookahead a site additionally self-limits against its
//!    *own* sends: execution proceeds in chunks never more than the
//!    site's minimum round trip past its next event, and each queued
//!    outgoing message caps the window at `arrival +
//!    lookahead(dst→site)` — the earliest instant that send could
//!    echo back. A site that sends nothing runs all the way to its
//!    cross-source horizon in one window. Sites are grouped into
//!    `shards` by `site_id % shards`, and shards are claimed by
//!    worker threads off an atomic cursor.
//! 4. **Barrier**, then repeat until no events remain anywhere.
//!
//! ## Why results are bit-identical at any shard/thread count
//!
//! The protocol's unit is the **site**, not the shard: the drain
//! order (ascending source site id; per-destination batches preserve
//! each destination's arrival order), the horizons (computed by the
//! coordinator from per-site event times and the topology alone) and
//! each site's intra-window execution (its engine's `(time, seq)`
//! order over purely local state) are all independent of how sites
//! are packed into shards or shards onto threads. Shards and threads
//! only decide *which OS thread* runs a site's window — never what
//! the window computes. Traces live per site and digest in site
//! order; metrics are harvested per site-window into per-site
//! slot-indexed accumulators (plain array adds; names materialize
//! once per run) and merged in site order; the caller's ambient
//! metrics context is saved before the run and restored (then
//! folded) after. A 1-shard, 1-thread run executes the identical
//! windowed schedule, just without worker threads.
//!
//! ## Allocation-free delivery
//!
//! Delivery schedules every message through the engine's 32-byte
//! inline event machinery: each world's
//! [`encode_msg`](ShardWorld::encode_msg) packs its message into two
//! machine words ([`Event::Arg2`](crate::engine::Event)), and
//! [`decode_msg`](ShardWorld::decode_msg) unpacks them at arrival.
//! Together with the double-buffered outboxes (reallocations counted
//! by `shard.outbox_regrown`), steady-state mailbox traffic makes zero
//! allocator calls.
//!
//! The cross-thread primitives this module uses (`Mutex`, `Barrier`,
//! atomics) are sanctioned *here only* — the `sync-primitive` audit
//! rule flags them anywhere else in sim-state code, because ad-hoc
//! cross-thread coordination is how scheduling order leaks into
//! results.
//!
//! ```
//! use gridvm_simcore::shard::{ShardWorld, ShardedSim, SiteId, SiteState};
//! use gridvm_simcore::engine::Engine;
//! use gridvm_simcore::time::{SimDuration, SimTime};
//!
//! struct Counter { received: u64 }
//! impl ShardWorld for Counter {
//!     type Msg = u64;
//!     fn deliver(msg: u64, site: &mut SiteState<Self>, _: &mut Engine<SiteState<Self>>) {
//!         site.world.received += msg;
//!     }
//!     // Pack the payload into the inline event words: delivery
//!     // never touches the allocator.
//!     fn encode_msg(msg: u64) -> [u64; 2] { [msg, 0] }
//!     fn decode_msg(words: [u64; 2]) -> u64 { words[0] }
//! }
//!
//! let lookahead = SimDuration::from_millis(5);
//! let mut sim = ShardedSim::new(lookahead, (0..2).map(|_| Counter { received: 0 }));
//! sim.with_site(0, |_, en| {
//!     en.schedule_at(SimTime::ZERO, move |site: &mut SiteState<Counter>, en| {
//!         site.send(SiteId(1), en.now() + SimDuration::from_millis(5), 7);
//!     });
//! });
//! sim.run();
//! assert_eq!(sim.with_site(1, |site, _| site.world.received), 7);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use crate::engine::Engine;
use crate::lookahead::LookaheadMatrix;
use crate::metrics::{self, Counter, Metrics};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

/// Outbox buffers that regrew after their first allocation — a
/// non-zero count means the pre-size hint
/// ([`ShardedSim::outbox_capacity`]) is below the real per-window
/// batch size and steady-state sends are hitting the allocator.
static OUTBOX_REGROWN: Counter = Counter::new("shard.outbox_regrown");

/// Default per-(src,dst) outbox capacity reserved on first use when
/// the caller installs no hint.
const DEFAULT_OUTBOX_HINT: usize = 8;

/// Identifies one site — the unit of the conservative protocol and
/// the owner of one event queue, trace segment and RNG stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(
    /// Zero-based site index.
    pub u32,
);

impl SiteId {
    /// The site index as a `usize`, for indexing site tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A per-site world that can run under a [`ShardedSim`].
///
/// `Send` because a site (engine, world, pending events) migrates
/// between the coordinator and worker threads at window boundaries;
/// the protocol guarantees exclusive access within a window.
pub trait ShardWorld: Send + Sized + 'static {
    /// Cross-site message payload, moved through the per-(src,dst)
    /// mailboxes.
    type Msg: Send + 'static;

    /// Applies one delivered message at its arrival instant. Runs as
    /// an ordinary event on the destination site's engine, so it may
    /// schedule follow-ups and send further messages.
    fn deliver(msg: Self::Msg, site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>);

    /// Packs a message into two inline event words so the mailbox
    /// drain delivers it allocation-free through
    /// [`Event::Arg2`](crate::engine::Event). Implementations must
    /// round-trip: `decode_msg(encode_msg(m)) == m`.
    fn encode_msg(msg: Self::Msg) -> [u64; 2];

    /// Reverses [`encode_msg`](Self::encode_msg) at arrival.
    fn decode_msg(words: [u64; 2]) -> Self::Msg;

    /// Called once per site when the run completes, before the site's
    /// metrics are folded into the caller's context. Worlds that tally
    /// per-event statistics can keep them in plain fields — one
    /// integer add per event — and publish them here through
    /// [`Counter`] handles, instead of paying a thread-local counter
    /// add on every event. The default publishes nothing.
    fn flush_metrics(&mut self) {}
}

/// The delivery trampoline for inline-encoded messages: a plain `fn`
/// item, so it fits [`Event::Arg2`](crate::engine::Event) as a
/// function pointer with the encoded words as its argument.
fn deliver_inline<W: ShardWorld>(
    words: [u64; 2],
    state: &mut SiteState<W>,
    en: &mut Engine<SiteState<W>>,
) {
    W::deliver(W::decode_msg(words), state, en);
}

/// The world type each site's [`Engine`] executes over: the caller's
/// per-site state plus the site's identity, trace segment and
/// outbound mailboxes.
pub struct SiteState<W: ShardWorld> {
    id: SiteId,
    /// The caller's per-site world state.
    pub world: W,
    /// This site's trace segment. Digested in site-id order by
    /// [`ShardedSim::trace_digest`].
    pub trace: TraceLog,
    /// One outbox per destination site, so the drain can move a whole
    /// (src,dst) batch under one destination lock. Capacity is
    /// recycled across windows by the drain's double-buffer swap.
    outboxes: Vec<Vec<(SimTime, W::Msg)>>,
    /// Destinations with a non-empty outbox, in first-touch order.
    dirty: Vec<u32>,
    /// Capacity reserved on an outbox's first allocation.
    outbox_hint: usize,
    /// Per-pair mode only: `echo_row[d]` is the return lookahead
    /// `la(d → self)` in nanoseconds, so a send's earliest possible
    /// echo is `arrival + echo_row[dst]`. Empty under global
    /// lookahead.
    echo_row: Vec<u64>,
    /// Minimum echo bound over the messages queued this window;
    /// `u64::MAX` when the outbox is clean (reset at every drain).
    echo_min: u64,
}

impl<W: ShardWorld> SiteState<W> {
    /// This site's identity.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Queues a cross-site message for delivery at the absolute
    /// instant `at`. The message is moved into the destination's
    /// engine at the next barrier; `at` must be at least one link
    /// latency past the window it was sent in (guaranteed when `at`
    /// is `now + link_latency`, since the synchronizer's per-pair —
    /// or global minimum — lookahead never exceeds any link latency)
    /// or the drain panics.
    ///
    /// # Panics
    ///
    /// Panics on a self-send: local follow-ups are ordinary scheduled
    /// events, not mailbox traffic, and are not subject to lookahead.
    pub fn send(&mut self, dst: SiteId, at: SimTime, msg: W::Msg) {
        assert!(
            dst != self.id,
            "{}: self-send through the mailbox; schedule a local event instead",
            self.id
        );
        let q = &mut self.outboxes[dst.index()];
        if q.is_empty() {
            self.dirty.push(dst.0);
        }
        if q.capacity() == 0 {
            q.reserve(self.outbox_hint.max(1));
        } else if q.len() == q.capacity() {
            OUTBOX_REGROWN.add(1);
        }
        q.push((at, msg));
        if !self.echo_row.is_empty() {
            let echo = at.as_nanos().saturating_add(self.echo_row[dst.index()]);
            self.echo_min = self.echo_min.min(echo);
        }
    }
}

/// One site's execution state: its engine, world, harvested metrics,
/// the horizon the coordinator set for the current window and the
/// event count of the window just executed.
struct SiteRuntime<W: ShardWorld> {
    en: Engine<SiteState<W>>,
    state: SiteState<W>,
    metrics: Metrics,
    /// Slot-indexed fast-counter accumulator: per-window harvests add
    /// cells here ([`harvest_site`]); names materialize once per run
    /// via [`metrics::fold_cells`].
    fast: Vec<u64>,
    /// On entry to a window: the coordinator's cross-source horizon in
    /// nanoseconds (`u64::MAX` = nothing active can reach the site).
    /// On exit: the bound the site actually guaranteed — lowered when
    /// its own sends' echo bounds stopped it early — which becomes the
    /// next drain's violation threshold.
    horizon: u64,
    /// Per-pair mode only: the site's minimum round trip in
    /// nanoseconds, chunking how far execution may outrun the next
    /// pending event before re-checking for new sends.
    rt_self: u64,
    window_events: u64,
}

/// A conservatively synchronized multi-site simulation.
///
/// Results — traces, metrics, digests — are bit-identical for every
/// shard and thread count; see the [module docs](self) for the
/// argument.
pub struct ShardedSim<W: ShardWorld> {
    sites: Vec<Mutex<SiteRuntime<W>>>,
    lookahead: SimDuration,
    matrix: Option<LookaheadMatrix>,
    shards: usize,
    threads: usize,
    windows: u64,
    messages: u64,
    total_events: u64,
    critical_events: u64,
    coord: Metrics,
    ran: bool,
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Creates a sharded simulation over one world per site, with the
    /// given lookahead (the minimum cross-site link latency; see
    /// `SiteTopology::lookahead` in `gridvm-vnet`). Defaults to one
    /// shard and one thread — the same protocol, serially — and to
    /// the single global lookahead; install a topology's full
    /// per-pair matrix with
    /// [`per_pair_lookahead`](Self::per_pair_lookahead).
    ///
    /// # Panics
    ///
    /// Panics on a zero lookahead: the conservative synchronizer
    /// would have no safe-advance window.
    pub fn new(lookahead: SimDuration, worlds: impl IntoIterator<Item = W>) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "zero lookahead leaves the conservative synchronizer no safe-advance window"
        );
        let worlds: Vec<W> = worlds.into_iter().collect();
        let n = worlds.len();
        let sites = worlds
            .into_iter()
            .enumerate()
            .map(|(i, world)| {
                Mutex::new(SiteRuntime {
                    en: Engine::new(),
                    state: SiteState {
                        id: SiteId(i as u32),
                        world,
                        trace: TraceLog::default(),
                        outboxes: (0..n).map(|_| Vec::new()).collect(),
                        dirty: Vec::new(),
                        outbox_hint: DEFAULT_OUTBOX_HINT,
                        echo_row: Vec::new(),
                        echo_min: u64::MAX,
                    },
                    metrics: Metrics::new(),
                    fast: Vec::new(),
                    horizon: 0,
                    rt_self: u64::MAX,
                    window_events: 0,
                })
            })
            .collect();
        ShardedSim {
            sites,
            lookahead,
            matrix: None,
            shards: 1,
            threads: 1,
            windows: 0,
            messages: 0,
            total_events: 0,
            critical_events: 0,
            coord: Metrics::new(),
            ran: false,
        }
    }

    /// Installs a per-(src,dst) lookahead matrix (see
    /// [`LookaheadMatrix`] and `SiteTopology::lookahead_matrix` in
    /// `gridvm-vnet`): the window protocol computes one horizon per
    /// site from the matrix instead of a single global
    /// `t_min + lookahead`, and each site additionally self-limits
    /// against its own sends' echo bounds (see the [module
    /// docs](self)). Horizons stay a pure function of per-site event
    /// times, the site's own sends and the topology, so results
    /// remain bit-identical at any shard/thread count; window
    /// *counts* differ from the global protocol (that is the point),
    /// but the executed event schedule — and therefore traces,
    /// digests and world-level metrics — does not.
    ///
    /// # Panics
    ///
    /// Panics when the matrix does not cover exactly this sim's
    /// sites.
    pub fn per_pair_lookahead(mut self, matrix: LookaheadMatrix) -> Self {
        assert_eq!(
            matrix.sites(),
            self.sites.len(),
            "lookahead matrix covers a different site count than the sim"
        );
        let n = self.sites.len();
        for (i, site) in self.sites.iter_mut().enumerate() {
            let rt = site.get_mut().expect("site lock poisoned");
            rt.rt_self = matrix.round_trip_nanos(i);
            rt.state.echo_row = (0..n).map(|d| matrix.lookahead_nanos(d, i)).collect();
        }
        self.matrix = Some(matrix);
        self
    }

    /// Sets the capacity reserved on each (src,dst) outbox's first
    /// allocation — the replication-level hint that keeps
    /// `shard.outbox_regrown` at zero. Reservation is lazy (on first
    /// send to that destination), so quiet pairs cost nothing.
    pub fn outbox_capacity(mut self, hint: usize) -> Self {
        for site in &mut self.sites {
            site.get_mut()
                .expect("site lock poisoned")
                .state
                .outbox_hint = hint;
        }
        self
    }

    /// Sets the shard count: sites are grouped by `site_id % shards`
    /// for window execution and critical-path accounting. Does not
    /// affect results.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        self.shards = shards;
        self
    }

    /// Sets the worker-thread count; `0` means one per available
    /// core. Clamped to the shard count at run time. Does not affect
    /// results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        self
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.sites.len()
    }

    /// The configured lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Runs `f` with exclusive access to one site's state and engine
    /// — how callers seed initial events before [`run`](Self::run)
    /// and inspect per-site results after it.
    pub fn with_site<R>(
        &mut self,
        site: usize,
        f: impl FnOnce(&mut SiteState<W>, &mut Engine<SiteState<W>>) -> R,
    ) -> R {
        let rt = self.sites[site].get_mut().expect("site lock poisoned");
        f(&mut rt.state, &mut rt.en)
    }

    /// Barrier windows executed.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-site messages delivered through the mailboxes.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Events executed across all sites.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Sum over windows of the busiest shard's event count — the
    /// event-parallel critical path at the configured shard count.
    pub fn critical_path_events(&self) -> u64 {
        self.critical_events
    }

    /// The deterministic, machine-independent parallel-efficiency
    /// model: total events over critical-path events. This is the
    /// speedup an ideal `shards`-way execution of the recorded
    /// window schedule achieves when per-event cost dominates; wall
    /// clock on a given machine approaches it as cores allow.
    pub fn model_speedup(&self) -> f64 {
        if self.critical_events == 0 {
            return 1.0;
        }
        self.total_events as f64 / self.critical_events as f64
    }

    /// Trace entries currently retained across all sites — the
    /// observability memory bound the macro-scale soak tests assert:
    /// with sampled per-site logs (install via
    /// [`with_site`](Self::with_site), setting `site.trace` to a
    /// [`TraceLog::with_sampling`] log) this stays O(sites ×
    /// capacity) no matter how many events the run executes.
    pub fn retained_trace_entries(&mut self) -> usize {
        self.sites
            .iter_mut()
            .map(|s| s.get_mut().expect("site lock poisoned").state.trace.len())
            .sum()
    }

    /// Sum of `trace.sampled` over all sites' logs (0 when no site
    /// samples).
    pub fn sampled_trace_entries(&mut self) -> u64 {
        self.sites
            .iter_mut()
            .map(|s| {
                s.get_mut()
                    .expect("site lock poisoned")
                    .state
                    .trace
                    .sampled()
            })
            .sum()
    }

    /// FNV-1a digest over every site's trace digest, in site-id order
    /// — the sharded golden-trace anchor.
    pub fn trace_digest(&mut self) -> u64 {
        let mut h = crate::fault::Fnv::new();
        for site in &mut self.sites {
            let rt = site.get_mut().expect("site lock poisoned");
            h.mix(&u64::from(rt.state.id.0).to_le_bytes());
            h.mix(&rt.state.trace.digest().to_le_bytes());
        }
        h.finish()
    }

    /// Coordinator metrics (`shard.windows`, `shard.messages`, drain
    /// scheduling) merged with every site's registry in site-id
    /// order.
    pub fn merged_metrics(&mut self) -> Metrics {
        let mut m = self.coord.clone();
        for site in &mut self.sites {
            let rt = site.get_mut().expect("site lock poisoned");
            m.merge(&rt.metrics);
        }
        m
    }

    /// Runs the windowed protocol to completion: until no site has a
    /// pending event and every mailbox is empty.
    ///
    /// The caller's thread-local [`metrics`] context is saved before
    /// the run and restored afterwards with the run's coordinator and
    /// per-site registries folded in (site-id order) — so a sharded
    /// run composes with [`crate::replication::ReplicationRunner`]
    /// harvesting like any other simulation.
    ///
    /// # Panics
    ///
    /// Panics on a second call (a sharded world runs to completion
    /// exactly once) and on lookahead violations — a cross-site
    /// message timestamped inside an already-executed window.
    pub fn run(&mut self) {
        assert!(!self.ran, "ShardedSim::run is single-shot");
        self.ran = true;
        if self.sites.is_empty() {
            return;
        }
        let ambient = metrics::take();
        let shards = self.shards.min(self.sites.len());
        let threads = self.threads.min(shards);
        if threads <= 1 {
            self.run_loop_serial(shards);
        } else {
            self.run_loop_parallel(shards, threads);
        }
        self.coord.counter_add("shard.windows", self.windows);
        self.coord.counter_add("shard.messages", self.messages);
        // Materialize the zero-allocation counters even when nothing
        // incremented them: a steady-state run *proves* its fast path
        // by showing these at 0 rather than omitting them.
        self.coord.counter_add("sim.events_boxed", 0);
        self.coord.counter_add("shard.outbox_regrown", 0);
        metrics::merge_current(&ambient);
        metrics::merge_current(&self.coord);
        for site in &mut self.sites {
            let rt = site.get_mut().expect("site lock poisoned");
            // The world publishes its plain-field tallies into this
            // thread's cells; claiming them before the fold keeps the
            // attribution per-site.
            rt.state.world.flush_metrics();
            metrics::drain_fast_cells(&mut rt.fast);
            metrics::fold_cells(&mut rt.fast, &mut rt.metrics);
            metrics::merge_current(&rt.metrics);
        }
    }

    /// The protocol on the caller's thread: identical window schedule,
    /// no worker threads to pay for — and no lock traffic either,
    /// since exclusive ownership lets every site access go through
    /// `Mutex::get_mut`.
    fn run_loop_serial(&mut self, shards: usize) {
        let n = self.sites.len();
        let mut buf = CoordBuffers::new(n);
        let mut per_shard = vec![0u64; shards];
        loop {
            self.messages += drain_segment_mut(&mut self.coord, &mut self.sites, &mut buf);
            if !gather_times_mut(&mut self.sites, &mut buf.times) {
                break;
            }
            compute_horizons(self.matrix.as_ref(), self.lookahead.as_nanos(), &mut buf);
            per_shard.iter_mut().for_each(|c| *c = 0);
            for (i, site) in self.sites.iter_mut().enumerate() {
                let rt = site.get_mut().expect("site lock poisoned");
                rt.horizon = buf.horizons[i];
                per_shard[i % shards] += run_site_window(rt);
                // The achieved bound (possibly echo-lowered) becomes
                // the next drain's violation threshold; max keeps it
                // monotone if a later horizon computes lower.
                buf.safe[i] = buf.safe[i].max(rt.horizon);
            }
            self.account(&per_shard);
        }
    }

    /// The protocol with a persistent worker pool: the coordinator
    /// drains mailboxes and computes horizons; workers claim shards
    /// off an atomic cursor each window. Which thread runs a site
    /// never affects what the site computes.
    fn run_loop_parallel(&mut self, shards: usize, threads: usize) {
        let lookahead_ns = self.lookahead.as_nanos();
        let matrix = self.matrix.as_ref();
        let sites = &self.sites;
        let running = AtomicBool::new(true);
        let cursor = AtomicUsize::new(0);
        let barrier = Barrier::new(threads + 1);
        let mut windows = 0u64;
        let mut messages = 0u64;
        let mut total = 0u64;
        let mut critical = 0u64;
        let mut coord = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                // audit:allow(shard-state-escape): scoped worker borrows the epoch barrier; threads join at scope end before any result is read
                scope.spawn(|| loop {
                    barrier.wait();
                    if !running.load(Ordering::Acquire) {
                        break;
                    }
                    loop {
                        let shard = cursor.fetch_add(1, Ordering::Relaxed);
                        if shard >= shards {
                            break;
                        }
                        let mut i = shard;
                        while i < sites.len() {
                            let mut rt = sites[i].lock().expect("site lock poisoned");
                            rt.window_events = run_site_window(&mut rt);
                            i += shards;
                        }
                    }
                    barrier.wait();
                });
            }
            let mut buf = CoordBuffers::new(sites.len());
            let mut per_shard = vec![0u64; shards];
            loop {
                messages += drain_segment(&mut coord, sites, &mut buf);
                if !gather_times(sites, &mut buf.times) {
                    break;
                }
                compute_horizons(matrix, lookahead_ns, &mut buf);
                for (i, site) in sites.iter().enumerate() {
                    site.lock().expect("site lock poisoned").horizon = buf.horizons[i];
                }
                cursor.store(0, Ordering::Relaxed);
                barrier.wait(); // open the window
                barrier.wait(); // every site has executed
                per_shard.iter_mut().for_each(|c| *c = 0);
                for (i, site) in sites.iter().enumerate() {
                    let mut rt = site.lock().expect("site lock poisoned");
                    per_shard[i % shards] += rt.window_events;
                    rt.window_events = 0;
                    buf.safe[i] = buf.safe[i].max(rt.horizon);
                }
                total += per_shard.iter().sum::<u64>();
                critical += per_shard.iter().max().copied().unwrap_or(0);
                windows += 1;
            }
            running.store(false, Ordering::Release);
            barrier.wait(); // release workers into the exit check
        });
        self.windows += windows;
        self.messages += messages;
        self.total_events += total;
        self.critical_events += critical;
        self.coord.merge(&coord);
    }

    fn account(&mut self, per_shard: &[u64]) {
        self.windows += 1;
        self.total_events += per_shard.iter().sum::<u64>();
        self.critical_events += per_shard.iter().max().copied().unwrap_or(0);
    }
}

impl<W: ShardWorld> fmt::Debug for ShardedSim<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSim")
            .field("sites", &self.sites.len())
            .field("lookahead", &self.lookahead)
            .field("per_pair", &self.matrix.is_some())
            .field("shards", &self.shards)
            .field("threads", &self.threads)
            .field("windows", &self.windows)
            .finish()
    }
}

/// The coordinator's reusable per-window working set: per-site event
/// times, horizons, the already-executed bounds (`safe`), and the
/// drain's double-buffer scratch. Allocated once per run; every
/// window reuses the capacity.
struct CoordBuffers<M> {
    /// Earliest pending event per site, nanos; `u64::MAX` when idle.
    times: Vec<u64>,
    /// This window's per-site exclusive bound.
    horizons: Vec<u64>,
    /// The running maximum of each site's achieved bounds — site `i`
    /// is guaranteed to have executed everything strictly before
    /// `safe[i]`, so a message arriving earlier is a lookahead
    /// violation.
    safe: Vec<u64>,
    /// Per-destination swap buffers for the drain; capacity circulates
    /// between these and the sites' outboxes.
    scratch: Vec<Vec<M>>,
    /// Swap buffer for a source's dirty-destination list.
    dirty: Vec<u32>,
}

impl<M> CoordBuffers<M> {
    fn new(n: usize) -> Self {
        CoordBuffers {
            times: vec![u64::MAX; n],
            horizons: vec![0; n],
            safe: vec![0; n],
            scratch: (0..n).map(|_| Vec::new()).collect(),
            dirty: Vec::new(),
        }
    }
}

/// Swaps one source's dirty-destination list and its non-empty
/// outboxes out into the coordinator's scratch buffers — the emptied
/// scratch vecs go back in, so buffer capacity circulates instead of
/// being reallocated every window — and re-arms the echo bound.
fn take_outboxes<W: ShardWorld>(
    rt: &mut SiteRuntime<W>,
    buf: &mut CoordBuffers<(SimTime, W::Msg)>,
) {
    std::mem::swap(&mut rt.state.dirty, &mut buf.dirty);
    for &d in &buf.dirty {
        std::mem::swap(
            &mut rt.state.outboxes[d as usize],
            &mut buf.scratch[d as usize],
        );
    }
    // The outbox is clean again, so no queued send bounds the
    // next window's echo check.
    rt.state.echo_min = u64::MAX;
}

/// Schedules one (src,dst) batch into the destination engine, checking
/// each message against the destination's already-executed bound.
/// Returns the batch size.
fn deliver_batch<W: ShardWorld>(
    src: usize,
    rt: &mut SiteRuntime<W>,
    batch: &mut Vec<(SimTime, W::Msg)>,
    safe: u64,
) -> u64 {
    let delivered = batch.len() as u64;
    for (at, msg) in batch.drain(..) {
        assert!(
            at.as_nanos() >= safe,
            "lookahead violation: site{src} sent a message for {at}, inside the \
             already-executed window ending at {}; cross-site sends must be at \
             least one lookahead (the minimum link latency) in the future",
            SimTime::from_nanos(safe)
        );
        rt.en
            .schedule_arg2_at(at, W::encode_msg(msg), deliver_inline::<W>);
    }
    delivered
}

/// Moves every queued cross-site message into its destination engine,
/// in (source site, destination batch) order — ascending source, and
/// within one source each destination's batch in send order, which
/// preserves every *per-destination* arrival order and with it the
/// determinism contract. Each batch locks its destination exactly
/// once. Returns how many messages were delivered.
///
/// The coordinator's metrics activity (message-event scheduling) is
/// harvested into `coord` so the window executions' per-site
/// registries never mix with it.
fn drain_segment<W: ShardWorld>(
    coord: &mut Metrics,
    sites: &[Mutex<SiteRuntime<W>>],
    buf: &mut CoordBuffers<(SimTime, W::Msg)>,
) -> u64 {
    let mut delivered = 0u64;
    for src in 0..sites.len() {
        {
            let mut rt = sites[src].lock().expect("site lock poisoned");
            if rt.state.dirty.is_empty() {
                continue;
            }
            take_outboxes(&mut rt, buf);
        }
        let CoordBuffers {
            dirty,
            scratch,
            safe,
            ..
        } = buf;
        for &d in dirty.iter() {
            let dst = d as usize;
            let mut rt = sites[dst].lock().expect("site lock poisoned");
            delivered += deliver_batch(src, &mut rt, &mut scratch[dst], safe[dst]);
        }
        buf.dirty.clear();
    }
    if delivered > 0 {
        // Message scheduling ran against the (empty) ambient context;
        // fold it into the coordinator's registry so window executions'
        // per-site harvests never mix with it.
        metrics::harvest_into(coord);
    }
    delivered
}

/// [`drain_segment`] for the serial loop: exclusive ownership of the
/// sites means every access is a `get_mut`, not a lock.
fn drain_segment_mut<W: ShardWorld>(
    coord: &mut Metrics,
    sites: &mut [Mutex<SiteRuntime<W>>],
    buf: &mut CoordBuffers<(SimTime, W::Msg)>,
) -> u64 {
    let mut delivered = 0u64;
    for src in 0..sites.len() {
        {
            let rt = sites[src].get_mut().expect("site lock poisoned");
            if rt.state.dirty.is_empty() {
                continue;
            }
            take_outboxes(rt, buf);
        }
        let CoordBuffers {
            dirty,
            scratch,
            safe,
            ..
        } = buf;
        for &d in dirty.iter() {
            let dst = d as usize;
            let rt = sites[dst].get_mut().expect("site lock poisoned");
            delivered += deliver_batch(src, rt, &mut scratch[dst], safe[dst]);
        }
        buf.dirty.clear();
    }
    if delivered > 0 {
        metrics::harvest_into(coord);
    }
    delivered
}

/// Records each site's earliest pending event time into `times`
/// (`u64::MAX` when idle); returns whether any site has work.
fn gather_times<W: ShardWorld>(sites: &[Mutex<SiteRuntime<W>>], times: &mut [u64]) -> bool {
    let mut any = false;
    for (i, site) in sites.iter().enumerate() {
        let rt = site.lock().expect("site lock poisoned");
        times[i] = match rt.en.next_event_time() {
            Some(t) => {
                any = true;
                t.as_nanos()
            }
            None => u64::MAX,
        };
    }
    any
}

/// [`gather_times`] for the serial loop: a lock-free `get_mut` peek
/// at each site's event queue.
fn gather_times_mut<W: ShardWorld>(sites: &mut [Mutex<SiteRuntime<W>>], times: &mut [u64]) -> bool {
    let mut any = false;
    for (i, site) in sites.iter_mut().enumerate() {
        let rt = site.get_mut().expect("site lock poisoned");
        times[i] = match rt.en.next_event_time() {
            Some(t) => {
                any = true;
                t.as_nanos()
            }
            None => u64::MAX,
        };
    }
    any
}

/// Computes this window's per-site horizons from the gathered event
/// times — a pure function of `times` and the topology, which is what
/// keeps the schedule independent of shard/thread packing.
///
/// Without a matrix every site shares the classic global bound
/// `t_min + lookahead`. With one, site `i`'s horizon is the earliest
/// instant any *other* site's pending work could reach it:
/// `min over active s != i of (t_s + la(s,i))` — `u64::MAX` when no
/// active source can ever reach the site. Constraints arising from
/// the site's *own* sends are enforced during execution
/// ([`run_site_window`]'s echo chunking), where the actual sends are
/// known, rather than assumed worst-case here.
fn compute_horizons<M>(
    matrix: Option<&LookaheadMatrix>,
    lookahead_ns: u64,
    buf: &mut CoordBuffers<M>,
) {
    match matrix {
        None => {
            let t_min = buf.times.iter().copied().min().unwrap_or(u64::MAX);
            buf.horizons.fill(t_min.saturating_add(lookahead_ns));
        }
        Some(m) => {
            for (i, h_out) in buf.horizons.iter_mut().enumerate() {
                let mut h = u64::MAX;
                for (s, &t_s) in buf.times.iter().enumerate() {
                    if t_s == u64::MAX || s == i {
                        continue;
                    }
                    h = h.min(t_s.saturating_add(m.lookahead_nanos(s, i)));
                }
                *h_out = h;
            }
        }
    }
}

/// Executes one site's share of a window against a fresh thread-local
/// metrics context, harvested into the site's own registry. Returns
/// how many events ran.
///
/// Under global lookahead this is a single [`Engine::run_before`] to
/// the coordinator's horizon. Under per-pair lookahead the site
/// self-limits against its own sends: execution proceeds in chunks of
/// at most the site's minimum round trip past its next event (a send
/// can occur at any executed event, and its echo can return no sooner
/// than one round trip later), and after each chunk the queued sends'
/// actual echo bounds — `arrival + la(dst → site)`, tracked by
/// [`SiteState::send`] as `echo_min` — cap the rest of the window. On
/// exit `rt.horizon` is lowered to the bound actually guaranteed, so
/// the next drain's violation check stays exact.
fn run_site_window<W: ShardWorld>(rt: &mut SiteRuntime<W>) -> u64 {
    let h_cross = rt.horizon;
    let Some(next) = rt.en.next_event_time() else {
        return 0;
    };
    if rt.state.echo_row.is_empty() {
        // Global lookahead: one shared horizon, no echo tracking.
        if next.as_nanos() >= h_cross {
            return 0;
        }
        let ran = if h_cross == u64::MAX {
            let before = rt.en.executed();
            rt.en.run(&mut rt.state);
            rt.en.executed() - before
        } else {
            rt.en
                .run_before(&mut rt.state, SimTime::from_nanos(h_cross))
        };
        harvest_site(rt);
        return ran;
    }
    if next.as_nanos() >= h_cross {
        return 0;
    }
    let rt_self = rt.rt_self;
    let mut ran = 0u64;
    let achieved = loop {
        // Queued sends lower the bound to their earliest possible
        // echo; the outbox was drained at the window boundary, so
        // only this window's own sends contribute.
        let bound = h_cross.min(rt.state.echo_min);
        let Some(next) = rt.en.next_event_time() else {
            break bound;
        };
        let next_ns = next.as_nanos();
        if next_ns >= bound {
            break bound;
        }
        let chunk = bound.min(next_ns.saturating_add(rt_self));
        if chunk == u64::MAX {
            // Unreachable from every side — no message can ever
            // arrive or echo back; run to completion.
            let before = rt.en.executed();
            rt.en.run(&mut rt.state);
            ran += rt.en.executed() - before;
            break u64::MAX;
        }
        ran += rt.en.run_before(&mut rt.state, SimTime::from_nanos(chunk));
    };
    rt.horizon = achieved;
    harvest_site(rt);
    ran
}

/// Claims the executing thread's metric activity for `rt`'s site.
/// Fast-counter cells drain into the site's slot-indexed accumulator
/// — a plain array add per window, with name resolution deferred to
/// one [`metrics::fold_cells`] at the end of [`ShardedSim::run`] —
/// and any slow-path spillover (string-keyed counters, timers) folds
/// into the site's registry directly.
#[inline]
fn harvest_site<W: ShardWorld>(rt: &mut SiteRuntime<W>) {
    metrics::drain_fast_cells(&mut rt.fast);
    metrics::spill_context_into(&mut rt.metrics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::derive_seed_sharded;
    use crate::rng::SimRng;

    const LAT: SimDuration = SimDuration::from_millis(5);

    /// A world whose sites exchange nothing but unit messages, for the
    /// protocol's edge cases.
    struct Idle;
    impl ShardWorld for Idle {
        type Msg = ();
        fn deliver(_: (), _: &mut SiteState<Self>, _: &mut Engine<SiteState<Self>>) {}
        fn encode_msg(_: ()) -> [u64; 2] {
            [0, 0]
        }
        fn decode_msg(_: [u64; 2]) {}
    }

    struct PingWorld {
        rng: SimRng,
        peers: u32,
        received: u64,
    }

    impl ShardWorld for PingWorld {
        type Msg = u64;
        fn deliver(msg: u64, site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>) {
            site.world.received += 1;
            metrics::counter_add("ping.received", 1);
            site.trace
                .record(en.now(), "ping", format!("got token {msg}"));
        }
        fn encode_msg(msg: u64) -> [u64; 2] {
            [msg, 0]
        }
        fn decode_msg(words: [u64; 2]) -> u64 {
            words[0]
        }
    }

    fn tick(left: u64, site: &mut SiteState<PingWorld>, en: &mut Engine<SiteState<PingWorld>>) {
        metrics::counter_add("ping.ticks", 1);
        let jitter = site.world.rng.next_below(400);
        if left.is_multiple_of(3) {
            let dst = SiteId((site.id().0 + 1) % site.world.peers);
            site.send(dst, en.now() + LAT, left);
        }
        if left > 0 {
            en.schedule_arg_in(SimDuration::from_micros(800 + jitter), left - 1, tick);
        } else {
            site.trace
                .record(en.now(), "ping", format!("{} drained", site.id()));
        }
    }

    fn build(n: u32, ticks: u64) -> ShardedSim<PingWorld> {
        let mut sim = ShardedSim::new(
            LAT,
            (0..n).map(|i| PingWorld {
                rng: SimRng::seed_from(derive_seed_sharded(0xabad_5eed, 0, u64::from(i))),
                peers: n,
                received: 0,
            }),
        );
        for i in 0..n as usize {
            sim.with_site(i, |site, en| {
                let offset = SimDuration::from_micros(100 + 37 * u64::from(site.id().0));
                en.schedule_event_at(
                    SimTime::ZERO + offset,
                    crate::engine::Event::Arg(ticks, tick),
                );
            });
        }
        sim
    }

    /// A uniform all-pairs matrix at the global lookahead: per-pair
    /// protocol, identical horizons — for exercising the per-pair code
    /// path against worlds built on a single latency.
    fn uniform_matrix(n: usize) -> LookaheadMatrix {
        LookaheadMatrix::shortest_paths(n, |_, _| Some(LAT))
    }

    fn fingerprint(mut sim: ShardedSim<PingWorld>) -> (u64, u64, u64, u64, Metrics) {
        metrics::reset();
        sim.run();
        metrics::reset();
        (
            sim.trace_digest(),
            sim.windows(),
            sim.messages(),
            sim.total_events(),
            sim.merged_metrics(),
        )
    }

    #[test]
    fn results_are_invariant_across_shard_and_thread_counts() {
        let want = fingerprint(build(5, 40));
        assert!(want.1 > 1, "protocol actually windowed: {} windows", want.1);
        assert!(want.2 > 0, "messages flowed");
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 4] {
                let got = fingerprint(build(5, 40).shards(shards).threads(threads));
                assert_eq!(got.0, want.0, "digest at shards={shards} threads={threads}");
                assert_eq!(got.1, want.1, "windows at shards={shards}");
                assert_eq!(got.2, want.2, "messages at shards={shards}");
                assert_eq!(got.3, want.3, "events at shards={shards}");
                assert_eq!(
                    got.4, want.4,
                    "metrics at shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn per_pair_protocol_is_invariant_and_matches_global_results() {
        let want = fingerprint(build(5, 40));
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 4] {
                let got = fingerprint(
                    build(5, 40)
                        .per_pair_lookahead(uniform_matrix(5))
                        .shards(shards)
                        .threads(threads),
                );
                // A uniform matrix at the global latency widens
                // horizons only through echo chunking; digests,
                // messages and events must match the global protocol
                // exactly.
                assert_eq!(got.0, want.0, "digest at shards={shards} threads={threads}");
                assert_eq!(got.2, want.2, "messages at shards={shards}");
                assert_eq!(got.3, want.3, "events at shards={shards}");
            }
        }
    }

    #[test]
    fn inline_encoding_keeps_delivery_allocation_free() {
        let mut sim = build(4, 30);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert!(m.counter("shard.messages") > 0, "messages flowed");
        assert_eq!(
            m.counter("sim.events_boxed"),
            0,
            "every mailbox delivery took the inline Arg2 path"
        );
        assert_eq!(
            m.counter("shard.outbox_regrown"),
            0,
            "outbox double-buffers never regrew"
        );
    }

    #[test]
    fn undersized_outboxes_count_their_regrowth() {
        // A 1-slot hint under a world whose sites send several
        // messages per window forces regrowth, and the counter says
        // so — deterministically, since buffer circulation is part of
        // the coordinator's fixed drain order.
        struct Chatty;
        impl ShardWorld for Chatty {
            type Msg = u64;
            fn deliver(_: u64, _: &mut SiteState<Self>, _: &mut Engine<SiteState<Self>>) {}
            fn encode_msg(msg: u64) -> [u64; 2] {
                [msg, 0]
            }
            fn decode_msg(words: [u64; 2]) -> u64 {
                words[0]
            }
        }
        let mut sim = ShardedSim::new(LAT, [Chatty, Chatty]).outbox_capacity(1);
        sim.with_site(0, |_, en| {
            en.schedule_fn_at(SimTime::ZERO, |site: &mut SiteState<Chatty>, en| {
                for k in 0..8 {
                    site.send(SiteId(1), en.now() + LAT, k);
                }
            });
        });
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert_eq!(m.counter("shard.messages"), 8);
        assert!(
            m.counter("shard.outbox_regrown") > 0,
            "a 1-slot hint must regrow under an 8-message burst"
        );
    }

    #[test]
    fn messages_arrive_and_are_counted() {
        let mut sim = build(3, 30);
        metrics::reset();
        sim.run();
        metrics::reset();
        let m = sim.merged_metrics();
        assert_eq!(m.counter("ping.received"), sim.messages());
        assert_eq!(m.counter("shard.windows"), sim.windows());
        let received: u64 = (0..3)
            .map(|i| sim.with_site(i, |s, _| s.world.received))
            .sum();
        assert_eq!(received, sim.messages());
        // 30 ticks → sends at every third countdown value (11 per
        // site), delivered exactly once each.
        assert_eq!(sim.messages(), 3 * 11);
    }

    #[test]
    fn run_folds_metrics_into_the_callers_context() {
        metrics::reset();
        metrics::counter_add("ambient.before", 2);
        let mut sim = build(2, 10);
        sim.run();
        let m = metrics::take();
        assert_eq!(m.counter("ambient.before"), 2, "ambient context survives");
        assert_eq!(m.counter("shard.windows"), sim.windows());
        assert!(m.counter("ping.ticks") >= 2 * 10);
        assert!(
            m.counter("sim.events_executed") >= m.counter("ping.ticks"),
            "engine accounting rides along"
        );
    }

    #[test]
    fn critical_path_accounting_models_shard_parallelism() {
        let mut serial = build(4, 30);
        metrics::reset();
        serial.run();
        metrics::reset();
        assert_eq!(
            serial.critical_path_events(),
            serial.total_events(),
            "one shard is its own critical path"
        );
        assert!((serial.model_speedup() - 1.0).abs() < 1e-12);

        let mut sharded = build(4, 30).shards(4);
        metrics::reset();
        sharded.run();
        metrics::reset();
        assert_eq!(sharded.total_events(), serial.total_events());
        assert!(
            sharded.model_speedup() > 2.0,
            "4 near-symmetric sites across 4 shards: got {:.2}",
            sharded.model_speedup()
        );
        assert!(sharded.model_speedup() <= 4.0 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn sends_below_the_lookahead_panic() {
        let mut sim = ShardedSim::new(LAT, [Idle, Idle]);
        sim.with_site(0, |_, en| {
            // Two windows of local work so the second send's timestamp
            // lands inside an already-executed window.
            en.schedule_at(SimTime::ZERO, |site: &mut SiteState<Idle>, en| {
                site.send(SiteId(1), en.now(), ());
                en.schedule_in(LAT + LAT, |site: &mut SiteState<Idle>, en| {
                    site.send(SiteId(1), en.now() - LAT, ());
                });
            });
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_sends_panic() {
        let mut sim = ShardedSim::new(LAT, [Idle]);
        sim.with_site(0, |_, en| {
            en.schedule_at(SimTime::ZERO, |site: &mut SiteState<Idle>, en| {
                site.send(SiteId(0), en.now() + LAT, ());
            });
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "safe-advance window")]
    fn zero_lookahead_is_rejected() {
        let _ = ShardedSim::new(SimDuration::ZERO, [Idle]);
    }

    #[test]
    #[should_panic(expected = "different site count")]
    fn mismatched_matrix_is_rejected() {
        let _ = ShardedSim::new(LAT, [Idle, Idle]).per_pair_lookahead(uniform_matrix(3));
    }

    #[test]
    #[should_panic(expected = "single-shot")]
    fn running_twice_panics() {
        let mut sim = ShardedSim::new(LAT, [Idle]);
        sim.run();
        sim.run();
    }

    #[test]
    fn empty_and_idle_worlds_terminate() {
        let mut none: ShardedSim<Idle> = ShardedSim::new(LAT, []);
        none.run();
        assert_eq!(none.windows(), 0);
        let mut quiet = ShardedSim::new(LAT, [Idle, Idle]).shards(2).threads(2);
        quiet.run();
        assert_eq!(quiet.windows(), 0);
        assert_eq!(quiet.total_events(), 0);
    }

    #[test]
    fn echo_chunked_windows_cut_barriers_without_changing_results() {
        // Two metro pairs (5ms) joined by 40ms WAN links. Each
        // delivery runs a 20-event local burst (1ms apart) and the
        // final burst event sends the next hop. The global protocol
        // chops every burst into 5ms windows (the minimum latency
        // anywhere); per-pair, a bursting site's only constraints are
        // the distant pair (t + 40ms) and its own send's echo — so a
        // whole burst fits in one window and the barrier count drops
        // by the burst-to-lookahead ratio.
        struct Burster;
        fn burst(
            args: [u64; 2],
            site: &mut SiteState<Burster>,
            en: &mut Engine<SiteState<Burster>>,
        ) {
            let [hops_left, burst_left] = args;
            site.trace
                .record(en.now(), "burst", format!("{hops_left}/{burst_left}"));
            if burst_left > 0 {
                en.schedule_arg2_in(
                    SimDuration::from_millis(1),
                    [hops_left, burst_left - 1],
                    burst,
                );
            } else if hops_left > 0 {
                let peer = SiteId(site.id().0 ^ 1);
                site.send(peer, en.now() + SimDuration::from_millis(5), hops_left - 1);
            }
        }
        impl ShardWorld for Burster {
            type Msg = u64;
            fn deliver(msg: u64, site: &mut SiteState<Self>, en: &mut Engine<SiteState<Self>>) {
                burst([msg, 19], site, en);
            }
            fn encode_msg(msg: u64) -> [u64; 2] {
                [msg, 0]
            }
            fn decode_msg(words: [u64; 2]) -> u64 {
                words[0]
            }
        }
        let direct = |a: SiteId, b: SiteId| {
            let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
            match (lo, hi) {
                (0, 1) | (2, 3) => Some(SimDuration::from_millis(5)),
                _ => Some(SimDuration::from_millis(40)),
            }
        };
        let build = |matrix: Option<LookaheadMatrix>| {
            let mut sim = ShardedSim::new(SimDuration::from_millis(5), (0..4).map(|_| Burster));
            if let Some(m) = matrix {
                sim = sim.per_pair_lookahead(m);
            }
            for src in [0usize, 2] {
                sim.with_site(src, |_, en| {
                    en.schedule_arg2_in(SimDuration::ZERO, [12, 19], burst);
                });
            }
            metrics::reset();
            sim.run();
            metrics::reset();
            sim
        };
        let mut global = build(None);
        let mut paired = build(Some(LookaheadMatrix::shortest_paths(4, direct)));
        assert_eq!(
            paired.trace_digest(),
            global.trace_digest(),
            "same schedule"
        );
        assert_eq!(paired.messages(), global.messages());
        assert_eq!(paired.total_events(), global.total_events());
        assert!(
            paired.windows() * 3 <= global.windows(),
            "echo-chunked per-pair windows must cut barriers at least 3x here: {} vs {}",
            paired.windows(),
            global.windows()
        );
    }
}
