//! # gridvm-perfbench
//!
//! The end-to-end benchmark over the paper artifacts. Each workload is
//! one artifact at its default input — Table 1, Table 2, Figure 1 and
//! the VO-scale extension — driven through the layers' public
//! functions, one unit (one cell of the artifact) after another on one
//! thread: a closed loop with one caller.
//!
//! A run repeats *passes* (every unit once) until its time is up. Per
//! pass it sums the host time of the calls that build each unit's
//! world (`setup_s`) and of the calls that run it (`wall_s`), checks
//! every unit's simulated outputs against the references recorded in
//! `refs/`, and — with tracing on — derives the per-layer metrics from
//! the spans in [`span`] and the counters the layers expose.

#![forbid(unsafe_code)]

pub mod fig1;
pub mod span;
pub mod table1;
pub mod table2;
pub mod vo;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use gridvm_simcore::metrics::{self, Metrics};
use gridvm_simcore::replication::derive_seed;
use gridvm_simcore::rng::SimRng;

use span::{Recorder, SpanTotals};

/// The master seeds the references were recorded for: the artifacts'
/// default seed and one held-out seed. Pass `k` of a run with
/// `--seed n` uses `REF_SEEDS[(n + k) % 2]`.
pub const REF_SEEDS: [u64; 2] = [20030517, 7];

/// Per-layer metrics a workload accumulates over one pass, by name.
pub type Layer = BTreeMap<String, f64>;

/// Adds `v` to the metric `name`.
pub fn bump(layer: &mut Layer, name: impl Into<String>, v: f64) {
    *layer.entry(name.into()).or_default() += v;
}

/// One unit's simulated outputs: `(field, value)` in a canonical text
/// form (`{:?}` for floats, so the comparison is bit-exact).
pub type Outputs = Vec<(String, String)>;

/// One benchmark workload: an artifact split into units.
pub trait Workload {
    /// The workload's name in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// Number of units in one pass.
    fn units(&self) -> usize;

    /// The unit's label; also its seed lineage, as in the artifact's
    /// own binary.
    fn label(&self, unit: usize) -> String;

    /// Runs one unit with the pass's master seed: builds its world
    /// under [`Recorder::setup`], runs it under [`Recorder::run`],
    /// adds its counters to `layer` and returns its outputs.
    fn run_unit(&self, unit: usize, master: u64, rec: &mut Recorder, layer: &mut Layer) -> Outputs;

    /// The paper's values for the unit's outputs, where the paper has
    /// one.
    fn paper(&self, _unit: usize) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// The per-layer metrics of one traced pass, from its span totals,
    /// the counters it accumulated and the layers' merged registry.
    fn layer_metrics(&self, spans: &SpanTotals, layer: &Layer, registry: &Metrics) -> Layer;
}

/// Every workload, by name.
pub fn workload(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "table1_pvfs" => Box::new(table1::Table1::new()),
        "vo_scale" => Box::new(vo::VoScale),
        "table2_startup" => Box::new(table2::Table2::new()),
        "fig1_load" => Box::new(fig1::Fig1::new()),
        _ => return None,
    })
}

/// Every per-layer metric the benchmark binary reports, on every
/// workload (0 where the workload does not exercise the layer). The
/// `trace.*` metrics, which compare a traced and an untraced run, are
/// added by `run.py`.
pub const PER_LAYER: &[&str] = &[
    "bench.uncovered_s",
    "model.paper_err_pct",
    "model.paper_cells",
    // table1_pvfs
    "vfs.presize_s",
    "vfs.presize_rss_mib",
    "vfs.read_run_s",
    "vfs.write_run_s",
    "vfs.read_runs",
    "vfs.write_runs",
    "vfs.ns_per_block",
    "vmm.run_app_s",
    "vmm.self_s",
    "storage.local_run_s",
    "vfs.rpcs",
    "vfs.proxy_hits",
    "vfs.proxy_misses",
    "vfs.proxy_prefetched",
    "vfs.proxy_hit_ratio",
    "storage.server_blocks_read",
    "storage.server_blocks_written",
    "vmm.traps",
    // vo_scale
    "core.multisite.build_s",
    "simcore.shard.run_s",
    "simcore.shard.run_s.uniform",
    "simcore.shard.run_s.nearest",
    "simcore.shard.run_s.capacity-weighted",
    "simcore.shard.run_s.sticky",
    "simcore.shard.ns_per_event",
    "simcore.shard.ns_per_event.uniform",
    "simcore.shard.ns_per_event.nearest",
    "simcore.shard.ns_per_event.capacity-weighted",
    "simcore.shard.ns_per_event.sticky",
    "simcore.shard.harvest_s",
    "simcore.shard.events",
    "simcore.shard.windows",
    "simcore.shard.messages",
    "simcore.shard.critical_path_events",
    "simcore.shard.events_per_window",
    "simcore.sim.events_boxed",
    "simcore.shard.outbox_regrown",
    "simcore.trace.sampled",
    "simcore.trace.dropped",
    "core.multisite.hops",
    "core.multisite.recoveries",
    // table2_startup
    "core.paper_node_s",
    "core.startup_s.reboot_persistent",
    "core.startup_s.reboot_diskfs",
    "core.startup_s.reboot_loopback",
    "core.startup_s.restore_persistent",
    "core.startup_s.restore_diskfs",
    "core.startup_s.restore_loopback",
    "storage.blocks_read",
    "storage.blocks_written",
    "storage.cache_hits",
    "storage.cache_misses",
    "storage.cache_hit_ratio",
    "vfs.rpc_round_trips",
    // fig1_load
    "hostload.generate_s",
    "host.build_s",
    "host.run_s",
    "host.quanta",
    "host.ns_per_quantum",
    "host.world_switches",
    "host.tasks_completed",
];

/// The seed of sample `sample` of the scenario labelled `label`, as
/// the artifacts' own harness derives it from the master seed.
pub fn sample_seed(master: u64, label: &str, sample: u64) -> u64 {
    let scenario_master = SimRng::seed_from(master).split(label).next_u64();
    derive_seed(scenario_master, sample)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reference outputs: `(master seed, unit label, field) → value`.
#[derive(Clone, Debug, Default)]
pub struct Refs(BTreeMap<(u64, String, String), String>);

impl Refs {
    /// The references recorded for `workload`.
    pub fn of(workload: &str) -> Refs {
        let text = match workload {
            "table1_pvfs" => include_str!("../refs/table1_pvfs.tsv"),
            "vo_scale" => include_str!("../refs/vo_scale.tsv"),
            "table2_startup" => include_str!("../refs/table2_startup.tsv"),
            "fig1_load" => include_str!("../refs/fig1_load.tsv"),
            _ => "",
        };
        Refs::parse(text)
    }

    /// Parses `seed<TAB>unit<TAB>field<TAB>value` lines.
    pub fn parse(text: &str) -> Refs {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut f = line.split('\t');
            let (Some(seed), Some(unit), Some(field), Some(value), None) =
                (f.next(), f.next(), f.next(), f.next(), f.next())
            else {
                panic!("malformed reference line: {line:?}");
            };
            let seed = seed.parse().expect("reference seed is a u64");
            map.insert((seed, unit.to_owned(), field.to_owned()), value.to_owned());
        }
        Refs(map)
    }

    /// The first field of `outputs` that differs from the reference,
    /// or that has none, as `field: got X, want Y`.
    pub fn mismatch(&self, master: u64, unit: &str, outputs: &Outputs) -> Option<String> {
        let want = self
            .0
            .range((master, unit.to_owned(), String::new())..)
            .take_while(|((s, u, _), _)| *s == master && u == unit)
            .count();
        if want != outputs.len() {
            return Some(format!("{} outputs, {want} references", outputs.len()));
        }
        outputs.iter().find_map(|(field, got)| {
            match self.0.get(&(master, unit.to_owned(), field.clone())) {
                Some(want) if want == got => None,
                Some(want) => Some(format!("{field}: got {got}, want {want}")),
                None => Some(format!("{field}: no reference")),
            }
        })
    }
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The master seed the pass used.
    pub master: u64,
    /// Summed host seconds of the calls that ran the units.
    pub wall_s: f64,
    /// Summed host seconds of the calls that built the units' worlds.
    pub setup_s: f64,
    /// Host seconds of the whole pass, checks included.
    pub elapsed_s: f64,
    /// Units run.
    pub attempted: u64,
    /// Units that panicked or whose outputs differ from the reference.
    pub failed: u64,
    /// Why each failed unit failed.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced passes only).
    pub layer: Layer,
}

/// Runs one pass of `w` with master seed `master`.
pub fn run_pass(w: &dyn Workload, master: u64, pass: u32, rec: &mut Recorder, refs: &Refs) -> Pass {
    let first_span = rec.spans().len();
    let (setup0, run0) = (rec.setup, rec.run);
    let started = Instant::now();
    metrics::reset();
    let mut out = Pass {
        master,
        ..Pass::default()
    };
    let mut layer = Layer::new();
    let (mut err_sum, mut err_cells) = (0.0, 0u32);
    for unit in 0..w.units() {
        let label = w.label(unit);
        rec.set_unit(pass * w.units() as u32 + unit as u32);
        out.attempted += 1;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            w.run_unit(unit, master, rec, &mut layer)
        }));
        let outputs = match ran {
            Ok(outputs) => outputs,
            Err(panic) => {
                rec.close_all();
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                out.failed += 1;
                out.failures.push(format!("{label}: panicked: {why}"));
                continue;
            }
        };
        if let Some(why) = refs.mismatch(master, &label, &outputs) {
            out.failed += 1;
            out.failures.push(format!("{label}: {why}"));
        }
        for (field, paper) in w.paper(unit) {
            let got = outputs.iter().find(|(f, _)| f == field);
            if let Some(got) = got.and_then(|(_, v)| v.parse::<f64>().ok()) {
                err_sum += (got - paper).abs() / paper;
                err_cells += 1;
            }
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out.setup_s = (rec.setup - setup0).as_secs_f64();
    out.wall_s = (rec.run - run0).as_secs_f64();
    let registry = metrics::take();
    if rec.tracing() {
        let totals = SpanTotals::over(rec.spans(), first_span..rec.spans().len());
        let mut metrics = w.layer_metrics(&totals, &layer, &registry);
        for name in metrics.keys() {
            assert!(
                PER_LAYER.contains(&name.as_str()),
                "{name} is not a declared per-layer metric"
            );
        }
        metrics.insert(
            "bench.uncovered_s".into(),
            (out.elapsed_s - totals.top_level_s).max(0.0),
        );
        metrics.insert(
            "model.paper_err_pct".into(),
            ratio(err_sum * 100.0, f64::from(err_cells)),
        );
        metrics.insert("model.paper_cells".into(), f64::from(err_cells));
        for name in PER_LAYER {
            metrics.entry((*name).to_owned()).or_insert(0.0);
        }
        out.layer = metrics;
    }
    out
}

/// Measured passes a run makes at least, so that a slow workload's run
/// still averages over both reference seeds and its `setup_s` median
/// still discards its slowest pass.
const MIN_PASSES: usize = 3;

/// Runs one warm-up pass of `w`, then measured passes until `seconds`
/// have elapsed since the warm-up ended and at least [`MIN_PASSES`]
/// were made. The warm-up's outputs are checked like any other pass,
/// but it is not timed: it lets lazily built state and the host's
/// backing of freshly touched memory settle first. Returns
/// `(warm-up, measured passes)`.
pub fn run_for(
    w: &dyn Workload,
    seed: u64,
    seconds: Duration,
    rec: &mut Recorder,
) -> (Pass, Vec<Pass>) {
    let refs = Refs::of(w.name());
    let master = |k: u32| REF_SEEDS[((seed + u64::from(k)) % 2) as usize];
    let warmup = run_pass(w, master(0), 0, rec, &refs);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut k = 1u32;
    loop {
        passes.push(run_pass(w, master(k), k, rec, &refs));
        k += 1;
        if passes.len() >= MIN_PASSES && started.elapsed() >= seconds {
            return (warmup, passes);
        }
    }
}

/// Every unit's outputs for master seed `master`, in the
/// reference-file format.
pub fn record_lines(w: &dyn Workload, master: u64) -> Vec<String> {
    let mut rec = Recorder::new(false);
    let mut layer = Layer::new();
    let mut lines = Vec::new();
    for unit in 0..w.units() {
        let label = w.label(unit);
        for (field, value) in w.run_unit(unit, master, &mut rec, &mut layer) {
            lines.push(format!("{master}\t{label}\t{field}\t{value}"));
        }
    }
    lines
}

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`), 0 where the
/// platform does not expose it.
pub fn proc_status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Canonical text of an `f64` output: the shortest form that reads
/// back to the same bits.
pub fn f(v: f64) -> String {
    format!("{v:?}")
}
