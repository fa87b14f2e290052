//! `fig1_load`: Figure 1's 12 cells × 1000 samples of a ~3 s compute
//! task under background load. The only workload that runs the host
//! quantum loop (`host::HostSim`), `sched::timeshare` and `hostload`
//! trace generation and playback.

use gridvm_host::{HostConfig, HostSim, TaskSpec};
use gridvm_hostload::{LoadLevel, TraceGenerator, TracePlayback};
use gridvm_sched::SchedulerKind;
use gridvm_simcore::metrics::Metrics;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::stats::OnlineStats;
use gridvm_simcore::time::SimDuration;
use gridvm_simcore::units::CpuWork;
use gridvm_vmm::VirtCostModel;

use crate::span::{Recorder, SpanTotals};
use crate::{bump, f, ratio, sample_seed, Layer, Outputs, Workload};

/// Samples per cell, the artifact's default.
const SAMPLES: u64 = 1000;

/// Where a task (load or test) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Placement {
    Physical,
    Vm,
}

impl Placement {
    fn label(self) -> &'static str {
        match self {
            Placement::Physical => "phys",
            Placement::Vm => "VM",
        }
    }
}

/// The `fig1_load` workload.
#[derive(Debug)]
pub struct Fig1 {
    cells: Vec<(LoadLevel, Placement, Placement)>,
    config: HostConfig,
    model: VirtCostModel,
    test_work: CpuWork,
}

impl Fig1 {
    /// The artifact's 12 cells on the paper's dual-CPU host.
    pub fn new() -> Self {
        let mut cells = Vec::new();
        for level in LoadLevel::ALL {
            for load in [Placement::Physical, Placement::Vm] {
                for test in [Placement::Physical, Placement::Vm] {
                    cells.push((level, load, test));
                }
            }
        }
        let config = HostConfig::default();
        Fig1 {
            cells,
            config,
            model: VirtCostModel::default(),
            test_work: CpuWork::from_duration(SimDuration::from_secs(3), config.clock_hz),
        }
    }
}

impl Default for Fig1 {
    fn default() -> Self {
        Fig1::new()
    }
}

impl Workload for Fig1 {
    fn name(&self) -> &'static str {
        "fig1_load"
    }

    fn units(&self) -> usize {
        self.cells.len()
    }

    fn label(&self, unit: usize) -> String {
        let (level, load, test) = self.cells[unit];
        format!(
            "{:5} load, load on {:4}, test on {:4}",
            level.label(),
            load.label(),
            test.label()
        )
    }

    fn run_unit(&self, unit: usize, master: u64, rec: &mut Recorder, layer: &mut Layer) -> Outputs {
        let (level, load, test) = self.cells[unit];
        let label = self.label(unit);
        let baseline = self.model.native_task(self.test_work);
        let spec = match test {
            Placement::Physical => self.model.native_task(self.test_work),
            Placement::Vm => self.model.guest_task(self.test_work, 0.0),
        };
        let per_task = match load {
            Placement::Physical => TaskSpec::compute(CpuWork::ZERO),
            Placement::Vm => {
                TaskSpec::compute(CpuWork::ZERO).with_switch_overhead(self.model.switch_overhead())
            }
        };
        let quantum_ns = self.config.quantum.as_nanos() as f64;
        let mut slowdown = OnlineStats::new();
        for sample in 0..SAMPLES {
            let rng = SimRng::seed_from(sample_seed(master, &label, sample));
            let mut host = rec.setup("host.build", || {
                HostSim::new(
                    self.config,
                    SchedulerKind::TimeShare.build(),
                    rng.split("sched"),
                )
            });
            if level != LoadLevel::None {
                let trace = rec.setup("hostload.generate", || {
                    TraceGenerator::preset(level)
                        .with_interval(SimDuration::from_millis(250))
                        .generate(600, &mut rng.split("trace"))
                });
                rec.setup("host.build", || {
                    host.set_background(TracePlayback::new(trace), 4, per_task);
                });
            }
            let id = rec.setup("host.build", || host.spawn(spec));
            let outcome = rec
                .run("host.run", || {
                    host.run_until_complete(id, SimDuration::from_secs(600))
                })
                .expect("test task finishes within 10 simulated minutes");
            slowdown.record(outcome.slowdown_vs(host.baseline(&baseline)));
            bump(
                layer,
                "host.quanta",
                host.now().as_nanos() as f64 / quantum_ns,
            );
        }
        vec![("mean_slowdown".to_owned(), f(slowdown.mean()))]
    }

    fn layer_metrics(&self, t: &SpanTotals, layer: &Layer, registry: &Metrics) -> Layer {
        let quanta = layer.get("host.quanta").copied().unwrap_or(0.0);
        let run_s = t.secs("host.run");
        let mut out = Layer::new();
        out.insert("hostload.generate_s".into(), t.secs("hostload.generate"));
        out.insert("host.build_s".into(), t.secs("host.build"));
        out.insert("host.run_s".into(), run_s);
        out.insert("host.quanta".into(), quanta);
        out.insert("host.ns_per_quantum".into(), ratio(run_s * 1e9, quanta));
        out.insert(
            "host.world_switches".into(),
            registry.counter("host.world_switches") as f64,
        );
        out.insert(
            "host.tasks_completed".into(),
            registry.counter("host.tasks_completed") as f64,
        );
        out
    }
}
