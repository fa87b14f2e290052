//! `table2_startup`: Table 2's six cells × 10 samples of VM start-up.
//! It uses the storage and vfs layers read-only on synthetic files:
//! the persistent cells churn `storage::disk`'s buffer cache with 2 GB
//! image copies, the LoopbackNFS cells run `vfs::mount::read_range`.

use gridvm_core::server::ComputeServer;
use gridvm_core::startup::{run_startup, StartupConfig, StartupMode, StateAccess};
use gridvm_simcore::metrics::Metrics;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::stats::OnlineStats;
use gridvm_vmm::machine::DiskMode;

use crate::span::{Recorder, SpanTotals};
use crate::{bump, f, ratio, sample_seed, Layer, Outputs, Workload};

/// Samples per cell, the artifact's default.
const SAMPLES: u64 = 10;

/// The six cells: metric suffix, configuration and the paper's mean
/// start-up time in seconds.
const CELLS: [(&str, StartupMode, DiskMode, StateAccess, f64); 6] = [
    (
        "reboot_persistent",
        StartupMode::Reboot,
        DiskMode::Persistent,
        StateAccess::DiskFs,
        273.0,
    ),
    (
        "reboot_diskfs",
        StartupMode::Reboot,
        DiskMode::NonPersistent,
        StateAccess::DiskFs,
        69.2,
    ),
    (
        "reboot_loopback",
        StartupMode::Reboot,
        DiskMode::NonPersistent,
        StateAccess::LoopbackNfs,
        74.5,
    ),
    (
        "restore_persistent",
        StartupMode::Restore,
        DiskMode::Persistent,
        StateAccess::DiskFs,
        269.0,
    ),
    (
        "restore_diskfs",
        StartupMode::Restore,
        DiskMode::NonPersistent,
        StateAccess::DiskFs,
        12.4,
    ),
    (
        "restore_loopback",
        StartupMode::Restore,
        DiskMode::NonPersistent,
        StateAccess::LoopbackNfs,
        29.2,
    ),
];

/// The `table2_startup` workload.
#[derive(Debug)]
pub struct Table2 {
    configs: Vec<StartupConfig>,
}

impl Table2 {
    /// The paper's six configurations.
    pub fn new() -> Self {
        Table2 {
            configs: CELLS
                .iter()
                .map(|&(_, mode, disk, access, _)| StartupConfig::table2(mode, disk, access))
                .collect(),
        }
    }
}

impl Default for Table2 {
    fn default() -> Self {
        Table2::new()
    }
}

impl Workload for Table2 {
    fn name(&self) -> &'static str {
        "table2_startup"
    }

    fn units(&self) -> usize {
        CELLS.len()
    }

    fn label(&self, unit: usize) -> String {
        self.configs[unit].label()
    }

    fn run_unit(&self, unit: usize, master: u64, rec: &mut Recorder, layer: &mut Layer) -> Outputs {
        let cfg = &self.configs[unit];
        let label = cfg.label();
        let mut totals = OnlineStats::new();
        let mut out = Vec::new();
        for sample in 0..SAMPLES {
            let mut rng = SimRng::seed_from(sample_seed(master, &label, sample));
            let mut server = rec.setup("core.paper_node", || ComputeServer::paper_node("V"));
            let (b, took) =
                rec.run_timed("core.startup", || run_startup(&mut server, cfg, &mut rng));
            bump(
                layer,
                format!("startup_s.{}", CELLS[unit].0),
                took.as_secs_f64(),
            );
            totals.record(b.total_secs());
            out.push((format!("total_s.{sample}"), f(b.total_secs())));
            let disk = &server.disk;
            bump(layer, "storage.blocks_read", disk.blocks_read() as f64);
            bump(
                layer,
                "storage.blocks_written",
                disk.blocks_written() as f64,
            );
            bump(layer, "storage.cache_hits", disk.cache().hits() as f64);
            bump(layer, "storage.cache_misses", disk.cache().misses() as f64);
        }
        out.push(("mean_total_s".to_owned(), f(totals.mean())));
        out
    }

    fn paper(&self, unit: usize) -> Vec<(&'static str, f64)> {
        vec![("mean_total_s", CELLS[unit].4)]
    }

    fn layer_metrics(&self, t: &SpanTotals, layer: &Layer, registry: &Metrics) -> Layer {
        let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
        let mut out = Layer::new();
        out.insert("core.paper_node_s".into(), t.secs("core.paper_node"));
        for name in [
            "storage.blocks_read",
            "storage.blocks_written",
            "storage.cache_hits",
            "storage.cache_misses",
        ] {
            out.insert(name.into(), get(name));
        }
        let (hits, misses) = (get("storage.cache_hits"), get("storage.cache_misses"));
        out.insert("storage.cache_hit_ratio".into(), ratio(hits, hits + misses));
        out.insert(
            "vfs.rpc_round_trips".into(),
            registry.counter("vfs.rpc_round_trips") as f64,
        );
        for (name, ..) in CELLS {
            out.insert(
                format!("core.startup_s.{name}"),
                get(&format!("startup_s.{name}")),
            );
        }
        out
    }
}
