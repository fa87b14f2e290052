//! `table1_pvfs`: Table 1's six cells, SPECseis and SPECclimate on the
//! physical machine, in a VM on local disk and in a VM over PVFS, at
//! full size. Nearly all host time is in the guest I/O path
//! (`vmm::exec` → `core::nfsdisk` → `vfs` → `storage::disk`) and in
//! `vfs::fs` materializing file bytes when the PVFS file is presized.

use gridvm_core::NfsGuestStorage;
use gridvm_simcore::metrics::Metrics;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::exec::{
    run_app, ExecMode, GuestRunReport, GuestStorage, LocalDiskStorage, IO_BLOCK,
};
use gridvm_vmm::VirtCostModel;
use gridvm_workloads::{spec, AppProfile};

use crate::span::{Phase, Recorder, SpanTotals, TimedStorage};
use crate::{bump, f, proc_status_mib, ratio, sample_seed, Layer, Outputs, Workload};

/// How the guest's state is hosted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Resource {
    Physical,
    VmLocal,
    VmPvfs,
}

impl Resource {
    const ALL: [Resource; 3] = [Resource::Physical, Resource::VmLocal, Resource::VmPvfs];

    fn label(self) -> &'static str {
        match self {
            Resource::Physical => "Physical",
            Resource::VmLocal => "VM, local disk",
            Resource::VmPvfs => "VM, PVFS",
        }
    }
}

/// The application of a row and the paper's values for its cells:
/// native user and sys seconds, VM-local user and sys seconds, and the
/// VM-local and PVFS overheads in percent.
type Row = (fn() -> AppProfile, [f64; 6]);

const APPS: [Row; 2] = [
    (spec::specseis, [16_395.0, 19.0, 16_557.0, 60.0, 1.2, 2.0]),
    (spec::specclimate, [9_304.0, 3.0, 9_679.0, 5.0, 4.0, 4.2]),
];

/// The `table1_pvfs` workload.
#[derive(Debug, Default)]
pub struct Table1 {
    model: VirtCostModel,
}

impl Table1 {
    /// The workload with the fitted cost model.
    pub fn new() -> Self {
        Table1::default()
    }

    fn cell(unit: usize) -> (AppProfile, Resource) {
        (APPS[unit / 3].0(), Resource::ALL[unit % 3])
    }

    /// Runs `app` against `storage` inside a `vmm.run_app` span. With
    /// tracing on, each `io_run` gets a span named `read` or `write`.
    #[allow(clippy::too_many_arguments)]
    fn run_app(
        &self,
        rec: &mut Recorder,
        app: &AppProfile,
        mode: ExecMode,
        storage: &mut dyn GuestStorage,
        read: &'static str,
        write: &'static str,
        seed: u64,
    ) -> GuestRunReport {
        let mut rng = SimRng::seed_from(seed);
        let hz = spec::MACRO_CLOCK_HZ;
        let open = rec.open("vmm.run_app");
        let report = if rec.tracing() {
            let mut timed = TimedStorage::new(storage, rec, read, write);
            run_app(
                app,
                mode,
                &self.model,
                &mut timed,
                hz,
                SimTime::ZERO,
                &mut rng,
            )
        } else {
            run_app(app, mode, &self.model, storage, hz, SimTime::ZERO, &mut rng)
        };
        let took = rec.close(open);
        rec.count(Phase::Run, took);
        report
    }

    fn local(
        &self,
        rec: &mut Recorder,
        app: &AppProfile,
        mode: ExecMode,
        seed: u64,
    ) -> GuestRunReport {
        let mut disk = rec.setup("storage.local_disk", || {
            DiskModel::new(DiskProfile::ide_2003())
        });
        let mut storage = LocalDiskStorage::new(&mut disk);
        let run = "storage.local_run";
        self.run_app(rec, app, mode, &mut storage, run, run, seed)
    }

    /// The PVFS cell: an NFS server with the guest's state file
    /// presized, mounted across the WAN through a proxy.
    fn pvfs(
        &self,
        rec: &mut Recorder,
        layer: &mut Layer,
        app: &AppProfile,
        seed: u64,
    ) -> GuestRunReport {
        let setup = rec.open("vfs.server_setup");
        let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
        let root = server.fs().root();
        let total_io = app.io_bytes() + ByteSize::from_mib(64);
        let file = server
            .fs_mut()
            .create(root, "vmstate", SimTime::ZERO)
            .expect("fresh export");
        let tracing = rec.tracing();
        let rss_before = if tracing {
            proc_status_mib("VmRSS")
        } else {
            0.0
        };
        let presize = rec.open("vfs.presize");
        server
            .fs_mut()
            .write(file, total_io.as_u64().max(1) - 1, &[0], SimTime::ZERO)
            .expect("presize");
        rec.close(presize);
        if tracing {
            bump(
                layer,
                "vfs.presize_rss_mib",
                proc_status_mib("VmRSS") - rss_before,
            );
        }
        let mount = Mount::new(
            Transport::wan(),
            server,
            Some(VfsProxy::new(ProxyConfig::default())),
        );
        let mut storage =
            NfsGuestStorage::new(mount, file, self.model.pvfs_client_per_block, "PVFS");
        let took = rec.close(setup);
        rec.count(Phase::Setup, took);

        let report = self.run_app(
            rec,
            app,
            ExecMode::Virtualized,
            &mut storage,
            "vfs.io_run.read",
            "vfs.io_run.write",
            seed,
        );
        let mount = storage.mount();
        bump(layer, "vfs.blocks", app.io_bytes().blocks(IO_BLOCK) as f64);
        bump(layer, "vfs.rpcs", mount.rpcs_sent() as f64);
        if let Some(proxy) = mount.proxy() {
            bump(layer, "vfs.proxy_hits", proxy.hits() as f64);
            bump(layer, "vfs.proxy_misses", proxy.misses() as f64);
            bump(layer, "vfs.proxy_prefetched", proxy.prefetched() as f64);
        }
        let disk = mount.server().disk();
        bump(
            layer,
            "storage.server_blocks_read",
            disk.blocks_read() as f64,
        );
        bump(
            layer,
            "storage.server_blocks_written",
            disk.blocks_written() as f64,
        );
        report
    }
}

impl Workload for Table1 {
    fn name(&self) -> &'static str {
        "table1_pvfs"
    }

    fn units(&self) -> usize {
        APPS.len() * Resource::ALL.len()
    }

    fn label(&self, unit: usize) -> String {
        let (app, resource) = Table1::cell(unit);
        format!("{:<12} {}", app.name(), resource.label())
    }

    fn run_unit(&self, unit: usize, master: u64, rec: &mut Recorder, layer: &mut Layer) -> Outputs {
        let (app, resource) = Table1::cell(unit);
        let seed = sample_seed(master, &self.label(unit), 0);
        let report = match resource {
            Resource::Physical => self.local(rec, &app, ExecMode::Native, seed),
            Resource::VmLocal => self.local(rec, &app, ExecMode::Virtualized, seed),
            Resource::VmPvfs => self.pvfs(rec, layer, &app, seed),
        };
        let mut out = vec![
            ("user_s".to_owned(), f(report.user.as_secs_f64())),
            ("sys_s".to_owned(), f(report.sys.as_secs_f64())),
            ("total_s".to_owned(), f(report.cpu_total().as_secs_f64())),
        ];
        if resource != Resource::Physical {
            // Against a native run of the same workload and seed, as
            // the artifact computes it.
            let native = self.local(rec, &app, ExecMode::Native, seed);
            out.push((
                "overhead_pct".to_owned(),
                f(report.overhead_vs(&native) * 100.0),
            ));
        }
        out
    }

    fn paper(&self, unit: usize) -> Vec<(&'static str, f64)> {
        let p = APPS[unit / 3].1;
        match Resource::ALL[unit % 3] {
            Resource::Physical => vec![("user_s", p[0]), ("sys_s", p[1])],
            Resource::VmLocal => vec![("user_s", p[2]), ("sys_s", p[3]), ("overhead_pct", p[4])],
            Resource::VmPvfs => vec![("overhead_pct", p[5])],
        }
    }

    fn layer_metrics(&self, t: &SpanTotals, layer: &Layer, registry: &Metrics) -> Layer {
        let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
        let (read, write) = (t.secs("vfs.io_run.read"), t.secs("vfs.io_run.write"));
        let (hits, misses) = (get("vfs.proxy_hits"), get("vfs.proxy_misses"));
        let mut out = Layer::new();
        let mut put = |name: &str, v: f64| {
            out.insert(name.to_owned(), v);
        };
        put("vfs.presize_s", t.secs("vfs.presize"));
        put("vfs.presize_rss_mib", get("vfs.presize_rss_mib"));
        put("vfs.read_run_s", read);
        put("vfs.write_run_s", write);
        put("vfs.read_runs", t.calls("vfs.io_run.read") as f64);
        put("vfs.write_runs", t.calls("vfs.io_run.write") as f64);
        put(
            "vfs.ns_per_block",
            ratio((read + write) * 1e9, get("vfs.blocks")),
        );
        put("vmm.run_app_s", t.secs("vmm.run_app"));
        put("vmm.self_s", t.self_secs("vmm.run_app"));
        put("storage.local_run_s", t.secs("storage.local_run"));
        for name in [
            "vfs.rpcs",
            "vfs.proxy_hits",
            "vfs.proxy_misses",
            "vfs.proxy_prefetched",
            "storage.server_blocks_read",
            "storage.server_blocks_written",
        ] {
            put(name, get(name));
        }
        put("vfs.proxy_hit_ratio", ratio(hits, hits + misses));
        put("vmm.traps", registry.counter("vmm.traps") as f64);
        out
    }
}
