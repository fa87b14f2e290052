//! **Table 1** — macrobenchmarks: SPECseis and SPECclimate user/sys
//! times and overheads on (a) the physical machine, (b) a VM with
//! state on local disk, and (c) a VM with state accessed via the
//! NFS-based grid virtual file system (PVFS) across a wide-area
//! network.
//!
//! Paper targets: SPECseis 16414 s native, +1.2% VM/local, +2.0%
//! VM/PVFS; SPECclimate 9307 s native, +4.0% VM/local, +4.2%
//! VM/PVFS.
//!
//! The PVFS file is presized to the application's I/O volume (7.4 GiB
//! for SPECseis) but stays sparse, so the full-size run peaks at about
//! 11 MiB: the epilogue prints `peak_rss_mib=` and CI holds it under a
//! ceiling.

use gridvm_bench::harness::{
    m, peak_rss_mib, run_main, Experiment, ExperimentReport, Measurement, Options, SampleCtx,
    Scenario,
};
use gridvm_core::NfsGuestStorage;
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::exec::{run_app, ExecMode, GuestRunReport, LocalDiskStorage};
use gridvm_vmm::VirtCostModel;
use gridvm_workloads::{spec, AppProfile};

/// How the guest's state is hosted in one scenario.
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

/// (app constructor, paper native s, paper VM %, paper PVFS %).
type AppCase = (fn() -> AppProfile, f64, f64, f64);

struct Table1 {
    model: VirtCostModel,
    apps: Vec<AppCase>,
}

impl Table1 {
    fn new() -> Self {
        Table1 {
            model: VirtCostModel::default(),
            apps: vec![
                (spec::specseis as fn() -> AppProfile, 16414.0, 1.2, 2.0),
                (spec::specclimate as fn() -> AppProfile, 9307.0, 4.0, 4.2),
            ],
        }
    }

    fn case(&self, index: usize) -> (AppProfile, Resource) {
        let (make_app, _, _, _) = self.apps[index / Resource::ALL.len()];
        (make_app(), Resource::ALL[index % Resource::ALL.len()])
    }
}

/// In quick mode, shrink the workload 100× (overheads are ratios and
/// survive scaling).
fn scaled(app: &AppProfile, opts: &Options) -> AppProfile {
    if !opts.quick {
        return app.clone();
    }
    AppProfile::new(app.name(), app.user_work().mul_f64(0.01))
        .with_syscalls(app.syscalls() / 100)
        .with_reads(
            ByteSize::from_bytes(app.read_bytes().as_u64() / 100),
            app.io_pattern(),
        )
        .with_writes(ByteSize::from_bytes(app.write_bytes().as_u64() / 100))
        .with_memory_pressure(app.memory_pressure())
}

fn run_local(app: &AppProfile, mode: ExecMode, model: &VirtCostModel, seed: u64) -> GuestRunReport {
    let mut disk = DiskModel::new(DiskProfile::ide_2003());
    let mut storage = LocalDiskStorage::new(&mut disk);
    run_app(
        app,
        mode,
        model,
        &mut storage,
        spec::MACRO_CLOCK_HZ,
        SimTime::ZERO,
        &mut SimRng::seed_from(seed),
    )
}

/// The paper's PVFS scenario: VM state served by an image server at
/// the remote site (UF), application data via proxy-cached NFS; the
/// guest's file I/O flows through the proxy-equipped WAN mount.
fn run_pvfs(app: &AppProfile, model: &VirtCostModel, seed: u64) -> GuestRunReport {
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let total_io = app.io_bytes() + ByteSize::from_mib(64);
    let file = server
        .fs_mut()
        .create(root, "vmstate", SimTime::ZERO)
        .expect("fresh export");
    // Pre-size the working file so reads stay inside it. The file
    // stays sparse: the presize stores no page.
    server
        .fs_mut()
        .write(file, total_io.as_u64().max(1) - 1, &[0], SimTime::ZERO)
        .expect("presize");
    let mount = Mount::new(
        Transport::wan(),
        server,
        Some(VfsProxy::new(ProxyConfig::default())),
    );
    let mut storage = NfsGuestStorage::new(mount, file, model.pvfs_client_per_block, "PVFS");
    run_app(
        app,
        ExecMode::Virtualized,
        model,
        &mut storage,
        spec::MACRO_CLOCK_HZ,
        SimTime::ZERO,
        &mut SimRng::seed_from(seed),
    )
}

impl Experiment for Table1 {
    fn title(&self) -> &str {
        "Table 1: SPEChpc macrobenchmarks"
    }

    fn scenarios(&self, _opts: &Options) -> Vec<Scenario> {
        (0..self.apps.len() * Resource::ALL.len())
            .map(|i| {
                let (app, resource) = self.case(i);
                Scenario::new(i, format!("{:<12} {}", app.name(), resource.label()), 1)
            })
            .collect()
    }

    fn run_sample(&self, scenario: &Scenario, ctx: &SampleCtx, opts: &Options) -> Vec<Measurement> {
        let (app, resource) = self.case(scenario.index);
        let app = scaled(&app, opts);
        let scale = if opts.quick { 0.01 } else { 1.0 };
        let report = match resource {
            Resource::Physical => run_local(&app, ExecMode::Native, &self.model, ctx.seed),
            Resource::VmLocal => run_local(&app, ExecMode::Virtualized, &self.model, ctx.seed),
            Resource::VmPvfs => run_pvfs(&app, &self.model, ctx.seed),
        };
        let mut out = vec![
            m("user_s", report.user.as_secs_f64() / scale),
            m("sys_s", report.sys.as_secs_f64() / scale),
            m("total_s", report.cpu_total().as_secs_f64() / scale),
        ];
        if resource != Resource::Physical {
            // Overhead is against a native run of the same workload
            // with the same seed, so it is a pure virtualization cost.
            let native = run_local(&app, ExecMode::Native, &self.model, ctx.seed);
            out.push(m("overhead_pct", report.overhead_vs(&native) * 100.0));
        }
        out
    }

    fn epilogue(&self, _report: &ExperimentReport, opts: &Options) -> Option<String> {
        let mut out = String::new();
        for (make_app, paper_native, paper_vm, paper_pvfs) in &self.apps {
            out.push_str(&format!(
                "{} paper: native {paper_native:.0}s, VM +{paper_vm}%, PVFS +{paper_pvfs}%\n",
                make_app().name()
            ));
        }
        if opts.quick {
            out.push_str("(quick mode: workloads scaled to 1%; times rescaled for display)\n");
        }
        out.push_str(&format!(
            "peak_rss_mib={}",
            peak_rss_mib().unwrap_or_default()
        ));
        Some(out)
    }
}

fn main() {
    run_main(&Table1::new());
}
