//! The benchmark's timing wrappers must not change what they time: a
//! decorated `GuestStorage` yields a bit-identical report, and a traced
//! run yields the same simulated outputs (VO digests included) as an
//! untraced one, both equal to the recorded references.

use gridvm_core::NfsGuestStorage;
use gridvm_perfbench::span::{Recorder, SpanTotals, TimedStorage};
use gridvm_perfbench::{workload, Layer, Refs, PER_LAYER, REF_SEEDS};
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::disk::{DiskModel, DiskProfile};
use gridvm_vfs::mount::{Mount, Transport};
use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm_vfs::server::NfsServer;
use gridvm_vmm::exec::{run_app, ExecMode, GuestRunReport, GuestStorage, LocalDiskStorage};
use gridvm_vmm::VirtCostModel;
use gridvm_workloads::spec;

fn pvfs_storage(model: &VirtCostModel) -> NfsGuestStorage {
    let app = spec::specclimate();
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let file = server
        .fs_mut()
        .create(root, "vmstate", SimTime::ZERO)
        .unwrap();
    let size = (app.io_bytes() + ByteSize::from_mib(64)).as_u64();
    server
        .fs_mut()
        .write(file, size - 1, &[0], SimTime::ZERO)
        .unwrap();
    let proxy = Some(VfsProxy::new(ProxyConfig::default()));
    let mount = Mount::new(Transport::wan(), server, proxy);
    NfsGuestStorage::new(mount, file, model.pvfs_client_per_block, "PVFS")
}

fn run(storage: &mut dyn GuestStorage, mode: ExecMode) -> GuestRunReport {
    run_app(
        &spec::specclimate(),
        mode,
        &VirtCostModel::default(),
        storage,
        spec::MACRO_CLOCK_HZ,
        SimTime::ZERO,
        &mut SimRng::seed_from(9),
    )
}

#[test]
fn decorated_guest_storage_reports_bit_identically() {
    let model = VirtCostModel::default();

    let mut plain = pvfs_storage(&model);
    let want = run(&mut plain, ExecMode::Virtualized);
    let mut inner = pvfs_storage(&model);
    let mut rec = Recorder::new(true);
    let got = run(
        &mut TimedStorage::new(&mut inner, &mut rec, "read", "write"),
        ExecMode::Virtualized,
    );
    assert_eq!(got, want, "PVFS report changed under the decorator");
    assert_eq!(inner.mount().rpcs_sent(), plain.mount().rpcs_sent());
    let spans = SpanTotals::over(rec.spans(), 0..rec.spans().len());
    // SPECclimate streams 120 MiB of reads and 40 MiB of writes in
    // 512 KiB runs.
    assert_eq!((spans.calls("read"), spans.calls("write")), (240, 80));

    let mut disk = DiskModel::new(DiskProfile::ide_2003());
    let want = run(&mut LocalDiskStorage::new(&mut disk), ExecMode::Native);
    let mut disk = DiskModel::new(DiskProfile::ide_2003());
    let mut local = LocalDiskStorage::new(&mut disk);
    let mut rec = Recorder::new(true);
    let got = run(
        &mut TimedStorage::new(&mut local, &mut rec, "io", "io"),
        ExecMode::Native,
    );
    assert_eq!(got, want, "local-disk report changed under the decorator");
}

#[test]
fn traced_units_match_untraced_units_and_the_references() {
    // The cheaper units of each workload: SPECclimate's three cells,
    // the uniform and sticky VO races, two start-up cells and the
    // heavy-load Fig. 1 cells.
    let picks: [(&str, &[usize]); 4] = [
        ("table1_pvfs", &[3, 4, 5]),
        ("vo_scale", &[0, 3]),
        ("table2_startup", &[2, 5]),
        ("fig1_load", &[8, 11]),
    ];
    for (name, units) in picks {
        let w = workload(name).unwrap();
        let refs = Refs::of(name);
        for &unit in units {
            let master = REF_SEEDS[unit % 2];
            let mut outputs = Vec::new();
            for trace in [false, true] {
                let mut rec = Recorder::new(trace);
                let out = w.run_unit(unit, master, &mut rec, &mut Layer::new());
                assert_eq!(rec.spans().is_empty(), !trace);
                outputs.push(out);
            }
            let label = w.label(unit);
            assert_eq!(
                outputs[0], outputs[1],
                "{name} {label}: tracing changed outputs"
            );
            assert_eq!(
                refs.mismatch(master, &label, &outputs[0]),
                None,
                "{name} {label}"
            );
        }
    }
}

#[test]
fn a_changed_or_missing_output_is_a_mismatch() {
    let refs = Refs::parse("7\tcell\tx\t1.5\n7\tcell\ty\t2\n");
    let out = |x: &str| {
        vec![
            ("x".to_owned(), x.to_owned()),
            ("y".to_owned(), "2".to_owned()),
        ]
    };
    assert_eq!(refs.mismatch(7, "cell", &out("1.5")), None);
    assert!(refs
        .mismatch(7, "cell", &out("1.5000000000000002"))
        .is_some());
    assert!(
        refs.mismatch(8, "cell", &out("1.5")).is_some(),
        "no references for seed 8"
    );
    assert!(refs
        .mismatch(7, "cell", &out("1.5")[..1].to_vec())
        .is_some());
}

/// `"name": "…"` values of one top-level array of `BENCHMARK.json`.
fn names_in(spec: &str, key: &str) -> Vec<String> {
    let start = spec.find(&format!("\"{key}\"")).expect("key present");
    let body = &spec[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_owned())
        .collect()
}

#[test]
fn benchmark_json_names_every_workload_and_per_layer_metric() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for name in names_in(&spec, "workloads") {
        assert_eq!(workload(&name).map(|w| w.name()), Some(name.as_str()));
    }
    let mut want: Vec<String> = PER_LAYER.iter().map(|s| (*s).to_owned()).collect();
    want.extend(["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"].map(String::from));
    let mut got = names_in(&spec, "per_layer");
    got.sort();
    want.sort();
    assert_eq!(got, want);
}
