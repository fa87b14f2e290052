//! Figure 2's data-management topology, end to end: a virtualized
//! compute server `V` hosting two Red Hat instances for users A and
//! B, a WAN image server `I` whose master state is cached by a
//! host-side proxy, and a data server `D` whose user blocks are
//! cached by per-VM proxies. Asserts the sharing and isolation
//! properties the figure illustrates.

use bytes::Bytes;
use gridvm::simcore::time::SimTime;
use gridvm::simcore::units::ByteSize;
use gridvm::storage::disk::{DiskModel, DiskProfile};
use gridvm::storage::image::VmImage;
use gridvm::vfs::mount::{Mount, Transport};
use gridvm::vfs::proxy::{ProxyConfig, VfsProxy};
use gridvm::vfs::server::NfsServer;
use gridvm::vmm::boot::{boot_read_runs, BootProfile};

/// Host-side image proxy tuned like the A1 ablation (big cache,
/// shallow prefetch — boot runs are short and scattered).
fn image_proxy() -> VfsProxy {
    VfsProxy::new(ProxyConfig {
        cache_blocks: (ByteSize::from_mib(512).as_u64() / 8192) as usize,
        prefetch_depth: 2,
        ..ProxyConfig::default()
    })
}

#[test]
fn master_image_is_fetched_once_for_two_instances() {
    // Image server I across the WAN, exporting the master image.
    let image = VmImage::redhat_guest("rh72");
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let master = server
        .fs_mut()
        .create_synthetic(
            root,
            "rh72-master",
            image.disk_size.into(),
            image.content_seed,
            SimTime::ZERO,
        )
        .expect("fresh export");
    // One mount at host V, shared by both instances (the host-side
    // proxy of Figure 2).
    let mut mount = Mount::new(Transport::wan(), server, Some(image_proxy()));

    let runs = boot_read_runs(&image, &BootProfile::default());
    let bs = ByteSize::from(image.block_size).as_u64();
    let boot = |mount: &mut Mount, start_at: SimTime| {
        let mut t = start_at;
        for (start, len) in &runs {
            let (done, r) = mount.read_range(t, master, start.0 * bs, len * bs);
            r.expect("image readable");
            t = done;
        }
        t.duration_since(start_at)
    };

    let instance_a = boot(&mut mount, SimTime::ZERO);
    let rpcs_after_a = mount.rpcs_sent();
    let instance_b = boot(&mut mount, SimTime::from_secs(600));
    let rpcs_after_b = mount.rpcs_sent();

    // Instance B boots from the proxy cache: orders of magnitude
    // faster, near-zero new server traffic.
    assert!(
        instance_b.as_secs_f64() < instance_a.as_secs_f64() / 50.0,
        "A {instance_a} vs B {instance_b}"
    );
    assert!(
        rpcs_after_b - rpcs_after_a < rpcs_after_a / 20,
        "B added {} RPCs vs A's {}",
        rpcs_after_b - rpcs_after_a,
        rpcs_after_a
    );
}

#[test]
fn user_data_sessions_are_isolated_per_user() {
    // Data server D with homes for users A and B; each VM mounts it
    // through its own proxy (the in-guest proxies of Figure 2).
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let t0 = SimTime::ZERO;
    let home = server.fs_mut().mkdir(root, "home", t0).expect("fresh");
    let a_dir = server.fs_mut().mkdir(home, "userA", t0).expect("fresh");
    let b_dir = server.fs_mut().mkdir(home, "userB", t0).expect("fresh");
    let a_file = server.fs_mut().create(a_dir, "data", t0).expect("fresh");
    let b_file = server.fs_mut().create(b_dir, "data", t0).expect("fresh");
    server
        .fs_mut()
        .write(a_file, 0, b"belongs to A", t0)
        .expect("writable");
    server
        .fs_mut()
        .write(b_file, 0, b"belongs to B", t0)
        .expect("writable");

    // One mount (VM A's session) writes through its proxy; the
    // canonical server state changes; a second session sees it.
    let mut session_a = Mount::new(
        Transport::lan(),
        server,
        Some(VfsProxy::new(ProxyConfig::default())),
    );
    let (t, r) = session_a.write_range(t0, a_file, 0, Bytes::from_static(b"belongs 2 A!"));
    r.expect("A can write A's file");
    // A's view of its own write is immediate (write-back cache).
    let (_, n) = session_a.read_range(t, a_file, 0, 64);
    assert_eq!(n.unwrap(), 12);
    // B's file is untouched by A's session.
    assert_eq!(
        &session_a.server().fs().read(b_file, 0, 64).unwrap()[..],
        b"belongs to B"
    );
    // And the server's canonical state carries A's update.
    assert_eq!(
        &session_a.server().fs().read(a_file, 0, 64).unwrap()[..],
        b"belongs 2 A!"
    );
}

#[test]
fn image_and_data_planes_do_not_interfere() {
    // The host's image proxy and a guest's data proxy cache the same
    // block numbers of *different files* — file-scoped keys must keep
    // them apart even within one shared mount.
    let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
    let root = server.fs().root();
    let t0 = SimTime::ZERO;
    let img = server
        .fs_mut()
        .create_synthetic(root, "img", ByteSize::from_mib(4), 1, t0)
        .expect("fresh");
    let data = server
        .fs_mut()
        .create_synthetic(root, "data", ByteSize::from_mib(4), 2, t0)
        .expect("fresh");
    let mut mount = Mount::new(
        Transport::lan(),
        server,
        Some(VfsProxy::new(ProxyConfig::default())),
    );
    // Warm block 0 of the image file only.
    let (t, r) = mount.read_range(t0, img, 0, 8192);
    r.expect("image readable");
    let rpcs = mount.rpcs_sent();
    // Reading block 0 of the data file must be a *miss* (no aliasing).
    let (t2, r) = mount.read_range(t, data, 0, 8192);
    r.expect("data readable");
    assert!(mount.rpcs_sent() > rpcs, "different file, real fetch");
    // Re-reading the image block stays a hit.
    let before = mount.rpcs_sent();
    let (_, r) = mount.read_range(t2, img, 0, 8192);
    r.expect("image still readable");
    assert_eq!(mount.rpcs_sent(), before, "image block still cached");
}
