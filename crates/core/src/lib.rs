//! # gridvm-core
//!
//! The paper's primary contribution assembled: grid computing on
//! classic virtual machines. This crate wires the substrates —
//! hosts and schedulers, the VMM model, storage, the grid virtual
//! file system, virtual networking and grid middleware — into the
//! architecture of Section 4 and the experiments of Section 2.3.
//!
//! * [`server`] — the deployable entities: compute servers (VM
//!   hosts), image servers and data servers, each with its disks,
//!   gatekeeper and cost models.
//! * [`startup`] — the Table 2 engine: instantiating a VM by
//!   **reboot** or **restore**, over a **persistent** (explicitly
//!   copied) or **non-persistent** (copy-on-write) disk, with state
//!   on the local file system (**DiskFS**) or through a
//!   loopback-mounted NFS stack (**LoopbackNFS**), all framed by a
//!   `globusrun` submission.
//! * [`nfsdisk`] — the adapter that lets a guest's file I/O flow
//!   through a grid-virtual-file-system [`Mount`](gridvm_vfs::Mount)
//!   (Table 1's `VM, PVFS` rows).
//! * [`session`] — the six-step session life cycle of Figure 3:
//!   information-service queries, image selection, data sessions,
//!   VM startup, guest data sessions, application execution.
//! * [`frontend`] — the service-provider scenario of Figure 3:
//!   service VMs multiplexed across users through logical user
//!   accounts.
//! * [`migration`] — suspending, moving and resuming a whole
//!   computing environment while its virtual-file-system sessions
//!   stay live (Section 3.1 "virtual machine migration").
//! * [`recovery`] — the self-healing session life cycle: a
//!   multi-host [`Cluster`] driven under a seeded
//!   [`FaultPlan`](gridvm_simcore::fault::FaultPlan), where a host
//!   crash triggers suspend-from-checkpoint, transfer and resume on
//!   a surviving host (Section 3.1 fault tolerance).
//! * [`multisite`] — the virtual-organization macro-scenario: many
//!   concurrent sessions per site hopping across inter-site links and
//!   recovering from crashes, run over the sharded conservative
//!   simulator ([`gridvm_simcore::shard`]) with bit-identical results
//!   at any shard/thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frontend;
pub mod migration;
pub mod multisite;
pub mod nfsdisk;
pub mod recovery;
pub mod server;
pub mod session;
pub mod startup;

pub use frontend::ServiceProvider;
pub use multisite::{build_vo, VoConfig, VoSite};
pub use nfsdisk::NfsGuestStorage;
pub use recovery::{run_resilient_session, ChaosError, ChaosReport, Cluster, RecoveryConfig};
pub use server::ComputeServer;
pub use session::{GridSession, SessionReport, SessionRequest};
pub use startup::{
    run_startup, run_startup_at, StartupBreakdown, StartupConfig, StartupMode, StateAccess,
};
