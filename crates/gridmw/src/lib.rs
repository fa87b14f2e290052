//! # gridvm-gridmw
//!
//! Grid middleware services (Sections 3.2, 3.4 and 4): the pieces of
//! Globus-era infrastructure the VM architecture plugs into.
//!
//! * [`info`] — an information service in the MDS/URGIS mold: typed
//!   resource records (physical hosts, VM instances and **VM
//!   futures** — "hosts would advertise what kinds and how many
//!   virtual machines they were willing to instantiate"), relational
//!   queries with bounded, nondeterministic partial results.
//! * [`batch`] — a PBS-style space-shared batch queue \[3\] with
//!   FIFO and EASY-backfill policies, the layer that converts VM
//!   startup latency into batch throughput cost.
//! * [`gram`] — GRAM-style job dispatch: the `globusrun` pipeline of
//!   authentication, job-manager hand-off and polling that frames
//!   every Table 2 measurement ("wall-clock execution time from the
//!   beginning to the end of the execution of globusrun").
//! * [`accounts`] — logical user accounts (PUNCH \[20\]): leases
//!   decoupling grid identities from local accounts.
//! * [`rps`] — an RPS-like resource predictor \[11\]: AR-model
//!   fitting over a sliding window of load measurements, with
//!   confidence intervals for adaptation decisions.
//! * [`retry`] — per-RPC failure semantics: capped exponential
//!   backoff with seeded jitter and bounded retry budgets, the
//!   middleware layer's answer to injected faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounts;
pub mod batch;
pub mod gram;
pub mod info;
pub mod retry;
pub mod rps;

pub use accounts::AccountPool;
pub use batch::{BatchJob, QueuePolicy};
pub use gram::{GramServer, JobRequest};
pub use info::{InfoService, Query, ResourceKind, ResourceRecord};
pub use retry::RetryPolicy;
pub use rps::ArPredictor;
