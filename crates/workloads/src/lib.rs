//! # gridvm-workloads
//!
//! Application models for the paper's experiments.
//!
//! The paper evaluates VM overhead with (a) a synthetic CPU-bound
//! *test task* under background load (Figure 1) and (b) the SPEChpc
//! macro-benchmarks SPECseis and SPECclimate run sequentially
//! (Table 1). The binaries themselves are not available, so this
//! crate models an application as a [`profile::AppProfile`]: total
//! user-mode CPU work plus the kernel-visible activity (system calls
//! and file I/O) that virtualization taxes.
//!
//! Calibration targets come straight from Table 1 (user and system
//! seconds on the paper's 933 MHz Pentium III) — see
//! [`spec::specseis`] and [`spec::specclimate`]. Figure 1's test task
//! is pure CPU work with no profile to calibrate, so `fig1_micro`
//! builds it directly as a `gridvm_host::task::TaskSpec::compute`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod spec;

pub use profile::{AppProfile, IoPattern};
