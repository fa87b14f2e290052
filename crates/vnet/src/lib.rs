//! # gridvm-vnet
//!
//! Virtual networking for dynamically created VMs (Section 3.3).
//!
//! The paper distinguishes two connectivity scenarios:
//!
//! 1. the VM host hands out addresses to guests — modeled by
//!    [`dhcp`];
//! 2. the host does not, and the guest is tunneled at the Ethernet
//!    level back to the user's network ("similar to VPNs", over the
//!    SSH connection used to launch the VM) — modeled by [`tunnel`];
//!    with the "natural extension" of an **overlay network among the
//!    remote virtual machines** that "would optimize itself with
//!    respect to the communication between the virtual machines" —
//!    modeled by [`overlay`] (RON-style \[2\]).
//!
//! * [`addr`] — MAC/IPv4 newtypes and subnets.
//! * [`dhcp`] — lease allocation with expiry and reclamation.
//! * [`link`] — point-to-point links with latency/bandwidth and
//!   failure state.
//! * [`tunnel`] — Ethernet-over-SSH framing and crypto costs; the
//!   VPN that grafts a remote VM onto its home network.
//! * [`overlay`] — probing, adaptive shortest-path routing, and
//!   re-optimization when the underlay degrades.
//! * [`sites`] — the multi-site virtual-organization graph: named
//!   sites joined by inter-site links, shard partition maps, and the
//!   per-(src,dst) **lookahead matrix** the conservative synchronizer
//!   (`gridvm_simcore::shard`) advances by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod dhcp;
pub mod link;
pub mod overlay;
pub mod sites;
pub mod tunnel;

pub use addr::{Ipv4Addr, MacAddr, Subnet};
pub use dhcp::DhcpServer;
pub use link::NetLink;
pub use overlay::{NodeId, Overlay};
pub use sites::SiteTopology;
pub use tunnel::{EthernetTunnel, Vpn};
