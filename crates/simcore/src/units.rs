//! Domain quantities used across the suite: byte sizes, CPU work,
//! bandwidth, and fractional shares.
//!
//! These are newtypes ([C-NEWTYPE]) so that, e.g., a disk size can
//! never be passed where a CPU-work amount is expected.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::time::SimDuration;

/// A size in bytes (disk images, memory snapshots, file blocks,
/// network payloads).
///
/// ```
/// use gridvm_simcore::units::ByteSize;
/// let img = ByteSize::from_gib(2);
/// assert_eq!(img.as_u64(), 2 * 1024 * 1024 * 1024);
/// assert_eq!(img.to_string(), "2.00GiB");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Constructs from a raw byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Constructs from binary kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * 1024)
    }

    /// Constructs from binary mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// Constructs from binary gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize(gib * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Bytes as a float, for rate arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// True when zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Number of fixed-size blocks needed to cover this size
    /// (rounding up).
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero bytes.
    pub fn blocks(self, block: ByteSize) -> u64 {
        assert!(!block.is_zero(), "blocks: zero block size");
        self.0.div_ceil(block.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// The smaller of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// The larger of two sizes.
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(rhs.0).expect("ByteSize overflow"))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_sub(rhs.0).expect("ByteSize underflow"))
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: f64 = 1024.0;
        let b = self.0 as f64;
        if b >= KIB * KIB * KIB {
            write!(f, "{:.2}GiB", b / (KIB * KIB * KIB))
        } else if b >= KIB * KIB {
            write!(f, "{:.2}MiB", b / (KIB * KIB))
        } else if b >= KIB {
            write!(f, "{:.2}KiB", b / KIB)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// An amount of CPU work, measured in abstract *cycles*.
///
/// A host core retires cycles at its [`clock rate`](CpuWork::at_rate);
/// dividing work by a rate yields the busy time needed on a dedicated
/// core.
///
/// ```
/// use gridvm_simcore::units::CpuWork;
/// let w = CpuWork::from_cycles(2_000_000_000);
/// // at 1 GHz this takes 2 seconds of dedicated CPU
/// assert_eq!(w.at_rate(1e9).as_secs_f64(), 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuWork(u64);

impl CpuWork {
    /// No work.
    pub const ZERO: CpuWork = CpuWork(0);

    /// Constructs from a raw cycle count.
    pub const fn from_cycles(cycles: u64) -> Self {
        CpuWork(cycles)
    }

    /// The work a core at `hz` retires in `d` of dedicated time.
    pub fn from_duration(d: SimDuration, hz: f64) -> Self {
        CpuWork((d.as_secs_f64() * hz).round() as u64)
    }

    /// The raw cycle count.
    pub const fn as_cycles(self) -> u64 {
        self.0
    }

    /// True when there is no work.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The dedicated-core time needed at `hz` cycles per second.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive.
    pub fn at_rate(self, hz: f64) -> SimDuration {
        assert!(hz > 0.0, "at_rate: non-positive clock rate {hz}");
        SimDuration::from_secs_f64(self.0 as f64 / hz)
    }

    /// Scales the work by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> CpuWork {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "mul_f64: invalid factor {factor}"
        );
        CpuWork((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: CpuWork) -> CpuWork {
        CpuWork(self.0.saturating_sub(other.0))
    }

    /// The smaller of two amounts.
    pub fn min(self, other: CpuWork) -> CpuWork {
        CpuWork(self.0.min(other.0))
    }
}

impl Add for CpuWork {
    type Output = CpuWork;
    fn add(self, rhs: CpuWork) -> CpuWork {
        CpuWork(self.0.checked_add(rhs.0).expect("CpuWork overflow"))
    }
}

impl AddAssign for CpuWork {
    fn add_assign(&mut self, rhs: CpuWork) {
        *self = *self + rhs;
    }
}

impl Sub for CpuWork {
    type Output = CpuWork;
    fn sub(self, rhs: CpuWork) -> CpuWork {
        CpuWork(self.0.checked_sub(rhs.0).expect("CpuWork underflow"))
    }
}

impl Sum for CpuWork {
    fn sum<I: Iterator<Item = CpuWork>>(iter: I) -> CpuWork {
        iter.fold(CpuWork::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for CpuWork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gcyc", self.0 as f64 / 1e9)
    }
}

/// A data rate in bytes per second (disk and network throughput).
///
/// ```
/// use gridvm_simcore::units::{Bandwidth, ByteSize};
/// let bw = Bandwidth::from_mib_per_sec(10.0);
/// let t = bw.transfer_time(ByteSize::from_mib(20));
/// assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Constructs from raw bytes per second.
    ///
    /// # Panics
    ///
    /// Panics unless `bps` is strictly positive and finite.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps > 0.0,
            "Bandwidth must be positive, got {bps}"
        );
        Bandwidth(bps)
    }

    /// Constructs from binary mebibytes per second.
    pub fn from_mib_per_sec(mibps: f64) -> Self {
        Bandwidth::from_bytes_per_sec(mibps * 1024.0 * 1024.0)
    }

    /// Constructs from decimal megabits per second (network
    /// convention).
    pub fn from_mbit_per_sec(mbps: f64) -> Self {
        Bandwidth::from_bytes_per_sec(mbps * 1e6 / 8.0)
    }

    /// Time to push `size` through at this rate.
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(size.as_f64() / self.0)
    }

    /// The smaller of two rates (bottleneck composition).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}MiB/s", self.0 / (1024.0 * 1024.0))
    }
}

/// A fractional share of a resource, in `[0, 1]`.
///
/// Used for CPU reservations and proportional-share scheduling
/// weights.
///
/// ```
/// use gridvm_simcore::units::Share;
/// let half = Share::new(0.5);
/// assert_eq!(half.complement(), Share::new(0.5));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Share(f64);

impl Share {
    /// The empty share.
    pub const ZERO: Share = Share(0.0);
    /// The whole resource.
    pub const FULL: Share = Share(1.0);

    /// Constructs a share.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` lies in `[0, 1]`.
    pub fn new(fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "Share must be in [0,1], got {fraction}"
        );
        Share(fraction)
    }

    /// The fraction as a float in `[0, 1]`.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// `1 - self`.
    pub fn complement(self) -> Share {
        Share(1.0 - self.0)
    }

    /// Saturating addition, clamped to [`Share::FULL`].
    pub fn saturating_add(self, other: Share) -> Share {
        Share((self.0 + other.0).min(1.0))
    }

    /// True when the share is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Default for Share {
    fn default() -> Self {
        Share::ZERO
    }
}

impl fmt::Display for Share {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytesize_block_count_rounds_up() {
        let sz = ByteSize::from_bytes(10_000);
        let blk = ByteSize::from_kib(4);
        assert_eq!(sz.blocks(blk), 3);
        assert_eq!(ByteSize::from_kib(8).blocks(blk), 2);
        assert_eq!(ByteSize::ZERO.blocks(blk), 0);
    }

    #[test]
    #[should_panic(expected = "zero block size")]
    fn bytesize_zero_block_panics() {
        let _ = ByteSize::from_kib(1).blocks(ByteSize::ZERO);
    }

    #[test]
    fn bytesize_display_scales() {
        assert_eq!(ByteSize::from_bytes(512).to_string(), "512B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.00KiB");
        assert_eq!(ByteSize::from_mib(3).to_string(), "3.00MiB");
        assert_eq!(ByteSize::from_gib(1).to_string(), "1.00GiB");
    }

    #[test]
    fn cpuwork_rate_round_trip() {
        let d = SimDuration::from_secs(3);
        let w = CpuWork::from_duration(d, 800e6);
        assert_eq!(w.as_cycles(), 2_400_000_000);
        assert_eq!(w.at_rate(800e6), d);
    }

    #[test]
    fn cpuwork_scaling() {
        let w = CpuWork::from_cycles(1000);
        assert_eq!(w.mul_f64(1.5).as_cycles(), 1500);
        assert_eq!(w.mul_f64(0.0), CpuWork::ZERO);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_mbit_per_sec(100.0);
        // 100 Mbit/s = 12.5 MB/s decimal
        let t = bw.transfer_time(ByteSize::from_bytes(12_500_000));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::from_bytes_per_sec(0.0);
    }

    #[test]
    fn share_bounds() {
        assert_eq!(Share::new(0.3).complement().as_f64(), 0.7);
        assert_eq!(Share::new(0.8).saturating_add(Share::new(0.8)), Share::FULL);
        assert!(Share::ZERO.is_zero());
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn share_rejects_out_of_range() {
        let _ = Share::new(1.5);
    }

    #[test]
    fn sums_accumulate() {
        let total: ByteSize = (1..=3).map(ByteSize::from_kib).sum();
        assert_eq!(total, ByteSize::from_kib(6));
        let work: CpuWork = (1..=3).map(CpuWork::from_cycles).sum();
        assert_eq!(work.as_cycles(), 6);
    }
}
