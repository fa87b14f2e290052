//! Per-(src,dst) lookahead for the conservative synchronizer: the
//! all-pairs minimum-latency closure of a site topology.
//!
//! Collapsing a whole topology to one number — the minimum inter-site
//! link latency — and bounding *every* site's window by it throws away
//! exactly the structure a wide-area virtual organization has: a
//! message from a site 40 ms away cannot affect you for 40 ms, no
//! matter how close your metro neighbors are. A [`LookaheadMatrix`]
//! keeps the full per-pair bound: entry `(s, d)` is the minimum latency
//! over every path from `s` to `d`, so no interaction originating at
//! `s` — direct or relayed — can reach `d` sooner. It is the only way
//! to configure [`crate::shard`]'s synchronizer; a uniform matrix at
//! the minimum entry ([`ShardedSim::uniform_lookahead`]) is the
//! single-number schedule as a special case.
//!
//! [`ShardedSim::uniform_lookahead`]: crate::shard::ShardedSim::uniform_lookahead
//!
//! Two derived quantities make the per-site window protocol sound
//! (see `DESIGN.md` §15 for the full safety argument):
//!
//! * the **closure property** `la(a,c) ≤ la(a,b) + la(b,c)` holds by
//!   construction (shortest paths), which is what makes per-site
//!   horizons monotone across windows;
//! * each site's **self round-trip** `rt(i) = min_d (la(i,d) +
//!   la(d,i))` bounds the earliest instant a site's own outgoing
//!   message can echo back, so a site whose peers are all idle still
//!   stops before anything it causes can return.

use crate::shard::SiteId;
use crate::time::SimDuration;

/// Sentinel for a pair with no connecting path: nothing sent at the
/// source can ever reach the destination, so the bound is infinite.
const UNREACHABLE: u64 = u64::MAX;

/// The all-pairs minimum-latency closure of a site topology, in
/// nanoseconds — the per-(src,dst) lookahead the sharded window
/// protocol computes per-site horizons from.
///
/// Construct with [`LookaheadMatrix::shortest_paths`] over the
/// topology's direct link latencies (see
/// `SiteTopology::lookahead_matrix` in `gridvm-vnet`), then hand it to
/// [`ShardedSim::new`](crate::shard::ShardedSim::new).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookaheadMatrix {
    n: usize,
    /// Row-major `la[src * n + dst]` nanoseconds; `UNREACHABLE` when
    /// no path connects the pair, `0` on the diagonal.
    la: Vec<u64>,
    /// Per-site minimum round trip `min over d != i of (la(i,d) +
    /// la(d,i))`.
    rt: Vec<u64>,
}

impl LookaheadMatrix {
    /// Builds the matrix from direct link latencies by running
    /// Floyd–Warshall to the all-pairs shortest-path closure.
    /// `direct(a, b)` returns the one-way latency of the direct link
    /// between two distinct sites, or `None` when they are not
    /// directly connected.
    ///
    /// # Panics
    ///
    /// Panics on a zero-latency direct link: a zero-cost path would
    /// collapse the conservative synchronizer's safe-advance window.
    pub fn shortest_paths(
        n: usize,
        direct: impl Fn(SiteId, SiteId) -> Option<SimDuration>,
    ) -> Self {
        let mut la = vec![UNREACHABLE; n * n];
        for i in 0..n {
            la[i * n + i] = 0;
        }
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                if let Some(lat) = direct(SiteId(a as u32), SiteId(b as u32)) {
                    assert!(
                        lat > SimDuration::ZERO,
                        "zero-latency link {a}->{b} would leave no lookahead"
                    );
                    la[a * n + b] = lat.as_nanos();
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                let ik = la[i * n + k];
                if ik == UNREACHABLE {
                    continue;
                }
                for j in 0..n {
                    let through = ik.saturating_add(la[k * n + j]);
                    if through < la[i * n + j] {
                        la[i * n + j] = through;
                    }
                }
            }
        }
        let rt = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&d| d != i)
                    .map(|d| la[i * n + d].saturating_add(la[d * n + i]))
                    .min()
                    .unwrap_or(UNREACHABLE)
            })
            .collect();
        LookaheadMatrix { n, la, rt }
    }

    /// Number of sites the matrix covers.
    pub fn sites(&self) -> usize {
        self.n
    }

    /// Minimum latency over every path from `src` to `dst`; `None`
    /// when no path connects them (or for the zero diagonal asked of
    /// a pair with `src == dst`).
    pub fn lookahead(&self, src: SiteId, dst: SiteId) -> Option<SimDuration> {
        if src == dst {
            return None;
        }
        match self.la[src.index() * self.n + dst.index()] {
            UNREACHABLE => None,
            ns => Some(SimDuration::from_nanos(ns)),
        }
    }

    /// The pairwise bound in nanoseconds (`u64::MAX` = unreachable) —
    /// the hot-path accessor the window protocol folds per site.
    #[inline]
    pub fn lookahead_nanos(&self, src: usize, dst: usize) -> u64 {
        self.la[src * self.n + dst]
    }

    /// The site's minimum round trip `min over d of (la(site,d) +
    /// la(d,site))` in nanoseconds (`u64::MAX` when the site has no
    /// reachable peer): the earliest a message the site sends now can
    /// cause anything to arrive back.
    #[inline]
    pub fn round_trip_nanos(&self, site: usize) -> u64 {
        self.rt[site]
    }

    /// The minimum off-diagonal entry — the smallest latency of any
    /// link in the topology, since every path is at least as long as
    /// its cheapest link. `None` when no pair is connected.
    pub fn min_lookahead(&self) -> Option<SimDuration> {
        (0..self.n)
            .flat_map(|a| (0..self.n).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| self.la[a * self.n + b])
            .filter(|&ns| ns != UNREACHABLE)
            .min()
            .map(SimDuration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn closure_takes_the_cheaper_relay_path() {
        // 0-1 direct is 10ms, but 0-2-1 costs 3 + 3: the matrix must
        // report the relayed bound, because a message can take it.
        let direct = |a: SiteId, b: SiteId| match (a.0.min(b.0), a.0.max(b.0)) {
            (0, 1) => Some(ms(10)),
            (0, 2) | (1, 2) => Some(ms(3)),
            _ => None,
        };
        let m = LookaheadMatrix::shortest_paths(3, direct);
        assert_eq!(m.lookahead(SiteId(0), SiteId(1)), Some(ms(6)));
        assert_eq!(m.lookahead(SiteId(1), SiteId(0)), Some(ms(6)));
        assert_eq!(m.lookahead(SiteId(0), SiteId(2)), Some(ms(3)));
        assert_eq!(m.min_lookahead(), Some(ms(3)));
        // Symmetric links: round trip is twice the nearest peer.
        assert_eq!(m.round_trip_nanos(0), 2 * ms(3).as_nanos());
    }

    #[test]
    fn triangle_closure_holds_everywhere() {
        // The monotonicity proof in DESIGN.md §15 leans on
        // la(a,c) <= la(a,b) + la(b,c); Floyd–Warshall guarantees it,
        // and this pins that guarantee against refactors.
        let direct =
            |a: SiteId, b: SiteId| Some(ms(5 + (u64::from(a.0) * 7 + u64::from(b.0) * 13) % 12));
        let n = 6;
        let m = LookaheadMatrix::shortest_paths(n, direct);
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    let ab = m.lookahead_nanos(a, b);
                    let bc = m.lookahead_nanos(b, c);
                    assert!(
                        m.lookahead_nanos(a, c) <= ab.saturating_add(bc),
                        "closure violated at {a},{b},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_unreachable() {
        // Two islands: {0,1} and {2}.
        let direct =
            |a: SiteId, b: SiteId| ((a.0.min(b.0), a.0.max(b.0)) == (0, 1)).then_some(ms(4));
        let m = LookaheadMatrix::shortest_paths(3, direct);
        assert_eq!(m.lookahead(SiteId(0), SiteId(2)), None);
        assert_eq!(m.lookahead_nanos(0, 2), u64::MAX);
        assert_eq!(m.round_trip_nanos(2), u64::MAX);
        assert_eq!(m.round_trip_nanos(0), 2 * ms(4).as_nanos());
        assert_eq!(m.min_lookahead(), Some(ms(4)));
    }

    #[test]
    fn single_site_has_no_pairs() {
        let m = LookaheadMatrix::shortest_paths(1, |_, _| None);
        assert_eq!(m.sites(), 1);
        assert_eq!(m.min_lookahead(), None);
        assert_eq!(m.round_trip_nanos(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "no lookahead")]
    fn zero_latency_links_are_rejected() {
        let _ = LookaheadMatrix::shortest_paths(2, |_, _| Some(SimDuration::ZERO));
    }
}
