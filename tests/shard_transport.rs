//! Cross-shard transport regressions: the zero-allocation delivery
//! path and the per-(src,dst) window protocol.
//!
//! PR 5 made local dispatch allocation-free and pinned it with
//! `sim.events_boxed == 0`; these tests pin the same property for the
//! cross-shard mailboxes (every VO message rides the inline `Arg2`
//! event words) and pin the per-pair lookahead protocol's contract:
//! identical histories — trace digests, per-site checksums, metrics —
//! to the global-lookahead protocol and across every shard/thread
//! packing, with strictly fewer barrier windows wherever the topology
//! has latency spread.

use gridvm::core::multisite::{
    build_vo, build_vo_scale, VoConfig, VoMsg, VoScaleConfig, VoScaleMsg, VoScaleSite, VoSite,
};
use gridvm::simcore::metrics::{self, Metrics};
use gridvm::simcore::shard::ShardWorld;
use gridvm_bench::regional::{build_handoff, HandoffConfig, HandoffMsg, HandoffSite};
use proptest::prelude::*;

/// Everything two runs must agree on when they claim "same history",
/// regardless of synchronizer protocol: the sampled trace digest,
/// per-site work checksums, cross-site message count, total executed
/// events, and every metric that is not synchronizer bookkeeping
/// (`shard.*` legitimately differs between protocols — that's the
/// point of the optimization).
#[derive(Debug, PartialEq)]
struct History {
    digest: u64,
    checksums: Vec<u64>,
    messages: u64,
    total_events: u64,
    counters: Vec<(&'static str, u64)>,
    histogram_count: usize,
}

fn history(
    digest: u64,
    checksums: Vec<u64>,
    messages: u64,
    total_events: u64,
    m: &Metrics,
) -> History {
    History {
        digest,
        checksums,
        messages,
        total_events,
        counters: m
            .counters()
            .filter(|(name, _)| !name.starts_with("shard."))
            .collect(),
        histogram_count: m.histograms().count(),
    }
}

fn run_vo(cfg: &VoConfig, shards: usize, threads: usize) -> (History, u64, u64) {
    let mut sim = build_vo(cfg).shards(shards).threads(threads);
    metrics::reset();
    sim.run();
    metrics::reset();
    let checksums = (0..cfg.sites as usize)
        .map(|i| sim.with_site(i, |s, _| s.world.checksum))
        .collect();
    let m = sim.merged_metrics();
    let boxed = m.counter("sim.events_boxed");
    (
        history(
            sim.trace_digest(),
            checksums,
            sim.messages(),
            sim.total_events(),
            &m,
        ),
        sim.windows(),
        boxed,
    )
}

#[test]
fn steady_state_vo_mailbox_traffic_is_allocation_free() {
    // The tentpole regression: every cross-site hop in both VO worlds
    // encodes to the two inline event words, so a steady-state run
    // boxes nothing — and the pre-sized outboxes never regrow.
    let cfg = VoConfig {
        sites: 6,
        hop_per_mille: 200,
        ..VoConfig::paper_vo()
    };
    let mut sim = build_vo(&cfg).shards(4);
    metrics::reset();
    sim.run();
    metrics::reset();
    let m = sim.merged_metrics();
    assert!(sim.messages() > 100, "the run must cross shard boundaries");
    assert_eq!(m.counter("sim.events_boxed"), 0, "boxed cross-shard event");
    assert_eq!(m.counter("shard.outbox_regrown"), 0, "outbox regrew");
}

#[test]
fn steady_state_vo_scale_mailbox_traffic_is_allocation_free() {
    let cfg = VoScaleConfig {
        regions: 2,
        sites_per_region: 3,
        sessions: 600,
        steps_per_session: 8,
        hop_per_mille: 200,
        ..VoScaleConfig::reference()
    };
    let mut sim = build_vo_scale(&cfg).shards(3).threads(2);
    metrics::reset();
    sim.run();
    metrics::reset();
    let m = sim.merged_metrics();
    assert!(sim.messages() > 100, "the run must cross shard boundaries");
    assert_eq!(m.counter("sim.events_boxed"), 0, "boxed cross-shard event");
}

#[test]
fn per_pair_windows_cut_barriers_threefold_on_the_regional_handoff_world() {
    // The bursty handoff workload (one active site per region,
    // everything else idle) is where the per-pair protocol's wider
    // horizons pay: the nearest *activity* is a WAN region away even
    // though the nearest *link* is metro. Same history, >= 3x fewer
    // barrier windows — the bench gate's regional scenario asserts
    // the same bound from the recorded baseline.
    let run = |per_pair: bool| {
        let cfg = HandoffConfig {
            per_pair_lookahead: per_pair,
            ..HandoffConfig::reference()
        };
        let mut sim = build_handoff(&cfg).shards(4).threads(2);
        metrics::reset();
        sim.run();
        metrics::reset();
        let checksums: Vec<u64> = (0..cfg.regions as usize * 2)
            .map(|i| sim.with_site(i, |s, _| s.world.checksum))
            .collect();
        let m = sim.merged_metrics();
        assert_eq!(m.counter("sim.events_boxed"), 0, "boxed handoff message");
        (
            history(
                sim.trace_digest(),
                checksums,
                sim.messages(),
                sim.total_events(),
                &m,
            ),
            sim.windows(),
        )
    };
    let (global_history, global_windows) = run(false);
    let (paired_history, paired_windows) = run(true);
    assert_eq!(
        paired_history, global_history,
        "per-pair lookahead changed the simulated history"
    );
    assert!(
        paired_windows * 3 <= global_windows,
        "expected >= 3x fewer windows, got {paired_windows} vs {global_windows}"
    );
}

#[test]
fn per_pair_windows_match_global_history_on_the_scale_world() {
    // The always-active scale world is the adversarial case for the
    // per-pair protocol: every site has pending work, so horizons
    // collapse toward the metro latency and the window win is small.
    // What must hold unconditionally is the contract — identical
    // history, never *more* barriers than the global protocol.
    let run = |per_pair: bool| {
        let cfg = VoScaleConfig {
            regions: 3,
            sites_per_region: 4,
            sessions: 2_000,
            steps_per_session: 10,
            hop_per_mille: 120,
            per_pair_lookahead: per_pair,
            ..VoScaleConfig::reference()
        };
        let mut sim = build_vo_scale(&cfg).shards(4);
        metrics::reset();
        sim.run();
        metrics::reset();
        let checksums = (0..cfg.sites() as usize)
            .map(|i| sim.with_site(i, |s, _| s.world.checksum))
            .collect();
        let m = sim.merged_metrics();
        (
            history(
                sim.trace_digest(),
                checksums,
                sim.messages(),
                sim.total_events(),
                &m,
            ),
            sim.windows(),
        )
    };
    let (global_history, global_windows) = run(false);
    let (paired_history, paired_windows) = run(true);
    assert_eq!(
        paired_history, global_history,
        "per-pair lookahead changed the simulated history"
    );
    assert!(
        paired_windows <= global_windows,
        "per-pair widened windows: {paired_windows} vs {global_windows}"
    );
}

proptest! {
    /// For any workload shape and seed, the per-pair protocol's
    /// history is bit-identical to the global protocol's, and both
    /// are invariant across the full shard {1,2,4,8} × thread {1,8}
    /// sweep. Windows may only shrink when the matrix is installed.
    #[test]
    fn per_pair_protocol_is_history_identical_for_any_seed(
        seed in 1u64..u64::MAX / 2,
        sites in 2u32..7,
        sessions_per_site in 2u32..7,
        steps_per_session in 10u32..40,
        hop_per_mille in 40u32..400,
    ) {
        let cfg = VoConfig {
            sites,
            sessions_per_site,
            steps_per_session,
            hop_per_mille,
            seed,
            per_pair_lookahead: false,
            ..VoConfig::paper_vo()
        };
        let paired_cfg = VoConfig { per_pair_lookahead: true, ..cfg };
        let (global, global_windows, global_boxed) = run_vo(&cfg, 1, 1);
        let (paired, paired_windows, paired_boxed) = run_vo(&paired_cfg, 1, 1);
        prop_assert_eq!(&paired, &global, "protocols diverged");
        prop_assert!(
            paired_windows <= global_windows,
            "per-pair widened windows: {} vs {}", paired_windows, global_windows
        );
        prop_assert_eq!(global_boxed, 0);
        prop_assert_eq!(paired_boxed, 0);
        for shards in [2usize, 4, 8] {
            for threads in [1usize, 8] {
                let (got, windows, _) = run_vo(&paired_cfg, shards, threads);
                prop_assert_eq!(
                    &got, &paired,
                    "per-pair diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(
                    windows, paired_windows,
                    "window count must not depend on packing"
                );
                let (got, windows, _) = run_vo(&cfg, shards, threads);
                prop_assert_eq!(
                    &got, &global,
                    "global diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(windows, global_windows);
            }
        }
    }

    /// Inline encoding is the mailbox's only delivery path, so every
    /// production world's message must survive the trip through the
    /// two event words unchanged, over each field's full range.
    #[test]
    fn production_messages_round_trip_through_the_inline_words(
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
        narrow in 0u32..=u32::MAX,
    ) {
        let vo = VoMsg { session: a, steps_left: narrow };
        prop_assert_eq!(VoSite::decode_msg(VoSite::encode_msg(vo)), vo);
        let scale = VoScaleMsg { meta: a, start: b };
        prop_assert_eq!(VoScaleSite::decode_msg(VoScaleSite::encode_msg(scale)), scale);
        let handoff = HandoffMsg { token: a, legs_left: narrow };
        prop_assert_eq!(HandoffSite::decode_msg(HandoffSite::encode_msg(handoff)), handoff);
    }
}
