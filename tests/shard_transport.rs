//! Cross-shard transport regressions: the zero-allocation delivery
//! path and the per-(src,dst) window protocol.
//!
//! PR 5 made local dispatch allocation-free and pinned it with
//! `sim.events_boxed == 0`; these tests pin the same property for the
//! cross-shard mailboxes (every VO message rides the inline `Arg2`
//! event words) and pin the per-pair lookahead contract: the
//! topology's schedule yields histories — trace digests, per-site
//! checksums, metrics — identical to the uniform minimum-latency
//! reference (`ShardedSim::uniform_lookahead`) and across every
//! shard/thread packing, with fewer barrier windows wherever the
//! topology has latency spread.

use gridvm::core::multisite::{
    build_vo, build_vo_scale, VoConfig, VoMsg, VoScaleConfig, VoScaleMsg, VoScaleSite, VoSite,
};
use gridvm::simcore::metrics::{self, Metrics};
use gridvm::simcore::shard::ShardWorld;
use gridvm_bench::regional::{build_handoff, HandoffConfig, HandoffMsg, HandoffSite};
use proptest::prelude::*;

/// Everything two runs must agree on when they claim "same history",
/// regardless of window schedule: the sampled trace digest, per-site
/// work checksums, cross-site message count, total executed events,
/// and every metric that is not synchronizer bookkeeping (`shard.*`
/// legitimately differs between schedules — that's the point of the
/// per-pair matrix).
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

/// Runs the VO world under the topology's matrix, or under its uniform
/// minimum-latency reference when `uniform` is set.
fn run_vo(cfg: &VoConfig, uniform: bool, shards: usize, threads: usize) -> (History, u64, u64) {
    let mut sim = build_vo(cfg).shards(shards).threads(threads);
    if uniform {
        sim = sim.uniform_lookahead();
    }
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
    // everything else idle) is where the per-pair matrix's wider
    // horizons pay: the nearest *activity* is a WAN region away even
    // though the nearest *link* is metro. Same history as the uniform
    // reference, >= 3x fewer barrier windows — the baseline's
    // regional scenario asserts the same bound.
    let run = |uniform: bool| {
        let cfg = HandoffConfig::reference();
        let mut sim = build_handoff(&cfg).shards(4).threads(2);
        if uniform {
            sim = sim.uniform_lookahead();
        }
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
    let (uniform_history, uniform_windows) = run(true);
    let (paired_history, paired_windows) = run(false);
    assert_eq!(
        paired_history, uniform_history,
        "per-pair lookahead changed the simulated history"
    );
    assert!(
        paired_windows * 3 <= uniform_windows,
        "expected >= 3x fewer windows, got {paired_windows} vs {uniform_windows}"
    );
}

#[test]
fn per_pair_windows_match_the_uniform_history_on_the_scale_world() {
    // The always-active scale world is the adversarial case for the
    // per-pair matrix: every site has pending work, so horizons
    // collapse toward the metro latency and the window win is small.
    // What must hold unconditionally is the contract — identical
    // history, never *more* barriers than the uniform reference.
    let run = |uniform: bool| {
        let cfg = VoScaleConfig {
            regions: 3,
            sites_per_region: 4,
            sessions: 2_000,
            steps_per_session: 10,
            hop_per_mille: 120,
            ..VoScaleConfig::reference()
        };
        let mut sim = build_vo_scale(&cfg).shards(4);
        if uniform {
            sim = sim.uniform_lookahead();
        }
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
    let (uniform_history, uniform_windows) = run(true);
    let (paired_history, paired_windows) = run(false);
    assert_eq!(
        paired_history, uniform_history,
        "per-pair lookahead changed the simulated history"
    );
    assert!(
        paired_windows <= uniform_windows,
        "per-pair added windows: {paired_windows} vs {uniform_windows}"
    );
}

proptest! {
    /// For any workload shape and seed, the topology schedule's
    /// history is bit-identical to the uniform reference's, and both
    /// are invariant across the full shard {1,2,4,8} × thread {1,8}
    /// sweep. The topology's windows are never more than the
    /// reference's.
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
            ..VoConfig::paper_vo()
        };
        let (uniform, uniform_windows, uniform_boxed) = run_vo(&cfg, true, 1, 1);
        let (paired, paired_windows, paired_boxed) = run_vo(&cfg, false, 1, 1);
        prop_assert_eq!(&paired, &uniform, "schedules diverged");
        prop_assert!(
            paired_windows <= uniform_windows,
            "per-pair added windows: {} vs {}", paired_windows, uniform_windows
        );
        prop_assert_eq!(uniform_boxed, 0);
        prop_assert_eq!(paired_boxed, 0);
        for shards in [2usize, 4, 8] {
            for threads in [1usize, 8] {
                let (got, windows, _) = run_vo(&cfg, false, shards, threads);
                prop_assert_eq!(
                    &got, &paired,
                    "per-pair diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(
                    windows, paired_windows,
                    "window count must not depend on packing"
                );
                let (got, windows, _) = run_vo(&cfg, true, shards, threads);
                prop_assert_eq!(
                    &got, &uniform,
                    "uniform diverged at shards={} threads={}", shards, threads
                );
                prop_assert_eq!(windows, uniform_windows);
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
