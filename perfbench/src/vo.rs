//! `vo_scale`: the VO-scale extension's four placement races, 200k
//! sessions on 24 × 8 sites, 8 shards on one thread. All host time is
//! in `simcore` (engine, event queue, shard transport, histogram and
//! trace sampling) and `core::multisite`; no vfs or storage.
//!
//! `sticky` sends no cross-site messages while the other policies
//! send ~128k, so the per-policy `ns_per_event` separates local event
//! cost from hop and transport cost.

use gridvm_core::multisite::{build_vo_scale, Placement, VoScaleConfig};
use gridvm_simcore::metrics::Metrics;

use crate::span::{Recorder, SpanTotals};
use crate::{bump, ratio, Layer, Outputs, Workload};

/// Shards the sites are packed into (run on one thread).
const SHARDS: usize = 8;

/// The `vo_scale` workload.
#[derive(Debug, Default)]
pub struct VoScale;

impl VoScale {
    /// The artifact's full-size configuration for one policy.
    fn config(placement: Placement, seed: u64) -> VoScaleConfig {
        VoScaleConfig {
            regions: 24,
            sites_per_region: 8,
            sessions: 200_000,
            placement,
            seed,
            ..VoScaleConfig::reference()
        }
    }
}

/// Per-unit keys of the per-policy metrics.
fn policy_key(metric: &str, placement: Placement) -> String {
    format!("{metric}.{}", placement.label())
}

impl Workload for VoScale {
    fn name(&self) -> &'static str {
        "vo_scale"
    }

    fn units(&self) -> usize {
        Placement::ALL.len()
    }

    fn label(&self, unit: usize) -> String {
        format!("placement: {}", Placement::ALL[unit].label())
    }

    fn run_unit(&self, unit: usize, master: u64, rec: &mut Recorder, layer: &mut Layer) -> Outputs {
        let placement = Placement::ALL[unit];
        // Every policy races the same seed, as in the artifact.
        let cfg = VoScale::config(placement, master);
        let mut sim = rec.setup("core.multisite.build", || {
            build_vo_scale(&cfg).shards(SHARDS).threads(1)
        });
        let ((), run_s) = rec.run_timed("simcore.shard.run", || sim.run());
        let (merged, digest) = rec.run("simcore.shard.harvest", || {
            (sim.merged_metrics(), sim.trace_digest())
        });

        let completed = merged.counter("vo.sessions_completed");
        assert_eq!(completed, cfg.sessions, "every session must complete");
        assert!(
            merged.tracked_entries() < 64,
            "metric keyspace must stay O(1), not O(sessions)"
        );
        assert!(
            sim.retained_trace_entries() <= cfg.sites() as usize * cfg.trace_capacity,
            "sampled trace rings exceeded their bound"
        );
        let (sampled, dropped) = (
            merged.counter("trace.sampled"),
            merged.counter("trace.dropped"),
        );
        assert_eq!(
            sampled + dropped,
            completed,
            "one sampling decision per completion"
        );

        let events = sim.total_events() as f64;
        bump(
            layer,
            policy_key("simcore.shard.run_s", placement),
            run_s.as_secs_f64(),
        );
        bump(layer, policy_key("simcore.shard.events", placement), events);
        bump(layer, "simcore.shard.events", events);
        bump(layer, "simcore.shard.windows", sim.windows() as f64);
        bump(layer, "simcore.shard.messages", sim.messages() as f64);
        bump(
            layer,
            "simcore.shard.critical_path_events",
            sim.critical_path_events() as f64,
        );
        bump(
            layer,
            "simcore.sim.events_boxed",
            merged.counter("sim.events_boxed") as f64,
        );
        bump(
            layer,
            "simcore.shard.outbox_regrown",
            merged.counter("shard.outbox_regrown") as f64,
        );
        bump(layer, "simcore.trace.sampled", sampled as f64);
        bump(layer, "simcore.trace.dropped", dropped as f64);
        bump(
            layer,
            "core.multisite.hops",
            merged.counter("vo.hops") as f64,
        );
        bump(
            layer,
            "core.multisite.recoveries",
            merged.counter("vo.recoveries") as f64,
        );
        let slowdown = merged
            .histogram("vo.slowdown_x1000")
            .expect("slowdown histogram");
        let complete = merged
            .histogram("vo.complete_us")
            .expect("completion-time histogram");
        vec![
            ("trace_digest".to_owned(), format!("{digest:#018x}")),
            ("completed".to_owned(), completed.to_string()),
            ("p50_slowdown_x1000".to_owned(), slowdown.p50().to_string()),
            ("p99_slowdown_x1000".to_owned(), slowdown.p99().to_string()),
            (
                "p999_slowdown_x1000".to_owned(),
                slowdown.p999().to_string(),
            ),
            ("makespan_us".to_owned(), complete.max().to_string()),
        ]
    }

    fn layer_metrics(&self, t: &SpanTotals, layer: &Layer, _registry: &Metrics) -> Layer {
        let get = |name: &str| layer.get(name).copied().unwrap_or(0.0);
        let mut out = Layer::new();
        out.insert(
            "core.multisite.build_s".into(),
            t.secs("core.multisite.build"),
        );
        let run_s = t.secs("simcore.shard.run");
        out.insert("simcore.shard.run_s".into(), run_s);
        out.insert(
            "simcore.shard.harvest_s".into(),
            t.secs("simcore.shard.harvest"),
        );
        let events = get("simcore.shard.events");
        out.insert(
            "simcore.shard.ns_per_event".into(),
            ratio(run_s * 1e9, events),
        );
        for p in Placement::ALL {
            let (run_key, ev_key) = (
                policy_key("simcore.shard.run_s", p),
                policy_key("simcore.shard.events", p),
            );
            let policy_run = get(&run_key);
            out.insert(
                policy_key("simcore.shard.ns_per_event", p),
                ratio(policy_run * 1e9, get(&ev_key)),
            );
            out.insert(run_key, policy_run);
        }
        for name in [
            "simcore.shard.events",
            "simcore.shard.windows",
            "simcore.shard.messages",
            "simcore.shard.critical_path_events",
            "simcore.sim.events_boxed",
            "simcore.shard.outbox_regrown",
            "simcore.trace.sampled",
            "simcore.trace.dropped",
            "core.multisite.hops",
            "core.multisite.recoveries",
        ] {
            out.insert(name.into(), get(name));
        }
        out.insert(
            "simcore.shard.events_per_window".into(),
            ratio(events, get("simcore.shard.windows")),
        );
        out
    }
}
