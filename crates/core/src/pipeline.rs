//! The run pipeline every cluster run goes through: build
//! ([`mcast_cluster`], then the caller's apps) → drive → harvest → watch →
//! app measurements → evidence ([`run_pipeline`]). Closed-loop collectives
//! ([`Scenario`](crate::Scenario)), open-loop workloads
//! ([`Workload`](crate::Workload)) and MPI programs (`gm-mpi`) differ only
//! in the apps they install and the measurements they read back. Every
//! stage is bit-for-bit independent of the shard count.

use gm::{Cluster, GmParams};
use gm_sim::probe::{Metrics, ProbeConfig, ProbeSink};
use gm_sim::watch::{
    self, Detector, DetectorKind, Incident, Severity, Thresh, WatchConfig, WatchEngine,
};
use gm_sim::{RunOutcome, SeriesConfig, SeriesSink, ShardStats, SimTime};
use myrinet::{Fabric, FaultPlan, NetParams, Topology};

use crate::ext::McastExt;
use crate::group::McastConfig;

/// What a run records: the probe, gauge time-series and health-monitoring
/// configurations. [`Observe::off`] (every builder's default) records
/// nothing and allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observe {
    /// Span/instant probe events (the input to attribution, lineage and
    /// incident evidence).
    pub probes: ProbeConfig,
    /// Gauge time-series.
    pub series: SeriesConfig,
    /// Health detectors over the merged series and counters.
    pub watch: WatchConfig,
}

impl Observe {
    /// Nothing recorded, nothing evaluated.
    pub const fn off() -> Observe {
        Observe {
            probes: ProbeConfig::off(),
            series: SeriesConfig::off(),
            watch: WatchConfig::off(),
        }
    }
}

/// Events one run may dispatch before it counts as non-converging
/// (a livelock guard; every run that goes idle does so far below it).
const EVENT_BUDGET: u64 = 4_000_000_000;

/// A cluster of `n_nodes` running the multicast firmware over the default
/// topology for that size, with its fabric seeded for fault draws. Apps
/// default to idle; install them with `Cluster::set_app`.
pub fn mcast_cluster(
    n_nodes: u32,
    params: &GmParams,
    net: NetParams,
    faults: &FaultPlan,
    seed: u64,
    config: McastConfig,
) -> Cluster<McastExt> {
    let fabric = Fabric::with_config(Topology::for_nodes(n_nodes), net, faults.clone(), seed);
    Cluster::new(params.clone(), fabric, |_| McastExt::with_config(config))
}

/// The observability surface harvested from a finished run.
#[derive(Debug)]
pub struct Harvest {
    /// Simulated time at quiescence.
    pub end: SimTime,
    /// Events dispatched.
    pub events: u64,
    /// Counter snapshot: `nic.*` (summed over all nodes), `fabric.*`,
    /// `engine.events`, sink health (`probe.dropped_events`,
    /// `series.dropped_points`) and — on sharded runs — `parallel.*`
    /// execution statistics.
    pub metrics: Metrics,
    /// The canonical probe stream (empty unless probes were on).
    pub probe: ProbeSink,
    /// The canonical gauge time-series (empty unless series were on).
    pub series: SeriesSink,
    /// Health incidents (empty unless watch was on). Inside the
    /// [`run_pipeline`] app closure they carry no evidence yet; afterwards
    /// they carry it and are in canonical order.
    pub incidents: Vec<Incident>,
}

/// Run a built cluster through drive → harvest → watch → app → evidence.
///
/// `app` sees the finished worlds (one per shard) and the harvest with the
/// watch incidents, and returns the caller's own measurements; incidents
/// it pushes get evidence attached with the rest. The watch detectors'
/// thresholds derive from the cluster's own [`GmParams`]. Infeasible
/// sharding requests (one shard, targeted drop rules, indivisible
/// topologies) run sequentially, with identical results.
pub fn run_pipeline<T>(
    mut cluster: Cluster<McastExt>,
    shards: u32,
    observe: &Observe,
    app: impl FnOnce(&[Cluster<McastExt>], &mut Harvest) -> T,
) -> (T, Harvest) {
    cluster.set_probes(observe.probes);
    cluster.set_series(observe.series);
    let (mut worlds, end, events, shard_stats) = drive_to_quiescence(cluster, shards);
    let mut harvest = harvest_observability(&mut worlds, end, events, &shard_stats);
    harvest.incidents = evaluate_watch(&observe.watch, worlds[0].params(), &harvest);
    let out = app(&worlds, &mut harvest);
    finish_incidents(&mut harvest.incidents, &harvest.probe);
    (out, harvest)
}

/// Drive a fully-built cluster to quiescence, sequentially or sharded —
/// bit-for-bit the same results either way, so later stages work off a
/// uniform `Vec<Cluster>` view.
fn drive_to_quiescence(
    cluster: Cluster<McastExt>,
    shards: u32,
) -> (Vec<Cluster<McastExt>>, SimTime, u64, Vec<ShardStats>) {
    let (outcome, worlds, end, events, shard_stats) =
        if shards > 1 && cluster.shard_infeasible(shards).is_none() {
            let mut eng = cluster.into_sharded_engine(shards);
            let outcome = eng.run(SimTime::MAX, EVENT_BUDGET);
            let (end, events, stats) = (eng.now(), eng.events_handled(), eng.shard_stats());
            (outcome, eng.into_worlds(), end, events, stats)
        } else {
            let mut eng = cluster.into_engine();
            let outcome = eng.run(SimTime::MAX, EVENT_BUDGET);
            let (end, events) = (eng.now(), eng.events_handled());
            (outcome, vec![eng.into_world()], end, events, Vec::new())
        };
    assert_eq!(
        outcome,
        RunOutcome::Idle,
        "run did not converge (possible deadlock)"
    );
    (worlds, end, events, shard_stats)
}

/// Collect counters, per-shard execution statistics, and the canonicalized
/// probe/series streams from the finished worlds. A sharded run's merged
/// streams are byte-identical to the sequential reference (sorted by
/// `(time, node)` and renumbered).
fn harvest_observability(
    worlds: &mut [Cluster<McastExt>],
    end: SimTime,
    events: u64,
    shard_stats: &[ShardStats],
) -> Harvest {
    let mut metrics = Metrics::new();
    for w in worlds.iter() {
        for n in w.local_nodes() {
            for (name, v) in w.nic(n).counters.iter() {
                metrics.add("nic", name, v);
            }
        }
        for (name, v) in w.fabric().counters().iter() {
            metrics.add("fabric", name, v);
        }
    }
    metrics.set("engine", "events", events);
    // Per-shard execution statistics. These describe *how* the run was
    // executed, not what it computed, so parity checks strip `parallel.*`
    // before comparing sequential and sharded runs.
    if !shard_stats.is_empty() {
        metrics.set("parallel", "shards", shard_stats.len() as u64);
        metrics.set(
            "parallel",
            "windows",
            shard_stats.iter().map(|s| s.windows).max().unwrap_or(0),
        );
        metrics.set(
            "parallel",
            "horizon_tightenings",
            shard_stats.iter().map(|s| s.horizon_tightenings).sum(),
        );
        for (i, s) in shard_stats.iter().enumerate() {
            metrics.set("parallel", &format!("shard{i}.events"), s.events);
        }
        // Heaviest-vs-lightest shard spread as a percentage of the heaviest
        // — the imbalance weighted partitioning minimizes.
        let max_e = shard_stats.iter().map(|s| s.events).max().unwrap_or(0);
        let min_e = shard_stats.iter().map(|s| s.events).min().unwrap_or(0);
        if let Some(pct) = ((max_e - min_e) * 100).checked_div(max_e) {
            metrics.set("parallel", "event_imbalance_pct", pct);
        }
    }
    let probe = ProbeSink::merge_canonical(
        worlds
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.probe, ProbeSink::disabled()))
            .collect(),
    );
    let series = SeriesSink::merge_canonical(
        worlds
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.series, SeriesSink::disabled()))
            .collect(),
    );
    // Sink-health counters: non-zero drops mean the rings were too small to
    // hold the run and downstream analyses (lineage, critical path, gauge
    // summaries) may be incomplete.
    metrics.set("probe", "dropped_events", probe.evicted());
    metrics.set("series", "dropped_points", series.dropped());
    Harvest {
        end,
        events,
        metrics,
        probe,
        series,
        incidents: Vec::new(),
    }
}

/// The per-shard event-spread threshold (percent of the heaviest shard)
/// past which the execution-diagnostic imbalance detector fires. `exec_`-
/// prefixed: it describes the execution, not the simulated system, so
/// parity checks strip its incidents like `exec_*` gauges.
const EXEC_IMBALANCE_DETECTOR: Detector = Detector {
    id: "exec_shard_imbalance",
    severity: Severity::Info,
    kind: DetectorKind::Counter {
        key: "parallel.event_imbalance_pct",
        min: Thresh::pct(50),
    },
};

/// Run the health detectors over a finished run's merged streams. Returns
/// incidents *without* evidence.
///
/// Zero cost when off: a disabled config returns an empty `Vec` without
/// allocating. Shard invariance is inherited from the inputs — the merged
/// series/metrics/probe streams are byte-identical at any shard count.
fn evaluate_watch(watch: &WatchConfig, params: &GmParams, harvest: &Harvest) -> Vec<Incident> {
    if !watch.is_enabled() {
        return Vec::new();
    }
    let engine = WatchEngine::new(*watch)
        .detectors(params.watch_detectors())
        .detector(EXEC_IMBALANCE_DETECTOR);
    let mut incidents = engine.scan_series(harvest.series.iter());
    incidents.extend(engine.scan_metrics(&harvest.metrics, harvest.end));
    incidents
}

/// Attach causal evidence (active flows + critical-path signature per
/// incident window) and put the stream into canonical order.
fn finish_incidents(incidents: &mut [Incident], probe: &ProbeSink) {
    if incidents.is_empty() {
        return;
    }
    watch::attach_evidence(incidents, probe.as_slice());
    watch::sort_canonical(incidents);
}
