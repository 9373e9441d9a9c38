//! The four benchmark workloads, what one repeat of each measures, and the
//! output checks every repeat must pass.
//!
//! Only public APIs are called: `nic_mcast::{Workload, BuiltWorkload,
//! Scenario, BuiltScenario}`, `gm_mpi::execute_mpi` and the `gm_sim`
//! analysis functions. Layers are measured from outside, by timing those
//! calls and by reading each report's `metrics` counters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use gm::GmParams;
use gm_mpi::{execute_mpi, BcastImpl, MpiRun};
use gm_sim::watch::{self, WatchConfig, WatchEngine};
use gm_sim::{FlowGraph, Metrics, ProbeConfig, SeriesConfig, SimDuration};
use myrinet::FaultPlan;
use nic_mcast::{
    ArrivalProcess, FanoutDist, Scenario, StopCondition, TreeShape, Workload, WorkloadReport,
};

use crate::trace::Tracer;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one collective at a time: the paper's §6.1 sweep.
    BcastSweep,
    /// Open-loop many-group traffic, observability off, one shard.
    Sustained,
    /// Open-loop lossy traffic with probes, series and watch on.
    Observed,
    /// `Sustained` on two shards (the threaded `sim::parallel` path).
    Sharded,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::BcastSweep,
        Kind::Sustained,
        Kind::Observed,
        Kind::Sharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BcastSweep => "bcast_sweep",
            Kind::Sustained => "sustained",
            Kind::Observed => "observed",
            Kind::Sharded => "sharded",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// What one repeat measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host time building the workload (excluded from `wall`).
    pub setup: Duration,
    /// Host time of the timed calls.
    pub wall: Duration,
    /// Events the engine dispatched in the timed calls.
    pub events: u64,
    /// Measured payload goodput, simulated MB/s.
    pub goodput_mbs: f64,
    /// The simulated output, compared byte for byte across repeats.
    pub digest: String,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    /// Per-layer readings, keyed by metric name (host times in seconds).
    pub layers: BTreeMap<&'static str, f64>,
}

// ---------------------------------------------------------------------------
// bcast_sweep
// ---------------------------------------------------------------------------

const SWEEP_NODES: u32 = 16;
const SWEEP_SIZES: [usize; 4] = [1, 512, 4096, 16384];
const SWEEP_WARMUP: u32 = 10;
const SWEEP_ITERS: u32 = 100;

/// The paper's two published 16-node GM-level improvement factors
/// (host-based over NIC-based): up to 1.48x at <= 512 B, 1.86x at 16 KB.
const PAPER_SMALL: f64 = 1.48;
const PAPER_16K: f64 = 1.86;

struct SweepPoint {
    size: usize,
    nb_us: f64,
    hb_us: f64,
    mpi_nb_us: f64,
    mpi_hb_us: f64,
}

fn bcast_sweep(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Points run one after another on this thread: no `par_map`, so the
    // sweep never competes with itself for the cores.
    let (specs, setup) = tr.span("setup", |tr| {
        let mut specs = Vec::new();
        for size in SWEEP_SIZES {
            let gm = |tr: &mut Tracer, s: Scenario, shape: TreeShape| {
                tr.span("core.scenario.build", |_| {
                    s.size(size)
                        .tree(shape)
                        .warmup(SWEEP_WARMUP)
                        .iters(SWEEP_ITERS)
                        .seed(seed)
                        .shards(1)
                        .build()
                        .expect("sweep scenarios are valid")
                })
            };
            let (nb, nb_t) = gm(tr, Scenario::nic_based(SWEEP_NODES), TreeShape::auto());
            let (hb, hb_t) = gm(tr, Scenario::host_based(SWEEP_NODES), TreeShape::Binomial);
            let mpi = |tr: &mut Tracer, b: BcastImpl| {
                tr.span("mpi.setup", |_| {
                    let mut run = MpiRun::bcast_loop(
                        SWEEP_NODES,
                        size,
                        b,
                        SimDuration::ZERO,
                        SWEEP_WARMUP,
                        SWEEP_ITERS,
                    );
                    run.seed = seed;
                    run
                })
            };
            let (mnb, _) = mpi(tr, BcastImpl::NicBased);
            let (mhb, _) = mpi(tr, BcastImpl::HostBinomial);
            *out.layers.entry("core.scenario.build_s").or_default() += (nb_t + hb_t).as_secs_f64();
            specs.push((size, nb, hb, mnb, mhb));
        }
        specs
    });
    out.setup = setup;

    let mut counters = Metrics::new();
    let (points, wall) = tr.span("run", |tr| {
        let mut points = Vec::new();
        for (size, nb, hb, mnb, mhb) in &specs {
            let mut gm_us = [0.0; 2];
            for (i, built) in [nb, hb].into_iter().enumerate() {
                let (r, t) = tr.span("core.scenario.run", |_| built.run());
                *out.layers.entry("core.scenario.run_s").or_default() += t.as_secs_f64();
                if r.latency.count() != u64::from(SWEEP_ITERS) {
                    out.failures.push(format!(
                        "{size} B: {} timed iterations, expected {SWEEP_ITERS}",
                        r.latency.count()
                    ));
                }
                if r.latency_p50 > r.latency_p99 {
                    out.failures.push(format!(
                        "{size} B: latency p50 {} > p99 {}",
                        r.latency_p50, r.latency_p99
                    ));
                }
                gm_us[i] = r.latency.mean();
                out.events += r.events;
                counters.merge(&r.metrics);
            }
            let mut mpi_us = [0.0; 2];
            for (i, run) in [mnb, mhb].into_iter().enumerate() {
                let (m, t) = tr.span("mpi.execute", |_| execute_mpi(run));
                *out.layers.entry("mpi.execute_s").or_default() += t.as_secs_f64();
                if m.latency.count() != u64::from(SWEEP_ITERS) {
                    out.failures.push(format!(
                        "{size} B MPI: {} timed broadcasts, expected {SWEEP_ITERS}",
                        m.latency.count()
                    ));
                }
                mpi_us[i] = m.latency.mean();
                out.events += m.events;
                counters.merge(&m.metrics);
            }
            points.push(SweepPoint {
                size: *size,
                nb_us: gm_us[0],
                hb_us: gm_us[1],
                mpi_nb_us: mpi_us[0],
                mpi_hb_us: mpi_us[1],
            });
        }
        points
    });
    out.wall = wall;

    for p in &points {
        if p.nb_us.partial_cmp(&p.hb_us) != Some(std::cmp::Ordering::Less) {
            out.failures.push(format!(
                "{} B: NIC-based {} us does not beat host-based {} us",
                p.size, p.nb_us, p.hb_us
            ));
        }
        // `{:?}` prints the shortest exact form, so equal digests mean
        // bit-identical latencies.
        let _ = writeln!(
            out.digest,
            "{} {:?} {:?} {:?} {:?}",
            p.size, p.nb_us, p.hb_us, p.mpi_nb_us, p.mpi_hb_us
        );
    }
    let _ = writeln!(out.digest, "events {}", out.events);

    // Closed-loop goodput: payload delivered to the destinations per
    // simulated second of back-to-back NIC-based collectives.
    let dests = f64::from(SWEEP_NODES - 1);
    let bytes: f64 = points.iter().map(|p| p.size as f64 * dests).sum();
    let busy_us: f64 = points.iter().map(|p| p.nb_us).sum();
    out.goodput_mbs = bytes / busy_us;

    let small = points
        .iter()
        .filter(|p| p.size <= 512)
        .map(|p| p.hb_us / p.nb_us)
        .fold(0.0, f64::max);
    let large = points
        .iter()
        .find(|p| p.size == 16384)
        .map_or(0.0, |p| p.hb_us / p.nb_us);
    let l = &mut out.layers;
    l.insert(
        "core.scenario.nb_latency_us",
        geomean(points.iter().map(|p| p.nb_us)),
    );
    l.insert(
        "mpi.nb_latency_us",
        geomean(points.iter().map(|p| p.mpi_nb_us)),
    );
    l.insert(
        "core.scenario.speedup_hb_over_nb",
        geomean(points.iter().map(|p| p.hb_us / p.nb_us)),
    );
    l.insert(
        "core.scenario.paper_err_pct",
        50.0 * ((small - PAPER_SMALL).abs() / PAPER_SMALL + (large - PAPER_16K).abs() / PAPER_16K),
    );
    l.insert("bare_run_s", wall.as_secs_f64());
    counter_layers(l, &counters);
    out
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x.ln(), n + 1));
    (sum / f64::from(n.max(1))).exp()
}

// ---------------------------------------------------------------------------
// Open-loop workloads
// ---------------------------------------------------------------------------

/// Latency percentiles are reported only where at least this many samples
/// lie beyond them.
const MIN_BEYOND: f64 = 10.0;

fn sustained(seed: u64) -> Workload {
    Workload::new(64)
        .groups(256)
        .fanout(FanoutDist::Zipf { exponent: 1.2 })
        .overlap(0.5)
        .arrivals(ArrivalProcess::Poisson { rate_hz: 10_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(8)))
        .warmup(SimDuration::from_micros(500))
        .size(256)
        .seed(seed)
        .shards(1)
}

fn observed_bare(seed: u64) -> Workload {
    Workload::new(32)
        .groups(64)
        .fanout(FanoutDist::Zipf { exponent: 1.2 })
        .overlap(0.5)
        .arrivals(ArrivalProcess::Poisson { rate_hz: 20_000.0 })
        .stop(StopCondition::Duration(SimDuration::from_millis(2)))
        .warmup(SimDuration::from_micros(500))
        .size(256)
        .seed(seed)
        .shards(1)
        .faults(FaultPlan {
            drop_prob: 0.02,
            ..FaultPlan::none()
        })
}

/// The observability configuration of each open-loop workload.
fn observes(kind: Kind) -> bool {
    kind == Kind::Observed
}

/// The workload as measured, and its bare twin: the same traffic with
/// probes, series and watch off.
fn open_loop_spec(kind: Kind, seed: u64, bare: bool) -> Workload {
    let w = match kind {
        Kind::Sustained => sustained(seed),
        Kind::Sharded => sustained(seed).shards(2),
        Kind::Observed => observed_bare(seed),
        Kind::BcastSweep => unreachable!("bcast_sweep is closed loop"),
    };
    if bare || !observes(kind) {
        return w;
    }
    w.probes(ProbeConfig::spans())
        .series(SeriesConfig::on())
        .watch(WatchConfig::on())
}

fn digest(
    report: &WorkloadReport,
    summary: &str,
    health: &str,
    summaries: &[gm_sim::GaugeSummary],
) -> String {
    let mut d = format!("{summary}\n{health}\nevents {}\n", report.events);
    for s in summaries {
        let _ = writeln!(
            d,
            "{} {} {} {} {} {} {:?}",
            s.gauge, s.node, s.min, s.max, s.last, s.mean_x1000, s.hist
        );
    }
    d
}

/// How many independent instances of `kind` the repeats of a run cycle
/// through; instance `k` runs on seed `seed + k * INSTANCE_STRIDE`, so
/// instance 0 runs on the run's own seed. The open-loop workloads' cost
/// depends on the traffic a seed happens to draw (`observed`'s analysis
/// time grows with the incidents it raises); cycling over eight instances
/// keeps one draw from setting a run's time. The sweep's work does not
/// depend on the seed.
pub fn instances(kind: Kind) -> u64 {
    match kind {
        Kind::BcastSweep => 1,
        _ => 8,
    }
}

const INSTANCE_STRIDE: u64 = 1_000_003;

pub fn instance_seed(seed: u64, instance: u64) -> u64 {
    seed.wrapping_add(instance.wrapping_mul(INSTANCE_STRIDE))
}

fn open_loop(
    kind: Kind,
    seed: u64,
    tr: &mut Tracer,
    traced: bool,
    reference: Option<&str>,
) -> Outcome {
    let mut out = Outcome::default();
    let (built, setup) = tr.span("core.workload.build", |_| {
        open_loop_spec(kind, seed, false)
            .build()
            .expect("benchmark workloads are valid")
    });
    out.setup = setup;

    // The timed calls: the run, then the artifacts a user reads.
    let ((report, summary, health, summaries), wall) = tr.span("run", |tr| {
        let (report, run_t) = tr.span("core.workload.run", |_| built.run());
        let (summary, _) = tr.span("report.summary_json", |_| report.summary_json());
        let (health, _) = tr.span("report.health_json", |_| report.health_json());
        let (summaries, sum_t) = tr.span("sim.series.summarize", |_| {
            report.series.summarize(report.end_time)
        });
        out.layers
            .insert("core.workload.run_s", run_t.as_secs_f64());
        out.layers
            .insert("sim.series.summarize_s", sum_t.as_secs_f64());
        (report, summary, health, summaries)
    });
    out.wall = wall;
    out.events = report.events;
    out.goodput_mbs = report.goodput_mbs;
    out.digest = digest(&report, &summary, &health, &summaries);
    check_open_loop(kind, &report, &mut out.failures);
    if reference.is_some_and(|want| out.digest != want) {
        out.failures
            .push("simulated output differs from the one-shard `sustained` run".into());
    }

    let samples = report.hist.count() as f64;
    let pct = |q: f64, v: f64| {
        if samples * (1.0 - q / 100.0) >= MIN_BEYOND {
            v
        } else {
            0.0
        }
    };
    let m = &report.metrics;
    let windows = m.get("parallel.windows");
    let l = &mut out.layers;
    l.insert("core.workload.build_s", setup.as_secs_f64());
    l.insert("sim.delivery.samples", samples);
    l.insert("sim.delivery.p50_us", pct(50.0, report.p50_us));
    l.insert("sim.delivery.p99_us", pct(99.0, report.p99_us));
    l.insert("sim.delivery.p999_us", pct(99.9, report.p999_us));
    l.insert("sim.delivery.fairness", report.fairness);
    l.insert("sim.probe.events", report.probe.len() as f64);
    l.insert("sim.series.points", report.series.len() as f64);
    l.insert("sim.watch.incidents", report.incidents.len() as f64);
    l.insert("sim.parallel.windows", windows as f64);
    l.insert(
        "sim.parallel.events_per_window",
        if windows == 0 {
            0.0
        } else {
            report.events as f64 / windows as f64
        },
    );
    l.insert(
        "sim.parallel.barrier_waits",
        m.get("parallel.barrier_waits") as f64,
    );
    l.insert(
        "sim.parallel.event_imbalance_pct",
        m.get("parallel.event_imbalance_pct") as f64,
    );
    counter_layers(l, m);

    if traced {
        traced_extras(kind, seed, tr, &report, &mut out);
    }
    out
}

fn check_open_loop(kind: Kind, report: &WorkloadReport, failures: &mut Vec<String>) {
    let m = &report.metrics;
    let (installs, frees) = (
        m.get("nic.mcast_group_installs"),
        m.get("nic.mcast_group_frees"),
    );
    if installs != frees {
        failures.push(format!("{installs} group installs but {frees} frees"));
    }
    if !(report.p50_us <= report.p99_us && report.p99_us <= report.p999_us) {
        failures.push(format!(
            "percentiles not monotone: p50 {} p99 {} p999 {}",
            report.p50_us, report.p99_us, report.p999_us
        ));
    }
    for key in ["probe.dropped_events", "series.dropped_points"] {
        if m.get(key) > 0 {
            failures.push(format!("{key} = {}", m.get(key)));
        }
    }
    if kind == Kind::Observed
        && !report
            .incidents
            .iter()
            .any(|i| i.detector == "retx_storm" && !i.flows.is_empty())
    {
        failures.push("no retx_storm incident with flow evidence".into());
    }
}

/// The traced run's extra calls: the bare twin (and, for `sharded`, the
/// one-shard run), then each analysis function called again on the run's
/// own outputs so its cost can be read from outside.
fn traced_extras(
    kind: Kind,
    seed: u64,
    tr: &mut Tracer,
    report: &WorkloadReport,
    out: &mut Outcome,
) {
    let (built, _) = tr.span("twin.build", |_| {
        open_loop_spec(kind, seed, true)
            .build()
            .expect("benchmark workloads are valid")
    });
    let (_, t) = tr.span("twin.run", |_| built.run());
    out.layers.insert("bare_run_s", t.as_secs_f64());
    if kind == Kind::Sharded {
        let built = sustained(seed)
            .build()
            .expect("benchmark workloads are valid");
        let (_, t) = tr.span("sequential.run", |_| built.run());
        out.layers.insert("sequential_run_s", t.as_secs_f64());
    }

    let (events, t) = tr.span("sim.probe.to_vec", |_| report.probe.to_vec());
    out.layers.insert("sim.probe.to_vec_s", t.as_secs_f64());
    let (flows, t) = tr.span("sim.critical_path.build", |_| {
        FlowGraph::build(&events).flows().count()
    });
    out.layers
        .insert("sim.critical_path.build_s", t.as_secs_f64());
    out.layers.insert("sim.critical_path.flows", flows as f64);

    let config = if observes(kind) {
        WatchConfig::on()
    } else {
        WatchConfig::off()
    };
    let engine = WatchEngine::new(config).detectors(GmParams::default().watch_detectors());
    let (_, t) = tr.span("sim.watch.scan", |_| {
        let mut incidents = engine.scan_series(report.series.iter());
        incidents.extend(engine.scan_metrics(&report.metrics, report.end_time));
        incidents
    });
    out.layers.insert("sim.watch.scan_s", t.as_secs_f64());

    let mut incidents = report.incidents.clone();
    for i in &mut incidents {
        i.flows.clear();
        i.signature.clear();
    }
    let (_, t) = tr.span("sim.watch.attach_evidence", |_| {
        watch::attach_evidence(&mut incidents, &events);
    });
    out.layers
        .insert("sim.watch.attach_evidence_s", t.as_secs_f64());
    if incidents != report.incidents {
        out.failures
            .push("evidence attached again differs from the run's own evidence".into());
    }
}

/// The `gm.nic` and `myrinet.fabric` counters of a report's `metrics`.
fn counter_layers(l: &mut BTreeMap<&'static str, f64>, m: &Metrics) {
    for (name, key) in [
        ("gm.nic.mcast_tx", "nic.mcast_tx"),
        ("gm.nic.mcast_fwd", "nic.mcast_fwd"),
        ("gm.nic.mcast_retx_tx", "nic.mcast_retx_tx"),
        ("gm.nic.unknown_group_drops", "nic.mcast_unknown_group"),
        ("gm.nic.admission_waits", "nic.mcast_group_admission_waits"),
        ("gm.nic.out_of_order", "nic.mcast_out_of_order"),
        ("myrinet.fabric.delivered", "fabric.delivered"),
        ("myrinet.fabric.wire_bytes", "fabric.wire_bytes"),
        ("myrinet.fabric.stall_ns", "fabric.stall_ns"),
        ("myrinet.fabric.dropped_random", "fabric.dropped_random"),
    ] {
        l.insert(name, m.get(key) as f64);
    }
    let (tx, retx) = (m.get("nic.mcast_tx"), m.get("nic.mcast_retx_tx"));
    l.insert(
        "gm.nic.retx_share",
        if tx == 0 {
            0.0
        } else {
            retx as f64 / tx as f64
        },
    );
}

/// One repeat of `kind`. `traced` adds the extra calls per-layer numbers
/// need; `reference` is the digest `sharded` must reproduce.
pub fn run(
    kind: Kind,
    seed: u64,
    tr: &mut Tracer,
    traced: bool,
    reference: Option<&str>,
) -> Outcome {
    let (out, _) = tr.span("workload", |tr| match kind {
        Kind::BcastSweep => bcast_sweep(seed, tr),
        _ => open_loop(kind, seed, tr, traced, reference),
    });
    out
}
