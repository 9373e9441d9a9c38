//! Health explorer: drive a lossy many-group Zipf workload with the full
//! observability stack on — span probes, gauge series, and the `sim::watch`
//! detector set — and report the incident stream: what fired, when, how
//! hard, and which flows were causally active in each incident window.
//!
//! ```console
//! cargo run --release -p bench --bin health_explore -- \
//!     --nodes 32 --groups 64 --rate 20000 --duration-ms 2 --loss 0.02
//! ```
//!
//! The run writes `results/health_explore.json`, a machine-readable
//! artifact (`report_diff` compares two of them across runs or commits).
//!
//! `--check` turns the run into a CI gate: the incident stream must be
//! byte-identical when the same run is re-executed at a different shard
//! count, a lossy run must raise at least one `retx_storm` incident with
//! non-empty flow evidence, and neither observability ring may overflow.
//! Without `--check`, a ring overflow is a warning on stderr.

use gm_sim::{ProbeConfig, SeriesConfig, SimDuration, WatchConfig};
use nic_mcast::{
    ArrivalProcess, FanoutDist, Incident, StopCondition, Workload, WorkloadReport,
};

struct Opts {
    nodes: u32,
    groups: usize,
    zipf: f64,
    overlap: f64,
    rate: f64,
    duration_ms: u64,
    warmup_us: u64,
    size: usize,
    loss: f64,
    seed: u64,
    shards: u32,
    window_us: Option<u64>,
    probe_capacity: usize,
    series_capacity: usize,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: health_explore [--nodes N] [--groups N] [--zipf EXP] [--overlap P] \
         [--rate HZ] [--duration-ms MS] [--warmup-us US] [--size BYTES] [--loss P] \
         [--seed S] [--shards N] [--window-us US] \
         [--probe-capacity N] [--series-capacity N] [--check]"
    );
    std::process::exit(2)
}

fn parse() -> Opts {
    let mut o = Opts {
        nodes: 32,
        groups: 64,
        zipf: 1.2,
        overlap: 0.5,
        rate: 20_000.0,
        duration_ms: 2,
        warmup_us: 500,
        size: 256,
        loss: 0.02,
        seed: 1,
        shards: 1,
        window_us: None,
        probe_capacity: 1 << 20,
        series_capacity: 1 << 20,
        check: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let val = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => o.nodes = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--groups" => o.groups = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--zipf" => o.zipf = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--overlap" => o.overlap = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rate" => o.rate = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--duration-ms" => o.duration_ms = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--warmup-us" => o.warmup_us = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--size" => o.size = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--loss" => o.loss = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" => o.shards = val(&mut i).parse().unwrap_or_else(|_| usage()),
            "--window-us" => o.window_us = Some(val(&mut i).parse().unwrap_or_else(|_| usage())),
            "--probe-capacity" => {
                o.probe_capacity = val(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--series-capacity" => {
                o.series_capacity = val(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--check" => o.check = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn run(o: &Opts, shards: u32) -> WorkloadReport {
    let watch = match o.window_us {
        Some(us) => WatchConfig::with_window(SimDuration::from_micros(us)),
        None => WatchConfig::on(),
    };
    Workload::new(o.nodes)
        .groups(o.groups)
        .fanout(FanoutDist::Zipf { exponent: o.zipf })
        .overlap(o.overlap)
        .arrivals(ArrivalProcess::Poisson { rate_hz: o.rate })
        .stop(StopCondition::Duration(SimDuration::from_millis(o.duration_ms)))
        .warmup(SimDuration::from_micros(o.warmup_us))
        .size(o.size)
        .seed(o.seed)
        .shards(shards)
        .faults(myrinet::FaultPlan {
            drop_prob: o.loss,
            ..myrinet::FaultPlan::none()
        })
        .probes(ProbeConfig::spans_with_capacity(o.probe_capacity))
        .series(SeriesConfig::with_capacity(o.series_capacity))
        .watch(watch)
        .run()
}

/// The machine-readable artifact `report_diff` compares: headline summary
/// plus the full (non-exec) incident stream, all deterministic fields.
fn artifact(o: &Opts, report: &WorkloadReport) -> serde::Value {
    let mut doc = serde::Value::Map(vec![]);
    let mut cfg = serde::Value::Map(vec![]);
    cfg.insert("nodes", serde::Value::UInt(o.nodes as u64));
    cfg.insert("groups", serde::Value::UInt(o.groups as u64));
    cfg.insert("rate_hz", serde::Value::Float(o.rate));
    cfg.insert("loss", serde::Value::Float(o.loss));
    cfg.insert("seed", serde::Value::UInt(o.seed));
    doc.insert("config", cfg);
    let mut sum = serde::Value::Map(vec![]);
    sum.insert("groups", serde::Value::UInt(report.groups as u64));
    sum.insert("messages", serde::Value::UInt(report.messages));
    sum.insert("delivered", serde::Value::UInt(report.delivered));
    sum.insert("p50_us", serde::Value::Float(report.p50_us));
    sum.insert("p99_us", serde::Value::Float(report.p99_us));
    sum.insert("p999_us", serde::Value::Float(report.p999_us));
    sum.insert("goodput_mbs", serde::Value::Float(report.goodput_mbs));
    sum.insert("fairness", serde::Value::Float(report.fairness));
    sum.insert(
        "retransmissions",
        serde::Value::UInt(
            report.metrics.get("nic.retransmissions")
                + report.metrics.get("nic.mcast_retransmissions"),
        ),
    );
    sum.insert("admission_waits", serde::Value::UInt(report.admission_waits));
    doc.insert("summary", sum);
    let incidents: Vec<serde::Value> = report
        .incidents
        .iter()
        .filter(|i| !i.is_exec())
        .map(|i| {
            let mut m = serde::Value::Map(vec![]);
            m.insert("start_ns", serde::Value::UInt(i.window.0.as_nanos()));
            m.insert("end_ns", serde::Value::UInt(i.window.1.as_nanos()));
            m.insert("detector", serde::Value::Str(i.detector.to_string()));
            m.insert("severity", serde::Value::Str(i.severity.name().to_string()));
            m.insert("node", serde::Value::UInt(i.node as u64));
            m.insert("value", serde::Value::UInt(i.value));
            m.insert("threshold", serde::Value::Str(i.threshold.to_string()));
            m.insert(
                "flows",
                serde::Value::Seq(
                    i.flows
                        .iter()
                        .map(|f| serde::Value::Str(f.to_string()))
                        .collect(),
                ),
            );
            m.insert("signature", serde::Value::Str(i.signature.clone()));
            m
        })
        .collect();
    doc.insert("incidents", serde::Value::Seq(incidents));
    doc
}

fn check(o: &Opts, report: &WorkloadReport) -> Vec<String> {
    let mut failures = Vec::new();
    failures.extend(bench::ring_drops(&report.metrics));
    if o.loss > 0.0 {
        // Loss must surface as a detected retransmission storm with causal
        // flow evidence — the tentpole guarantee of the watch subsystem.
        match report
            .incidents
            .iter()
            .find(|i| i.detector == "retx_storm")
        {
            None => failures.push(format!(
                "loss {} injected but no retx_storm incident was raised",
                o.loss
            )),
            Some(storm) if storm.flows.is_empty() => {
                failures.push("retx_storm incident carries no flow evidence".into());
            }
            Some(_) => {}
        }
    }
    // The stream must already be in canonical order (sorted on merge).
    let keys: Vec<_> = report
        .incidents
        .iter()
        .map(|i| (i.window.0, i.detector, i.node, i.window.1))
        .collect();
    if keys.windows(2).any(|w| w[0] > w[1]) {
        failures.push("incident stream is not in canonical order".into());
    }
    // Shard invariance: the same run at a different shard count must
    // produce the byte-identical health summary.
    let other_shards = if o.shards == 1 { 2 } else { 1 };
    let other = run(o, other_shards);
    if other.health_json() != report.health_json() {
        failures.push(format!(
            "health summary differs between {} and {other_shards} shards",
            o.shards
        ));
    }
    failures
}

fn main() {
    let started = std::time::Instant::now();
    let o = parse();
    let (report, run_wall, drive) = bench::phases::timed_run(|| run(&o, o.shards));
    let summarize_started = std::time::Instant::now();
    let gauges = report.series.summarize(report.end_time).len();
    let summarize = summarize_started.elapsed();

    let mut by_detector: std::collections::BTreeMap<&str, (usize, u64, &Incident)> =
        std::collections::BTreeMap::new();
    for i in report.incidents.iter().filter(|i| !i.is_exec()) {
        let e = by_detector.entry(i.detector).or_insert((0, 0, i));
        e.0 += 1;
        if i.value >= e.1 {
            e.1 = i.value;
            e.2 = i;
        }
    }

    println!(
        "{} nodes, {} groups, loss {:.2}%, {} scheduled messages over {:.2} ms simulated:",
        o.nodes,
        report.groups,
        o.loss * 100.0,
        report.messages,
        report.end_time.as_micros_f64() / 1e3,
    );
    println!(
        "  delivery latency: p50 {:>9.2} us   p99 {:>9.2} us   fairness {:.4}",
        report.p50_us, report.p99_us, report.fairness
    );
    println!(
        "  protocol:         {} retransmissions, {} admission waits",
        report.metrics.get("nic.retransmissions") + report.metrics.get("nic.mcast_retransmissions"),
        report.admission_waits,
    );
    println!("  gauges:           {gauges} (node, gauge) step functions summarized");
    println!("  {}", bench::phases::line(run_wall, drive, summarize));

    let total = report.incidents.iter().filter(|i| !i.is_exec()).count();
    println!("\nincidents ({total}, by detector — peak firing shown with its evidence):");
    if by_detector.is_empty() {
        println!("  (none — the run stayed inside every detector's envelope)");
    }
    for (det, (count, _, peak)) in &by_detector {
        println!(
            "  {:<26} {:>4} incident(s)  [{}]",
            det,
            count,
            peak.severity.name()
        );
        println!(
            "    peak: value {} (threshold {}) in [{} us, {} us) on {}",
            peak.value,
            peak.threshold,
            peak.window.0.as_micros_f64(),
            peak.window.1.as_micros_f64(),
            if peak.node == u32::MAX {
                "cluster".to_string()
            } else {
                format!("node {}", peak.node)
            },
        );
        if !peak.flows.is_empty() {
            let flows: Vec<String> = peak.flows.iter().take(4).map(std::string::ToString::to_string).collect();
            println!("    flows: {}", flows.join(", "));
        }
        if !peak.signature.is_empty() {
            println!("    critical path: {}", peak.signature);
        }
    }

    bench::write_json("health_explore", &artifact(&o, &report));

    if report.metrics.get("parallel.shards") > 1 {
        bench::perf::note_imbalance(report.metrics.get("parallel.event_imbalance_pct"));
    }
    bench::perf::record("health_explore", started.elapsed());

    if o.check {
        let failures = check(&o, &report);
        if failures.is_empty() {
            println!(
                "health check: OK ({total} incidents, storm evidence present, stream canonical, \
                 byte-identical across shard counts, no ring drops)"
            );
        } else {
            for f in &failures {
                eprintln!("health check FAILED: {f}");
            }
            std::process::exit(1);
        }
    } else {
        for msg in bench::ring_drops(&report.metrics) {
            eprintln!("warning: {msg}");
        }
    }
}
