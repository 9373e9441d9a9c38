//! End-to-end and per-layer benchmark of the multicast simulator.
//!
//! ```console
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sustained --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--workload all` (the default) runs the four workloads one after another
//! in this process. Each run repeats the workload until `--seconds` have
//! passed, checks every repeat's outputs, prints each metric by name with
//! its unit, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! alternates untraced and traced repeats, so the overhead of keeping spans
//! is measured in the same process; it writes the spans and each layer's
//! self time to `e2ebench/out/`. See `e2ebench/README.md` for what every
//! metric means.

mod calibrate;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};

use trace::Tracer;
use workloads::{Kind, Outcome};

/// Settings the measured program would otherwise read from the
/// environment. The benchmark pins shards, queue and dispatch itself, so a
/// run with any of them set is refused rather than silently measuring
/// something else.
const PINNED_ENV: [&str; 4] = [
    "MYRI_SIM_SHARDS",
    "MYRI_SIM_QUEUE",
    "MYRI_SIM_BATCH",
    "MYRI_SIM_FORCE_THREADS",
];

/// Timed repeats a run makes even when `--seconds` runs out first.
const MIN_REPEATS: usize = 3;

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput_mbs", "MB/s"),
];

/// Per-layer metrics: `(name, unit)`. A layer the workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("core.workload.build_s", "s"),
    ("core.workload.run_s", "s"),
    ("core.workload.observe_overhead_s", "s"),
    ("core.workload.analysis_share", "ratio"),
    ("core.scenario.build_s", "s"),
    ("core.scenario.run_s", "s"),
    ("core.scenario.nb_latency_us", "sim_us"),
    ("core.scenario.speedup_hb_over_nb", "x"),
    ("core.scenario.paper_err_pct", "%"),
    ("mpi.execute_s", "s"),
    ("mpi.nb_latency_us", "sim_us"),
    ("sim.engine.events", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.parallel.windows", "count"),
    ("sim.parallel.events_per_window", "count"),
    ("sim.parallel.barrier_waits", "count"),
    ("sim.parallel.event_imbalance_pct", "%"),
    ("sim.parallel.speedup", "x"),
    ("sim.delivery.samples", "count"),
    ("sim.delivery.p50_us", "sim_us"),
    ("sim.delivery.p99_us", "sim_us"),
    ("sim.delivery.p999_us", "sim_us"),
    ("sim.delivery.fairness", "jain"),
    ("sim.probe.events", "count"),
    ("sim.probe.to_vec_s", "s"),
    ("sim.critical_path.build_s", "s"),
    ("sim.critical_path.flows", "count"),
    ("sim.series.points", "count"),
    ("sim.series.summarize_s", "s"),
    ("sim.watch.scan_s", "s"),
    ("sim.watch.incidents", "count"),
    ("sim.watch.attach_evidence_s", "s"),
    ("gm.nic.mcast_tx", "count"),
    ("gm.nic.mcast_fwd", "count"),
    ("gm.nic.mcast_retx_tx", "count"),
    ("gm.nic.retx_share", "ratio"),
    ("gm.nic.unknown_group_drops", "count"),
    ("gm.nic.admission_waits", "count"),
    ("gm.nic.out_of_order", "count"),
    ("myrinet.fabric.delivered", "count"),
    ("myrinet.fabric.wire_bytes", "bytes"),
    ("myrinet.fabric.stall_ns", "sim_ns"),
    ("myrinet.fabric.dropped_random", "count"),
    ("bench.trace_overhead_pct", "%"),
];

const USAGE: &str = "usage: e2ebench [--workload bcast_sweep|sustained|observed|sharded|all] \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Kind::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}\n{USAGE}");
        exit(2)
    });
    for var in PINNED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("e2ebench: refusing to run with {var} set: the benchmark pins it; unset it");
            exit(2);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    for kind in &args.workloads {
        bench(*kind, &args, nproc);
    }
}

/// One accepted repeat: what it measured, the instance it ran, and the
/// calibration kernel's mean time around it.
struct Sample {
    out: Outcome,
    instance: u64,
    kernel_s: f64,
}

/// What a run collected over its repeats.
struct Run {
    attempted: u64,
    failed: u64,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    /// Each instance's simulated goodput (identical on every repeat).
    goodput: Vec<Option<f64>>,
    peak_rss_mb: f64,
}

fn bench(kind: Kind, args: &Args, nproc: usize) {
    let mut tr = Tracer::new();
    let k = workloads::instances(kind);
    let seed_of = |i: u64| workloads::instance_seed(args.seed, i);
    let mut digests: Vec<Option<String>> = vec![None; k as usize];
    let mut references: Vec<Option<String>> = vec![None; k as usize];
    let mut run = Run {
        attempted: 0,
        failed: 0,
        untraced: Vec::new(),
        traced: Vec::new(),
        goodput: vec![None; k as usize],
        peak_rss_mb: 0.0,
    };
    // Untraced and traced repeats each cycle through the instances.
    let mut cycle = [0u64; 2];
    let mut deadline = None;
    // Repeat 0 (instance 0) warms caches and the allocator; it is checked,
    // but its times are not used.
    for repeat in 0u32.. {
        let traced = args.trace && repeat % 2 == 0 && repeat > 0;
        let instance = if repeat == 0 {
            0
        } else {
            let c = &mut cycle[usize::from(traced)];
            *c += 1;
            (*c - 1) % k
        };
        let i = instance as usize;
        // `sharded` must reproduce the one-shard `sustained` run of the same
        // instance byte for byte; that run is made once, untimed.
        let reference = (kind == Kind::Sharded).then(|| {
            references[i]
                .get_or_insert_with(|| {
                    catch_unwind(|| {
                        let mut untraced = Tracer::new();
                        workloads::run(
                            Kind::Sustained,
                            seed_of(instance),
                            &mut untraced,
                            false,
                            None,
                        )
                        .digest
                    })
                    .unwrap_or_default()
                })
                .clone()
        });
        // The warmup repeat runs uncalibrated, so the peak memory read after
        // it is the workload's alone.
        let measure_speed = || {
            if repeat == 0 {
                0.0
            } else {
                calibrate::kernel().as_secs_f64()
            }
        };
        let kernel_s = measure_speed();
        tr.begin_repeat(repeat, traced);
        let mark = tr.mark();
        let result = catch_unwind(AssertUnwindSafe(|| {
            workloads::run(
                kind,
                seed_of(instance),
                &mut tr,
                traced,
                reference.as_deref(),
            )
        }));
        // Calibrate on both sides of the repeat, to sample the host's speed
        // around the time the repeat actually ran.
        let kernel_s = (kernel_s + measure_speed()) / 2.0;
        run.attempted += 1;
        match result {
            Ok(mut out) => {
                match &digests[i] {
                    None => digests[i] = Some(out.digest.clone()),
                    Some(d) if *d != out.digest => out
                        .failures
                        .push("simulated output differs from the instance's first repeat".into()),
                    Some(_) => {}
                }
                if out.failures.is_empty() {
                    run.goodput[i].get_or_insert(out.goodput_mbs);
                    if repeat > 0 {
                        let set = if traced {
                            &mut run.traced
                        } else {
                            &mut run.untraced
                        };
                        set.push(Sample {
                            out,
                            instance,
                            kernel_s,
                        });
                    }
                } else {
                    run.failed += 1;
                    for f in &out.failures {
                        eprintln!(
                            "e2ebench: {} repeat {repeat} (instance {instance}): check failed: {f}",
                            kind.name()
                        );
                    }
                }
            }
            Err(_) => {
                run.failed += 1;
                tr.truncate(mark);
                eprintln!(
                    "e2ebench: {} repeat {repeat} (instance {instance}) panicked",
                    kind.name()
                );
            }
        }
        // Peak memory of one execution from a fresh process: later repeats
        // would add the allocator's fragmentation history to it.
        if repeat == 0 {
            run.peak_rss_mb = read_peak_rss_mb();
        }
        // Measure for `--seconds`, then at most as long again to reach the
        // minimum sample (every instance seen, MIN_REPEATS of each kind).
        let seconds = Duration::from_secs_f64(args.seconds);
        let deadline = *deadline.get_or_insert_with(|| Instant::now() + seconds);
        let enough = run.untraced.len() >= MIN_REPEATS.max(k as usize)
            && run.goodput.iter().all(Option::is_some)
            && (!args.trace || run.traced.len() >= MIN_REPEATS);
        let now = Instant::now();
        if now >= deadline && (enough || now >= deadline + seconds) {
            break;
        }
    }
    report(kind, args, nproc, &run, &tr);
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The highest sample with at least ten samples above it, if there are
/// more than ten.
fn high(xs: &[f64]) -> Option<(f64, usize)> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    (s.len() > 10).then(|| (s[s.len() - 11], s.len()))
}

/// Factor that turns this set's host seconds into reference-host seconds.
fn speed_scale(samples: &[Sample]) -> f64 {
    let kernel = median(samples.iter().map(|s| s.kernel_s).collect());
    if kernel > 0.0 {
        calibrate::REFERENCE_S / kernel
    } else {
        1.0
    }
}

fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn report(kind: Kind, args: &Args, nproc: usize, run: &Run, tr: &Tracer) {
    let u = &run.untraced;
    let scale = speed_scale(u);
    let walls: Vec<f64> = u.iter().map(|s| s.out.wall.as_secs_f64()).collect();
    let setups: Vec<f64> = u.iter().map(|s| s.out.setup.as_secs_f64()).collect();
    let rates: Vec<f64> = u
        .iter()
        .map(|s| s.out.events as f64 / s.out.wall.as_secs_f64())
        .collect();
    let wall = median(walls.clone()) * scale;
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("wall_s", wall);
    e2e.insert("setup_s", median(setups.clone()) * scale);
    e2e.insert("events_per_s", median(rates.clone()) / scale);
    e2e.insert("peak_rss_mb", run.peak_rss_mb);
    let goodput: Vec<f64> = run.goodput.iter().flatten().copied().collect();
    e2e.insert(
        "sim_goodput_mbs",
        goodput.iter().sum::<f64>() / goodput.len().max(1) as f64,
    );

    println!(
        "workload {}  seed {}  instances {}  nproc {nproc}  repeats {} attempted, {} failed (failed_share {:.4}), {} timed{}",
        kind.name(),
        args.seed,
        run.goodput.len(),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted as f64,
        u.len(),
        if args.trace { format!(" + {} traced", run.traced.len()) } else { String::new() },
    );
    println!(
        "  host speed {:.3}x reference (calibration kernel median {:.6} s); \
         host times below are reference-host seconds, raw host samples in brackets",
        1.0 / scale,
        calibrate::REFERENCE_S / scale,
    );
    for (name, unit) in END_TO_END {
        let samples = match name {
            "wall_s" => Some(&walls),
            "setup_s" => Some(&setups),
            "events_per_s" => Some(&rates),
            _ => None,
        };
        let spread = samples.map_or(String::new(), |xs| {
            let hi = high(xs).map_or(String::new(), |(v, n)| {
                format!(", p{:.0} {v:.6}", 100.0 * (n - 10) as f64 / n as f64)
            });
            format!(
                "  [raw median {:.6}{hi}, n={}]",
                median(xs.clone()),
                xs.len()
            )
        });
        println!("  {name:<34} {:>16.6} {unit}{spread}", e2e[name]);
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layers = per_layer(kind, run, wall);
        for (name, unit) in PER_LAYER {
            println!("  {name:<34} {:>16.6} {unit}", layers[name]);
        }
        let self_times = tr.self_times();
        println!("  raw self time per traced repeat:");
        for (name, s) in &self_times {
            println!("    {name:<32} {s:>14.6} s");
        }
        write_spans(kind, args, nproc, tr, &self_times, &layers);
        PER_LAYER.iter().map(|&(n, u)| (n, u, layers[n])).collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n, u, e2e[n])).collect()
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
}

/// Per-layer numbers. Host times are medians over the traced repeats, in
/// reference-host seconds like the end-to-end ones; counts and simulated
/// values are instance 0's, which repeat exactly for a seed.
fn per_layer(kind: Kind, run: &Run, untraced_wall: f64) -> BTreeMap<&'static str, f64> {
    let t = &run.traced;
    let scale = speed_scale(t);
    let host = |name: &str| {
        scale
            * median(
                t.iter()
                    .map(|s| s.out.layers.get(name).copied().unwrap_or(0.0))
                    .collect(),
            )
    };
    let first = t.iter().find(|s| s.instance == 0).map(|s| &s.out);
    let exact = |name: &str| {
        first
            .and_then(|o| o.layers.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let mut l: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(n, unit)| (n, if unit == "s" { host(n) } else { exact(n) }))
        .collect();
    let traced_wall = scale * median(t.iter().map(|s| s.out.wall.as_secs_f64()).collect());
    let bare = host("bare_run_s");
    l.insert("sim.engine.events", first.map_or(0, |o| o.events) as f64);
    l.insert(
        "sim.engine.ns_per_event",
        scale
            * 1e9
            * median(
                t.iter()
                    .map(|s| {
                        s.out.layers.get("bare_run_s").copied().unwrap_or(0.0)
                            / s.out.events.max(1) as f64
                    })
                    .collect(),
            ),
    );
    if kind != Kind::BcastSweep {
        l.insert(
            "core.workload.observe_overhead_s",
            l["core.workload.run_s"] - bare,
        );
        l.insert(
            "core.workload.analysis_share",
            (traced_wall - bare) / traced_wall,
        );
    }
    l.insert(
        "sim.parallel.speedup",
        if kind == Kind::Sharded {
            host("sequential_run_s") / l["core.workload.run_s"]
        } else {
            1.0
        },
    );
    l.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
    );
    l
}

/// A metric value as JSON: every digit, and 0 for a ratio whose base was
/// 0 (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

fn write_spans(
    kind: Kind,
    args: &Args,
    nproc: usize,
    tr: &Tracer,
    self_times: &BTreeMap<&str, f64>,
    layers: &BTreeMap<&str, f64>,
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", kind.name(), args.seed));
    let header = [
        ("workload", format!("\"{}\"", kind.name())),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        (
            "bench.trace_overhead_pct",
            json_number(layers["bench.trace_overhead_pct"]),
        ),
    ];
    let json = tr.to_json(&header, self_times);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
    }
}
