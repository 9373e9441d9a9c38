//! CI perf-regression gate: compare a freshly recorded dispatch rate in
//! `results/perf_baseline.json` against a pre-run snapshot of the same
//! file and fail when the rate dropped by more than the allowed fraction.
//!
//! ```console
//! cp results/perf_baseline.json /tmp/perf_before.json
//! cargo run --release -p bench --bin ext_scalability -- --iters 10
//! cargo run --release -p bench --bin perf_gate -- \
//!     ext_scalability /tmp/perf_before.json results/perf_baseline.json 0.25
//! ```
//!
//! Rates compare per-key `events_per_sec` (a rate, so baseline and gate
//! runs may use different iteration counts). A missing key on either side
//! passes with a note — a new binary has no baseline yet. The
//! host-independent checks run first, on any host: `allocs_per_event` and
//! `event_imbalance_pct`, when both sides recorded them. The rate is then
//! not compared across different `cores` counts: a single-core CI runner
//! measuring a 4-shard record from a 16-core box would always "regress".
//! When no other check ran, that refusal passes loudly: it prints a line
//! starting with `SKIP` to stderr, which `scripts/ci.sh` counts.

use serde::Value;

fn field<'a>(map: &'a Value, name: &str) -> Option<&'a Value> {
    match map {
        Value::Map(m) => m.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        std::process::exit(2)
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("perf_gate: {path} is not valid JSON: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (key, before_path, after_path) = match &args[..] {
        [_, k, b, a] | [_, k, b, a, _] => (k.as_str(), b.as_str(), a.as_str()),
        _ => {
            eprintln!("usage: perf_gate <key> <baseline.json> <current.json> [max-regression]");
            std::process::exit(2)
        }
    };
    let max_regress: f64 = args
        .get(4)
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("perf_gate: bad max-regression {s:?}");
                std::process::exit(2)
            })
        })
        .unwrap_or(0.25);

    let before = load(before_path);
    let after = load(after_path);
    let (Some(b), Some(a)) = (field(&before, key), field(&after, key)) else {
        println!("perf_gate: no `{key}` entry on both sides — nothing to compare, passing");
        return;
    };
    let both = |name: &str| {
        field(b, name)
            .and_then(as_f64)
            .zip(field(a, name).and_then(as_f64))
    };
    // Whether a host-independent check ran (so a core mismatch below skips
    // only the rate, not the whole gate).
    let mut compared = false;
    // Allocation churn, when both sides were measured with `alloc-count`.
    // Counts are near-deterministic (unlike wall-clock rates) and do not
    // depend on the host's cores, so the allowed headroom is a tight 10%.
    if let Some((apb, apa)) = both("allocs_per_event") {
        compared = true;
        println!(
            "perf_gate: `{key}` {apa:.3} allocs/event vs baseline {apb:.3} ({:+.1}%)",
            (apa / apb.max(f64::MIN_POSITIVE) - 1.0) * 100.0
        );
        if apa > apb * 1.10 {
            eprintln!(
                "perf_gate: FAIL — allocations per event regressed more than 10% \
                 (set MYRI_CI_NO_PERF=1 to skip the gate)"
            );
            std::process::exit(1);
        }
    }
    // Sharding balance, when both sides recorded one (sharded runs report
    // `parallel.event_imbalance_pct` through `bench::perf::note_imbalance`).
    // The partition is deterministic, so the gate allows 10 percentage
    // points of drift before calling a placement regression.
    if let Some((imb_b, imb_a)) = both("event_imbalance_pct") {
        compared = true;
        println!(
            "perf_gate: `{key}` {imb_a:.0}% event imbalance vs baseline {imb_b:.0}%"
        );
        if imb_a > imb_b + 10.0 {
            eprintln!(
                "perf_gate: FAIL — shard event imbalance regressed more than 10 points \
                 (set MYRI_CI_NO_PERF=1 to skip the gate)"
            );
            std::process::exit(1);
        }
    }
    let Some((rate_b, rate_a)) = both("events_per_sec") else {
        println!("perf_gate: `{key}` lacks events_per_sec on one side, passing");
        return;
    };
    if let Some((cores_b, cores_a)) = both("cores") {
        if cores_b != cores_a {
            let note = format!(
                "`{key}` recorded on {cores_b}-core vs {cores_a}-core hosts — \
                 dispatch rates not comparable"
            );
            if compared {
                println!("perf_gate: {note}; rate not compared");
                println!("perf_gate: OK");
            } else {
                // Loud on purpose: `scripts/ci.sh` counts these lines and
                // names the count in its final status.
                eprintln!("SKIP perf_gate: {note}, passing");
            }
            return;
        }
    }
    let ratio = rate_a / rate_b;
    println!(
        "perf_gate: `{key}` {rate_a:.0} ev/s vs baseline {rate_b:.0} ev/s ({:+.1}%)",
        (ratio - 1.0) * 100.0
    );
    if ratio < 1.0 - max_regress {
        eprintln!(
            "perf_gate: FAIL — dispatch rate regressed more than {:.0}% \
             (set MYRI_CI_NO_PERF=1 to skip the gate)",
            max_regress * 100.0
        );
        std::process::exit(1);
    }
    println!("perf_gate: OK (allowed regression {:.0}%)", max_regress * 100.0);
}
