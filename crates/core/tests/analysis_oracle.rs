//! Differential tests for the post-run analysis layer.
//!
//! `FlowGraph::critical_path`, `watch::attach_evidence` and
//! `SeriesSink::summarize` answer every query from tables built in one pass
//! over the recorded stream. The `reference` module keeps the direct
//! formulations they replaced: a full scan of the probe stream per window
//! (twice for a critical path, once more per incident for the flow
//! filter) and a rescan of every gauge point per `(gauge, node)` key. Both
//! must agree exactly, on the real `observed` benchmark configuration and
//! on randomized streams built to hit the edge cases.

use std::collections::BTreeMap;

use gm_sim::critical_path::{CriticalPath, PathStep};
use gm_sim::probe::{Phase, ProbeEvent, ProbeId, Track};
use gm_sim::series::GaugeSummary;
use gm_sim::watch::{self, Incident, Severity, Thresh, CLUSTER_NODE, MAX_EVIDENCE_FLOWS};
use gm_sim::{
    FlowGraph, FlowId, ProbeConfig, SeriesConfig, SeriesSink, SimDuration, SimTime, WatchConfig,
    FLOW_DELIVERY, HIST_BINS,
};
use myrinet::FaultPlan;
use nic_mcast::{ArrivalProcess, FanoutDist, StopCondition, Workload, WorkloadReport};
use proptest::prelude::*;

/// The per-window scans the one-pass tables replaced.
mod reference {
    use super::*;

    /// The critical path of `[ws, we]`: scan the stream for the window's
    /// last delivery, then re-pair every Begin/End of the stream to collect
    /// the chain's spans, then sweep the window's boundaries.
    pub fn critical_path(
        graph: &FlowGraph,
        events: &[ProbeEvent],
        window: (SimTime, SimTime),
    ) -> Option<CriticalPath> {
        let (ws, we) = window;
        let terminal = events
            .iter()
            .filter(|e| {
                e.id.name == FLOW_DELIVERY.name && e.flow.is_some() && e.time >= ws && e.time <= we
            })
            .max_by_key(|e| (e.time, e.seq))?
            .flow;
        let chain = graph.lineage(terminal);
        let step_of = |f: FlowId| chain.iter().position(|&c| c == f);

        let mut spans: Vec<(u64, u64, usize, Track)> = Vec::new();
        let mut open: BTreeMap<(u32, u32), (u64, FlowId)> = BTreeMap::new();
        for e in events {
            let key = (e.node, e.id.track.tid());
            match e.phase {
                Phase::Begin => {
                    open.insert(key, (e.time.as_nanos(), e.flow));
                }
                Phase::End => {
                    if let Some((s, f)) = open.remove(&key) {
                        if let Some(i) = step_of(f) {
                            spans.push((s, e.time.as_nanos(), i, e.id.track));
                        }
                    }
                }
                Phase::Complete => {
                    if let Some(i) = step_of(e.flow) {
                        let s = e.time.as_nanos();
                        spans.push((s, s + e.dur.as_nanos(), i, e.id.track));
                    }
                }
                Phase::Mark => {}
            }
        }

        let (wsn, wen) = (ws.as_nanos(), we.as_nanos());
        let mut cuts: Vec<u64> = vec![wsn, wen];
        for &(s, e, _, _) in &spans {
            if e > wsn && s < wen {
                cuts.push(s.clamp(wsn, wen));
                cuts.push(e.clamp(wsn, wen));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();

        let steps: Vec<PathStep> = chain
            .iter()
            .map(|&f| PathStep {
                flow: f,
                from: graph.start_node(f).unwrap_or(f.origin()),
                to: f.dest(),
            })
            .collect();
        let mut buckets: BTreeMap<String, u64> = BTreeMap::new();
        for pair in cuts.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b <= a {
                continue;
            }
            let winner = spans
                .iter()
                .filter(|&&(s, e, _, _)| s <= a && e >= b)
                .max_by_key(|&&(s, _, i, _)| (s, i));
            let key = match winner {
                Some(&(_, _, i, track)) => {
                    let st = &steps[i];
                    format!("h{:02} n{}>n{} {}", i, st.from, st.to, track.name())
                }
                None => "wait".to_string(),
            };
            *buckets.entry(key).or_insert(0) += b - a;
        }

        Some(CriticalPath {
            window,
            steps,
            buckets: buckets
                .into_iter()
                .map(|(k, v)| (k, SimDuration::from_nanos(v)))
                .collect(),
            total: we - ws,
        })
    }

    /// Evidence by a full stream scan per incident.
    pub fn attach_evidence(incidents: &mut [Incident], events: &[ProbeEvent]) {
        if incidents.is_empty() || events.is_empty() {
            return;
        }
        let graph = FlowGraph::build(events);
        for inc in incidents.iter_mut() {
            let (ws, we) = inc.window;
            let mut flows: Vec<FlowId> = events
                .iter()
                .filter(|e| {
                    e.time >= ws
                        && e.time < we
                        && e.flow.is_some()
                        && (inc.node == CLUSTER_NODE || e.node == inc.node)
                })
                .map(|e| e.flow)
                .collect();
            flows.sort_unstable();
            flows.dedup();
            flows.truncate(MAX_EVIDENCE_FLOWS);
            inc.flows = flows;
            if let Some(cp) = critical_path(&graph, events, (ws, we)) {
                inc.signature = cp.signature();
            }
        }
    }

    /// Gauge summaries by a rescan of every point per `(gauge, node)` key.
    pub fn summarize(sink: &SeriesSink, end: SimTime) -> Vec<GaugeSummary> {
        let mut keys: Vec<(&'static str, u32)> = Vec::new();
        for p in sink.iter() {
            if !keys.contains(&(p.gauge, p.node)) {
                keys.push((p.gauge, p.node));
            }
        }
        keys.sort();
        let mut out = Vec::with_capacity(keys.len());
        for (gauge, node) in keys {
            let pts: Vec<_> = sink
                .iter()
                .filter(|p| p.gauge == gauge && p.node == node)
                .collect();
            let min = pts.iter().map(|p| p.value).min().unwrap_or(0);
            let max = pts.iter().map(|p| p.value).max().unwrap_or(0);
            let last = pts.last().map_or(0, |p| p.value);
            let mut weighted: u128 = 0;
            let mut span: u64 = 0;
            let mut hist = [0u64; HIST_BINS];
            for (i, p) in pts.iter().enumerate() {
                let until = pts.get(i + 1).map_or(end, |n| n.time).max(p.time);
                let dur = until.as_nanos().saturating_sub(p.time.as_nanos());
                if dur == 0 {
                    continue;
                }
                weighted += u128::from(dur) * u128::from(p.value);
                span += dur;
                let bin = if max == min {
                    0
                } else {
                    (((p.value - min) * HIST_BINS as u64) / (max - min + 1)) as usize
                };
                hist[bin.min(HIST_BINS - 1)] += dur;
            }
            let mean_x1000 = if span == 0 {
                last * 1000
            } else {
                ((weighted * 1000) / u128::from(span)) as u64
            };
            out.push(GaugeSummary {
                gauge,
                node,
                min,
                max,
                last,
                mean_x1000,
                hist,
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The real `observed` benchmark configuration
// ---------------------------------------------------------------------------

/// 32 nodes, 64 Zipf(1.2) groups at 20 kHz each for 2 ms, 2% random drop,
/// probes, series and watch on: the benchmark's `observed` workload.
fn observed(seed: u64) -> WorkloadReport {
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
        .probes(ProbeConfig::spans())
        .series(SeriesConfig::on())
        .watch(WatchConfig::on())
        .build()
        .expect("the observed workload is valid")
        .run()
}

fn assert_observed_matches_reference(seed: u64) {
    let report = observed(seed);
    let events = report.probe.to_vec();
    assert!(
        !report.incidents.is_empty(),
        "seed {seed}: no incidents to compare"
    );

    // Evidence: the run's own, a fresh attach, and the reference agree on
    // every incident's flows and signature.
    let mut want = report.incidents.clone();
    let mut got = report.incidents.clone();
    for i in want.iter_mut().chain(got.iter_mut()) {
        i.flows.clear();
        i.signature.clear();
    }
    reference::attach_evidence(&mut want, &events);
    watch::attach_evidence(&mut got, &events);
    assert_eq!(got, want, "seed {seed}: evidence");
    assert_eq!(
        report.incidents, want,
        "seed {seed}: the run's own evidence"
    );

    // Critical paths, buckets included, for every incident window.
    let graph = FlowGraph::build(&events);
    for inc in &report.incidents {
        assert_eq!(
            graph.critical_path(inc.window),
            reference::critical_path(&graph, &events, inc.window),
            "seed {seed}: incident window {:?}",
            inc.window
        );
    }
    assert_every_window_matches(seed, &graph, &events, report.end_time);

    assert_eq!(
        report.series.summarize(report.end_time),
        reference::summarize(&report.series, report.end_time),
        "seed {seed}: gauge summaries"
    );
}

/// Every 100 µs window of the run, `[k·100 µs, (k+1)·100 µs]` up to the end.
///
/// Most windows of a run this long hold no delivery (the tail is Go-Back-N
/// timer waits), and the reference answers those with a full-stream scan
/// that finds nothing. An in-order walk over the delivery records settles
/// emptiness instead; every window that holds a delivery gets the full
/// reference.
fn assert_every_window_matches(seed: u64, graph: &FlowGraph, events: &[ProbeEvent], end: SimTime) {
    let delivery_times: Vec<SimTime> = events
        .iter()
        .filter(|e| e.id.name == FLOW_DELIVERY.name && e.flow.is_some())
        .map(|e| e.time)
        .collect();
    let step = SimDuration::from_micros(100);
    let (mut next, mut checked) = (0usize, 0u32);
    let mut ws = SimTime::ZERO;
    while ws <= end {
        let we = ws + step;
        while next < delivery_times.len() && delivery_times[next] < ws {
            next += 1;
        }
        let want = if delivery_times.get(next).is_some_and(|&t| t <= we) {
            checked += 1;
            reference::critical_path(graph, events, (ws, we))
        } else {
            None
        };
        assert_eq!(
            graph.critical_path((ws, we)),
            want,
            "seed {seed}: window [{ws}, {we}]"
        );
        ws = we;
    }
    assert!(checked > 0, "seed {seed}: no 100 us window held a delivery");
}

#[test]
fn observed_seed1_matches_reference() {
    assert_observed_matches_reference(1);
}

#[test]
fn observed_seed7_matches_reference() {
    assert_observed_matches_reference(7);
}

// ---------------------------------------------------------------------------
// Randomized and hand-built streams
// ---------------------------------------------------------------------------

/// One probe point per track (names unique to this file).
const POINTS: [ProbeId; 5] = [
    ProbeId::new("oracle_host", Track::Host),
    ProbeId::new("oracle_lanai", Track::Lanai),
    ProbeId::new("oracle_pci", Track::Pci),
    ProbeId::new("oracle_wire", Track::Wire),
    ProbeId::new("oracle_app", Track::App),
];

fn record(
    time: u64,
    seq: u64,
    node: u32,
    id: ProbeId,
    phase: Phase,
    dur: u64,
    flow: FlowId,
) -> ProbeEvent {
    ProbeEvent {
        time: SimTime::from_nanos(time),
        seq,
        node,
        id,
        phase,
        dur: SimDuration::from_nanos(dur),
        label: "oracle",
        a: 0,
        b: 0,
        flow,
    }
}

/// Decode random words into a `(time, seq)`-ordered stream over 4 nodes,
/// 2 tags and all 5 tracks. Time advances by 0–2 ns per record, so equal
/// timestamps, equal span starts on different tracks, Begins overwritten
/// before their End, unmatched Ends, flowless records and deliveries at
/// shared instants are all common.
fn stream(words: &[u64]) -> Vec<ProbeEvent> {
    let mut t = 0u64;
    words
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            t += r % 3;
            let node = ((r >> 2) % 4) as u32;
            let flow = if (r >> 11) % 5 == 0 {
                FlowId::NONE
            } else {
                FlowId::new(
                    ((r >> 14) % 3) as u32,
                    (r >> 16) % 2,
                    ((r >> 17) % 4) as u32,
                )
            };
            let (phase, id) = match (r >> 8) % 8 {
                0..=2 => (Phase::Begin, POINTS[((r >> 4) % 5) as usize]),
                3..=4 => (Phase::End, POINTS[((r >> 4) % 5) as usize]),
                5 => (Phase::Complete, POINTS[((r >> 4) % 5) as usize]),
                _ if (r >> 20) % 2 == 0 => (Phase::Mark, FLOW_DELIVERY),
                _ => (Phase::Mark, POINTS[((r >> 4) % 5) as usize]),
            };
            record(t, i as u64, node, id, phase, (r >> 24) % 40, flow)
        })
        .collect()
}

/// Windows with edges on record timestamps (so deliveries land exactly on
/// `ws` and `we`) and one-nanosecond offsets from them.
fn windows(events: &[ProbeEvent], picks: &[u64]) -> Vec<(SimTime, SimTime)> {
    let end = events.last().map_or(0, |e| e.time.as_nanos());
    picks
        .chunks(2)
        .filter(|c| c.len() == 2)
        .map(|c| {
            let edge = |r: u64| {
                let t = events[(r % events.len() as u64) as usize].time.as_nanos();
                match (r >> 32) % 3 {
                    0 => t,
                    1 => t + 1,
                    _ => t.saturating_sub(1),
                }
            };
            let (a, b) = if (c[0] >> 40) % 8 == 0 {
                (0, end + 1)
            } else {
                (edge(c[0]), edge(c[1]))
            };
            (SimTime::from_nanos(a.min(b)), SimTime::from_nanos(a.max(b)))
        })
        .collect()
}

fn incidents(windows: &[(SimTime, SimTime)], nodes: &[u64]) -> Vec<Incident> {
    windows
        .iter()
        .zip(nodes)
        .map(|(&w, &n)| {
            let mut inc = Incident::cluster("oracle", Severity::Warn, w, 1, Thresh::count(1));
            if n % 5 != 4 {
                inc.node = (n % 5) as u32;
            }
            inc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_streams_match_the_reference(
        words in proptest::collection::vec(any::<u64>(), 1..160),
        picks in proptest::collection::vec(any::<u64>(), 2..24),
        shuffle in any::<u64>(),
    ) {
        let events = stream(&words);
        let ws = windows(&events, &picks);
        let graph = FlowGraph::build(&events);
        for &w in &ws {
            prop_assert_eq!(
                graph.critical_path(w),
                reference::critical_path(&graph, &events, w),
                "window {:?}", w
            );
        }
        let mut got = incidents(&ws, &picks);
        let mut want = got.clone();
        watch::attach_evidence(&mut got, &events);
        reference::attach_evidence(&mut want, &events);
        prop_assert_eq!(got, want);

        // The delivery index is sorted inside `build`, so the terminal a
        // window picks does not depend on the input order. (Span pairing
        // follows the stream, so only Mark records are moved around.)
        let mut marks: Vec<ProbeEvent> = events.iter().filter(|e| e.phase == Phase::Mark).copied().collect();
        let mut rest: Vec<ProbeEvent> = events.iter().filter(|e| e.phase != Phase::Mark).copied().collect();
        let n = marks.len().max(1) as u64;
        marks.rotate_left((shuffle % n) as usize);
        marks.reverse();
        rest.extend(marks);
        let reordered = FlowGraph::build(&rest);
        for &w in &ws {
            prop_assert_eq!(reordered.critical_path(w), graph.critical_path(w), "window {:?}", w);
        }
    }

    #[test]
    fn ring_wrapped_interleaved_series_match_the_reference(
        words in proptest::collection::vec(any::<u64>(), 1..200),
        capacity in 1usize..48,
        tail in 0u64..50,
    ) {
        const GAUGES: [&str; 3] = ["oracle_tokens", "oracle_sram", "oracle_queue"];
        let mut sink = SeriesSink::new(SeriesConfig::with_capacity(capacity));
        let mut t = 0u64;
        for &r in &words {
            t += r % 4;
            sink.record(
                SimTime::from_nanos(t),
                ((r >> 2) % 3) as u32,
                GAUGES[((r >> 4) % 3) as usize],
                (r >> 8) % 6,
            );
        }
        // `end` ranges from before the last transition to past it.
        let end = SimTime::from_nanos((t + tail).saturating_sub(25));
        prop_assert_eq!(sink.summarize(end), reference::summarize(&sink, end));
    }
}

/// The terminal search includes a delivery at `we`; the evidence flow
/// filter excludes records at `we`.
#[test]
fn delivery_exactly_at_window_end() {
    let early = FlowId::new(0, 1, 1);
    let late = FlowId::new(2, 1, 3);
    let events = vec![
        record(0, 0, 0, POINTS[0], Phase::Complete, 5, early),
        record(10, 1, 1, FLOW_DELIVERY, Phase::Mark, 0, early),
        record(20, 2, 2, POINTS[0], Phase::Complete, 5, late),
        record(40, 3, 3, FLOW_DELIVERY, Phase::Mark, 0, late),
    ];
    let graph = FlowGraph::build(&events);
    let w = (SimTime::from_nanos(0), SimTime::from_nanos(40));
    let cp = graph.critical_path(w).expect("deliveries in the window");
    assert_eq!(
        cp.steps.last().map(|s| s.flow),
        Some(late),
        "terminal at we"
    );
    assert_eq!(Some(cp), reference::critical_path(&graph, &events, w));

    let mut got = incidents(&[w], &[4]);
    assert_eq!(got[0].node, CLUSTER_NODE);
    let mut want = got.clone();
    watch::attach_evidence(&mut got, &events);
    reference::attach_evidence(&mut want, &events);
    assert_eq!(got, want);
    assert_eq!(
        got[0].flows,
        vec![early, late],
        "late's record at 20 is inside"
    );
    let mut at_we = incidents(&[(SimTime::from_nanos(30), SimTime::from_nanos(40))], &[3]);
    watch::attach_evidence(&mut at_we, &events);
    assert!(
        at_we[0].flows.is_empty(),
        "the delivery at we is not evidence"
    );
    assert_eq!(
        at_we[0].signature, "n2>n3",
        "but it is the window's terminal"
    );
}

/// Begin/End pairing corner cases: a Begin overwritten before its End, an
/// End with nothing open, and equal `(start, hop)` spans on two tracks.
#[test]
fn span_pairing_corner_cases() {
    let f = FlowId::new(0, 1, 1);
    let g = FlowId::new(0, 1, 2);
    let events = vec![
        record(0, 0, 0, POINTS[0], Phase::Complete, 2, f),
        // Overwritten: g's Begin replaces f's before the End.
        record(1, 1, 0, POINTS[3], Phase::Begin, 0, f),
        record(2, 2, 0, POINTS[3], Phase::Begin, 0, g),
        record(6, 3, 0, POINTS[3], Phase::End, 0, FlowId::NONE),
        // Unmatched End on the PCI track.
        record(7, 4, 0, POINTS[2], Phase::End, 0, f),
        // Equal (start, hop) on lanai and pci: stream order breaks the tie.
        record(8, 5, 1, POINTS[1], Phase::Begin, 0, f),
        record(8, 6, 1, POINTS[2], Phase::Begin, 0, f),
        record(12, 7, 1, POINTS[2], Phase::End, 0, FlowId::NONE),
        record(12, 8, 1, POINTS[1], Phase::End, 0, FlowId::NONE),
        record(13, 9, 1, FLOW_DELIVERY, Phase::Mark, 0, f),
    ];
    let graph = FlowGraph::build(&events);
    let w = (SimTime::ZERO, SimTime::from_nanos(13));
    let cp = graph.critical_path(w).expect("f is delivered");
    assert_eq!(
        Some(cp.clone()),
        reference::critical_path(&graph, &events, w)
    );
    let labels: Vec<&str> = cp.buckets.iter().map(|(k, _)| k.as_str()).collect();
    assert!(labels.contains(&"h00 n0>n1 lanai"), "{labels:?}");
    assert!(!labels.iter().any(|l| l.ends_with("pci")), "{labels:?}");
    assert!(!labels.iter().any(|l| l.ends_with("wire")), "{labels:?}");
}
