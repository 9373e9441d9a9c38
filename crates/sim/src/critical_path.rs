//! `sim::critical_path` — lineage reconstruction and critical-path
//! extraction over flow-tagged probe streams.
//!
//! Every probe record may carry a [`FlowId`] (see `sim::flow`). This module
//! turns a recorded stream back into *causal* structure:
//!
//! * a [`FlowGraph`] links each flow to its **predecessor hop**: the flow
//!   that delivered the payload to the node where this flow's work began.
//!   For a NIC-forwarded multicast packet `root → A → B`, the flow
//!   `(root, tag, B)` starts at node `A`, and its predecessor is
//!   `(root, tag, A)` — the hop that brought the payload to `A`. The rule
//!   is purely temporal and needs no protocol knowledge: among flows with
//!   the same tag whose destination is the start node, pick the one whose
//!   latest record at that node is the most recent not after this flow's
//!   first record. Each link strictly decreases the first-record key, so
//!   the graph is acyclic by construction (and [`FlowGraph::validate`]
//!   proves it per run).
//! * a **lineage** is the chain anchor → … → flow, where the anchor is a
//!   flow with no predecessor — for a complete delivery it starts with the
//!   host send call at the origin.
//! * [`FlowGraph::critical_path`] extracts, for one measured window, the
//!   chain that determined completion (the lineage of the last
//!   [`FLOW_DELIVERY`] in the window) and decomposes the window into
//!   per-hop / per-resource buckets that **sum exactly** to the window
//!   length: a boundary sweep assigns every nanosecond to the innermost
//!   covering chain span, or to `wait` when no chain span covers it.
//!
//! [`FlowGraph::build`] is the only pass over the stream. Besides the
//! per-flow facts it pairs Begin/End records into spans, files each span
//! under its flow, and indexes the deliveries by `(time, seq)`, so a
//! critical-path query is a binary search plus a walk over the chain's own
//! spans: linear in the stream (plus sorts of the flows and deliveries)
//! once per run, never windows × events. No step of the build uses a map:
//! flows live in a slot-indexed `Vec` found through a deterministic
//! open-addressing table, spans in one arena grouped by slot, and the link
//! pass walks a sorted `Vec`.

use std::collections::BTreeMap;

use crate::flow::FlowId;
use crate::probe::{Phase, ProbeEvent, ProbeId, Track};
use crate::time::{SimDuration, SimTime};

/// Delivery anchor: recorded (with a flow) when a message reaches its
/// destination application callback. Terminates the flow's lineage and
/// marks the completion candidates for critical-path extraction.
pub const FLOW_DELIVERY: ProbeId = ProbeId::new("flow_delivery", Track::App);

/// Deterministic open-addressing `FlowId → slot` table: linear probing
/// from a multiplicative (Fibonacci) hash of the packed id, so the layout
/// is a pure function of the stream (no `RandomState`). `FlowId::NONE`
/// marks an empty entry; it is never inserted.
#[derive(Clone, Debug, Default)]
struct SlotTable {
    /// `(flow, slot)` entries; the length is a power of two, at least
    /// twice the number of flows held.
    entries: Vec<(FlowId, u32)>,
    len: usize,
}

impl SlotTable {
    /// Entries of a fresh table (a power of two).
    const MIN_ENTRIES: usize = 1 << 10;

    fn new() -> SlotTable {
        SlotTable {
            entries: vec![(FlowId::NONE, 0); Self::MIN_ENTRIES],
            len: 0,
        }
    }

    /// The entry probing for `flow` starts at.
    fn home(&self, flow: FlowId) -> usize {
        let bits = self.entries.len().trailing_zeros();
        (flow.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The entry holding `flow`, or the empty entry where it would go.
    fn find(&self, flow: FlowId) -> usize {
        let mask = self.entries.len() - 1;
        let mut i = self.home(flow);
        while self.entries[i].0 != flow && self.entries[i].0.is_some() {
            i = (i + 1) & mask;
        }
        i
    }

    /// The slot of `flow`, if it was inserted.
    fn get(&self, flow: FlowId) -> Option<u32> {
        if flow.is_none() || self.entries.is_empty() {
            return None;
        }
        let (f, slot) = self.entries[self.find(flow)];
        (f == flow).then_some(slot)
    }

    /// The slot of `flow` (which must not be `NONE`); a new flow gets
    /// `next`.
    fn get_or_insert(&mut self, flow: FlowId, next: u32) -> u32 {
        let i = self.find(flow);
        if self.entries[i].0 == flow {
            return self.entries[i].1;
        }
        self.entries[i] = (flow, next);
        self.len += 1;
        if 2 * self.len > self.entries.len() {
            self.grow();
        }
        next
    }

    /// Double the entries and re-insert every flow.
    #[cold]
    fn grow(&mut self) {
        let grown = vec![(FlowId::NONE, 0); 2 * self.entries.len()];
        let old = std::mem::replace(&mut self.entries, grown);
        for (f, slot) in old.into_iter().filter(|(f, _)| f.is_some()) {
            let i = self.find(f);
            self.entries[i] = (f, slot);
        }
    }
}

/// Per-flow facts extracted from the stream.
#[derive(Clone, Debug)]
struct FlowInfo {
    id: FlowId,
    /// `(time, seq)` and node of the flow's first record.
    first: (SimTime, u64),
    first_node: u32,
    /// Earliest `(time, seq)` of a record of this flow per node — when the
    /// payload first became visible there (the arrival, at the hop's
    /// destination).
    node_first: Vec<(u32, SimTime, u64)>,
    /// `(time, seq)` of the flow's `FLOW_DELIVERY` record, if delivered.
    delivery: Option<(SimTime, u64)>,
    /// Whether the flow includes a host-track record (the send call) — the
    /// anchor of a complete lineage.
    has_host: bool,
    /// The slot of the causal predecessor hop (filled by the link pass).
    pred: Option<u32>,
}

/// Number of probe tracks: [`Track::App`] has the largest [`Track::tid`].
const TRACKS: usize = Track::App.tid() as usize + 1;

/// The open span of one (node, track): its start and, if the Begin that
/// opened it was flow-tagged, its flow's slot.
type OpenSpan = Option<(u64, Option<u32>)>;

/// One closed span of a flow: a Begin/End pair (the End inherits the flow
/// of the Begin that opened it) or a Complete record.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Start and end, in nanoseconds.
    start: u64,
    end: u64,
    /// Track of the closing record.
    track: Track,
}

/// A closed span during the walk, before it is filed under its flow.
#[derive(Clone, Copy)]
struct StagedSpan {
    start: u64,
    end: u64,
    slot: u32,
    track: Track,
}

/// The causal links between the flows of one recorded run.
#[derive(Clone, Debug, Default)]
pub struct FlowGraph {
    /// Per-flow facts, indexed by slot (first-seen order).
    infos: Vec<FlowInfo>,
    /// `FlowId → slot`.
    slots: SlotTable,
    /// Slots in `FlowId` order.
    by_id: Vec<u32>,
    /// Every flow's closed spans, grouped by slot: slot `s` owns
    /// `spans[span_at[s]..span_at[s + 1]]`, in the stream order of the
    /// records that closed them.
    spans: Vec<Span>,
    span_at: Vec<u32>,
    /// Every flow-tagged [`FLOW_DELIVERY`] record as `(time, seq, slot)`,
    /// sorted by `(time, seq)`; the sort is stable, so equal keys keep
    /// stream order.
    deliveries: Vec<(SimTime, u64, u32)>,
}

impl FlowGraph {
    /// Build the graph from a canonical probe stream (events in
    /// `(time, seq)` record order, e.g. `ProbeSink::to_vec`).
    ///
    /// The same walk pairs Begin/End records per `(node, track)` into
    /// spans: an End inherits the flow of the Begin that opened it, a later
    /// Begin overwrites an open one, and an End with nothing open is
    /// ignored. Complete records are spans on their own.
    pub fn build(events: &[ProbeEvent]) -> FlowGraph {
        let mut slots = SlotTable::new();
        let mut infos: Vec<FlowInfo> = Vec::new();
        let mut deliveries: Vec<(SimTime, u64, u32)> = Vec::new();
        let mut staged: Vec<StagedSpan> = Vec::new();
        let mut open: Vec<[OpenSpan; TRACKS]> = Vec::new();
        for e in events {
            let fi = e.flow.is_some().then(|| {
                let key = (e.time, e.seq);
                let fi = slots.get_or_insert(e.flow, infos.len() as u32);
                if fi as usize == infos.len() {
                    infos.push(FlowInfo {
                        id: e.flow,
                        first: key,
                        first_node: e.node,
                        node_first: Vec::new(),
                        delivery: None,
                        has_host: false,
                        pred: None,
                    });
                }
                let info = &mut infos[fi as usize];
                if key < info.first {
                    info.first = key;
                    info.first_node = e.node;
                }
                match info.node_first.iter_mut().find(|(n, _, _)| *n == e.node) {
                    Some(slot) => {
                        if (slot.1, slot.2) > key {
                            (slot.1, slot.2) = key;
                        }
                    }
                    None => info.node_first.push((e.node, e.time, e.seq)),
                }
                if e.id.name == FLOW_DELIVERY.name {
                    info.delivery = Some(info.delivery.map_or(key, |d| d.max(key)));
                    deliveries.push((e.time, e.seq, fi));
                }
                if e.id.track == Track::Host {
                    info.has_host = true;
                }
                fi
            });

            // Span pairing sees every record: a flowless Begin still
            // overwrites an open span. Flowless spans are then dropped.
            let t = e.time.as_nanos();
            let (node, track) = (e.node as usize, e.id.track.tid() as usize);
            let closed = match e.phase {
                Phase::Begin => {
                    if node >= open.len() {
                        open.resize(node + 1, [None; TRACKS]);
                    }
                    open[node][track] = Some((t, fi));
                    None
                }
                Phase::End => open
                    .get_mut(node)
                    .and_then(|tracks| tracks[track].take())
                    .and_then(|(start, f)| Some((f?, start, t))),
                Phase::Complete => fi.map(|f| (f, t, t + e.dur.as_nanos())),
                Phase::Mark => None,
            };
            if let Some((slot, start, end)) = closed {
                staged.push(StagedSpan {
                    start,
                    end,
                    slot,
                    track: e.id.track,
                });
            }
        }
        deliveries.sort_by_key(|&(t, s, _)| (t, s));
        let (spans, span_at) = group_spans(staged, infos.len());

        // Link pass: find each flow's predecessor hop among the flows
        // delivered to its start node with its tag. Candidates come from
        // one `(dest, tag, flow)`-sorted list, in `FlowId` order.
        let mut by_dest_tag: Vec<(u32, u64, FlowId, u32)> = infos
            .iter()
            .enumerate()
            .map(|(s, i)| (i.id.dest(), i.id.tag(), i.id, s as u32))
            .collect();
        by_dest_tag.sort_unstable();
        let preds: Vec<Option<u32>> = infos
            .iter()
            .map(|info| {
                let key = (info.first_node, info.id.tag());
                let lo = by_dest_tag.partition_point(|&(d, t, _, _)| (d, t) < key);
                let mut best: Option<((SimTime, u64), u32)> = None;
                for &(_, _, p, ps) in by_dest_tag[lo..]
                    .iter()
                    .take_while(|&&(d, t, _, _)| (d, t) == key)
                {
                    if p == info.id {
                        continue;
                    }
                    let Some(&(_, t, s)) = infos[ps as usize]
                        .node_first
                        .iter()
                        .find(|(n, _, _)| *n == info.first_node)
                    else {
                        continue;
                    };
                    if (t, s) <= info.first && best.is_none_or(|(k, _)| (t, s) > k) {
                        best = Some(((t, s), ps));
                    }
                }
                best.map(|(_, ps)| ps)
            })
            .collect();
        for (info, pred) in infos.iter_mut().zip(preds) {
            info.pred = pred;
        }

        let mut by_id: Vec<u32> = (0..infos.len() as u32).collect();
        by_id.sort_unstable_by_key(|&s| infos[s as usize].id);
        FlowGraph {
            infos,
            slots,
            by_id,
            spans,
            span_at,
            deliveries,
        }
    }

    /// The slot of `flow`, if the stream named it.
    fn slot(&self, flow: FlowId) -> Option<usize> {
        self.slots.get(flow).map(|s| s as usize)
    }

    /// All flows seen, in `FlowId` order.
    pub fn flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.by_id.iter().map(|&s| self.infos[s as usize].id)
    }

    /// Flows that reached a [`FLOW_DELIVERY`] record.
    pub fn delivered(&self) -> Vec<FlowId> {
        self.by_id
            .iter()
            .map(|&s| &self.infos[s as usize])
            .filter(|i| i.delivery.is_some())
            .map(|i| i.id)
            .collect()
    }

    /// The causal predecessor hop of `flow`, if any.
    pub fn pred(&self, flow: FlowId) -> Option<FlowId> {
        let p = self.infos[self.slot(flow)?].pred?;
        Some(self.infos[p as usize].id)
    }

    /// Node at which `flow`'s work began (the hop's source).
    pub fn start_node(&self, flow: FlowId) -> Option<u32> {
        self.slot(flow).map(|s| self.infos[s].first_node)
    }

    /// The lineage of `flow`: anchor hop first, `flow` last. Stops (rather
    /// than loops) if a cycle is ever encountered — [`FlowGraph::validate`]
    /// reports such a stream as corrupt.
    pub fn lineage(&self, flow: FlowId) -> Vec<FlowId> {
        match self.slot(flow) {
            Some(s) => self.chain(s).into_iter().map(|s| self.infos[s].id).collect(),
            None => vec![flow],
        }
    }

    /// [`FlowGraph::lineage`] by slot.
    fn chain(&self, slot: usize) -> Vec<usize> {
        let mut chain = vec![slot];
        let mut cur = slot;
        while let Some(p) = self.infos[cur].pred {
            let p = p as usize;
            if chain.contains(&p) {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Structural checks for `--check` gates: predecessor links must be
    /// acyclic, and every delivered flow must have an unbroken lineage back
    /// to an anchor hop that contains the host send call. Returns one
    /// message per violation (empty = clean).
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for &s in &self.by_id {
            let info = &self.infos[s as usize];
            let g = info.id;
            if let Some(p) = info.pred {
                let pf = &self.infos[p as usize];
                if pf.first >= info.first {
                    errors.push(format!(
                        "flow graph not acyclic: pred {} of {g} does not precede it",
                        pf.id
                    ));
                }
            }
            if info.delivery.is_some() {
                let ai = &self.infos[self.chain(s as usize)[0]];
                if ai.pred.is_some() {
                    errors.push(format!("lineage of {g} contains a cycle"));
                } else if !ai.has_host {
                    errors.push(format!(
                        "lineage of {g} is broken: anchor {} has no host send record",
                        ai.id
                    ));
                }
            }
        }
        errors
    }

    /// Extract the critical path of the measured window `[ws, we]`: the
    /// lineage of the last delivery in the window, decomposed into per-hop /
    /// per-resource buckets that sum exactly to `we - ws`. Returns `None`
    /// when the window contains no delivery.
    pub fn critical_path(&self, window: (SimTime, SimTime)) -> Option<CriticalPath> {
        let (ws, we) = window;
        // The completion event: the last FLOW_DELIVERY inside the window.
        let upto = self.deliveries.partition_point(|&(t, _, _)| t <= we);
        let &(t, _, terminal) = self.deliveries[..upto].last()?;
        if t < ws {
            return None;
        }
        let chain = self.chain(terminal as usize);
        let steps: Vec<PathStep> = chain
            .iter()
            .map(|&s| PathStep {
                flow: self.infos[s].id,
                from: self.infos[s].first_node,
                to: self.infos[s].id.dest(),
            })
            .collect();
        // The chain's spans as (start, end, hop, track), each hop's in
        // stream order.
        let spans: Vec<(u64, u64, usize, Track)> = chain
            .iter()
            .enumerate()
            .flat_map(|(i, &s)| {
                let own = &self.spans[self.span_at[s] as usize..self.span_at[s + 1] as usize];
                own.iter().map(move |sp| (sp.start, sp.end, i, sp.track))
            })
            .collect();
        Some(decompose(window, steps, &spans))
    }
}

/// File the staged spans under their slots: a counting sort by slot, stable,
/// so each flow's spans keep stream order. Returns the arena and the
/// per-slot offsets (`flows + 1` of them); the staging buffer is freed.
fn group_spans(staged: Vec<StagedSpan>, flows: usize) -> (Vec<Span>, Vec<u32>) {
    let mut span_at = vec![0u32; flows + 1];
    for s in &staged {
        span_at[s.slot as usize + 1] += 1;
    }
    for i in 1..span_at.len() {
        span_at[i] += span_at[i - 1];
    }
    let mut next = span_at.clone();
    let mut spans = vec![
        Span {
            start: 0,
            end: 0,
            track: Track::App,
        };
        staged.len()
    ];
    for s in staged {
        let at = &mut next[s.slot as usize];
        spans[*at as usize] = Span {
            start: s.start,
            end: s.end,
            track: s.track,
        };
        *at += 1;
    }
    (spans, span_at)
}

/// Decompose `window` over a chain's spans `(start, end, hop, track)` by a
/// boundary sweep: each segment goes to the innermost (latest-starting;
/// tie → latest hop) covering span, or to `wait` when none covers it. A
/// tie on `(start, hop)` means one hop, hence one flow; the later-closed
/// span wins, so each hop's spans must be in stream order.
fn decompose(
    window: (SimTime, SimTime),
    steps: Vec<PathStep>,
    spans: &[(u64, u64, usize, Track)],
) -> CriticalPath {
    let (ws, we) = window;
    let (wsn, wen) = (ws.as_nanos(), we.as_nanos());
    let mut cuts: Vec<u64> = vec![wsn, wen];
    for &(s, e, _, _) in spans {
        if e > wsn && s < wen {
            cuts.push(s.clamp(wsn, wen));
            cuts.push(e.clamp(wsn, wen));
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

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

    CriticalPath {
        window,
        steps,
        buckets: buckets
            .into_iter()
            .map(|(k, v)| (k, SimDuration::from_nanos(v)))
            .collect(),
        total: we - ws,
    }
}

/// One hop of a critical path: `flow` carried the payload `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// The hop's flow.
    pub flow: FlowId,
    /// Node where the hop's work began.
    pub from: u32,
    /// The hop's delivery endpoint.
    pub to: u32,
}

/// The chain of hops that determined one window's completion, with the
/// window decomposed into per-hop / per-resource time buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// The measured window this path explains.
    pub window: (SimTime, SimTime),
    /// Hops, anchor first.
    pub steps: Vec<PathStep>,
    /// `(label, time)` buckets, sorted by hop then resource; `wait` collects
    /// time covered by no chain span. Sums exactly to `total`.
    pub buckets: Vec<(String, SimDuration)>,
    /// The window length (`we - ws`).
    pub total: SimDuration,
}

impl CriticalPath {
    /// The node route of the path, e.g. `"n0>n1>n3"` — the anchor's start
    /// node followed by each hop's destination (consecutive duplicates
    /// collapsed). Two runs took the same path iff signatures match.
    pub fn signature(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut last: Option<u32> = None;
        for (i, s) in self.steps.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, "n{}", s.from);
                last = Some(s.from);
            }
            if last != Some(s.to) {
                let _ = write!(out, ">n{}", s.to);
                last = Some(s.to);
            }
        }
        out
    }

    /// Sum of all buckets — equals `total` by construction; exposed so
    /// check gates can assert it.
    pub fn bucket_sum(&self) -> SimDuration {
        self.buckets
            .iter()
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeConfig, ProbeSink};

    const HOSTP: ProbeId = ProbeId::new("cp_host", Track::Host);
    const PCIP: ProbeId = ProbeId::new("cp_pci", Track::Pci);
    const WIREP: ProbeId = ProbeId::new("cp_wire", Track::Wire);

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Two-hop delivery 0 → 1 → 2: root flow at n0, hop flows (0,t,1) and
    /// (0,t,2) (the second starting at n1), deliveries at n1 and n2.
    fn two_hop_stream() -> Vec<ProbeEvent> {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        let root = FlowId::new(0, 7, 0);
        let h1 = FlowId::new(0, 7, 1);
        let h2 = FlowId::new(0, 7, 2);
        s.complete_flow(at(0), 0, HOSTP, SimDuration::from_nanos(100), "send", root);
        s.begin_flow(at(100), 0, PCIP, "sdma", 0, 0, h1);
        s.end(at(300), 0, PCIP, "sdma");
        s.begin_flow(at(300), 0, WIREP, "tx", 1, 0, h1);
        s.end(at(600), 0, WIREP, "tx");
        // The packet's arrival at n1 is recorded before any forwarding
        // work it triggers — that mark is what the predecessor link keys on.
        s.instant_flow(at(620), 1, ProbeId::new("cp_rx", Track::Wire), "arrive", 0, h1);
        s.instant_flow(at(700), 1, FLOW_DELIVERY, "recv", 0, h1);
        // Forwarding hop starts at n1 (cut-through: before n1's delivery).
        s.begin_flow(at(650), 1, WIREP, "tx", 2, 0, h2);
        s.end(at(950), 1, WIREP, "tx");
        s.instant_flow(at(1_050), 2, FLOW_DELIVERY, "recv", 0, h2);
        let mut v = s.to_vec();
        v.sort_by_key(|e| (e.time, e.seq));
        v
    }

    #[test]
    fn lineage_chains_through_the_forwarding_node() {
        let ev = two_hop_stream();
        let g = FlowGraph::build(&ev);
        let root = FlowId::new(0, 7, 0);
        let h1 = FlowId::new(0, 7, 1);
        let h2 = FlowId::new(0, 7, 2);
        assert_eq!(g.pred(h1), Some(root));
        assert_eq!(g.pred(h2), Some(h1));
        assert_eq!(g.pred(root), None);
        assert_eq!(g.lineage(h2), vec![root, h1, h2]);
        assert!(g.validate().is_empty(), "{:?}", g.validate());
    }

    #[test]
    fn critical_path_buckets_sum_to_the_window() {
        let ev = two_hop_stream();
        let g = FlowGraph::build(&ev);
        let cp = g
            .critical_path((at(0), at(1_050)))
            .expect("window contains a delivery");
        assert_eq!(cp.signature(), "n0>n1>n2");
        assert_eq!(cp.bucket_sum(), cp.total);
        assert_eq!(cp.total.as_nanos(), 1_050);
        // The host send, both wire hops, and the SDMA each hold a bucket.
        assert!(cp.buckets.iter().any(|(k, _)| k.ends_with("host")));
        assert!(cp.buckets.iter().any(|(k, _)| k.ends_with("wire")));
        assert!(cp.buckets.iter().any(|(k, _)| k.ends_with("pci")));
        assert!(cp.buckets.iter().any(|(k, _)| k == "wait"));
    }

    #[test]
    fn missing_host_anchor_is_reported() {
        let mut s = ProbeSink::new(ProbeConfig::spans());
        let orphan = FlowId::new(3, 1, 4);
        s.begin_flow(at(0), 3, WIREP, "tx", 4, 0, orphan);
        s.end(at(100), 3, WIREP, "tx");
        s.instant_flow(at(200), 4, FLOW_DELIVERY, "recv", 0, orphan);
        let g = FlowGraph::build(&s.to_vec());
        let errs = g.validate();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("no host send record"), "{errs:?}");
    }

    #[test]
    fn empty_window_has_no_path() {
        let ev = two_hop_stream();
        let g = FlowGraph::build(&ev);
        assert!(g.critical_path((at(2_000), at(3_000))).is_none());
    }

    /// The `BTreeMap` build the slot-table build replaced, with its queries:
    /// flows keyed by `FlowId`, spans in per-flow `Vec`s, and a
    /// `(dest, tag)`-keyed map of candidates for the link pass. The oracle
    /// for [`FlowGraph::build`].
    mod reference {
        use super::*;

        struct Info {
            first: (SimTime, u64),
            first_node: u32,
            node_first: Vec<(u32, SimTime, u64)>,
            delivery: Option<(SimTime, u64)>,
            has_host: bool,
            pred: Option<FlowId>,
            spans: Vec<Span>,
        }

        pub struct Graph {
            flows: BTreeMap<FlowId, Info>,
            deliveries: Vec<(SimTime, u64, FlowId)>,
        }

        pub fn build(events: &[ProbeEvent]) -> Graph {
            let mut flows: BTreeMap<FlowId, Info> = BTreeMap::new();
            let mut deliveries = Vec::new();
            let mut open: BTreeMap<(u32, u32), (u64, FlowId)> = BTreeMap::new();
            for e in events {
                let key = (e.time, e.seq);
                if e.flow.is_some() {
                    let info = flows.entry(e.flow).or_insert_with(|| Info {
                        first: key,
                        first_node: e.node,
                        node_first: Vec::new(),
                        delivery: None,
                        has_host: false,
                        pred: None,
                        spans: Vec::new(),
                    });
                    if key < info.first {
                        info.first = key;
                        info.first_node = e.node;
                    }
                    match info.node_first.iter_mut().find(|(n, _, _)| *n == e.node) {
                        Some(slot) => {
                            if (slot.1, slot.2) > key {
                                (slot.1, slot.2) = key;
                            }
                        }
                        None => info.node_first.push((e.node, e.time, e.seq)),
                    }
                    if e.id.name == FLOW_DELIVERY.name {
                        info.delivery = Some(info.delivery.map_or(key, |d| d.max(key)));
                        deliveries.push((e.time, e.seq, e.flow));
                    }
                    if e.id.track == Track::Host {
                        info.has_host = true;
                    }
                }
                let t = e.time.as_nanos();
                let slot = (e.node, e.id.track.tid());
                let closed = match e.phase {
                    Phase::Begin => {
                        open.insert(slot, (t, e.flow));
                        None
                    }
                    Phase::End => open.remove(&slot).map(|(start, f)| (f, start, t)),
                    Phase::Complete => Some((e.flow, t, t + e.dur.as_nanos())),
                    Phase::Mark => None,
                };
                if let Some((f, start, end)) = closed.filter(|c| c.0.is_some()) {
                    let track = e.id.track;
                    let info = flows.get_mut(&f).expect("a span's flow was seen");
                    info.spans.push(Span { start, end, track });
                }
            }
            deliveries.sort_by_key(|&(t, s, _)| (t, s));

            let mut by_dest_tag: BTreeMap<(u32, u64), Vec<FlowId>> = BTreeMap::new();
            for &f in flows.keys() {
                by_dest_tag.entry((f.dest(), f.tag())).or_default().push(f);
            }
            let mut preds: Vec<(FlowId, FlowId)> = Vec::new();
            for (&g, info) in &flows {
                let Some(cands) = by_dest_tag.get(&(info.first_node, g.tag())) else {
                    continue;
                };
                let mut best: Option<((SimTime, u64), FlowId)> = None;
                for &p in cands {
                    if p == g {
                        continue;
                    }
                    let Some(&(_, t, s)) =
                        flows[&p].node_first.iter().find(|(n, _, _)| *n == info.first_node)
                    else {
                        continue;
                    };
                    if (t, s) <= info.first && best.is_none_or(|(k, _)| (t, s) > k) {
                        best = Some(((t, s), p));
                    }
                }
                if let Some((_, p)) = best {
                    preds.push((g, p));
                }
            }
            for (g, p) in preds {
                flows.get_mut(&g).expect("pred source flow exists").pred = Some(p);
            }
            Graph { flows, deliveries }
        }

        impl Graph {
            pub fn flows(&self) -> Vec<FlowId> {
                self.flows.keys().copied().collect()
            }

            pub fn delivered(&self) -> Vec<FlowId> {
                self.flows
                    .iter()
                    .filter(|(_, i)| i.delivery.is_some())
                    .map(|(&f, _)| f)
                    .collect()
            }

            pub fn pred(&self, flow: FlowId) -> Option<FlowId> {
                self.flows.get(&flow).and_then(|i| i.pred)
            }

            pub fn start_node(&self, flow: FlowId) -> Option<u32> {
                self.flows.get(&flow).map(|i| i.first_node)
            }

            pub fn lineage(&self, flow: FlowId) -> Vec<FlowId> {
                let mut chain = vec![flow];
                let mut cur = flow;
                while let Some(p) = self.pred(cur) {
                    if chain.contains(&p) {
                        break;
                    }
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                chain
            }

            pub fn validate(&self) -> Vec<String> {
                let mut errors = Vec::new();
                for (&g, info) in &self.flows {
                    if let Some(p) = info.pred {
                        if self.flows[&p].first >= info.first {
                            errors.push(format!(
                                "flow graph not acyclic: pred {p} of {g} does not precede it"
                            ));
                        }
                    }
                    if info.delivery.is_some() {
                        let anchor = self.lineage(g)[0];
                        let ai = &self.flows[&anchor];
                        if ai.pred.is_some() {
                            errors.push(format!("lineage of {g} contains a cycle"));
                        } else if !ai.has_host {
                            errors.push(format!(
                                "lineage of {g} is broken: anchor {anchor} has no host send record"
                            ));
                        }
                    }
                }
                errors
            }

            pub fn critical_path(&self, window: (SimTime, SimTime)) -> Option<CriticalPath> {
                let (ws, we) = window;
                let upto = self.deliveries.partition_point(|&(t, _, _)| t <= we);
                let &(t, _, terminal) = self.deliveries[..upto].last()?;
                if t < ws {
                    return None;
                }
                let chain = self.lineage(terminal);
                let spans: Vec<(u64, u64, usize, Track)> = chain
                    .iter()
                    .enumerate()
                    .flat_map(|(i, f)| {
                        self.flows[f].spans.iter().map(move |s| (s.start, s.end, i, s.track))
                    })
                    .collect();
                let steps = chain
                    .iter()
                    .map(|&f| PathStep {
                        flow: f,
                        from: self.start_node(f).unwrap_or(f.origin()),
                        to: f.dest(),
                    })
                    .collect();
                Some(decompose(window, steps, &spans))
            }
        }
    }

    const LANAIP: ProbeId = ProbeId::new("cp_lanai", Track::Lanai);
    const POINTS: [ProbeId; 5] = [HOSTP, LANAIP, PCIP, WIREP, FLOW_DELIVERY];

    fn record(t: u64, node: u32, id: ProbeId, phase: Phase, dur: u64, flow: FlowId) -> ProbeEvent {
        ProbeEvent {
            time: at(t),
            seq: 0,
            node,
            id,
            phase,
            dur: SimDuration::from_nanos(dur),
            label: "",
            a: 0,
            b: 0,
            flow,
        }
    }

    /// A stream that starts with every pairing and linking corner case,
    /// then decodes `words` into records over 4 nodes, 3 origins and 2
    /// tags. Time advances by 0–2 ns per record; `seq` is stream order.
    fn stream(words: &[u64]) -> Vec<ProbeEvent> {
        // Two roots reuse tag 5 towards node 2, so (dest 2, tag 5) has two
        // link candidates for a hop that starts at node 2.
        let (a, b) = (FlowId::new(0, 5, 2), FlowId::new(1, 5, 2));
        let fwd = FlowId::new(0, 5, 3);
        let mut v = vec![
            record(0, 0, HOSTP, Phase::Complete, 3, a),
            record(0, 1, HOSTP, Phase::Complete, 2, b),
            record(1, 2, WIREP, Phase::Mark, 0, b),
            record(2, 2, WIREP, Phase::Mark, 0, a),
            // Unmatched End.
            record(2, 2, PCIP, Phase::End, 0, FlowId::NONE),
            // A Begin overwritten by a flowless Begin before its End.
            record(3, 2, WIREP, Phase::Begin, 0, fwd),
            record(3, 2, WIREP, Phase::Begin, 0, FlowId::NONE),
            record(4, 2, WIREP, Phase::End, 0, FlowId::NONE),
            // Flowless Complete.
            record(4, 2, LANAIP, Phase::Complete, 5, FlowId::NONE),
            record(5, 2, WIREP, Phase::Begin, 0, fwd),
            record(6, 2, FLOW_DELIVERY, Phase::Mark, 0, a),
            record(7, 2, WIREP, Phase::End, 0, FlowId::NONE),
            record(9, 3, FLOW_DELIVERY, Phase::Mark, 0, fwd),
        ];
        let mut t = 10;
        for &r in words {
            t += r % 3;
            let node = ((r >> 2) % 4) as u32;
            let flow = if (r >> 11) % 5 == 0 {
                FlowId::NONE
            } else {
                FlowId::new(((r >> 14) % 3) as u32, (r >> 16) % 2, ((r >> 17) % 4) as u32)
            };
            let id = POINTS[((r >> 4) % 5) as usize];
            let phase = match (r >> 8) % 8 {
                0..=2 => Phase::Begin,
                3..=4 => Phase::End,
                5 => Phase::Complete,
                _ => Phase::Mark,
            };
            v.push(record(t, node, id, phase, (r >> 24) % 40, flow));
        }
        for (i, e) in v.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        v
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn build_matches_the_btreemap_reference(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..160),
        ) {
            let events = stream(&words);
            let got = FlowGraph::build(&events);
            let want = reference::build(&events);
            let flows = want.flows();
            proptest::prop_assert_eq!(got.flows().collect::<Vec<_>>(), flows.clone());
            proptest::prop_assert_eq!(got.delivered(), want.delivered());
            for f in flows.iter().copied().chain([FlowId::NONE, FlowId::new(9, 9, 9)]) {
                proptest::prop_assert_eq!(got.pred(f), want.pred(f), "pred of {}", f);
                proptest::prop_assert_eq!(got.start_node(f), want.start_node(f));
                proptest::prop_assert_eq!(got.lineage(f), want.lineage(f));
            }
            proptest::prop_assert_eq!(got.validate(), want.validate());

            // Every window with edges at 0, a delivery, or past the end.
            let end = events.last().map_or(0, |e| e.time.as_nanos()) + 1;
            let mut edges: Vec<u64> = events
                .iter()
                .filter(|e| e.id.name == FLOW_DELIVERY.name)
                .map(|e| e.time.as_nanos())
                .chain([0, end])
                .collect();
            edges.sort_unstable();
            edges.dedup();
            for (i, &ws) in edges.iter().enumerate() {
                for &we in &edges[i..] {
                    let w = (at(ws), at(we));
                    proptest::prop_assert_eq!(got.critical_path(w), want.critical_path(w), "window {:?}", w);
                }
            }
        }
    }

    #[test]
    fn tags_reused_across_roots_give_the_link_pass_two_candidates() {
        let g = FlowGraph::build(&stream(&[]));
        let fwd = FlowId::new(0, 5, 3);
        // Both roots reached node 2 before the hop began; the later arrival
        // (a, at 2 ns) is the predecessor.
        assert_eq!(g.pred(fwd), Some(FlowId::new(0, 5, 2)));
        assert_eq!(g.lineage(fwd).len(), 2);
    }
}
