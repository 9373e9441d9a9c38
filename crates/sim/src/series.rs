//! `sim::series` — deterministic time-series telemetry.
//!
//! Gauges are step functions over simulated time: send/receive token
//! occupancy, NIC SRAM buffer usage, PCI and injection-link utilization,
//! event-queue depth. A [`SeriesSink`] records one [`SeriesPoint`] per
//! *change* of a `(node, gauge)` pair (consecutive equal samples are
//! deduplicated), so the stored stream is exactly the step function and is
//! byte-identical however often a site samples.
//!
//! The discipline matches `sim::probe`:
//!
//! * **zero-cost when disabled** — [`SeriesSink::record`] is one branch and
//!   never allocates on a disabled sink;
//! * **bounded** — points land in a ring pre-allocated at construction;
//!   overflow bumps a `dropped` counter instead of growing;
//! * **canonical merge** — per-shard sinks merge by a stable sort on
//!   `(time, node, gauge)`, and since every `(node, gauge)` pair is owned
//!   by exactly one shard, the merged stream is identical at any shard
//!   count.
//!
//! [`SeriesSink::summarize`] folds the step functions into per-gauge
//! [`GaugeSummary`] rows: min/max/last, a time-weighted mean, and a
//! fixed-width histogram of time spent at each value band.

use crate::canonical::{self, Canonical};
use crate::time::SimTime;

/// What a run samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesConfig {
    enabled: bool,
    capacity: usize,
}

impl SeriesConfig {
    /// Default ring capacity of [`SeriesConfig::on`].
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    /// Sample nothing; every gauge site reduces to one branch.
    pub const fn off() -> Self {
        SeriesConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// Sample gauges into a ring of the default capacity.
    pub const fn on() -> Self {
        SeriesConfig {
            enabled: true,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Sample gauges into a ring of `capacity` points.
    pub const fn with_capacity(capacity: usize) -> Self {
        SeriesConfig {
            enabled: capacity > 0,
            capacity,
        }
    }

    /// Whether anything is sampled.
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig::off()
    }
}

/// One gauge transition: `(node, gauge)` took `value` at `time`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Simulated time of the transition.
    pub time: SimTime,
    /// Total order among equal timestamps (per sink; renumbered on merge).
    pub seq: u64,
    /// Node the gauge belongs to (shard index for execution gauges).
    pub node: u32,
    /// Static gauge name. Gauges prefixed `exec_` describe the *execution*
    /// (queue depths, shard scheduling) and are allowed to differ between
    /// sequential and sharded runs; all others are simulation state and
    /// must be mode-independent.
    pub gauge: &'static str,
    /// The new value.
    pub value: u64,
}

impl Canonical for SeriesPoint {
    type Key = (SimTime, u32, &'static str);

    fn time(&self) -> SimTime {
        self.time
    }

    fn key(&self) -> (SimTime, u32, &'static str) {
        (self.time, self.node, self.gauge)
    }

    fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// Number of fixed-width value bands in a [`GaugeSummary`] histogram.
pub const HIST_BINS: usize = 8;

/// Summary of one `(node, gauge)` step function over `[0, end]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeSummary {
    /// Gauge name.
    pub gauge: &'static str,
    /// Owning node.
    pub node: u32,
    /// Smallest value taken.
    pub min: u64,
    /// Largest value taken.
    pub max: u64,
    /// Value at `end`.
    pub last: u64,
    /// Time-weighted mean, scaled by 1000 (integer, deterministic).
    pub mean_x1000: u64,
    /// Nanoseconds spent in each of [`HIST_BINS`] equal value bands of
    /// `[min, max]` (all in bin 0 when `min == max`). Sums to the observed
    /// span (first transition to `end`).
    pub hist: [u64; HIST_BINS],
}

/// The ring-buffer sink gauge transitions land in.
#[derive(Clone, Debug, Default)]
pub struct SeriesSink {
    config: SeriesConfig,
    points: Vec<SeriesPoint>,
    head: usize,
    seq: u64,
    dropped: u64,
    /// Last value per `(node, gauge)` — the dedup filter. Two levels: a
    /// pointer-compared scan over the handful of distinct gauge names, then
    /// a dense per-node table, so the hot path is O(#gauges) cheap compares
    /// plus one index instead of a linear scan over nodes × gauges.
    last: Vec<(&'static str, Vec<Option<u64>>)>,
    /// Last values per [`record_row`](Self::record_row) row: the row's gauge
    /// names, then a dense `node × gauge` table of the values it sampled.
    rows: Vec<(&'static [&'static str], Vec<Option<u64>>)>,
}

impl SeriesSink {
    /// A sink for `config` (pre-allocates the ring iff enabled).
    pub fn new(config: SeriesConfig) -> Self {
        let points = if config.is_enabled() {
            Vec::with_capacity(config.capacity)
        } else {
            Vec::new()
        };
        SeriesSink {
            config,
            points,
            head: 0,
            seq: 0,
            dropped: 0,
            last: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// A disabled sink (the default for clusters).
    pub fn disabled() -> Self {
        SeriesSink::new(SeriesConfig::off())
    }

    /// Whether samples are kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration in use.
    pub fn config(&self) -> SeriesConfig {
        self.config
    }

    /// Sample `(node, gauge) = value` at `time`. Free (one branch) when
    /// disabled; a no-op when the value is unchanged; otherwise a ring
    /// write (overflow bumps [`SeriesSink::dropped`], never grows).
    // simlint::hot
    #[inline]
    pub fn record(&mut self, time: SimTime, node: u32, gauge: &'static str, value: u64) {
        if !self.config.enabled {
            return;
        }
        // Gauge names are interned `&'static str`s, so pointer equality is
        // the common-case hit; string equality runs only on a miss.
        let gi = match self.last.iter().position(|(g, _)| std::ptr::eq(*g, gauge)) {
            Some(i) => i,
            None => self.intern_gauge(gauge),
        };
        let nodes = &mut self.last[gi].1;
        let slot = node as usize;
        if slot >= nodes.len() {
            Self::grow_nodes(nodes, slot);
        }
        match nodes[slot] {
            Some(v) if v == value => return,
            _ => nodes[slot] = Some(value),
        }
        let p = SeriesPoint {
            time,
            seq: self.seq,
            node,
            gauge,
            value,
        };
        self.seq += 1;
        if self.points.len() < self.config.capacity {
            self.points.push(p);
        } else {
            self.points[self.head] = p;
            self.head = (self.head + 1) % self.config.capacity;
            self.dropped += 1;
        }
    }

    /// Sample a row of gauges of one node at once: the same as one
    /// [`record`](Self::record) per gauge, in order, but a gauge whose value
    /// equals the one this row last sampled costs one compare, so an
    /// unchanged row never looks a gauge name up.
    ///
    /// Pass the same `static` name array on every call (its address keys
    /// the row's cache), and sample its gauges through this method only.
    // simlint::hot
    #[inline]
    pub fn record_row<const N: usize>(
        &mut self,
        time: SimTime,
        node: u32,
        gauges: &'static [&'static str; N],
        values: [u64; N],
    ) {
        if !self.config.enabled {
            return;
        }
        let ri = match self.rows.iter().position(|(g, _)| std::ptr::eq(*g, gauges.as_slice())) {
            Some(i) => i,
            None => self.intern_row(gauges),
        };
        let base = node as usize * N;
        if base + N > self.rows[ri].1.len() {
            Self::grow_nodes(&mut self.rows[ri].1, base + N - 1);
        }
        for (i, (&gauge, &value)) in gauges.iter().zip(&values).enumerate() {
            let prev = &mut self.rows[ri].1[base + i];
            if *prev != Some(value) {
                *prev = Some(value);
                self.record(time, node, gauge, value);
            }
        }
    }

    /// A gauge name not found by address: find it by string (the same name
    /// spelled at another call site), else append a dedup row for it. Kept
    /// out of the hot path so `record` stays allocation-free after warm-up.
    #[cold]
    fn intern_gauge(&mut self, gauge: &'static str) -> usize {
        if let Some(i) = self.last.iter().position(|(g, _)| *g == gauge) {
            return i;
        }
        self.last.push((gauge, Vec::new()));
        self.last.len() - 1
    }

    /// First sighting of a row: append its per-node value cache.
    #[cold]
    fn intern_row(&mut self, gauges: &'static [&'static str]) -> usize {
        self.rows.push((gauges, Vec::new()));
        self.rows.len() - 1
    }

    /// First sighting of a node index for a gauge: grow its dense table.
    #[cold]
    fn grow_nodes(nodes: &mut Vec<Option<u64>>, slot: usize) {
        nodes.resize(slot + 1, None);
    }

    /// Recorded transitions, oldest first (ring rotation already applied).
    pub fn iter(&self) -> impl Iterator<Item = &SeriesPoint> + Clone + '_ {
        let (tail, front) = self.points.split_at(self.head.min(self.points.len()));
        front.iter().chain(tail.iter())
    }

    /// Number of transitions currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing was sampled (or the sink is disabled).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Ring slots actually allocated (0 for a disabled sink).
    pub fn allocated_capacity(&self) -> usize {
        self.points.capacity()
    }

    /// Transitions overwritten because the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Merge per-shard sinks into one canonical stream: stable sort by
    /// `(time, node, gauge)` (preserving each sink's internal order), then
    /// renumber. Every `(node, gauge)` pair is sampled by exactly one
    /// shard, so the merged stream is independent of the sharding. The
    /// sort runs in linear time on the sinks' own ring buffers (see
    /// `sim::canonical`).
    pub fn merge_canonical(sinks: Vec<SeriesSink>) -> SeriesSink {
        let enabled = sinks.iter().any(SeriesSink::is_enabled);
        let capacity: usize = sinks.iter().map(|s| s.config.capacity).sum();
        let dropped: u64 = sinks.iter().map(|s| s.dropped).sum();
        let points = canonical::merge(sinks.into_iter().map(|s| (s.points, s.head)).collect());
        let seq = points.len() as u64;
        SeriesSink {
            config: SeriesConfig {
                enabled,
                capacity: capacity.max(points.len()),
            },
            points,
            head: 0,
            seq,
            dropped,
            last: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Fold every `(node, gauge)` step function into a [`GaugeSummary`],
    /// sorted by `(gauge, node)`. Each function is evaluated from its first
    /// transition to `end`.
    ///
    /// One [`GaugeGroups`] regroup lists each function's points in stream
    /// order as positions into the ring, and each group is folded in two
    /// passes over its own points, so the cost is linear in the points held.
    pub fn summarize(&self, end: SimTime) -> Vec<GaugeSummary> {
        let groups = GaugeGroups::new(self.iter());
        // Stream position → point, ring rotation applied.
        let (tail, front) = self.points.split_at(self.head.min(self.points.len()));
        let point = |i: u32| {
            let i = i as usize;
            front.get(i).unwrap_or_else(|| &tail[i - front.len()])
        };
        let mut out = Vec::with_capacity(groups.len());
        for (gauge, node, at) in groups.iter() {
            let (mut min, mut max) = (u64::MAX, 0);
            for &i in at {
                let v = point(i).value;
                min = min.min(v);
                max = max.max(v);
            }
            let last = at.last().map_or(0, |&i| point(i).value);
            // Durations at each value: from each transition to the next
            // (or to `end`).
            let mut weighted: u128 = 0;
            let mut span: u64 = 0;
            let mut hist = [0u64; HIST_BINS];
            for (k, &i) in at.iter().enumerate() {
                let p = point(i);
                let until = at.get(k + 1).map_or(end, |&n| point(n).time).max(p.time);
                let dur = until.as_nanos().saturating_sub(p.time.as_nanos());
                if dur == 0 {
                    continue;
                }
                weighted += u128::from(dur) * u128::from(p.value);
                span += dur;
                let bin = if max == min {
                    0
                } else {
                    // Fixed-width bands over [min, max], top value inclusive.
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

/// A point stream regrouped into its `(gauge, node)` step functions: the
/// one regroup behind [`SeriesSink::summarize`] and
/// `WatchEngine::scan_series`.
///
/// Groups come in `(gauge, node)` order, each listing its points as
/// positions in the input stream, in stream order. The regroup is a
/// counting sort over dense `(gauge, node)` group ids: a gauge name is
/// interned by address first and by string only on an address miss (two
/// spellings of one name are one gauge), then indexes a per-gauge table of
/// node ids. No point is string-compared or looked up in a map; only the
/// groups themselves are sorted by name. Node ids index the table directly,
/// as they index the recording sink's own dedup table.
pub(crate) struct GaugeGroups {
    /// Stream positions, grouped.
    at: Vec<u32>,
    /// Per group, in `(gauge, node)` order: the gauge, the node, and the
    /// end of its positions in `at` (each group starts where the previous
    /// one ends).
    groups: Vec<(&'static str, u32, u32)>,
}

impl GaugeGroups {
    /// Group id marking a node without points in a gauge's table.
    const NONE: u32 = u32::MAX;

    /// Regroup `points` (positions count from 0 in iteration order).
    pub(crate) fn new<'a>(points: impl IntoIterator<Item = &'a SeriesPoint>) -> GaugeGroups {
        // Distinct gauge names, each with its node → group id table.
        let mut names: Vec<(&'static str, Vec<u32>)> = Vec::new();
        // Every address a name was seen at, with the name's index.
        let mut spellings: Vec<(&'static str, usize)> = Vec::new();
        // Per group: (name index, node) and its point count.
        let mut keys: Vec<(usize, u32)> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        // Per point: its group id.
        let mut gid: Vec<u32> = Vec::new();
        for p in points {
            let ni = match spellings.iter().find(|(g, _)| std::ptr::eq(*g, p.gauge)) {
                Some(&(_, ni)) => ni,
                None => {
                    let ni = names.iter().position(|(g, _)| *g == p.gauge).unwrap_or_else(|| {
                        names.push((p.gauge, Vec::new()));
                        names.len() - 1
                    });
                    spellings.push((p.gauge, ni));
                    ni
                }
            };
            let table = &mut names[ni].1;
            let node = p.node as usize;
            if node >= table.len() {
                table.resize(node + 1, Self::NONE);
            }
            if table[node] == Self::NONE {
                table[node] = keys.len() as u32;
                keys.push((ni, p.node));
                counts.push(0);
            }
            counts[table[node] as usize] += 1;
            gid.push(table[node]);
        }

        // Order the groups by (name, node), lay their positions out in that
        // order, then place every point at its group's cursor.
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&g| (names[keys[g].0].0, keys[g].1));
        let mut cursor = vec![0u32; keys.len()];
        let mut groups = Vec::with_capacity(keys.len());
        let mut end = 0u32;
        for &g in &order {
            cursor[g] = end;
            end += counts[g];
            groups.push((names[keys[g].0].0, keys[g].1, end));
        }
        let mut at = vec![0u32; gid.len()];
        for (i, g) in gid.into_iter().enumerate() {
            let c = &mut cursor[g as usize];
            at[*c as usize] = i as u32;
            *c += 1;
        }
        GaugeGroups { at, groups }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// `(gauge, node, positions)` per group, in `(gauge, node)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, u32, &[u32])> + '_ {
        let starts = std::iter::once(0).chain(self.groups.iter().map(|g| g.2));
        self.groups
            .iter()
            .zip(starts)
            .map(|(&(gauge, node, end), start)| (gauge, node, &self.at[start as usize..end as usize]))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_sink_records_nothing_and_allocates_nothing() {
        let mut s = SeriesSink::disabled();
        for i in 0..10_000 {
            s.record(at(i), 0, "tokens", i);
        }
        assert!(s.is_empty());
        assert_eq!(s.allocated_capacity(), 0, "disabled sink must not allocate");
        assert!(!s.is_enabled());
    }

    #[test]
    fn consecutive_equal_samples_deduplicate() {
        let mut s = SeriesSink::new(SeriesConfig::with_capacity(16));
        s.record(at(0), 0, "tokens", 4);
        s.record(at(10), 0, "tokens", 4);
        s.record(at(20), 0, "tokens", 3);
        s.record(at(30), 0, "tokens", 3);
        s.record(at(40), 0, "tokens", 4);
        let vals: Vec<u64> = s.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![4, 3, 4]);
        // An equal value on a different node is not deduplicated away.
        s.record(at(50), 1, "tokens", 4);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn ring_overflow_counts_dropped() {
        let mut s = SeriesSink::new(SeriesConfig::with_capacity(4));
        for i in 0..10u64 {
            s.record(at(i), 0, "q", i);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        let vals: Vec<u64> = s.iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![6, 7, 8, 9]);
    }

    #[test]
    fn merge_is_canonical_and_shard_independent() {
        let mk = |recs: &[(u64, u32, u64)]| {
            let mut s = SeriesSink::new(SeriesConfig::with_capacity(64));
            for &(t, n, v) in recs {
                s.record(at(t), n, "tokens", v);
            }
            s
        };
        let whole = mk(&[(0, 0, 1), (0, 1, 2), (5, 0, 3), (7, 1, 4)]);
        let a = mk(&[(0, 0, 1), (5, 0, 3)]);
        let b = mk(&[(0, 1, 2), (7, 1, 4)]);
        let merged = SeriesSink::merge_canonical(vec![a, b]);
        let one = SeriesSink::merge_canonical(vec![whole]);
        let m: Vec<_> = merged.iter().copied().collect();
        let o: Vec<_> = one.iter().copied().collect();
        assert_eq!(m, o, "merge must not depend on sharding");
    }

    /// The canonical merge by its definition: concatenate the sinks'
    /// streams, stable-sort by `(time, node, gauge)`, renumber. The oracle
    /// for [`SeriesSink::merge_canonical`].
    fn merge_reference(sinks: &[SeriesSink]) -> Vec<SeriesPoint> {
        let mut points: Vec<SeriesPoint> = sinks.iter().flat_map(|s| s.iter().copied()).collect();
        points.sort_by_key(|p| (p.time, p.node, p.gauge));
        for (i, p) in points.iter_mut().enumerate() {
            p.seq = i as u64;
        }
        points
    }

    const GAUGES: [&str; 3] = ["tokens", "queue", "sram"];

    /// How a generated sink spaces its points in time.
    const UNORDERED: u8 = 0;
    const ONE_INSTANT: u8 = 1;

    /// One sink from `(capacity, mode, points)`: each point is `(time
    /// step, node, gauge index, raw time)`. Ordered modes accumulate the
    /// steps; [`ONE_INSTANT`] puts every point at one time; [`UNORDERED`]
    /// uses the raw times as drawn. Values count up, so no sample dedups.
    fn sink_from(capacity: usize, mode: u8, pts: &[(u64, u32, usize, u64)]) -> SeriesSink {
        let mut s = SeriesSink::new(SeriesConfig::with_capacity(capacity));
        let mut t = 0;
        for (i, &(step, node, g, raw)) in pts.iter().enumerate() {
            let time = match mode {
                UNORDERED => raw,
                ONE_INSTANT => 7,
                _ => {
                    t += step;
                    t
                }
            };
            s.record(at(time), node, GAUGES[g], i as u64);
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn merge_matches_concatenate_and_sort(
            specs in proptest::collection::vec(
                (
                    1usize..48,
                    0u8..4,
                    proptest::collection::vec((0u64..3, 0u32..12, 0usize..3, 0u64..20), 0..48),
                ),
                1..5,
            ),
        ) {
            let sinks: Vec<SeriesSink> =
                specs.iter().map(|(cap, mode, pts)| sink_from(*cap, *mode, pts)).collect();
            let want = merge_reference(&sinks);
            let dropped: u64 = sinks.iter().map(SeriesSink::dropped).sum();
            let merged = SeriesSink::merge_canonical(sinks);
            let got: Vec<SeriesPoint> = merged.iter().copied().collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(merged.dropped(), dropped);
        }

        #[test]
        fn record_row_equals_one_record_per_gauge(
            rows in proptest::collection::vec(
                (0u64..3, 0u32..4, (0u64..3, 0u64..3, 0u64..3)),
                0..64,
            ),
        ) {
            static ROW: [&str; 3] = GAUGES;
            let mut by_row = SeriesSink::new(SeriesConfig::with_capacity(256));
            let mut by_gauge = SeriesSink::new(SeriesConfig::with_capacity(256));
            let mut t = 0;
            for &(step, node, (a, b, c)) in &rows {
                t += step;
                by_row.record_row(at(t), node, &ROW, [a, b, c]);
                for (g, v) in GAUGES.into_iter().zip([a, b, c]) {
                    by_gauge.record(at(t), node, g, v);
                }
            }
            let got: Vec<SeriesPoint> = by_row.iter().copied().collect();
            let want: Vec<SeriesPoint> = by_gauge.iter().copied().collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// [`SeriesSink::summarize`] with the `BTreeMap` regroup that
    /// [`GaugeGroups`] replaced: the oracle for both.
    fn summarize_reference(sink: &SeriesSink, end: SimTime) -> Vec<GaugeSummary> {
        let mut groups: std::collections::BTreeMap<(&'static str, u32), Vec<&SeriesPoint>> =
            std::collections::BTreeMap::new();
        for p in sink.iter() {
            groups.entry((p.gauge, p.node)).or_default().push(p);
        }
        let mut out = Vec::with_capacity(groups.len());
        for ((gauge, node), pts) in groups {
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

    /// A sink whose gauges include one name at two addresses (`"tokens"`
    /// from a literal and from a leaked `String`) and whose node ids are
    /// sparse. Each point is `(time step, node pick, gauge pick, value)`.
    pub(crate) fn sparse_sink(capacity: usize, pts: &[(u64, usize, usize, u64)]) -> SeriesSink {
        const NODES: [u32; 5] = [0, 1, 7, 300, 4096];
        let tokens_again: &'static str = Box::leak(String::from("tokens").into_boxed_str());
        let gauges = ["tokens", tokens_again, "queue", "exec_depth"];
        assert!(!std::ptr::eq(gauges[0], gauges[1]));
        let mut s = SeriesSink::new(SeriesConfig::with_capacity(capacity));
        let mut t = 0;
        for &(step, n, g, v) in pts {
            t += step;
            s.record(at(t), NODES[n % NODES.len()], gauges[g % gauges.len()], v);
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn summarize_matches_the_btreemap_reference(
            capacity in 1usize..96,
            pts in proptest::collection::vec((0u64..4, 0usize..5, 0usize..4, 0u64..6), 0..128),
            tail in 0u64..50,
        ) {
            let sink = sparse_sink(capacity, &pts);
            let t = sink.iter().last().map_or(0, |p| p.time.as_nanos());
            let end = at((t + tail).saturating_sub(25));
            proptest::prop_assert_eq!(sink.summarize(end), summarize_reference(&sink, end));
        }
    }

    #[test]
    fn two_spellings_of_a_gauge_summarize_as_one() {
        let s = sparse_sink(16, &[(1, 3, 0, 2), (1, 3, 1, 5), (1, 4, 1, 1)]);
        let keys: Vec<(&str, u32)> = s.summarize(at(10)).iter().map(|g| (g.gauge, g.node)).collect();
        assert_eq!(keys, vec![("tokens", 300), ("tokens", 4096)]);
        assert_eq!(s.summarize(at(10)), summarize_reference(&s, at(10)));
    }

    #[test]
    fn summary_is_time_weighted_and_hist_sums_to_span() {
        let mut s = SeriesSink::new(SeriesConfig::with_capacity(64));
        // value 2 on [0,100), 6 on [100,400), 2 on [400,1000].
        s.record(at(0), 3, "tokens", 2);
        s.record(at(100), 3, "tokens", 6);
        s.record(at(400), 3, "tokens", 2);
        let sums = s.summarize(at(1000));
        assert_eq!(sums.len(), 1);
        let g = sums[0];
        assert_eq!((g.gauge, g.node), ("tokens", 3));
        assert_eq!((g.min, g.max, g.last), (2, 6, 2));
        // mean = (2*700 + 6*300) / 1000 = 3.2
        assert_eq!(g.mean_x1000, 3200);
        assert_eq!(g.hist.iter().sum::<u64>(), 1000);
        // min band holds the 700ns at value 2; top band the 300ns at 6.
        assert_eq!(g.hist[0], 700);
        assert_eq!(g.hist.iter().rev().sum::<u64>() - g.hist[0], 300);
    }

    #[test]
    fn summaries_sort_by_gauge_then_node() {
        let mut s = SeriesSink::new(SeriesConfig::with_capacity(64));
        s.record(at(0), 1, "z", 1);
        s.record(at(0), 0, "a", 1);
        s.record(at(0), 0, "z", 1);
        let keys: Vec<(&str, u32)> = s
            .summarize(at(10))
            .iter()
            .map(|g| (g.gauge, g.node))
            .collect();
        assert_eq!(keys, vec![("a", 0), ("z", 0), ("z", 1)]);
    }
}
