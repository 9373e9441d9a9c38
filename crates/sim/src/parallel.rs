//! Lookahead-windowed sharded execution: split a world into partitions and
//! run them with a bit-for-bit deterministic merge.
//!
//! A [`ShardWorld`] is one partition of a simulation: it owns a disjoint
//! slice of the world's state and an [`EventQueue`](crate::EventQueue) of its
//! own, and interacts with other shards **only** by emitting hand-off
//! messages into an [`Outbox`]. The [`ShardedEngine`] runs the classic
//! conservative (Chandy–Misra / YAWNS-style) window loop on the calling
//! thread:
//!
//! 1. every shard reports the timestamp of its earliest pending event;
//! 2. the global window start `W` is the minimum; each shard in turn then
//!    dispatches its local events while `t < horizon`, where its horizon is
//!    at least `W + lookahead` (`lookahead` = the minimum latency of any
//!    cross-shard interaction, so nothing a peer does inside the window can
//!    affect events this side of the horizon);
//! 3. between windows, emitted hand-offs are routed to their destination
//!    shards and absorbed in the canonical `(time, src, seq)` order.
//!
//! Two refinements on the textbook loop:
//!
//! * **Per-shard horizons.** Shard `i` may run past `W + lookahead`, up to
//!   `min(earliest event of any *other* shard, earliest hand-off it emitted
//!   itself this window) + lookahead`. When only one shard is active (the
//!   serial phases of a ping-pong workload) it keeps running alone until it
//!   actually talks to a peer, so it needs few windows.
//! * **Determinism is schedule-independent.** Window sizing only decides
//!   *when* events are dispatched, never their relative order within a
//!   shard (each queue is insertion-stable) or the order of hand-offs
//!   (sorted by the unique `(time, src, seq)` key before absorption, and
//!   delivered ahead of same-instant local events via
//!   [`EventClass::Wire`](crate::queue::EventClass)). Results are therefore
//!   bit-for-bit identical to the sequential engine — proven by the
//!   differential suites in `crates/core`.
//!
//! Sharding never spawns a thread: a measured threaded variant of this loop
//! lost to sequential dispatch on every workload (DESIGN.md §11). Host
//! parallelism comes from running independent simulations side by side,
//! e.g. `bench::par_map` over sweep points.

use crate::engine::{dispatch_stats, RunOutcome, Scheduler};
use crate::time::{SimDuration, SimTime};

/// One partition of a simulated world, driven by the [`ShardedEngine`].
///
/// Implementations must route every cross-shard effect through the
/// [`Outbox`] (with a hand-off time at least `lookahead` after the emitting
/// event) and keep all other state strictly shard-local.
pub trait ShardWorld {
    /// The event alphabet of this world.
    type Event;
    /// A cross-shard hand-off message (e.g. a packet crossing the fabric).
    type Handoff;

    /// Handle one event at `sched.now()`, emitting any cross-shard effects
    /// into `outbox`.
    fn handle(
        &mut self,
        event: Self::Event,
        sched: &mut Scheduler<Self::Event>,
        outbox: &mut Outbox<Self::Handoff>,
    );

    /// Deliver one hand-off emitted by a peer shard. Called between
    /// windows, in canonical `(time, src, seq)` order; implementations
    /// typically buffer the payload and schedule a wire-class drain event
    /// at `msg.time` via [`Scheduler::at_wire`].
    fn absorb(&mut self, msg: OutMsg<Self::Handoff>, sched: &mut Scheduler<Self::Event>);
}

/// One cross-shard hand-off in flight.
pub struct OutMsg<H> {
    /// Destination shard index.
    pub dst_shard: u32,
    /// Simulated arrival time at the destination shard (must be at least
    /// `lookahead` after the emitting event).
    pub time: SimTime,
    /// Canonical tie-break key, major: the emitting entity (e.g. source
    /// node id). Together with `seq` this must be unique per message.
    pub src: u64,
    /// Canonical tie-break key, minor: per-`src` emission sequence.
    pub seq: u64,
    /// The message payload.
    pub payload: H,
}

/// Collector for the hand-offs one shard emits during a window.
pub struct Outbox<H> {
    msgs: Vec<OutMsg<H>>,
    /// Earliest hand-off time emitted this window (`SimTime::MAX` if none);
    /// dynamically tightens the emitting shard's horizon.
    earliest: SimTime,
}

impl<H> Outbox<H> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox {
            msgs: Vec::new(),
            earliest: SimTime::MAX,
        }
    }

    /// Emit a hand-off to `dst_shard`, arriving at `time`. `(time, src,
    /// seq)` must be unique per message — it is the canonical merge key.
    pub fn send(&mut self, dst_shard: u32, time: SimTime, src: u64, seq: u64, payload: H) {
        self.earliest = self.earliest.min(time);
        self.msgs.push(OutMsg {
            dst_shard,
            time,
            src,
            seq,
            payload,
        });
    }

    /// Number of hand-offs collected.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no hand-off has been emitted.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

impl<H> Default for Outbox<H> {
    fn default() -> Self {
        Self::new()
    }
}

/// Execution diagnostics for one shard, exposed through
/// [`ShardedEngine::shard_stats`] (and surfaced as `parallel.*` metrics by
/// the scenario layer). These describe *how* the run was executed — they
/// legitimately differ across shard counts, unlike simulation results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Windows this shard participated in (run_window invocations).
    pub windows: u64,
    /// Windows whose horizon was dynamically tightened below the static
    /// bound by the shard's own hand-off emissions.
    pub horizon_tightenings: u64,
    /// Events this shard dispatched.
    pub events: u64,
}

/// One shard: its world partition, event queue, and dispatch counters.
struct Lane<W: ShardWorld> {
    world: W,
    sched: Scheduler<W::Event>,
    stats: ShardStats,
}

/// `floor + lookahead`, saturating at `SimTime::MAX` (idle shards publish
/// `MAX`; adding to it must not wrap).
fn horizon(floor_ns: u64, lookahead: SimDuration) -> u64 {
    floor_ns.saturating_add(lookahead.as_nanos())
}

/// The sharded counterpart of [`Engine`](crate::Engine): S shard worlds,
/// each with its own event queue, advanced together in lookahead windows.
pub struct ShardedEngine<W: ShardWorld> {
    lanes: Vec<Lane<W>>,
    lookahead: SimDuration,
}

impl<W: ShardWorld> ShardedEngine<W> {
    /// Wrap `worlds` (one per shard) with empty queues at t=0. `lookahead`
    /// must be the minimum simulated latency of any cross-shard hand-off,
    /// and must be strictly positive — a zero lookahead admits no
    /// conservative window.
    pub fn new(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative windowing needs a positive lookahead"
        );
        ShardedEngine {
            lanes: worlds
                .into_iter()
                .map(|world| Lane {
                    world,
                    sched: Scheduler::new(),
                    stats: ShardStats::default(),
                })
                .collect(),
            lookahead,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.lanes.len()
    }

    /// The window width in use.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Schedule an event on shard `shard` from outside the worlds (workload
    /// kickoff).
    pub fn schedule(&mut self, shard: usize, time: SimTime, event: W::Event) {
        self.lanes[shard].sched.at(time, event);
    }

    /// The latest shard clock (equals the sequential engine's `now()` after
    /// a drained run: the time of the globally last event).
    pub fn now(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|l| l.sched.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events dispatched across all shards.
    pub fn events_handled(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.events).sum()
    }

    /// Per-shard execution diagnostics (windows, horizon tightenings,
    /// events), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.lanes.iter().map(|l| l.stats).collect()
    }

    /// Shared access to shard `i`'s world.
    pub fn world(&self, i: usize) -> &W {
        &self.lanes[i].world
    }

    /// Exclusive access to shard `i`'s world.
    pub fn world_mut(&mut self, i: usize) -> &mut W {
        &mut self.lanes[i].world
    }

    /// Consume the engine, returning the shard worlds in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.lanes.into_iter().map(|l| l.world).collect()
    }

    /// Run until every shard drains.
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run(SimTime::MAX, u64::MAX)
    }

    /// Run until idle, the clock passes `deadline` (no event after it is
    /// dispatched, exactly like the sequential engine), or at least
    /// `max_events` have been dispatched (checked at window boundaries, so
    /// the sharded engine may overshoot by up to one window).
    pub fn run(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        // simlint::allow(det-walltime, "dispatch-rate measurement of the simulator itself; never feeds simulated time")
        let started = std::time::Instant::now();
        let lookahead = self.lookahead;
        let n = self.lanes.len();
        let mut mailboxes: Vec<Vec<OutMsg<W::Handoff>>> = (0..n).map(|_| Vec::new()).collect();
        let mut handled_total = 0u64;
        let outcome = loop {
            // Between windows: absorb routed hand-offs in canonical order.
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let mut msgs = std::mem::take(&mut mailboxes[i]);
                msgs.sort_unstable_by_key(|m| (m.time, m.src, m.seq));
                for m in msgs {
                    lane.world.absorb(m, &mut lane.sched);
                }
            }
            let nexts: Vec<u64> = self
                .lanes
                .iter_mut()
                .map(|l| l.sched.peek_time().map_or(u64::MAX, SimTime::as_nanos))
                .collect();
            let w = nexts.iter().copied().min().expect("nonempty lanes");
            if w == u64::MAX {
                break RunOutcome::Idle;
            }
            if w > deadline.as_nanos() {
                break RunOutcome::TimeLimit;
            }
            if handled_total >= max_events {
                break RunOutcome::EventLimit;
            }
            // Window phase: each shard runs to its own horizon.
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                let other_min = nexts
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &v)| v)
                    .min()
                    .unwrap_or(u64::MAX);
                let bound = horizon(other_min, lookahead).min(deadline.as_nanos().saturating_add(1));
                let mut outbox = Outbox::new();
                handled_total += run_window(lane, bound, lookahead, &mut outbox);
                for m in outbox.msgs {
                    debug_assert_ne!(m.dst_shard as usize, i, "self hand-off must stay local");
                    mailboxes[m.dst_shard as usize].push(m);
                }
            }
        };
        dispatch_stats::add(handled_total, started.elapsed());
        outcome
    }
}

/// Dispatch one shard's events while they fall inside its horizon. The
/// horizon tightens as the shard emits hand-offs: after emitting at time
/// `h`, a peer's reaction can reach back no earlier than `h + lookahead`.
fn run_window<W: ShardWorld>(
    lane: &mut Lane<W>,
    static_bound_ns: u64,
    lookahead: SimDuration,
    outbox: &mut Outbox<W::Handoff>,
) -> u64 {
    let mut handled = 0u64;
    loop {
        let bound = if outbox.earliest == SimTime::MAX {
            static_bound_ns
        } else {
            static_bound_ns.min(horizon(outbox.earliest.as_nanos(), lookahead))
        };
        match lane.sched.peek_time() {
            Some(t) if t.as_nanos() < bound => {}
            _ => break,
        }
        let (_, event) = lane.sched.pop_advance().expect("peeked nonempty");
        lane.world.handle(event, &mut lane.sched, outbox);
        handled += 1;
    }
    lane.stats.windows += 1;
    if outbox.earliest != SimTime::MAX
        && horizon(outbox.earliest.as_nanos(), lookahead) < static_bound_ns
    {
        lane.stats.horizon_tightenings += 1;
    }
    lane.stats.events += handled;
    handled
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard world: each shard owns one node; a node, upon receiving a
    /// token at time t, bounces it to the other node arriving at t + 500ns,
    /// `remaining` times. Cross-shard latency is exactly the lookahead.
    struct OneNode {
        me: u32,
        peer_shard: u32,
        remaining: u32,
        log: Vec<(u64, u64)>,
        sent: u64,
    }

    enum Ev {
        Token(u64),
    }

    impl ShardWorld for OneNode {
        type Event = Ev;
        type Handoff = u64;

        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>, outbox: &mut Outbox<u64>) {
            let Ev::Token(p) = event;
            self.log.push((sched.now().as_nanos(), p));
            if self.remaining > 0 {
                self.remaining -= 1;
                let at = sched.now() + SimDuration::from_nanos(500);
                if self.peer_shard == u32::MAX {
                    // Single-shard mode: bounce locally.
                    sched.at(at, Ev::Token(p + 1));
                } else {
                    outbox.send(self.peer_shard, at, u64::from(self.me), self.sent, p + 1);
                    self.sent += 1;
                }
            }
        }

        fn absorb(&mut self, m: OutMsg<u64>, sched: &mut Scheduler<Ev>) {
            sched.at_wire(m.time, Ev::Token(m.payload));
        }
    }

    #[test]
    fn ping_pong_across_two_shards_matches_one_shard() {
        // Two shards bouncing a token; compare the merged log against the
        // single-shard run of the same protocol.
        fn run(shards: bool) -> Vec<(u64, u64)> {
            let worlds = if shards {
                vec![
                    OneNode {
                        me: 0,
                        peer_shard: 1,
                        remaining: 10,
                        log: vec![],
                        sent: 0,
                    },
                    OneNode {
                        me: 1,
                        peer_shard: 0,
                        remaining: 10,
                        log: vec![],
                        sent: 0,
                    },
                ]
            } else {
                vec![OneNode {
                    me: 0,
                    peer_shard: u32::MAX,
                    remaining: 20,
                    log: vec![],
                    sent: 0,
                }]
            };
            let mut eng = ShardedEngine::new(worlds, SimDuration::from_nanos(500));
            eng.schedule(0, SimTime::ZERO, Ev::Token(0));
            assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
            let mut log: Vec<(u64, u64)> = eng
                .into_worlds()
                .into_iter()
                .flat_map(|w| w.log)
                .collect();
            log.sort_unstable();
            log
        }
        assert_eq!(run(true), run(false));
    }

    /// A ring of shards: each one logs the thread it runs on and forwards
    /// the token to the next shard, `remaining` times.
    struct RingNode {
        me: u32,
        next_shard: u32,
        remaining: u32,
        threads: Vec<std::thread::ThreadId>,
    }

    impl ShardWorld for RingNode {
        type Event = u64;
        type Handoff = u64;

        fn handle(&mut self, hop: u64, sched: &mut Scheduler<u64>, outbox: &mut Outbox<u64>) {
            self.threads.push(std::thread::current().id());
            if self.remaining > 0 {
                self.remaining -= 1;
                let at = sched.now() + SimDuration::from_nanos(500);
                outbox.send(self.next_shard, at, u64::from(self.me), hop, hop + 1);
            }
        }

        fn absorb(&mut self, m: OutMsg<u64>, sched: &mut Scheduler<u64>) {
            sched.at_wire(m.time, m.payload);
        }
    }

    #[test]
    fn sharding_never_spawns_threads() {
        const SHARDS: u32 = 4;
        let worlds = (0..SHARDS)
            .map(|i| RingNode {
                me: i,
                next_shard: (i + 1) % SHARDS,
                remaining: 8,
                threads: vec![],
            })
            .collect();
        let mut eng = ShardedEngine::new(worlds, SimDuration::from_nanos(500));
        // One token per shard, so every window has work on every shard.
        for i in 0..SHARDS as usize {
            eng.schedule(i, SimTime::ZERO, 0);
        }
        assert_eq!(eng.run_to_idle(), RunOutcome::Idle);
        let me = std::thread::current().id();
        for (i, w) in eng.into_worlds().into_iter().enumerate() {
            assert_eq!(w.threads.len(), 9, "shard {i} handled every token hop");
            assert!(
                w.threads.iter().all(|&t| t == me),
                "shard {i} dispatched an event off the calling thread"
            );
        }
    }
}
