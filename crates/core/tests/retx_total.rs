//! The per-NIC typed retransmission total against the protocol counters it
//! stands for, after a lossy run that retransmits on both the unicast
//! Go-Back-N path and the multicast extension's group timers.

use gm_sim::series::SeriesConfig;
use myrinet::NodeId;
use nic_mcast::{build_cluster, McastMode, McastRun, TreeShape};

#[test]
fn typed_retransmission_total_equals_the_counters_and_the_gauge() {
    // NIC-based multicast down the tree, and the probe destination's
    // unicast reply to the root each iteration: 5% loss hits both paths.
    let mut run = McastRun::new(8, 2048, McastMode::NicBased, TreeShape::KAry(2));
    run.warmup = 1;
    run.iters = 40;
    run.faults.drop_prob = 0.05;
    let (mut cluster, _shared) = build_cluster(&run);
    cluster.set_series(SeriesConfig::on());
    let mut eng = cluster.into_engine();
    assert_eq!(eng.run_to_idle(), gm_sim::RunOutcome::Idle, "run did not converge");
    let world = eng.world();
    assert_eq!(world.series.dropped(), 0);

    let (mut unicast, mut mcast) = (0, 0);
    for n in 0..world.n_nodes() {
        let nic = world.nic(NodeId(n));
        let u = nic.counters.get("retransmissions");
        let m = nic.counters.get("mcast_retransmissions");
        assert_eq!(nic.retransmitted(), u + m, "node {n}: typed total");
        let gauge = world
            .series
            .iter()
            .filter(|p| p.node == n && p.gauge == "retx_total")
            .last()
            .map_or(0, |p| p.value);
        assert_eq!(gauge, u + m, "node {n}: last retx_total sample");
        unicast += u;
        mcast += m;
    }
    assert!(unicast > 0, "the run must retransmit unicast packets");
    assert!(mcast > 0, "the run must retransmit multicast packets");
}
