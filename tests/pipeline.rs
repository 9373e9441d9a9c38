//! Closed-loop collectives, open-loop workloads and MPI programs all run
//! through the one `nic_mcast` run pipeline, so every report carries the
//! same harvest keys.

use myri_mcast::mpi::{execute_mpi_observed, BcastImpl, MpiRun};
use myri_mcast::sim::{Metrics, SimDuration};
use myri_mcast::{ProbeConfig, Scenario, StopCondition, Workload};

/// Keys the shared harvest stage writes on every run.
const HARVEST_KEYS: [&str; 3] = [
    "engine.events",
    "probe.dropped_events",
    "series.dropped_points",
];

fn assert_harvest_keys(family: &str, metrics: &Metrics, events: u64) {
    for key in HARVEST_KEYS {
        assert!(
            metrics.iter().any(|(k, _)| k == key),
            "{family} report lacks `{key}`: {:?}",
            metrics.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }
    assert_eq!(
        metrics.get("engine.events"),
        events,
        "{family} engine.events"
    );
    assert!(
        metrics.iter().any(|(k, v)| k.starts_with("nic.") && v > 0),
        "{family} rolled up no NIC counters"
    );
}

#[test]
fn every_run_family_reports_the_same_harvest_keys() {
    let scenario = Scenario::nic_based(4)
        .size(256)
        .warmup(1)
        .iters(2)
        .probes(ProbeConfig::spans())
        .run();
    assert_harvest_keys("Scenario", &scenario.metrics, scenario.events);

    let workload = Workload::new(8)
        .groups(2)
        .stop(StopCondition::Messages(6))
        .probes(ProbeConfig::spans())
        .run();
    assert_harvest_keys("Workload", &workload.metrics, workload.events);

    let run = MpiRun::bcast_loop(4, 256, BcastImpl::NicBased, SimDuration::ZERO, 1, 2);
    let (mpi, probe) = execute_mpi_observed(&run, ProbeConfig::spans());
    assert!(!probe.is_empty(), "MPI probes recorded nothing");
    assert_harvest_keys("MpiRun", &mpi.metrics, mpi.events);
}
