//! End-to-end soak tests: random faults, a scripted region outage and a
//! zone outage against the full stack, under the soak invariants.

use crdb_bench::soak::{assert_clean_replay, run, Scenario};
use crdb_sim::fault::{FaultPlan, FaultSchedule};
use crdb_util::time::{dur, SimTime};
use crdb_util::RegionId;

/// The small random plan at test sizes.
fn chaos(seed: u64) -> Scenario {
    Scenario {
        workers: 2,
        think_time: dur::ms(300),
        settle: dur::secs(45),
        ..Scenario::chaos(seed, FaultPlan::small(9, 3))
    }
}

#[test]
fn chaos_small_plan_holds_invariants_and_replays() {
    let report = run(&chaos(5));
    assert!(
        report.faults_injected >= 10,
        "small plan injects its events: {}",
        report.faults_injected
    );
    assert!(report.committed > 0, "workload progresses under faults");

    // No violations, and the same seed replays to a byte-identical fault
    // log and a byte-identical metrics registry snapshot.
    assert_clean_replay(&chaos(5), &report);
    assert!(report.metrics_snapshot.contains("proxy.connects"), "snapshot covers the proxy layer");
    assert!(
        report.metrics_snapshot.contains("kv.node.1.storage.flush_bytes"),
        "snapshot covers the storage layer"
    );
}

#[test]
fn different_seeds_give_different_schedules() {
    let a = run(&chaos(5));
    let b = run(&chaos(6));
    assert_ne!(a.log, b.log);
    assert!(b.violations.is_empty(), "{:?}", b.violations);
}

#[test]
fn scripted_region_loss_holds_invariants_and_replays() {
    let scenario = Scenario {
        workers: 2,
        think_time: dur::ms(300),
        ..Scenario::region_loss(11, dur::secs(15), dur::secs(30), dur::secs(60))
    };
    let report = run(&scenario);
    assert!(report.committed > 0, "workload progresses through the disaster");
    assert!(report.slots_lost > 0, "the dark region burned warm slots");
    assert!(report.log.contains("region-outage region=1"), "script injected the outage");
    assert!(report.log.contains("region-recover region=1"), "script recovered the region");
    assert!(report.log.contains("tenants re-homed"), "the victim tenant was re-homed");

    // No violations, and the same seed replays to a byte-identical fault
    // log and metrics snapshot; degradation counters live in the snapshot.
    assert_clean_replay(&scenario, &report);
    assert!(
        report.metrics_snapshot.contains("kv.degrade.deadline_exceeded"),
        "snapshot surfaces degradation counters"
    );
    assert!(
        report.metrics_snapshot.contains("pool.slots_lost"),
        "snapshot surfaces burned warm slots"
    );
}

#[test]
fn zone_loss_holds_invariants_and_replays() {
    // One zone of region 1 dark for 30s, mid-run, against the chaos tenants.
    let at = SimTime::ZERO + dur::secs(30);
    let scenario = Scenario {
        faults: FaultSchedule::zone_loss(RegionId(1), 0, at, dur::secs(30)),
        run: dur::secs(120),
        ..chaos(9)
    };
    let report = run(&scenario);
    assert!(report.committed > 0, "workload progresses through the zone outage");
    assert!(report.log.contains("zone outage region=1 zone=0: 1 kv nodes down"), "{}", report.log);
    assert!(report.log.contains("zone recovered region=1 zone=0"), "{}", report.log);
    assert_clean_replay(&scenario, &report);
}
