//! The fault-scenario soak runner: TPC-C-lite on a three-region
//! serverless deployment under a deterministic [`FaultSchedule`].
//!
//! [`run`] loads each tenant of a [`Scenario`] with TPC-C-lite plus a
//! `secrets` witness row, installs the faults through the chaos
//! controller, drives the workload across the window, heals, settles,
//! and checks through the connections that lived through the faults:
//!
//! 1. **Durability** — `COUNT(*) FROM orders ≥ initial + committed`
//!    New-Orders per tenant (`≥`: a commit whose ack was lost may be
//!    retried and land twice; losing an *acked* commit is the violation).
//! 2. **Isolation** — each tenant reads exactly its own `secrets` row.
//! 3. **Continuity** — if a SQL pod with sessions crashed, a session
//!    migrated; and every scheduled fault fired.
//! 4. Under a `RegionOutage` only: **blast radius** — tenants homed
//!    elsewhere keep their statement p99 under the deadline — and
//!    **visible degradation** — warm slots burned, and a deadline,
//!    breaker or partition fast-fail, or proxy shed fired.
//!
//! [`assert_clean_replay`] also proves a run reproducible: the same
//! scenario gives a byte-identical injector log and metrics snapshot.

use std::rc::Rc;
use std::time::Duration;

use crdb_core::chaos::install_chaos;
use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_sim::fault::{FaultEvent, FaultKind, FaultPlan, FaultSchedule};
use crdb_sim::{Sim, Topology};
use crdb_util::time::{dur, SimTime};
use crdb_util::{RegionId, TenantId};
use crdb_workload::driver::{Driver, DriverConfig, SqlExecutor};
use crdb_workload::executors::{run_setup, ServerlessExecutor};
use crdb_workload::tpcc;

use crate::exec_one;

/// One soak: who runs, what breaks, and for how long.
pub struct Scenario {
    /// RNG seed: drives the simulation and the workloads.
    pub seed: u64,
    /// Tenant tags with their regions, home region first.
    pub tenants: Vec<(&'static str, Vec<RegionId>)>,
    /// The faults, timed from the end of set-up.
    pub faults: FaultSchedule,
    /// How long the workload runs, from the end of set-up.
    pub run: Duration,
    /// Quiet time after the window, before the invariants are checked.
    pub settle: Duration,
    /// Closed-loop workers per tenant.
    pub workers: usize,
    /// Worker think time.
    pub think_time: Duration,
    /// Per-statement deadline stamped at the proxy while the workload runs.
    pub statement_deadline: Option<Duration>,
}

impl Scenario {
    /// Random faults drawn from `plan`, against two tenants homed in
    /// region 0. Soak sizes: 4 workers, 200 ms think time, 60 s settle.
    pub fn chaos(seed: u64, plan: FaultPlan) -> Self {
        Scenario {
            seed,
            tenants: vec![("alpha", vec![RegionId(0)]), ("beta", vec![RegionId(0)])],
            faults: FaultSchedule::generate(seed, &plan),
            run: plan.warmup + plan.horizon,
            settle: dur::secs(60),
            workers: 4,
            think_time: dur::ms(200),
            statement_deadline: None,
        }
    }

    /// Region 1 goes dark at `warmup` for `outage`, 2 s into a pod-start
    /// failure burst, with a 3× latency spike over the outage's middle
    /// half; the workload runs `cooldown` past recovery. One tenant per
    /// region; the victim spans all three so it can be re-homed. Soak
    /// sizes: 3 workers, 200 ms think time, 2 s deadline, 30 s settle.
    pub fn region_loss(seed: u64, warmup: Duration, outage: Duration, cooldown: Duration) -> Self {
        let outage_at = SimTime::ZERO + warmup;
        let spike_at = outage_at + outage / 4;
        let spike = vec![
            FaultEvent { at: spike_at, kind: FaultKind::LatencySpikeStart { factor_pct: 300 } },
            FaultEvent { at: spike_at + outage / 2, kind: FaultKind::LatencySpikeEnd },
        ];
        let [r0, r1, r2] = [0, 1, 2].map(RegionId);
        Scenario {
            seed,
            tenants: vec![("east", vec![r0]), ("victim", vec![r1, r0, r2]), ("west", vec![r2])],
            faults: FaultSchedule::region_loss_mid_cold_start(r1, outage_at, outage, 3)
                .merge(FaultSchedule { events: spike }),
            run: warmup + outage + cooldown,
            settle: dur::secs(30),
            workers: 3,
            think_time: dur::ms(200),
            statement_deadline: Some(dur::secs(2)),
        }
    }
}

/// What one soak produced.
pub struct SoakReport {
    /// The injector's append-only event log (injections + reactions).
    pub log: String,
    /// Faults injected.
    pub faults_injected: usize,
    /// Committed transactions across all tenants.
    pub committed: u64,
    /// Aborted transactions across all tenants.
    pub aborted: u64,
    /// Retry attempts across all tenants.
    pub retries: u64,
    /// Proxy session migrations (drain + revival).
    pub migrations: u64,
    /// Messages dropped by partitions.
    pub dropped_messages: u64,
    /// Warm-pool slots burned by a dark region.
    pub slots_lost: u64,
    /// Proxy statements shed by open per-tenant breakers.
    pub shed_statements: u64,
    /// KV-client fast-fails from open per-node breakers.
    pub breaker_fast_fails: u64,
    /// KV-client fast-fails against targets across a known partition.
    pub partition_fast_fails: u64,
    /// KV batches terminated by a propagated deadline.
    pub deadline_exceeded: u64,
    /// Per-statement p99s of the tenants homed outside a dark region.
    pub healthy_p99: Vec<(&'static str, Duration)>,
    /// Invariant violations; empty means the run was clean.
    pub violations: Vec<String>,
    /// End-of-run unified metrics registry snapshot (JSON).
    pub metrics_snapshot: String,
}

/// One tenant's workload plus the bookkeeping its invariants need.
struct TenantRun {
    tag: &'static str,
    home: RegionId,
    tenant: TenantId,
    executor: Rc<dyn SqlExecutor>,
    driver: Rc<Driver>,
    initial_orders: i64,
}

/// Runs one soak and returns its report.
pub fn run(s: &Scenario) -> SoakReport {
    let sim = Sim::new(s.seed);
    let mut config =
        ServerlessConfig { topology: Topology::three_region(), ..ServerlessConfig::default() };
    config.proxy.statement_deadline = s.statement_deadline;
    let cluster = ServerlessCluster::new(&sim, config);

    let tpcc_cfg = tpcc::TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 2,
        customers_per_district: 5,
        items: 20,
        order_lines: 3,
    };
    let mut runs: Vec<TenantRun> = Vec::new();
    for (i, (tag, regions)) in s.tenants.iter().enumerate() {
        let tenant = cluster.create_tenant(regions.clone(), None);
        let executor: Rc<dyn SqlExecutor> =
            Rc::new(ServerlessExecutor::new(Rc::clone(&cluster), tenant));
        let mut stmts: Vec<String> = tpcc::schema().iter().map(|s| s.to_string()).collect();
        stmts.extend(tpcc::load_statements(&tpcc_cfg));
        stmts.push("CREATE TABLE secrets (id INT PRIMARY KEY, v STRING)".to_string());
        stmts.push(format!("INSERT INTO secrets VALUES (1, 'tenant-{tag}')"));
        run_setup(&sim, &executor, &stmts);
        let initial_orders = count(&sim, &executor, "orders");
        let driver = Driver::new(
            &sim,
            Rc::clone(&executor),
            DriverConfig { workers: s.workers, think_time: Some(s.think_time), max_retries: 30 },
            tpcc::mix_factory(tpcc_cfg.clone(), s.seed.wrapping_add(100 * (i as u64 + 1))),
        );
        runs.push(TenantRun { tag, home: regions[0], tenant, executor, driver, initial_orders });
    }

    // Anchor the faults at *now* so set-up never eats into the window.
    let base = sim.now();
    let mut schedule = s.faults.clone();
    for event in &mut schedule.events {
        event.at = base + Duration::from_nanos(event.at.as_nanos());
    }
    let dark_region = schedule.events.iter().find_map(|e| match e.kind {
        FaultKind::RegionOutage { region } => Some(region),
        _ => None,
    });
    let injector = install_chaos(&cluster, schedule);

    let end = base + s.run;
    for run in &runs {
        run.driver.run_until(end);
    }
    sim.run_until(end);
    // Heal what is still broken, then settle: in-flight transactions
    // resolve their intents and displaced leases come home.
    let topology = cluster.config().topology.clone();
    topology.heal_all();
    topology.set_latency_factor_pct(100);
    for id in cluster.kv.node_ids() {
        cluster.kv.set_node_alive(id, true);
    }
    sim.run_for(s.settle);
    // The audit's full-table scans are not client traffic (a re-homed
    // tenant's crosses regions): run them without a deadline.
    cluster.proxy.set_statement_deadline(None);

    let mut violations = Vec::new();
    let mut healthy_p99 = Vec::new();
    for run in &runs {
        let committed_orders =
            run.driver.stats.by_label.borrow().get("new_order").copied().unwrap_or(0) as i64;
        let final_orders = count(&sim, &run.executor, "orders");
        if final_orders < run.initial_orders + committed_orders {
            violations.push(format!(
                "tenant {}: acknowledged commits lost: {} orders on disk < {} initial + {} committed",
                run.tag, final_orders, run.initial_orders, committed_orders
            ));
        }
        let secrets = exec_one(&sim, &run.executor, "SELECT v FROM secrets ORDER BY id", vec![]);
        let expect = format!("tenant-{}", run.tag);
        if secrets.rows.len() != 1 || secrets.rows[0][0].to_string() != expect {
            violations.push(format!(
                "tenant {}: cross-tenant leak: secrets = {:?}, expected [[{expect}]]",
                run.tag, secrets.rows
            ));
        }
        if dark_region.is_some_and(|dark| run.home != dark) {
            let Some(p99) = cluster.proxy.tenant_statement_p99(run.tenant) else {
                let msg = format!(
                    "tenant {}: no statement latency recorded for a healthy tenant",
                    run.tag
                );
                violations.push(msg);
                continue;
            };
            if let Some(deadline) = s.statement_deadline.filter(|&d| p99 >= d) {
                violations.push(format!(
                    "tenant {}: healthy-region p99 {:?} reached the statement deadline \
                     {:?} — the dead region bled into its blast radius",
                    run.tag, p99, deadline
                ));
            }
            healthy_p99.push((run.tag, p99));
        }
    }
    // The counters are read after the audit, as the log and snapshot are.
    let degrade = cluster.kv.degrade();
    let mut report = SoakReport {
        log: injector.log(),
        faults_injected: injector.injected(),
        committed: runs.iter().map(|r| *r.driver.stats.committed.borrow()).sum(),
        aborted: runs.iter().map(|r| *r.driver.stats.aborted.borrow()).sum(),
        retries: runs.iter().map(|r| *r.driver.stats.retries.borrow()).sum(),
        migrations: cluster.proxy.migrations.get(),
        dropped_messages: topology.dropped_messages(),
        slots_lost: cluster.pool.slots_lost.get(),
        shed_statements: cluster.proxy.shed_statements.get(),
        breaker_fast_fails: degrade.breaker_fast_fails.get(),
        partition_fast_fails: degrade.partition_fast_fails.get(),
        deadline_exceeded: degrade.deadline_exceeded.get(),
        healthy_p99,
        violations,
        metrics_snapshot: cluster.metrics_snapshot_json(),
    };
    let outcome = outcome_violations(&report, s.faults.len(), dark_region.is_some());
    report.violations.extend(outcome);
    report
}

/// The checks on a finished run's log and counters.
fn outcome_violations(r: &SoakReport, scheduled: usize, region_outage: bool) -> Vec<String> {
    let mut violations = Vec::new();
    let pods_lost_sessions =
        r.log.contains("sessions lost)") && !r.log.contains("(0 sessions lost)");
    if pods_lost_sessions && r.migrations == 0 {
        violations.push("sql pods with sessions crashed but no session was migrated".to_string());
    }
    if r.faults_injected != scheduled {
        violations.push(format!("{} of {scheduled} scheduled faults fired", r.faults_injected));
    }
    // Degradation must be *visible*: a region outage burns the dark
    // region's warm slots, and some bounded-failure mechanism fires.
    if region_outage && r.slots_lost == 0 {
        violations.push("region outage burned no warm-pool slots".to_string());
    }
    let bounded_failures =
        r.deadline_exceeded + r.breaker_fast_fails + r.partition_fast_fails + r.shed_statements;
    if region_outage && bounded_failures == 0 {
        violations.push(
            "no bounded-failure mechanism fired during a full region outage: failures were \
             either absent or unbounded"
                .to_string(),
        );
    }
    violations
}

/// Asserts that `report` is clean, then runs `scenario` again and
/// asserts that the replay is clean too and byte-identical to `report`:
/// the same injector log and the same metrics snapshot.
pub fn assert_clean_replay(scenario: &Scenario, report: &SoakReport) {
    assert!(
        report.violations.is_empty(),
        "invariant violations:\n{}",
        report.violations.join("\n")
    );
    let again = run(scenario);
    assert!(again.violations.is_empty(), "second run violated invariants");
    assert_eq!(report.log, again.log, "same-seed runs must produce byte-identical event logs");
    assert_eq!(
        report.metrics_snapshot, again.metrics_snapshot,
        "same-seed runs must produce byte-identical metrics snapshots"
    );
}

fn count(sim: &Sim, ex: &Rc<dyn SqlExecutor>, table: &str) -> i64 {
    let out = exec_one(sim, ex, &format!("SELECT COUNT(*) FROM {table}"), vec![]);
    out.rows[0][0].as_i64().expect("count is an integer")
}
