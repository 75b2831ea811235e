//! Soak: TPC-C-lite across three regions under a deterministic fault
//! scenario (see `crdb_bench::soak`), checked for invariants and for a
//! byte-identical same-seed replay.
//!
//! ```sh
//! cargo run --release -p crdb-bench --bin soak -- --scenario chaos --seed 7
//! cargo run --release -p crdb-bench --bin soak -- --scenario region-loss --seed 11
//! ```
//!
//! `chaos` (the default) injects ≥ 50 seeded faults of every kind over 30
//! virtual minutes; `region-loss` kills region 1 for 60 virtual seconds
//! mid cold-start burst, with a 3× latency spike straddling the outage.

use crdb_bench::header;
use crdb_bench::soak::{assert_clean_replay, run, Scenario, SoakReport};
use crdb_sim::fault::FaultPlan;
use crdb_util::time::dur;

fn print_report(r: &SoakReport) {
    println!("  faults injected:      {}", r.faults_injected);
    println!("  committed txns:       {}", r.committed);
    println!("  aborted txns:         {}", r.aborted);
    println!("  retries:              {}", r.retries);
    println!("  session migrations:   {}", r.migrations);
    println!("  dropped messages:     {}", r.dropped_messages);
    println!("  warm slots burned:    {}", r.slots_lost);
    println!("  statements shed:      {}", r.shed_statements);
    println!("  breaker fast-fails:   {}", r.breaker_fast_fails);
    println!("  partition fast-fails: {}", r.partition_fast_fails);
    println!("  deadline exceeded:    {}", r.deadline_exceeded);
    for (tag, p99) in &r.healthy_p99 {
        println!("  healthy p99 ({tag}):   {p99:?}");
    }
    println!("  invariant violations: {}", r.violations.len());
    for v in &r.violations {
        println!("    VIOLATION: {v}");
    }
}

fn main() {
    let usage = "usage: soak [--scenario chaos|region-loss] [--seed N]";
    let mut name = "chaos".to_string();
    let mut seed = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--scenario", Some(v)) => name = v,
            ("--seed", Some(v)) if v.parse::<u64>().is_ok() => seed = v.parse().ok(),
            _ => panic!("bad argument {arg} ({usage})"),
        }
    }
    let (scenario, min_faults) = match name.as_str() {
        // 3 regions × 3 KV nodes; the plan draws crash victims from all 9.
        "chaos" => (Scenario::chaos(seed.unwrap_or(7), FaultPlan::soak(9, 3)), 50),
        "region-loss" => {
            let (warmup, outage, cooldown) = (dur::secs(30), dur::secs(60), dur::secs(90));
            (Scenario::region_loss(seed.unwrap_or(11), warmup, outage, cooldown), 0)
        }
        other => panic!("unknown scenario {other} ({usage})"),
    };
    let seed = scenario.seed;

    header(&format!("Soak `{name}`, seed {seed}: TPC-C-lite under deterministic faults"));
    let report = run(&scenario);
    print_report(&report);
    assert!(
        report.faults_injected >= min_faults,
        "soak plan must inject >= {min_faults} faults, got {}",
        report.faults_injected
    );
    assert!(report.committed > 0, "workload made no progress under faults");

    header("Reproducibility: same seed, byte-identical fault log + metrics snapshot");
    assert_clean_replay(&scenario, &report);
    println!("  {} log lines, identical across runs", report.log.lines().count());
    println!("  {} metric snapshot bytes, identical across runs", report.metrics_snapshot.len());
    println!("\nOK: {name} soak clean, log + metrics reproducible (seed {seed})");
}
