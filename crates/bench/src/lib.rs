//! Shared harness for the experiment binaries.
//!
//! One binary per paper table/figure (see DESIGN.md §4 and
//! EXPERIMENTS.md). Experiments run at *scaled cost* (`CostModel::scaled`)
//! so saturation dynamics appear at simulation-friendly request rates; all
//! comparisons in the paper are ratios and shapes, which scaling
//! preserves.

pub mod scale;
pub mod soak;

use std::rc::Rc;

use crdb_core::{DedicatedCluster, ServerlessCluster, ServerlessConfig};
use crdb_kv::cluster::KvClusterConfig;
use crdb_sim::{Sim, Topology};
use crdb_sql::node::SqlNodeConfig;
use crdb_util::{RegionId, TenantId};
use crdb_workload::driver::SqlExecutor;
use crdb_workload::executors::{exec_until_done, run_setup, DedicatedExecutor, ServerlessExecutor};

/// Prints an experiment header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Builds a serverless cluster + executor for one tenant.
pub fn serverless_fixture(
    sim: &Sim,
    config: ServerlessConfig,
    quota_vcpus: Option<f64>,
) -> (Rc<ServerlessCluster>, TenantId, Rc<dyn SqlExecutor>) {
    let cluster = ServerlessCluster::new(sim, config);
    let tenant = cluster.create_tenant(vec![RegionId(0)], quota_vcpus);
    let ex = ServerlessExecutor::new(Rc::clone(&cluster), tenant);
    (cluster, tenant, Rc::new(ex) as Rc<dyn SqlExecutor>)
}

/// Builds a dedicated cluster + executor.
pub fn dedicated_fixture(
    sim: &Sim,
    topology: Topology,
    kv: KvClusterConfig,
    sql: SqlNodeConfig,
) -> (Rc<DedicatedCluster>, Rc<dyn SqlExecutor>) {
    let cluster = DedicatedCluster::new(sim, topology, kv, sql);
    let ex = DedicatedExecutor::new(Rc::clone(&cluster));
    (cluster, Rc::new(ex) as Rc<dyn SqlExecutor>)
}

/// Loads a schema + data through an executor, then ANALYZEs every table so
/// the cost-based planner runs from fresh statistics.
pub fn load(sim: &Sim, ex: &Rc<dyn SqlExecutor>, schema: &[&str], data: &[String]) {
    let mut stmts: Vec<String> = schema.iter().map(|s| s.to_string()).collect();
    stmts.extend(data.iter().cloned());
    stmts.extend(crdb_workload::analyze_statements(schema));
    run_setup(sim, ex, &stmts);
}

/// Total KV CPU-seconds consumed across a serverless cluster's KV nodes.
pub fn kv_cpu_total(cluster: &ServerlessCluster) -> f64 {
    cluster
        .kv
        .node_ids()
        .into_iter()
        .filter_map(|id| cluster.kv.node(id))
        .map(|n| n.cpu.cumulative_usage_total())
        .sum()
}

/// Total SQL CPU-seconds across a tenant's SQL nodes (ready + draining).
pub fn sql_cpu_total(cluster: &ServerlessCluster, tenant: TenantId) -> f64 {
    cluster
        .registry
        .with_tenant(tenant, |e| {
            e.nodes
                .iter()
                .map(|n| n.sql_cpu_seconds())
                .chain(e.draining.iter().map(|(n, _)| n.sql_cpu_seconds()))
                .sum()
        })
        .unwrap_or(0.0)
}

/// Runs one statement to completion, driving the sim; returns Ok output.
pub fn exec_one(
    sim: &Sim,
    ex: &Rc<dyn SqlExecutor>,
    sql: &str,
    params: Vec<crdb_sql::value::Datum>,
) -> crdb_sql::exec::QueryOutput {
    exec_until_done(sim, ex, sql, params)
        .expect("statement completed")
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}
