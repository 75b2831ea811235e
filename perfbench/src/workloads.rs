//! The four workloads: deployment, data, clients and correctness checks.
//!
//! Every workload builds a fresh deployment from the seed, loads its data
//! (the set-up phase, which ends after a warm-up), then measures a fixed
//! simulated window and drains it. Sizes are constants here so that one
//! seed always means the same inputs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crdb_core::{ServerlessCluster, ServerlessConfig};
use crdb_serverless::proxy::Connection;
use crdb_sim::{Location, Sim, Topology};
use crdb_sql::value::Datum;
use crdb_util::time::{dur, SimTime};
use crdb_util::{RegionId, TenantId};
use crdb_workload::{tpcc, ycsb};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::harness::{
    connect_blocking, exec_blocking, run_until, run_until_done, schedule_probe, start_closed_loop,
    stmt_params, Class, Clients, OpGen, OpSpec, Sampler, ScriptCtx, Step,
};

/// The workloads `BENCHMARK.json` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// TPC-C-lite on one tenant: the transactional write path.
    Tpcc,
    /// YCSB-B over data larger than the memtable: the read path.
    YcsbB,
    /// Open-loop scale-from-zero probes over a three-region fleet.
    Coldstart,
    /// A light TPC-C victim beside two quota'd YCSB-A aggressors.
    Noisy,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tpcc" => Some(Kind::Tpcc),
            "ycsb_b" => Some(Kind::YcsbB),
            "coldstart" => Some(Kind::Coldstart),
            "noisy" => Some(Kind::Noisy),
            _ => None,
        }
    }

    /// The name as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tpcc => "tpcc",
            Kind::YcsbB => "ycsb_b",
            Kind::Coldstart => "coldstart",
            Kind::Noisy => "noisy",
        }
    }

    /// Trace sampling period of the traced run.
    pub fn trace_every(self) -> u64 {
        match self {
            Kind::Tpcc => 8,
            Kind::YcsbB => 32,
            Kind::Coldstart => 4,
            Kind::Noisy => 4,
        }
    }
}

/// A deployment with its clients started and the measured window set.
pub struct Prepared {
    /// The simulation.
    pub sim: Sim,
    /// The deployment.
    pub cluster: Rc<ServerlessCluster>,
    /// The clients; measured ops land in `clients.stats`.
    pub clients: Rc<Clients>,
    /// Tenants whose ops are measured (and billed per op).
    pub tenants: Vec<TenantId>,
    /// The window `[start, end)` in which measured ops start.
    pub window: (SimTime, SimTime),
    /// Runs the workload's correctness checks after the drain.
    pub check: Box<dyn FnOnce() -> Result<(), String>>,
}

/// Builds the deployment for `kind`, loads it, starts its clients and runs
/// the warm-up, leaving the simulation at the window start.
pub fn prepare(kind: Kind, seed: u64, sampler: Option<Sampler>) -> Result<Prepared, String> {
    match kind {
        Kind::Tpcc => prepare_tpcc(seed, sampler),
        Kind::YcsbB => prepare_ycsb_b(seed, sampler),
        Kind::Coldstart => prepare_coldstart(seed, sampler),
        Kind::Noisy => prepare_noisy(seed, sampler),
    }
}

fn worker_conns(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    tenant: TenantId,
    n: usize,
) -> Result<Vec<Rc<Connection>>, String> {
    (0..n)
        .map(|w| connect_blocking(sim, cluster, tenant, &format!("10.1.{}.{}", w / 256, w % 256)))
        .collect()
}

fn run_all(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    conn: &Rc<Connection>,
    stmts: &[String],
) -> Result<(), String> {
    for s in stmts {
        exec_blocking(sim, cluster, conn, s)?;
    }
    Ok(())
}

/// Schema, data and `ANALYZE` for every table.
fn load(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    conn: &Rc<Connection>,
    schema: &[&str],
    data: Vec<String>,
) -> Result<(), String> {
    let mut stmts: Vec<String> = schema.iter().map(|s| s.to_string()).collect();
    stmts.extend(data);
    stmts.extend(crdb_workload::analyze_statements(schema));
    run_all(sim, cluster, conn, &stmts)
}

// ---------------------------------------------------------------- tpcc

const TPCC_WORKERS: usize = 8;
const TPCC_THINK: Duration = Duration::from_millis(20);
const WARMUP: Duration = Duration::from_secs(2);
const TPCC_WINDOW: Duration = Duration::from_secs(30);

fn tpcc_config(warehouses: u64) -> tpcc::TpccConfig {
    tpcc::TpccConfig {
        warehouses,
        districts_per_warehouse: 3,
        customers_per_district: 10,
        items: 50,
        order_lines: 5,
    }
}

/// A TPC-C tenant: loaded, with one connection per worker, and a count of
/// committed New-Orders (every phase) for the consistency check.
struct TpccTenant {
    tenant: TenantId,
    conns: Vec<Rc<Connection>>,
    check_conn: Rc<Connection>,
    new_orders: Rc<Cell<u64>>,
    gen: OpGen,
}

fn tpcc_tenant(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    seed: u64,
    cfg: tpcc::TpccConfig,
    workers: usize,
) -> Result<TpccTenant, String> {
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let check_conn = connect_blocking(sim, cluster, tenant, "10.0.0.1")?;
    load(sim, cluster, &check_conn, &tpcc::schema(), tpcc::load_statements(&cfg))?;
    let conns = worker_conns(sim, cluster, tenant, workers)?;
    let new_orders = Rc::new(Cell::new(0u64));
    let factory = tpcc::mix_factory(cfg, seed);
    let counter = Rc::clone(&new_orders);
    let gen: OpGen = Rc::new(move |worker, _n, _rng| {
        let (label, steps) = factory(worker);
        let label = match label.as_str() {
            "new_order" => "new_order",
            "payment" => "payment",
            "order_status" => "order_status",
            "delivery" => "delivery",
            _ => "stock_level",
        };
        let counter = Rc::clone(&counter);
        OpSpec {
            label,
            steps,
            txn: true,
            finish: Some(Box::new(move |ctx: Option<&ScriptCtx>| {
                if ctx.is_some() && label == "new_order" {
                    counter.set(counter.get() + 1);
                }
            })),
        }
    });
    Ok(TpccTenant { tenant, conns, check_conn, new_orders, gen })
}

fn ints(out: &crdb_sql::exec::QueryOutput, cols: usize) -> Result<Vec<Vec<f64>>, String> {
    out.rows
        .iter()
        .map(|r| {
            (0..cols)
                .map(|i| r.get(i).and_then(Datum::as_f64).ok_or_else(|| format!("bad row {r:?}")))
                .collect()
        })
        .collect()
}

/// The TPC-C consistency conditions over the tenant's final state.
fn tpcc_check(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    conn: &Rc<Connection>,
    committed_new_orders: u64,
) -> Result<(), String> {
    let q = |sql: &str, cols| exec_blocking(sim, cluster, conn, sql).and_then(|o| ints(&o, cols));
    let districts = q("SELECT d_w_id, d_id, d_next_o_id, d_ytd FROM district", 4)?;
    let orders = q("SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders", 4)?;
    let lines = q("SELECT COUNT(*) FROM order_line", 1)?;
    let warehouses = q("SELECT w_id, w_ytd FROM warehouse", 2)?;

    // (w, d) → (count, max o_id); Σ o_ol_cnt.
    let mut per_district: BTreeMap<(i64, i64), (u64, i64)> = BTreeMap::new();
    let mut ol_sum = 0f64;
    for o in &orders {
        let e = per_district.entry((o[0] as i64, o[1] as i64)).or_insert((0, 0));
        e.0 += 1;
        e.1 = e.1.max(o[2] as i64);
        ol_sum += o[3];
    }
    let mut next_sum = 0i64;
    let mut d_ytd: BTreeMap<i64, f64> = BTreeMap::new();
    for d in &districts {
        let (w, id, next) = (d[0] as i64, d[1] as i64, d[2] as i64);
        let (count, max) = per_district.get(&(w, id)).copied().unwrap_or((0, 0));
        if next - 1 != max || next - 1 != count as i64 {
            return Err(format!(
                "tpcc: district ({w},{id}) d_next_o_id={next} but max(o_id)={max}, orders={count}"
            ));
        }
        next_sum += next - 1;
        *d_ytd.entry(w).or_insert(0.0) += d[3];
    }
    let line_count = lines.first().and_then(|r| r.first()).copied().unwrap_or(-1.0);
    if line_count != ol_sum {
        return Err(format!("tpcc: {line_count} order lines but Σ o_ol_cnt = {ol_sum}"));
    }
    for w in &warehouses {
        let sum = d_ytd.get(&(w[0] as i64)).copied().unwrap_or(0.0);
        if (w[1] - sum).abs() > 1e-6 * w[1].abs().max(1.0) {
            return Err(format!("tpcc: warehouse {} w_ytd={} but Σ d_ytd={sum}", w[0], w[1]));
        }
    }
    if next_sum as u64 != committed_new_orders {
        return Err(format!(
            "tpcc: Σ(d_next_o_id − 1) = {next_sum} but {committed_new_orders} New-Orders committed"
        ));
    }
    Ok(())
}

/// Runs the set-up to just before the window, so that the start-of-window
/// snapshot precedes every measured op.
fn run_to_window(sim: &Sim, start: SimTime) {
    run_until(sim, SimTime::from_nanos(start.as_nanos() - 1));
}

fn open_window(sim: &Sim, clients: &Clients, window: Duration) -> (SimTime, SimTime) {
    let start = sim.now() + WARMUP;
    let end = start + window;
    clients.set_window(start, end);
    (start, end)
}

fn prepare_tpcc(seed: u64, sampler: Option<Sampler>) -> Result<Prepared, String> {
    let sim = Sim::new(seed);
    let cluster = ServerlessCluster::new(&sim, ServerlessConfig::default());
    let t = tpcc_tenant(&sim, &cluster, seed, tpcc_config(8), TPCC_WORKERS)?;
    let clients = Clients::new(&sim, &cluster, seed, sampler);
    let window = open_window(&sim, &clients, TPCC_WINDOW);
    start_closed_loop(&clients, Class::Measured, t.conns, Some(TPCC_THINK), t.gen, 1);
    run_to_window(&sim, window.0);
    let (sim2, cluster2) = (sim.clone(), Rc::clone(&cluster));
    let check = Box::new(move || tpcc_check(&sim2, &cluster2, &t.check_conn, t.new_orders.get()));
    Ok(Prepared { sim, cluster, clients, tenants: vec![t.tenant], window, check })
}

// -------------------------------------------------------------- ycsb_b

const YCSB_RECORDS: u64 = 20_000;
const YCSB_FIELD: usize = 1000;
const YCSB_WORKERS: usize = 8;
/// A 1 MiB memtable: the 40 MB table spans L0 and the levels below it,
/// and the update stream flushes and compacts inside the window.
const YCSB_MEMTABLE: usize = 1 << 20;
const YCSB_WINDOW: Duration = Duration::from_secs(10);
/// Digits of the value id at the front of `field0`.
const ID_DIGITS: usize = 12;

fn ycsb_value(id: u64, len: usize) -> String {
    let mut s = format!("{id:0ID_DIGITS$}");
    s.extend(std::iter::repeat_n('v', len.saturating_sub(ID_DIGITS)));
    s
}

fn ycsb_load(records: u64, field0: &str, field1: &str) -> Vec<String> {
    (1..=records)
        .collect::<Vec<_>>()
        .chunks(100)
        .map(|chunk| {
            let rows: Vec<String> =
                chunk.iter().map(|k| format!("({k}, '{field0}', '{field1}')")).collect();
            format!("INSERT INTO usertable VALUES {}", rows.join(", "))
        })
        .collect()
}

/// One write to a key, as the reference model sees it.
struct Write {
    id: u64,
    start: SimTime,
    ack: Option<SimTime>,
}

/// Per-key write history: a read is correct when it returns a value that
/// no write completed before the read began has superseded.
#[derive(Default)]
struct Model {
    writes: BTreeMap<i64, Vec<Write>>,
}

impl Model {
    fn check_read(&self, key: i64, got: u64, start: SimTime, end: SimTime) -> Result<(), String> {
        let initial = [Write { id: 0, start: SimTime::ZERO, ack: Some(SimTime::ZERO) }];
        let ws = self.writes.get(&key).map(Vec::as_slice).unwrap_or_default();
        let all = || initial.iter().chain(ws.iter());
        let Some(w) = all().find(|w| w.id == got) else {
            return Err(format!("ycsb: key {key} returned value {got} that was never written"));
        };
        if w.start >= end {
            return Err(format!("ycsb: key {key} returned value {got} written after the read"));
        }
        if let Some(ack) = w.ack {
            let superseded = all().any(|w2| w2.start > ack && w2.ack.is_some_and(|a| a < start));
            if superseded {
                return Err(format!("ycsb: key {key} returned stale value {got}"));
            }
        }
        Ok(())
    }
}

fn prepare_ycsb_b(seed: u64, sampler: Option<Sampler>) -> Result<Prepared, String> {
    let sim = Sim::new(seed);
    let mut config = ServerlessConfig::default();
    config.kv.lsm.memtable_size = YCSB_MEMTABLE;
    let cluster = ServerlessCluster::new(&sim, config);
    let tenant = cluster.create_tenant(vec![RegionId(0)], None);
    let check_conn = connect_blocking(&sim, &cluster, tenant, "10.0.0.1")?;
    let field1 = "f".repeat(YCSB_FIELD);
    load(
        &sim,
        &cluster,
        &check_conn,
        &ycsb::schema(),
        ycsb_load(YCSB_RECORDS, &ycsb_value(0, YCSB_FIELD), &field1),
    )?;
    let conns = worker_conns(&sim, &cluster, tenant, YCSB_WORKERS)?;
    let clients = Clients::new(&sim, &cluster, seed, sampler);
    let window = open_window(&sim, &clients, YCSB_WINDOW);

    let model = Rc::new(RefCell::new(Model::default()));
    let next_id = Rc::new(Cell::new(1u64));
    let gen: OpGen = {
        let (model, sim, clients) = (Rc::clone(&model), sim.clone(), Rc::downgrade(&clients));
        Rc::new(move |_w, _n, rng: &mut SmallRng| {
            let key = ycsb::skewed_key(rng, YCSB_RECORDS, 0.99);
            let start = sim.now();
            if rng.gen::<f64>() < 0.95 {
                let (model, sim, clients) = (Rc::clone(&model), sim.clone(), clients.clone());
                let steps: Rc<Vec<Step>> = Rc::new(vec![stmt_params(
                    "SELECT field0, field1 FROM usertable WHERE ycsb_key = $1",
                    vec![Datum::Int(key)],
                )]);
                let finish = Box::new(move |ctx: Option<&ScriptCtx>| {
                    let (Some(ctx), Some(clients)) = (ctx, clients.upgrade()) else { return };
                    let row = ctx.outputs.first().and_then(|o| o.rows.first());
                    let got = row
                        .and_then(|r| r.first())
                        .and_then(Datum::as_str)
                        .and_then(|s| s.get(..ID_DIGITS))
                        .and_then(|s| s.parse::<u64>().ok());
                    let f1_ok = row
                        .and_then(|r| r.get(1))
                        .and_then(Datum::as_str)
                        .is_some_and(|s| s.len() == YCSB_FIELD);
                    let verdict = match got {
                        Some(id) if f1_ok => model.borrow().check_read(key, id, start, sim.now()),
                        _ => Err(format!("ycsb: key {key} read returned {row:?}")),
                    };
                    if let Err(e) = verdict {
                        clients.violation(e);
                    }
                });
                OpSpec { label: "read", steps, txn: false, finish: Some(finish) }
            } else {
                let id = next_id.get();
                next_id.set(id + 1);
                let mut m = model.borrow_mut();
                let ws = m.writes.entry(key).or_default();
                ws.push(Write { id, start, ack: None });
                let slot = ws.len() - 1;
                let (model, sim) = (Rc::clone(&model), sim.clone());
                let steps: Rc<Vec<Step>> = Rc::new(vec![stmt_params(
                    "UPDATE usertable SET field0 = $2 WHERE ycsb_key = $1",
                    vec![Datum::Int(key), Datum::Str(ycsb_value(id, YCSB_FIELD))],
                )]);
                let finish = Box::new(move |ctx: Option<&ScriptCtx>| {
                    if ctx.is_some() {
                        let mut model = model.borrow_mut();
                        if let Some(w) = model.writes.get_mut(&key).and_then(|v| v.get_mut(slot)) {
                            w.ack = Some(sim.now());
                        }
                    }
                });
                OpSpec { label: "update", steps, txn: false, finish: Some(finish) }
            }
        })
    };
    start_closed_loop(&clients, Class::Measured, conns, None, gen, 2);
    run_to_window(&sim, window.0);
    let check = Box::new(|| Ok(()));
    Ok(Prepared { sim, cluster, clients, tenants: vec![tenant], window, check })
}

// ----------------------------------------------------------- coldstart

const FLEET: usize = 180;
const PROBES: usize = 1200;
const SUSPEND_AFTER: Duration = Duration::from_secs(30);
/// Gap between probes; each tenant is probed every `FLEET × gap`.
const PROBE_GAP: Duration = Duration::from_millis(800);

fn prepare_coldstart(seed: u64, sampler: Option<Sampler>) -> Result<Prepared, String> {
    let sim = Sim::new(seed);
    let topology = Topology::three_region();
    let regions: Vec<RegionId> = topology.regions().collect();
    let mut config =
        ServerlessConfig { topology, multi_region_optimized: true, ..Default::default() };
    config.autoscaler.suspend_after = SUSPEND_AFTER;
    let cluster = ServerlessCluster::new(&sim, config);
    let mut tenants = Vec::with_capacity(FLEET);
    for i in 0..FLEET {
        let home = regions[i % regions.len()];
        let mut rs = vec![home];
        rs.extend(regions.iter().copied().filter(|&r| r != home));
        let tenant = cluster.create_tenant(rs, None);
        cluster.set_preferred_location(tenant, Location::new(home, 0));
        let conn = connect_blocking(&sim, &cluster, tenant, "10.0.0.1")?;
        run_all(
            &sim,
            &cluster,
            &conn,
            &[
                "CREATE TABLE kv (id INT PRIMARY KEY, v INT)".to_string(),
                format!("INSERT INTO kv VALUES (1, {})", tenant.raw()),
            ],
        )?;
        cluster.close(&conn);
        tenants.push(tenant);
    }
    let all_suspended = || tenants.iter().all(|&t| cluster.is_suspended(t));
    if !run_until_done(&sim, SUSPEND_AFTER * 4, all_suspended) {
        return Err("coldstart: the fleet never suspended".into());
    }
    let clients = Clients::new(&sim, &cluster, seed, sampler);
    let start = sim.now() + dur::secs(1);
    // The window closes just after the last probe is scheduled.
    let end = start + PROBE_GAP * (PROBES as u32 - 1) + dur::us(1);
    clients.set_window(start, end);
    for i in 0..PROBES {
        let tenant = tenants[i % FLEET];
        let at = start + PROBE_GAP * i as u32;
        let c = Rc::downgrade(&clients);
        schedule_probe(&clients, at, tenant, move || OpSpec {
            label: "probe",
            steps: Rc::new(vec![stmt_params("SELECT v FROM kv WHERE id = 1", vec![])]),
            txn: false,
            finish: Some(Box::new(move |ctx: Option<&ScriptCtx>| {
                let (Some(ctx), Some(c)) = (ctx, c.upgrade()) else { return };
                let v = ctx.scalar(0).and_then(Datum::as_i64);
                if v != Some(tenant.raw() as i64) {
                    c.violation(format!("coldstart: tenant {} read {v:?}", tenant.raw()));
                }
            })),
        });
    }
    run_to_window(&sim, start);
    let (cluster2, clients2) = (Rc::clone(&cluster), Rc::downgrade(&clients));
    let cold0 = cluster.proxy.cold_starts.get();
    let check = Box::new(move || {
        let probes = clients2.upgrade().map_or(0, |c| c.stats.borrow().ops.len());
        let cold = cluster2.proxy.cold_starts.get() - cold0;
        if cold != probes as u64 {
            return Err(format!("coldstart: {probes} probes made {cold} cold starts"));
        }
        Ok(())
    });
    Ok(Prepared { sim, cluster, clients, tenants, window: (start, end), check })
}

// --------------------------------------------------------------- noisy

const COST_SCALE: f64 = 10.0;
const AGGRESSORS: usize = 2;
const AGGRESSOR_WORKERS: usize = 16;
const AGGRESSOR_ROWS: u64 = 500;
const AGGRESSOR_QUOTA_VCPUS: f64 = 1.0;
const VICTIM_WORKERS: usize = 8;
const VICTIM_THINK: Duration = Duration::from_millis(50);
const NOISY_WINDOW: Duration = Duration::from_secs(40);

fn prepare_noisy(seed: u64, sampler: Option<Sampler>) -> Result<Prepared, String> {
    let sim = Sim::new(seed);
    let mut config = ServerlessConfig::default();
    config.kv.cost_model = config.kv.cost_model.scaled(COST_SCALE);
    config.kv.admission.enabled = true;
    config.sql = config.sql.scaled(COST_SCALE);
    config.ecpu_model = config.ecpu_model.scaled(COST_SCALE);
    let cluster = ServerlessCluster::new(&sim, config);

    let victim = tpcc_tenant(&sim, &cluster, seed, tpcc_config(16), VICTIM_WORKERS)?;
    let mut aggressors = Vec::new();
    for a in 0..AGGRESSORS {
        let tenant = cluster.create_tenant(vec![RegionId(0)], Some(AGGRESSOR_QUOTA_VCPUS));
        let conn = connect_blocking(&sim, &cluster, tenant, "10.2.0.1")?;
        let marker = format!("tenant-{}", tenant.raw());
        load(&sim, &cluster, &conn, &ycsb::schema(), ycsb_load(AGGRESSOR_ROWS, "a", &marker))?;
        let conns = worker_conns(&sim, &cluster, tenant, AGGRESSOR_WORKERS)?;
        aggressors.push((tenant, conn, marker, conns, a));
    }
    let clients = Clients::new(&sim, &cluster, seed, sampler);
    let window = open_window(&sim, &clients, NOISY_WINDOW);
    start_closed_loop(&clients, Class::Measured, victim.conns, Some(VICTIM_THINK), victim.gen, 3);
    let mut checks = Vec::new();
    for (_tenant, conn, marker, conns, a) in aggressors {
        let gen: OpGen = Rc::new(|_w, _n, rng: &mut SmallRng| {
            let key = rng.gen_range(1..=AGGRESSOR_ROWS) as i64;
            let steps: Rc<Vec<Step>> = if rng.gen_bool(0.5) {
                Rc::new(vec![stmt_params(
                    "SELECT field0, field1 FROM usertable WHERE ycsb_key = $1",
                    vec![Datum::Int(key)],
                )])
            } else {
                Rc::new(vec![stmt_params(
                    "UPDATE usertable SET field0 = $2 WHERE ycsb_key = $1",
                    vec![
                        Datum::Int(key),
                        Datum::Str(format!("{:08}", rng.gen_range(0..1u64 << 26))),
                    ],
                )])
            };
            OpSpec { label: "aggressor", steps, txn: false, finish: None }
        });
        start_closed_loop(&clients, Class::Background, conns, None, gen, 100 + a as u64);
        checks.push((conn, marker));
    }
    run_to_window(&sim, window.0);

    let (sim2, cluster2) = (sim.clone(), Rc::clone(&cluster));
    let check = Box::new(move || {
        tpcc_check(&sim2, &cluster2, &victim.check_conn, victim.new_orders.get())?;
        // Tenants share the KV cluster but never each other's rows.
        if exec_blocking(&sim2, &cluster2, &victim.check_conn, "SELECT ycsb_key FROM usertable")
            .is_ok()
        {
            return Err("noisy: the victim tenant can read an aggressor's table".into());
        }
        for (conn, marker) in &checks {
            let out = exec_blocking(&sim2, &cluster2, conn, "SELECT field1 FROM usertable")?;
            let own = out
                .rows
                .iter()
                .filter(|r| r.first().and_then(Datum::as_str) == Some(marker.as_str()))
                .count();
            if own != out.rows.len() || own as u64 != AGGRESSOR_ROWS {
                return Err(format!(
                    "noisy: {marker} sees {} rows, {own} of them its own",
                    out.rows.len()
                ));
            }
            if exec_blocking(&sim2, &cluster2, conn, "SELECT d_id FROM district").is_ok() {
                return Err(format!("noisy: {marker} can read the victim's table"));
            }
        }
        Ok(())
    });
    Ok(Prepared { sim, cluster, clients, tenants: vec![victim.tenant], window, check })
}
