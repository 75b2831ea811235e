//! The benchmark's simulated clients.
//!
//! Clients are actors inside the simulator: closed-loop workers that each
//! own one proxied connection, and open-loop probers that fire on a fixed
//! timetable. Both run *ops* — a script of statements — through the public
//! `ServerlessCluster::{connect, execute, close}` API and time each op from
//! its first attempt to its final result, retry backoff included, so a
//! retry storm cannot look fast. Ops still in flight when the measured
//! window closes are drained, not dropped.
//!
//! A traced run opens one `crdb_obs::Trace` per sampled op. Its root span
//! is entered around every call the op makes into the cluster and ended in
//! the op's completion callback, so the program's own spans nest under it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crdb_core::ServerlessCluster;
use crdb_obs::{Span, Trace};
use crdb_serverless::proxy::Connection;
use crdb_sim::Sim;
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::value::Datum;
use crdb_util::time::{dur, SimTime};
use crdb_util::TenantId;
pub use crdb_workload::driver::{stmt_params, ScriptCtx, Step};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hostclock;

/// Retries per op before it counts as failed.
const MAX_RETRIES: u32 = 30;
/// Statements kept for the parse/plan replay.
const STMT_LOG_CAP: usize = 20_000;
/// Sim time between two host-clock ticks in [`run_until`].
const TICK_SIM: Duration = Duration::from_millis(100);
/// Events between two host-clock ticks in [`run_until_done`].
const TICK_STEPS: u64 = 1024;

/// A 64-bit mix (splitmix64 finalizer) for sampling and seeding decisions
/// that must not draw from the simulator's RNG.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A benchmark-owned RNG keyed by `(seed, a, b)`.
pub fn rng_for(seed: u64, a: u64, b: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed ^ mix(a ^ mix(b))))
}

/// Called once when an op finishes: `Some(outputs)` when it committed,
/// `None` when it failed.
pub type Finish = Box<dyn FnOnce(Option<&ScriptCtx>)>;

/// One op to run.
pub struct OpSpec {
    /// Label, e.g. the TPC-C transaction name.
    pub label: &'static str,
    /// The statements, built lazily from earlier results.
    pub steps: Rc<Vec<Step>>,
    /// Whether the steps form an explicit transaction (rolled back on error).
    pub txn: bool,
    /// Result hook for correctness models.
    pub finish: Option<Finish>,
}

/// One measured op's outcome.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Sequence number in start order; stable across same-seed runs.
    pub id: u64,
    /// Start instant (first attempt, or the scheduled instant of a probe).
    pub start: SimTime,
    /// Completion instant, once finished.
    pub end: Option<SimTime>,
    /// Whether the op committed.
    pub ok: bool,
}

impl OpRecord {
    /// Latency in sim-ns; `None` for failed or unfinished ops (+∞).
    pub fn latency_ns(&self) -> Option<u64> {
        match (self.ok, self.end) {
            (true, Some(end)) => Some(end.duration_since(self.start).as_nanos() as u64),
            _ => None,
        }
    }
}

/// Counters the clients keep about measured ops.
#[derive(Default)]
pub struct ClientStats {
    /// Measured ops, indexed by id.
    pub ops: Vec<OpRecord>,
    /// Measured ops started but not finished.
    pub in_flight: u64,
    /// Statements issued by measured ops.
    pub statements: u64,
    /// Rows read by those statements (`ExecStats::rows_read`).
    pub rows_read: u64,
    /// Rows they returned to the client.
    pub rows_out: u64,
    /// Attempts of measured ops.
    pub attempts: u64,
    /// Attempts that ended in an error.
    pub failed_attempts: u64,
    /// Retries of measured ops.
    pub retries: u64,
    /// Background (aggressor) ops committed inside the window.
    pub background_committed: u64,
    /// Statements that found their SQL node's quota gate closed
    /// (`TenantInfo::gate_until` in the future) when issued.
    pub gated_statements: u64,
    /// SQL statement texts of measured ops (capped), for the replay.
    pub stmt_log: Vec<String>,
    /// Traces of sampled ops: `(op id, trace)`.
    pub traces: Vec<(u64, Trace)>,
}

/// Which ops a loop runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Timed, checked and (when sampled) traced.
    Measured,
    /// Load that shares the cluster (the noisy aggressors).
    Background,
}

/// Deterministic trace sampling: every `every`-th op on average, chosen by
/// a hash of (seed, op id).
#[derive(Clone, Copy)]
pub struct Sampler {
    /// Sampling period.
    pub every: u64,
    /// Run seed.
    pub seed: u64,
}

impl Sampler {
    fn chosen(&self, op: u64) -> bool {
        mix(self.seed ^ mix(op ^ 0x7472_6163_6500)).is_multiple_of(self.every)
    }
}

/// State shared by every client of one run.
pub struct Clients {
    /// The simulation.
    pub sim: Sim,
    /// The deployment under test.
    pub cluster: Rc<ServerlessCluster>,
    seed: u64,
    window: Cell<(SimTime, SimTime)>,
    stopping: Cell<bool>,
    sampler: Option<Sampler>,
    /// Measured-op statistics.
    pub stats: RefCell<ClientStats>,
    /// Correctness violations seen by op hooks.
    pub violations: RefCell<Vec<String>>,
    /// SQL nodes seen serving measured ops: instance id → node.
    pub nodes_seen: RefCell<BTreeMap<u64, Rc<crdb_sql::node::SqlNode>>>,
}

impl Clients {
    /// Creates the client set; `sampler` is `Some` in the traced run.
    pub fn new(
        sim: &Sim,
        cluster: &Rc<ServerlessCluster>,
        seed: u64,
        sampler: Option<Sampler>,
    ) -> Rc<Clients> {
        Rc::new(Clients {
            sim: sim.clone(),
            cluster: Rc::clone(cluster),
            seed,
            window: Cell::new((SimTime::MAX, SimTime::MAX)),
            stopping: Cell::new(false),
            sampler,
            stats: RefCell::new(ClientStats::default()),
            violations: RefCell::new(Vec::new()),
            nodes_seen: RefCell::new(BTreeMap::new()),
        })
    }

    /// Opens the measured window: ops starting in `[start, end)` are
    /// measured; no op of any class starts at or after `end`.
    pub fn set_window(&self, start: SimTime, end: SimTime) {
        self.window.set((start, end));
    }

    /// Records a correctness violation.
    pub fn violation(&self, msg: String) {
        let mut v = self.violations.borrow_mut();
        if v.len() < 20 {
            v.push(msg);
        }
    }

    fn open(&self) -> bool {
        !self.stopping.get() && self.sim.now() < self.window.get().1
    }

    fn in_window(&self, t: SimTime) -> bool {
        let (s, e) = self.window.get();
        t >= s && t < e
    }

    /// Runs the simulation to the end of the window, stops every loop and
    /// drains the measured ops still in flight. Returns the instant the
    /// last measured op finished (at least the window end).
    pub fn finish_window(&self, drain_cap: Duration) -> Result<SimTime, String> {
        let end = self.window.get().1;
        run_until(&self.sim, end);
        self.stopping.set(true);
        let deadline = end + drain_cap;
        run_until_done(&self.sim, deadline.duration_since(self.sim.now()), || {
            self.stats.borrow().in_flight == 0
        });
        let left = self.stats.borrow().in_flight;
        if left > 0 {
            return Err(format!(
                "{left} measured ops still in flight {drain_cap:?} after the window"
            ));
        }
        let last = self.stats.borrow().ops.iter().filter_map(|o| o.end).max();
        Ok(last.map_or(end, |l| l.max(end)))
    }

    fn begin_op(&self, class: Class, label: &'static str) -> Op {
        let now = self.sim.now();
        if class == Class::Background || !self.in_window(now) {
            return Op {
                id: None,
                root: None,
                measured: false,
                background: class == Class::Background,
            };
        }
        let mut stats = self.stats.borrow_mut();
        let id = stats.ops.len() as u64;
        stats.ops.push(OpRecord { id, start: now, end: None, ok: false });
        stats.in_flight += 1;
        let root = match self.sampler {
            Some(s) if s.chosen(id) => {
                let (trace, root) = Trace::start("bench.op", self.sim.clock());
                root.tag("op", id);
                root.tag("label", label);
                stats.traces.push((id, trace));
                Some(root)
            }
            _ => None,
        };
        Op { id: Some(id), root, measured: true, background: false }
    }

    fn end_op(&self, op: &Op, ok: bool) {
        let now = self.sim.now();
        if let Some(root) = &op.root {
            root.end();
        }
        let in_window = self.in_window(now);
        let mut stats = self.stats.borrow_mut();
        match op.id {
            Some(id) => {
                if let Some(rec) = stats.ops.get_mut(id as usize) {
                    rec.end = Some(now);
                    rec.ok = ok;
                }
                stats.in_flight -= 1;
            }
            None if op.background && ok && in_window => stats.background_committed += 1,
            None => {}
        }
    }

    /// Executes one statement for `op` on `conn`, entering the op's root
    /// span (if traced) around the call into the cluster.
    fn exec(
        self: &Rc<Self>,
        op: &Op,
        conn: &Rc<Connection>,
        sql: String,
        params: Vec<Datum>,
        cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
    ) {
        let gated = self
            .cluster
            .tenant(conn.tenant)
            .and_then(|info| info.gate_until(conn.node().instance_id))
            .is_some_and(|until| until > self.sim.now());
        if gated && self.in_window(self.sim.now()) {
            self.stats.borrow_mut().gated_statements += 1;
        }
        if op.measured {
            let mut stats = self.stats.borrow_mut();
            stats.statements += 1;
            if stats.stmt_log.len() < STMT_LOG_CAP {
                stats.stmt_log.push(sql.clone());
            }
        }
        let _g = op.root.as_ref().map(Span::enter);
        let this = Rc::clone(self);
        let measured = op.measured;
        self.cluster.execute(conn, &sql, params, move |r| {
            if measured {
                if let Ok(out) = &r {
                    let mut stats = this.stats.borrow_mut();
                    stats.rows_read += out.stats.rows_read;
                    stats.rows_out += out.rows.len() as u64;
                }
            }
            cb(r)
        });
    }

    /// Runs `spec` on `conn` to completion: retries retryable errors with
    /// capped exponential backoff, then calls `done(committed)`.
    fn run_op(
        self: &Rc<Self>,
        op: Rc<Op>,
        conn: Rc<Connection>,
        spec: OpSpec,
        done: Box<dyn FnOnce(bool)>,
    ) {
        let OpSpec { label: _, steps, txn, finish } = spec;
        self.attempt(op, conn, steps, txn, 0, finish, done);
    }

    #[allow(clippy::too_many_arguments)]
    fn attempt(
        self: &Rc<Self>,
        op: Rc<Op>,
        conn: Rc<Connection>,
        steps: Rc<Vec<Step>>,
        txn: bool,
        attempt: u32,
        finish: Option<Finish>,
        done: Box<dyn FnOnce(bool)>,
    ) {
        if op.measured {
            self.stats.borrow_mut().attempts += 1;
        }
        let this = Rc::clone(self);
        let (op2, conn2, steps2) = (Rc::clone(&op), Rc::clone(&conn), Rc::clone(&steps));
        self.step(
            Rc::clone(&op),
            Rc::clone(&conn),
            steps,
            txn,
            ScriptCtx::default(),
            0,
            Box::new(move |result| {
                if op2.measured {
                    this.nodes_seen
                        .borrow_mut()
                        .entry(conn2.node().instance_id.raw())
                        .or_insert_with(|| conn2.node());
                }
                match result {
                    Ok(ctx) => {
                        if let Some(f) = finish {
                            f(Some(&ctx));
                        }
                        this.end_op(&op2, true);
                        done(true);
                    }
                    Err(e) => {
                        if op2.measured {
                            this.stats.borrow_mut().failed_attempts += 1;
                        }
                        if e.is_retryable() && attempt < MAX_RETRIES {
                            if op2.measured {
                                this.stats.borrow_mut().retries += 1;
                            }
                            let this2 = Rc::clone(&this);
                            let backoff = dur::ms(1 << attempt.min(6));
                            this.sim.schedule_after(backoff, move || {
                                this2.attempt(op2, conn2, steps2, txn, attempt + 1, finish, done);
                            });
                        } else {
                            if let Some(f) = finish {
                                f(None);
                            }
                            this.end_op(&op2, false);
                            done(false);
                        }
                    }
                }
            }),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        self: &Rc<Self>,
        op: Rc<Op>,
        conn: Rc<Connection>,
        steps: Rc<Vec<Step>>,
        txn: bool,
        mut ctx: ScriptCtx,
        idx: usize,
        cb: Box<dyn FnOnce(Result<ScriptCtx, SqlError>)>,
    ) {
        let Some(build) = steps.get(idx) else {
            cb(Ok(ctx));
            return;
        };
        let (sql, params) = build(&ctx);
        let this = Rc::clone(self);
        let (op2, conn2) = (Rc::clone(&op), Rc::clone(&conn));
        self.exec(
            &op,
            &conn,
            sql,
            params,
            Box::new(move |r| match r {
                Ok(out) => {
                    ctx.outputs.push(out);
                    this.step(op2, conn2, steps, txn, ctx, idx + 1, cb);
                }
                Err(e) if txn => {
                    // Roll back whatever is open, then surface the error.
                    let op3 = Rc::clone(&op2);
                    this.exec(
                        &op3,
                        &conn2,
                        "ROLLBACK".into(),
                        vec![],
                        Box::new(move |_| cb(Err(e))),
                    );
                }
                Err(e) => cb(Err(e)),
            }),
        );
    }
}

/// One running op.
struct Op {
    id: Option<u64>,
    root: Option<Span>,
    measured: bool,
    background: bool,
}

/// Builds the next op for a worker: `(worker, per-worker op number, rng)`.
pub type OpGen = Rc<dyn Fn(usize, u64, &mut SmallRng) -> OpSpec>;

/// Starts a closed loop: one worker per connection, each running ops back
/// to back with `think` (jittered ±50 %) between them.
pub fn start_closed_loop(
    clients: &Rc<Clients>,
    class: Class,
    conns: Vec<Rc<Connection>>,
    think: Option<Duration>,
    gen: OpGen,
    salt: u64,
) {
    for (w, conn) in conns.into_iter().enumerate() {
        worker_iteration(Rc::clone(clients), class, w, conn, think, Rc::clone(&gen), salt, 0);
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_iteration(
    clients: Rc<Clients>,
    class: Class,
    worker: usize,
    conn: Rc<Connection>,
    think: Option<Duration>,
    gen: OpGen,
    salt: u64,
    n: u64,
) {
    if !clients.open() {
        return;
    }
    let mut rng = rng_for(clients.seed ^ salt, worker as u64, n);
    let spec = gen(worker, n, &mut rng);
    let op = Rc::new(clients.begin_op(class, spec.label));
    let pause = match think {
        Some(t) => Duration::from_secs_f64(t.as_secs_f64() * rng.gen_range(0.5..1.5)),
        None => dur::us(1),
    };
    let c2 = Rc::clone(&clients);
    let conn2 = Rc::clone(&conn);
    clients.run_op(
        op,
        conn,
        spec,
        Box::new(move |_| {
            let c3 = Rc::clone(&c2);
            c2.sim.schedule_after(pause, move || {
                worker_iteration(c3, class, worker, conn2, think, gen, salt, n + 1);
            });
        }),
    );
}

/// Schedules one open-loop probe at `at`: connect to `tenant` (which must
/// be suspended, so the probe is a true scale-from-zero), run `spec`,
/// close. The op is timed from the scheduled instant to its last result.
pub fn schedule_probe(
    clients: &Rc<Clients>,
    at: SimTime,
    tenant: TenantId,
    spec: impl FnOnce() -> OpSpec + 'static,
) {
    let clients = Rc::clone(clients);
    let sim = clients.sim.clone();
    sim.schedule_at(at, move || {
        let spec = spec();
        let op = Rc::new(clients.begin_op(Class::Measured, spec.label));
        if !clients.cluster.is_suspended(tenant) {
            clients.violation(format!("probe of tenant {} found it running", tenant.raw()));
        }
        let _g = op.root.as_ref().map(Span::enter);
        let c2 = Rc::clone(&clients);
        let op2 = Rc::clone(&op);
        clients.cluster.connect(tenant, "198.51.100.7", "prober", move |r| match r {
            Ok(conn) => {
                let c3 = Rc::clone(&c2);
                let conn2 = Rc::clone(&conn);
                c2.run_op(op2, conn, spec, Box::new(move |_| c3.cluster.close(&conn2)));
            }
            Err(e) => {
                c2.violation(format!("probe connect to tenant {} failed: {e:?}", tenant.raw()));
                c2.end_op(&op2, false);
            }
        });
    });
}

/// `Sim::run_until` in slices of `TICK_SIM`, with a host-clock tick after
/// each. The slices run the same events in the same order as one call.
pub fn run_until(sim: &Sim, until: SimTime) {
    loop {
        sim.run_until((sim.now() + TICK_SIM).min(until));
        hostclock::tick();
        if sim.now() >= until {
            return;
        }
    }
}

/// Drives the simulation until `done()` holds, at most `cap` of sim time,
/// with a host-clock tick every `TICK_STEPS` events.
pub fn run_until_done(sim: &Sim, cap: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = sim.now() + cap;
    let mut steps = 0u64;
    while !done() && sim.now() < deadline {
        if !sim.step() {
            break;
        }
        steps += 1;
        if steps.is_multiple_of(TICK_STEPS) {
            hostclock::tick();
        }
    }
    done()
}

/// Connects synchronously (setup only). A refused connect is retried after
/// a second, up to three attempts, and each retry is reported on stderr: a
/// first connect to a fresh tenant occasionally fails with
/// `node is Stopped` right after its cold start.
pub fn connect_blocking(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    tenant: TenantId,
    ip: &str,
) -> Result<Rc<Connection>, String> {
    let mut attempt = 1;
    loop {
        let slot = Rc::new(RefCell::new(None));
        let s = Rc::clone(&slot);
        cluster.connect(tenant, ip, "bench", move |r| *s.borrow_mut() = Some(r));
        run_until_done(sim, dur::secs(120), || slot.borrow().is_some());
        let result = slot.borrow_mut().take();
        let err = match result {
            Some(Ok(conn)) => return Ok(conn),
            Some(Err(e)) => format!("connect to tenant {}: {e:?}", tenant.raw()),
            None => format!("connect to tenant {} did not complete", tenant.raw()),
        };
        if attempt == 3 {
            return Err(err);
        }
        eprintln!("perfbench: set-up retry {attempt} after {err}");
        attempt += 1;
        run_until(sim, sim.now() + dur::secs(1));
    }
}

/// Executes one statement synchronously (setup and checks only).
pub fn exec_blocking(
    sim: &Sim,
    cluster: &Rc<ServerlessCluster>,
    conn: &Rc<Connection>,
    sql: &str,
) -> Result<QueryOutput, String> {
    let slot = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    cluster.execute(conn, sql, vec![], move |r| *s.borrow_mut() = Some(r));
    run_until_done(sim, dur::secs(600), || slot.borrow().is_some());
    let result = slot.borrow_mut().take();
    match result {
        Some(Ok(out)) => Ok(out),
        Some(Err(e)) => Err(format!("{}: {e}", abbreviate(sql))),
        None => Err(format!("{}: did not complete", abbreviate(sql))),
    }
}

fn abbreviate(sql: &str) -> String {
    sql.chars().take(80).collect()
}
