//! Executor adapters: run workloads against a serverless or dedicated
//! deployment.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crdb_core::{DedicatedCluster, ServerlessCluster};
use crdb_serverless::proxy::Connection;
use crdb_sql::coord::SqlError;
use crdb_sql::exec::QueryOutput;
use crdb_sql::value::Datum;
use crdb_util::time::dur;
use crdb_util::TenantId;

use crate::driver::SqlExecutor;

/// Runs statements through the serverless path: proxy routing, quota
/// gates, per-worker connections (like client connection pools).
pub struct ServerlessExecutor {
    cluster: Rc<ServerlessCluster>,
    tenant: TenantId,
    conns: RefCell<BTreeMap<usize, Rc<Connection>>>,
    connecting: RefCell<BTreeMap<usize, Vec<ConnWaiter>>>,
}

/// A statement waiting for its worker's connection to come up.
type ConnWaiter = Box<dyn FnOnce(Rc<Connection>)>;

impl ServerlessExecutor {
    /// Creates an executor for one tenant.
    pub fn new(cluster: Rc<ServerlessCluster>, tenant: TenantId) -> Rc<ServerlessExecutor> {
        Rc::new(ServerlessExecutor {
            cluster,
            tenant,
            conns: RefCell::new(BTreeMap::new()),
            connecting: RefCell::new(BTreeMap::new()),
        })
    }

    fn with_conn(self: &Rc<Self>, worker: usize, cb: Box<dyn FnOnce(Rc<Connection>)>) {
        // Bind before branching: `cb` may synchronously issue queries that
        // re-enter `with_conn` and borrow the conn map again.
        let existing = self.conns.borrow().get(&worker).map(Rc::clone);
        if let Some(conn) = existing {
            cb(conn);
            return;
        }
        let mut connecting = self.connecting.borrow_mut();
        let waiters = connecting.entry(worker).or_default();
        waiters.push(cb);
        if waiters.len() > 1 {
            return;
        }
        drop(connecting);
        let this = Rc::clone(self);
        let ip = format!("10.0.{}.{}", worker / 256, worker % 256);
        self.cluster.connect(self.tenant, &ip, "workload", move |r| {
            let conn = r.expect("workload connect");
            this.conns.borrow_mut().insert(worker, Rc::clone(&conn));
            let waiters = this.connecting.borrow_mut().remove(&worker).unwrap_or_default();
            for w in waiters {
                w(Rc::clone(&conn));
            }
        });
    }
}

impl SqlExecutor for Rc<ServerlessExecutor> {
    fn exec(
        &self,
        worker: usize,
        sql: String,
        params: Vec<Datum>,
        cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
    ) {
        let cluster = Rc::clone(&self.cluster);
        self.with_conn(
            worker,
            Box::new(move |conn| {
                cluster.execute(&conn, &sql, params, cb);
            }),
        );
    }
}

/// Runs statements on a dedicated cluster: each worker pins a session on
/// one fused engine, round-robin.
pub struct DedicatedExecutor {
    cluster: Rc<DedicatedCluster>,
    sessions: RefCell<HashMap<usize, (usize, u64)>>,
}

impl DedicatedExecutor {
    /// Creates the executor.
    pub fn new(cluster: Rc<DedicatedCluster>) -> Rc<DedicatedExecutor> {
        Rc::new(DedicatedExecutor { cluster, sessions: RefCell::new(HashMap::new()) })
    }

    fn session_for(&self, worker: usize) -> (usize, u64) {
        let mut sessions = self.sessions.borrow_mut();
        *sessions.entry(worker).or_insert_with(|| {
            let idx = worker % self.cluster.sql_nodes.len();
            let session = self.cluster.sql_nodes[idx].open_session("workload").expect("session");
            (idx, session)
        })
    }
}

impl SqlExecutor for Rc<DedicatedExecutor> {
    fn exec(
        &self,
        worker: usize,
        sql: String,
        params: Vec<Datum>,
        cb: Box<dyn FnOnce(Result<QueryOutput, SqlError>)>,
    ) {
        let (idx, session) = self.session_for(worker);
        let node = Rc::clone(&self.cluster.sql_nodes[idx]);
        node.execute(session, &sql, params, cb);
    }
}

/// Runs one statement through an executor (worker 0), driving the
/// simulation a second at a time until it completes. `None` if it is
/// still running after 300 simulated seconds.
pub fn exec_until_done(
    sim: &crdb_sim::Sim,
    executor: &Rc<dyn SqlExecutor>,
    sql: &str,
    params: Vec<Datum>,
) -> Option<Result<QueryOutput, SqlError>> {
    let done = Rc::new(RefCell::new(None));
    let d = Rc::clone(&done);
    executor.exec(0, sql.to_string(), params, Box::new(move |r| *d.borrow_mut() = Some(r)));
    for _ in 0..300 {
        if done.borrow().is_some() {
            break;
        }
        sim.run_for(dur::secs(1));
    }
    let result = done.borrow_mut().take();
    result
}

/// Runs a list of statements sequentially through an executor (worker 0),
/// driving the simulation until each completes. Used for schema setup and
/// data loading.
pub fn run_setup(sim: &crdb_sim::Sim, executor: &Rc<dyn SqlExecutor>, statements: &[String]) {
    for stmt in statements {
        match exec_until_done(sim, executor, stmt, vec![]) {
            Some(Ok(_)) => {}
            Some(Err(e)) => panic!("setup statement failed: {stmt}: {e}"),
            None => panic!("setup statement did not complete: {stmt}"),
        }
    }
}
