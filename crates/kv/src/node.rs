//! A KV (storage) node (§4.1).
//!
//! KV nodes are shared across tenants: one process serves reads and writes
//! for every tenant whose range leases it holds. Each node owns an LSM
//! engine, a simulated CPU, a simulated disk, and an admission controller;
//! batches flow `network → auth → lease check → admission → CPU →
//! execute → (replicate) → respond`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::{Rc, Weak};
use std::time::Duration;

use bytes::Bytes;
use crdb_admission::write::ESTIMATION_INTERVAL;
use crdb_admission::{AdmissionConfig, AdmissionController, Priority, WorkClass};
use crdb_obs::trace;
use crdb_sim::cpu::CpuScheduler;
use crdb_sim::resource::RateResource;
use crdb_sim::{Location, Sim};
use crdb_storage::{Engine, LsmConfig};
use crdb_util::stats::SlidingWindow;
use crdb_util::time::{dur, SimTime};
use crdb_util::{NodeId, TenantId};

use crate::auth::TenantCert;
use crate::batch::{BatchRequest, BatchResponse, KvError, RequestKind, ResponseKind};
use crate::cluster::ClusterInner;
use crate::cost::TrafficStats;
use crate::hlc::{Hlc, Timestamp};
use crate::mvcc;
use crate::txn::TxnStatus;

/// How long an intent may sit untouched with its transaction still
/// `Pending` before a conflicting reader may declare the transaction
/// abandoned (coordinator crashed) and push-abort it. Far above any
/// live transaction's lifetime, so only orphans are ever pushed.
pub const TXN_ABANDON_TIMEOUT: Duration = Duration::from_secs(10);

/// Group-commit window: writes ack at the next modeled WAL fsync, at most
/// this long after execution. All batches that land inside one window
/// share a single fsync.
const FSYNC_INTERVAL: Duration = Duration::from_micros(500);

/// An operation queued in admission: the batch plus its response path.
pub(crate) struct PendingOp {
    pub batch: BatchRequest,
    pub respond: Box<dyn FnOnce(BatchResponse)>,
    /// The request's `kv.serve` span, carried through the admission queue
    /// and the CPU scheduler so server-side phases attach to the caller's
    /// trace.
    pub span: trace::MaybeSpan,
    /// Child of `span` covering time spent queued in admission.
    pub queue_span: trace::MaybeSpan,
}

/// A shared KV storage node.
pub struct KvNode {
    /// Node ID.
    pub id: NodeId,
    /// Placement.
    pub location: Location,
    pub(crate) sim: Sim,
    /// The node's CPU.
    pub cpu: CpuScheduler,
    /// The node's disk (flush/compaction bandwidth).
    pub disk: RateResource,
    /// The node's storage engine (holds all its replicas' data).
    pub engine: Engine,
    pub(crate) admission: RefCell<AdmissionController<PendingOp>>,
    pub(crate) hlc: Hlc,
    pub(crate) cluster: Weak<RefCell<ClusterInner>>,
    alive: Cell<bool>,
    /// Per-tenant traffic features (input to the estimated-CPU model).
    traffic: RefCell<HashMap<TenantId, TrafficStats>>,
    /// Recent batch arrivals, for the cost model's economy curve.
    batch_window: RefCell<SlidingWindow>,
    /// Batches served (lifetime).
    pub batches_served: Cell<u64>,
    /// Scheduled admission re-poll, if any.
    pending_pump: Cell<Option<crdb_sim::EventId>>,
    /// Runnable/busy integrals at the last AIMD tick.
    last_tick: Cell<(f64, f64, SimTime)>,
    /// The timestamp cache (§"tscache"): high-water marks of read
    /// timestamps per key. A write whose timestamp is at or below a key's
    /// read watermark is rejected (retryably) — without this, a commit
    /// whose timestamp was assigned before its intents physically land
    /// could invalidate a concurrent reader's snapshot.
    ts_cache: RefCell<BTreeMap<Bytes, Timestamp>>,
    /// Low-water mark applied when the cache is compacted.
    ts_cache_floor: Cell<Timestamp>,
    /// Write acks waiting on the next group commit, in arrival order.
    commit_acks: RefCell<Vec<Box<dyn FnOnce()>>>,
    /// Whether a group-commit fsync is already scheduled.
    commit_timer_armed: Cell<bool>,
}

impl KvNode {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        sim: Sim,
        id: NodeId,
        location: Location,
        vcpus: f64,
        disk_rate: f64,
        admission_config: AdmissionConfig,
        lsm_config: LsmConfig,
        cluster: Weak<RefCell<ClusterInner>>,
    ) -> Rc<KvNode> {
        let cpu = CpuScheduler::new(sim.clone(), vcpus);
        let node = Rc::new(KvNode {
            id,
            location,
            cpu: cpu.clone(),
            disk: RateResource::new(sim.clone(), disk_rate),
            engine: Engine::new(lsm_config),
            admission: RefCell::new(AdmissionController::new(admission_config)),
            hlc: Hlc::new(),
            cluster,
            alive: Cell::new(true),
            traffic: RefCell::new(HashMap::new()),
            batch_window: RefCell::new(SlidingWindow::new(dur::secs(5))),
            batches_served: Cell::new(0),
            pending_pump: Cell::new(None),
            last_tick: Cell::new((0.0, 0.0, sim.now())),
            ts_cache: RefCell::new(BTreeMap::new()),
            ts_cache_floor: Cell::new(Timestamp::ZERO),
            commit_acks: RefCell::new(Vec::new()),
            commit_timer_armed: Cell::new(false),
            sim,
        });
        node.start_tick_loop();
        node
    }

    fn start_tick_loop(self: &Rc<Self>) {
        // AIMD slot adjustment: the paper samples the runnable queue at
        // 1000 Hz and adjusts via AIMD; under simulation the runnable queue
        // integral is exact, so we tick the controller at 50 ms with the
        // exact interval average (DESIGN.md substitution).
        let node = Rc::clone(self);
        self.sim.schedule_periodic(dur::ms(50), move || {
            if !node.alive.get() {
                return true;
            }
            let now = node.sim.now();
            let (last_runnable, last_busy, last_at) = node.last_tick.get();
            let runnable = node.cpu.cumulative_runnable();
            let busy = node.cpu.cumulative_busy();
            let dt = now.duration_since(last_at).as_secs_f64();
            if dt > 0.0 {
                let avg_runnable = (runnable - last_runnable) / dt;
                let util = (busy - last_busy) / (dt * node.cpu.vcpus());
                node.admission.borrow_mut().tick_slots(avg_runnable, util, node.cpu.vcpus());
            }
            node.last_tick.set((runnable, busy, now));
            true
        });
        // Write capacity estimation every 15 s from LSM instrumentation.
        let node = Rc::clone(self);
        self.sim.schedule_periodic(ESTIMATION_INTERVAL, move || {
            if !node.alive.get() {
                return true;
            }
            let now = node.sim.now();
            let metrics = node.engine.metrics();
            let l0 = node.engine.with_lsm(|lsm| lsm.l0_file_count());
            node.admission.borrow_mut().estimate_write_capacity(now, metrics, l0);
            true
        });
        // Storage sweeper: mirrored follower writes land in this engine
        // without going through `execute`, so a coarse tick commits any
        // straggling WAL group and starts background jobs their rotation
        // produced. Leader-driven writes don't wait for this — they arm
        // the group-commit timer and kick maintenance directly.
        let node = Rc::clone(self);
        self.sim.schedule_periodic(dur::ms(50), move || {
            if node.engine.with_lsm(|lsm| lsm.wal_unsynced_batches() > 0)
                && !node.commit_timer_armed.get()
            {
                node.engine.with_lsm(|lsm| {
                    lsm.group_commit();
                });
            }
            node.maintain_storage();
            true
        });
    }

    /// Queues a write ack behind the next group commit and arms the fsync
    /// timer if it isn't already. Every ack queued inside one window is
    /// released by a single modeled fsync — the group-commit amortization.
    fn enqueue_commit_ack(self: &Rc<Self>, ack: Box<dyn FnOnce()>) {
        self.commit_acks.borrow_mut().push(ack);
        if !self.commit_timer_armed.get() {
            self.commit_timer_armed.set(true);
            let node = Rc::clone(self);
            self.sim.schedule_after(FSYNC_INTERVAL, move || {
                node.commit_timer_armed.set(false);
                node.fire_group_commit();
            });
        }
    }

    /// Commits the current WAL group (one modeled fsync) and releases
    /// every ack that was waiting on it. Fires even across a node crash:
    /// an ack enqueued before the crash was backed by a WAL append whose
    /// data survives in the engine, so releasing it never loses a commit.
    fn fire_group_commit(self: &Rc<Self>) {
        let acks: Vec<Box<dyn FnOnce()>> = self.commit_acks.borrow_mut().drain(..).collect();
        self.engine.with_lsm(|lsm| {
            lsm.group_commit();
        });
        for ack in acks {
            ack();
        }
        self.maintain_storage();
    }

    /// Starts every background storage job [`Lsm::begin_job`] finds due,
    /// charging each to the node's disk. Bytes are attributed in
    /// `StorageMetrics` when a job's disk I/O completes, which is what the
    /// §5.1.3 write-capacity estimator samples.
    ///
    /// [`Lsm::begin_job`]: crdb_storage::Lsm::begin_job
    pub(crate) fn maintain_storage(self: &Rc<Self>) {
        while let Some(job) = self.engine.with_lsm(|lsm| lsm.begin_job()) {
            let node = Rc::clone(self);
            self.disk.submit(job.bytes().max(1) as f64, move || {
                node.engine.with_lsm(|lsm| lsm.finish_job(job));
                node.maintain_storage();
            });
        }
    }

    /// Whether the node is up.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// Marks the node down (in-flight work is abandoned) or back up.
    pub fn set_alive(&self, alive: bool) {
        self.alive.set(alive);
    }

    /// Receives a batch from the network. `cert` authenticates the sender;
    /// `respond` receives the response (the caller layers return-network
    /// latency on top).
    pub fn receive(
        self: &Rc<Self>,
        cert: &TenantCert,
        batch: BatchRequest,
        respond: impl FnOnce(BatchResponse) + 'static,
    ) {
        if !self.alive.get() {
            respond(BatchResponse::err(KvError::NodeUnavailable));
            return;
        }
        let cluster = match self.cluster.upgrade() {
            Some(c) => c,
            None => {
                respond(BatchResponse::err(KvError::NodeUnavailable));
                return;
            }
        };
        // Security boundary (§3.2.3).
        {
            let inner = cluster.borrow();
            if let Err(e) = crate::auth::authorize(&inner.ca, cert, &batch) {
                respond(BatchResponse::err(e));
                return;
            }
        }
        // Lease check: the whole batch must land in a range this node
        // holds the lease for.
        let anchor = match Self::batch_anchor_key(&batch) {
            Some(k) => k,
            None => {
                respond(BatchResponse::err(KvError::RangeNotFound));
                return;
            }
        };
        {
            let inner = cluster.borrow();
            match inner.directory.lookup(&anchor) {
                None => {
                    respond(BatchResponse::err(KvError::RangeNotFound));
                    return;
                }
                Some(range) => {
                    if range.lease.holder != self.id {
                        respond(BatchResponse::err(KvError::NotLeaseholder {
                            range: range.desc.id,
                            leaseholder: Some(range.lease.holder),
                        }));
                        return;
                    }
                }
            }
        }
        // Admission (§5.1): reads through the CQ, writes through WQ + CQ.
        let now = self.sim.now();
        // Propagated deadline: a batch that is already past it fails
        // typed without queuing, and the admission deadline is clamped
        // to it — the node never works on a request its caller has
        // already abandoned.
        if batch.deadline.expired(now) {
            if let Some(c) = self.cluster.upgrade() {
                c.borrow().degrade.bump_deadline_exceeded();
            }
            respond(BatchResponse::err(KvError::DeadlineExceeded));
            return;
        }
        let tenant = batch.tenant;
        let txn_start = batch.txn.as_ref().map(|t| t.start_ts.to_sim_time()).unwrap_or(now);
        let deadline = (now + dur::secs(30)).min(batch.deadline.time());
        let priority = if tenant.is_system() { Priority::High } else { Priority::Normal };
        let is_write = batch.is_write();
        let bytes = batch.payload_bytes() as f64;
        let span = trace::child("kv.serve");
        span.tag("node", self.id);
        span.tag("tenant", tenant);
        let queue_span = span.child("admission.queue");
        let op = PendingOp { batch, respond: Box::new(respond), span, queue_span };
        {
            let mut adm = self.admission.borrow_mut();
            if is_write {
                adm.request_write(now, tenant, priority, txn_start, deadline, bytes, op);
            } else {
                adm.request_read(now, tenant, priority, txn_start, deadline, op);
            }
        }
        self.pump();
    }

    fn batch_anchor_key(batch: &BatchRequest) -> Option<Bytes> {
        batch.requests.first().and_then(|r| match r {
            RequestKind::EndTxn { .. } => batch.txn.as_ref().map(|t| t.anchor_key.clone()),
            other => Some(other.primary_key().clone()),
        })
    }

    /// Drains admission grants into CPU tasks. Re-schedules itself when a
    /// deferred write-token grant is pending.
    pub(crate) fn pump(self: &Rc<Self>) {
        let now = self.sim.now();
        let grants = self.admission.borrow_mut().poll(now);
        for grant in grants {
            let node = Rc::clone(self);
            let tenant = grant.tenant;
            let class = grant.class;
            let bytes = grant.bytes;
            let op = grant.payload;
            // Ground-truth CPU cost, shaped by the recent batch rate.
            let rate = {
                let mut w = self.batch_window.borrow_mut();
                w.record(now, 1.0);
                w.len() as f64 / 5.0
            };
            let cost = {
                let cluster = match self.cluster.upgrade() {
                    Some(c) => c,
                    None => continue,
                };
                let inner = cluster.borrow();
                inner.cost_model.batch_cpu_seconds(&op.batch, rate)
            };
            op.queue_span.end();
            let cpu_span = op.span.child("kv.cpu");
            self.cpu.submit(tenant, cost, move || {
                cpu_span.end();
                node.execute(op, class, cost, bytes);
            });
        }
        // Deferred token grants need a wake-up.
        let next = self.admission.borrow_mut().next_event_time(now);
        if let Some(at) = next {
            if let Some(ev) = self.pending_pump.take() {
                self.sim.cancel(ev);
            }
            let node = Rc::clone(self);
            let ev = self.sim.schedule_at(at + dur::us(1), move || {
                node.pending_pump.set(None);
                node.pump();
            });
            self.pending_pump.set(Some(ev));
        }
    }

    /// Executes an admitted batch after its CPU service completes.
    fn execute(self: &Rc<Self>, op: PendingOp, class: WorkClass, cpu_cost: f64, bytes: f64) {
        let now = self.sim.now();
        let PendingOp { batch, respond, span, .. } = op;
        let cluster = match self.cluster.upgrade() {
            Some(c) => c,
            None => return,
        };

        // Write-quorum gate: a write whose range has lost its
        // replication quorum (a zone/region outage downed a follower
        // majority) is rejected *before* any MVCC mutation applies — a
        // write that cannot replicate must never apply or ack.
        if batch.is_write() {
            let has_quorum = {
                let inner = cluster.borrow();
                match Self::batch_anchor_key(&batch)
                    .and_then(|a| inner.directory.lookup(&a).map(|r| r.desc.replicas.clone()))
                {
                    Some(replicas) => {
                        let live = replicas
                            .iter()
                            .filter(|&&n| {
                                n == self.id || inner.nodes.get(&n).is_some_and(|f| f.is_alive())
                            })
                            .count();
                        live > replicas.len() / 2
                    }
                    // Missing range: RangeNotFound surfaces from the
                    // normal execution path below.
                    None => true,
                }
            };
            if !has_quorum {
                {
                    let degrade = Rc::clone(&cluster.borrow().degrade);
                    degrade.quorum_losses.set(degrade.quorum_losses.get() + 1);
                }
                self.admission.borrow_mut().complete(
                    now,
                    batch.tenant,
                    class,
                    cpu_cost,
                    bytes,
                    None,
                );
                span.tag("quorum_loss", true);
                span.end();
                respond(BatchResponse::err(KvError::Unavailable));
                self.pump();
                return;
            }
        }

        // Write-stall backpressure: a write arriving while the engine has
        // a flush or L0 backlog pays a modeled stall delay before its ack.
        // The stall is recorded in `StorageMetrics`, so admission control
        // sees it at the next capacity estimation, and maintenance is
        // kicked so the backlog is actually draining while the write
        // waits.
        let stall_delay = if batch.is_write() && self.engine.write_stall().is_some() {
            let d = dur::ms(1);
            self.engine.with_lsm(|lsm| lsm.note_stall(d.as_micros() as u64));
            self.maintain_storage();
            d
        } else {
            Duration::ZERO
        };

        let storage_span = span.child("storage.mvcc");
        storage_span.tag("requests", batch.requests.len());
        let result = self.execute_requests(&cluster, &batch);
        let (response, write_payload) = match result {
            Ok((results, write_payload)) => (BatchResponse::ok(results), write_payload),
            Err(e) => (BatchResponse::err(e), 0),
        };
        if write_payload > 0 {
            storage_span.tag("write_bytes", write_payload);
        }
        storage_span.end();

        // Traffic features for the estimated-CPU model.
        self.traffic
            .borrow_mut()
            .entry(batch.tenant)
            .or_default()
            .record(&batch, response.response_bytes);
        self.batches_served.set(self.batches_served.get() + 1);

        // Admission completion: actual CPU and actual physical write bytes
        // (raft log + state machine, the §5.1.4 linear model's target).
        let actual_bytes = if write_payload > 0 {
            let physical = 2.0 * write_payload as f64 + 96.0;
            self.disk.submit(physical, || {});
            // Rotation may have produced a frozen memtable; start its
            // flush (and any compaction now due) immediately rather than
            // waiting for the sweeper tick.
            self.maintain_storage();
            Some(physical)
        } else {
            None
        };
        self.admission.borrow_mut().complete(
            now,
            batch.tenant,
            class,
            cpu_cost,
            bytes,
            actual_bytes,
        );

        // Replication: respond only after a quorum would have acked.
        // Only *live* followers can ack — with a domain down, the commit
        // waits for the surviving (possibly slower) replicas instead of
        // crediting acks from dead ones.
        let repl_delay = if write_payload > 0 {
            let (leader, followers) = {
                let inner = cluster.borrow();
                let anchor = Self::batch_anchor_key(&batch).expect("anchored");
                let range = inner.directory.lookup(&anchor);
                let followers: Vec<(Location, bool)> = range
                    .map(|r| {
                        r.desc
                            .replicas
                            .iter()
                            .filter(|&&n| n != self.id)
                            .filter_map(|n| {
                                inner.nodes.get(n).map(|node| (node.location, node.is_alive()))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let follower_cost = inner.cost_model.follower_apply_cpu_seconds(cpu_cost);
                // Charge follower CPUs for the apply.
                if let Some(r) = range {
                    for n in &r.desc.replicas {
                        if *n != self.id {
                            if let Some(f) = inner.nodes.get(n) {
                                f.cpu.submit(batch.tenant, follower_cost, || {});
                            }
                        }
                    }
                }
                (self.location, followers)
            };
            let topology = cluster.borrow().topology.clone();
            // The pre-execute gate above guarantees a live quorum at
            // this instant (liveness cannot change mid-event).
            crate::replication::quorum_commit_delay_live(&self.sim, &topology, leader, &followers)
                .unwrap_or(Duration::ZERO)
        } else {
            Duration::ZERO
        };

        let delay = stall_delay + repl_delay;
        if delay.is_zero() {
            self.deliver_response(write_payload > 0, span, response, respond);
        } else {
            let repl_span = span.child("replication.quorum");
            let node = Rc::clone(self);
            self.sim.schedule_after(delay, move || {
                repl_span.end();
                node.deliver_response(write_payload > 0, span, response, respond);
            });
        }
        self.pump();
    }

    /// Delivers a batch response — successful writes ride the next group
    /// commit (their WAL append becomes durable at that fsync); reads and
    /// errors respond immediately.
    fn deliver_response(
        self: &Rc<Self>,
        via_group_commit: bool,
        span: trace::MaybeSpan,
        response: BatchResponse,
        respond: Box<dyn FnOnce(BatchResponse)>,
    ) {
        if via_group_commit {
            let commit_span = span.child("wal.group_commit");
            self.enqueue_commit_ack(Box::new(move || {
                commit_span.end();
                span.end();
                respond(response);
            }));
        } else {
            span.end();
            respond(response);
        }
    }

    /// Runs the MVCC work of a batch against this node's engine, mirroring
    /// every mutation onto the follower replicas' engines (the data path is
    /// synchronous; see module docs of [`crate::replication`]).
    fn execute_requests(
        self: &Rc<Self>,
        cluster: &Rc<RefCell<ClusterInner>>,
        batch: &BatchRequest,
    ) -> Result<(Vec<ResponseKind>, usize), KvError> {
        // Collect replica engines and bump range stats in a short borrow.
        let anchor = Self::batch_anchor_key(batch).ok_or(KvError::RangeNotFound)?;
        let replica_engines: Vec<Engine> = {
            let mut inner = cluster.borrow_mut();
            let this_id = self.id;
            let range = inner.directory.lookup_mut(&anchor).ok_or(KvError::RangeNotFound)?;
            if batch.is_write() {
                range.writes += 1;
                range.size_bytes += batch.payload_bytes() as u64;
            } else {
                range.reads += 1;
            }
            let replicas = range.desc.replicas.clone();
            replicas
                .iter()
                .filter(|&&n| n != this_id)
                .filter_map(|n| inner.nodes.get(n).map(|node| node.engine.clone()))
                .collect()
        };

        let own_txn = batch.txn.as_ref().map(|t| t.txn_id);
        let mut results = Vec::with_capacity(batch.requests.len());
        let mut write_payload = 0usize;

        for req in &batch.requests {
            match req {
                RequestKind::Get { key } => {
                    self.bump_ts_cache(key, batch.read_ts);
                    match mvcc::get(&self.engine, key, batch.read_ts, own_txn) {
                        mvcc::ReadResult::Value(v) => results.push(ResponseKind::Value(v)),
                        mvcc::ReadResult::Intent(intent) => {
                            match self.check_intent(
                                cluster,
                                key,
                                &intent,
                                batch.read_ts,
                                &replica_engines,
                            ) {
                                Some(v) => results.push(ResponseKind::Value(v)),
                                None => {
                                    return Err(KvError::IntentConflict {
                                        other_txn: intent.txn_id,
                                    })
                                }
                            }
                        }
                    }
                }
                RequestKind::Scan { start, end, limit } => {
                    let (mut pairs, intents) =
                        mvcc::scan(&self.engine, start, end, batch.read_ts, *limit, own_txn);
                    if !intents.is_empty() {
                        // Try to resolve each via its txn status; any still
                        // pending fails the batch (client retries).
                        for (key, intent) in &intents {
                            let resolved = self.check_intent(
                                cluster,
                                key,
                                intent,
                                batch.read_ts,
                                &replica_engines,
                            );
                            if resolved.is_none() {
                                return Err(KvError::IntentConflict { other_txn: intent.txn_id });
                            }
                        }
                        // All resolved: re-scan for a consistent result.
                        (pairs, _) =
                            mvcc::scan(&self.engine, start, end, batch.read_ts, *limit, own_txn);
                    }
                    // The ts cache must cover exactly what the client saw:
                    // bumping only the first-pass pairs missed keys that
                    // became visible after intent resolution, letting a
                    // later write at or below `read_ts` invalidate this
                    // read's snapshot.
                    for (k, _) in &pairs {
                        self.bump_ts_cache(k, batch.read_ts);
                    }
                    results.push(ResponseKind::Pairs(pairs));
                }
                RequestKind::Put { key, value } => {
                    let ts = self.hlc.now(self.sim.now());
                    mvcc::put_version(&self.engine, key, ts, Some(value));
                    for e in &replica_engines {
                        mvcc::put_version(e, key, ts, Some(value));
                    }
                    write_payload += key.len() + value.len();
                    results.push(ResponseKind::Ok);
                }
                RequestKind::Delete { key } => {
                    let ts = self.hlc.now(self.sim.now());
                    mvcc::put_version(&self.engine, key, ts, None);
                    for e in &replica_engines {
                        mvcc::put_version(e, key, ts, None);
                    }
                    write_payload += key.len();
                    results.push(ResponseKind::Ok);
                }
                RequestKind::WriteIntent { key, value } => {
                    let txn = batch.txn.as_ref().ok_or(KvError::TxnAborted)?;
                    let watermark = self.ts_cache_read(key);
                    if watermark >= txn.write_ts && watermark > txn.start_ts {
                        return Err(KvError::WriteTooOld { existing: watermark });
                    }
                    match mvcc::write_intent(
                        &self.engine,
                        key,
                        txn.txn_id,
                        txn.write_ts,
                        txn.start_ts,
                        value.as_ref(),
                    ) {
                        Ok(()) => {}
                        Err(mvcc::WriteConflict::WriteTooOld(existing)) => {
                            return Err(KvError::WriteTooOld { existing })
                        }
                        Err(mvcc::WriteConflict::Intent(other)) => {
                            // The other txn may already be finalized.
                            if self
                                .check_intent(cluster, key, &other, batch.read_ts, &replica_engines)
                                .is_some()
                            {
                                // Resolved; retry once.
                                match mvcc::write_intent(
                                    &self.engine,
                                    key,
                                    txn.txn_id,
                                    txn.write_ts,
                                    txn.start_ts,
                                    value.as_ref(),
                                ) {
                                    Ok(()) => {}
                                    Err(mvcc::WriteConflict::WriteTooOld(existing)) => {
                                        return Err(KvError::WriteTooOld { existing })
                                    }
                                    Err(mvcc::WriteConflict::Intent(o)) => {
                                        return Err(KvError::IntentConflict { other_txn: o.txn_id })
                                    }
                                }
                            } else {
                                return Err(KvError::IntentConflict { other_txn: other.txn_id });
                            }
                        }
                    }
                    for e in &replica_engines {
                        // Followers apply unconditionally (the leader
                        // validated).
                        let _ = mvcc::write_intent(
                            e,
                            key,
                            txn.txn_id,
                            txn.write_ts,
                            Timestamp::MAX,
                            value.as_ref(),
                        );
                    }
                    write_payload += key.len() + value.as_ref().map_or(0, |v| v.len());
                    results.push(ResponseKind::Ok);
                }
                RequestKind::EndTxn { commit } => {
                    let txn = batch.txn.as_ref().ok_or(KvError::TxnAborted)?;
                    // A transaction already aborted by a pusher must not
                    // commit: its intents are gone, so acknowledging the
                    // commit would silently lose the writes.
                    if cluster.borrow().txn_status.get(&txn.txn_id) == Some(&TxnStatus::Aborted) {
                        return Err(KvError::TxnAborted);
                    }
                    let status = if *commit {
                        TxnStatus::Committed(txn.write_ts)
                    } else {
                        TxnStatus::Aborted
                    };
                    let record = crate::txn::TxnRecord { txn_id: txn.txn_id, status };
                    mvcc::put_txn_record(&self.engine, &record);
                    for e in &replica_engines {
                        mvcc::put_txn_record(e, &record);
                    }
                    {
                        let mut inner = cluster.borrow_mut();
                        let now = self.sim.now();
                        inner.txn_status.insert(txn.txn_id, status);
                        inner.txn_finalized_at.insert(txn.txn_id, now);
                    }
                    write_payload += 32;
                    results.push(ResponseKind::Ok);
                }
                RequestKind::RefreshSpan { start, end, since } => {
                    match mvcc::refresh_span(&self.engine, start, end, *since, own_txn) {
                        Ok(()) => results.push(ResponseKind::Ok),
                        Err(existing) => return Err(KvError::WriteTooOld { existing }),
                    }
                }
                RequestKind::ResolveIntent { key, commit_ts } => {
                    let txn = batch.txn.as_ref().ok_or(KvError::TxnAborted)?;
                    mvcc::resolve_intent(&self.engine, key, txn.txn_id, *commit_ts);
                    for e in &replica_engines {
                        mvcc::resolve_intent(e, key, txn.txn_id, *commit_ts);
                    }
                    write_payload += key.len();
                    results.push(ResponseKind::Ok);
                }
            }
        }
        Ok((results, write_payload))
    }

    fn bump_ts_cache(&self, key: &Bytes, read_ts: Timestamp) {
        let mut cache = self.ts_cache.borrow_mut();
        if cache.len() > 100_000 {
            // Compact: collapse everything into the floor (CockroachDB's
            // low-water mark), conservatively rejecting more writes.
            let max = cache.values().max().copied().unwrap_or(Timestamp::ZERO);
            cache.clear();
            self.ts_cache_floor.set(self.ts_cache_floor.get().max(max));
        }
        let entry = cache.entry(key.clone()).or_insert(Timestamp::ZERO);
        if read_ts > *entry {
            *entry = read_ts;
        }
    }

    fn ts_cache_read(&self, key: &Bytes) -> Timestamp {
        let cache = self.ts_cache.borrow();
        cache.get(key).copied().unwrap_or(Timestamp::ZERO).max(self.ts_cache_floor.get())
    }

    /// Checks an encountered intent against its transaction's status. If
    /// finalized, resolves the intent (on all replicas) and returns the
    /// visible value; `None` means the owner is still pending.
    fn check_intent(
        &self,
        cluster: &Rc<RefCell<ClusterInner>>,
        key: &Bytes,
        intent: &mvcc::Intent,
        read_ts: crate::hlc::Timestamp,
        replica_engines: &[Engine],
    ) -> Option<Option<Bytes>> {
        let status = cluster.borrow().txn_status.get(&intent.txn_id).copied();
        match status {
            Some(TxnStatus::Committed(ts)) => {
                mvcc::resolve_intent(&self.engine, key, intent.txn_id, Some(ts));
                for e in replica_engines {
                    mvcc::resolve_intent(e, key, intent.txn_id, Some(ts));
                }
                // Snapshot semantics: the resolved value is visible only
                // if it committed at or below the reader's timestamp.
                match mvcc::get(&self.engine, key, read_ts, None) {
                    mvcc::ReadResult::Value(v) => Some(v),
                    mvcc::ReadResult::Intent(_) => None,
                }
            }
            Some(TxnStatus::Aborted) => {
                mvcc::resolve_intent(&self.engine, key, intent.txn_id, None);
                for e in replica_engines {
                    mvcc::resolve_intent(e, key, intent.txn_id, None);
                }
                // Re-read below the removed intent.
                match mvcc::get(&self.engine, key, read_ts, None) {
                    mvcc::ReadResult::Value(v) => Some(v),
                    mvcc::ReadResult::Intent(_) => None,
                }
            }
            Some(TxnStatus::Pending) | None => {
                // Push check: a transaction whose coordinator died (pod
                // crash, region outage) leaves intents that would block
                // readers forever — there is no one left to resolve them.
                // An intent untouched for longer than any plausible live
                // transaction marks its owner abandoned: abort it and
                // clear the intent, exactly like CockroachDB's pusher
                // aborting an expired transaction record.
                let now = self.sim.now().as_nanos();
                if now.saturating_sub(intent.ts.wall) < TXN_ABANDON_TIMEOUT.as_nanos() as u64 {
                    return None;
                }
                {
                    let mut inner = cluster.borrow_mut();
                    inner.txn_status.insert(intent.txn_id, TxnStatus::Aborted);
                    inner.txn_finalized_at.insert(intent.txn_id, self.sim.now());
                }
                let record =
                    crate::txn::TxnRecord { txn_id: intent.txn_id, status: TxnStatus::Aborted };
                mvcc::put_txn_record(&self.engine, &record);
                mvcc::resolve_intent(&self.engine, key, intent.txn_id, None);
                for e in replica_engines {
                    mvcc::put_txn_record(e, &record);
                    mvcc::resolve_intent(e, key, intent.txn_id, None);
                }
                let degrade = &cluster.borrow().degrade;
                degrade.txn_pushes.set(degrade.txn_pushes.get() + 1);
                match mvcc::get(&self.engine, key, read_ts, None) {
                    mvcc::ReadResult::Value(v) => Some(v),
                    mvcc::ReadResult::Intent(_) => None,
                }
            }
        }
    }

    /// Per-tenant cumulative traffic features.
    pub fn traffic_stats(&self, tenant: TenantId) -> TrafficStats {
        self.traffic.borrow().get(&tenant).copied().unwrap_or_default()
    }

    /// Current admission queue depth (for observability).
    pub fn admission_queue_len(&self) -> usize {
        self.admission.borrow().queue_len()
    }
}
