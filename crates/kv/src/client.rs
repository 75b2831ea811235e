//! The client-side batch router (CockroachDB's DistSender equivalent).
//!
//! A [`KvClient`] belongs to one SQL node: it holds the tenant certificate,
//! a [`RangeCache`] refreshed by META follower reads (§3.2.5), and the
//! client's network location. `send` splits a batch by range, dispatches
//! sub-batches over the simulated network to the cached leaseholders,
//! retries on redirects / stale caches / intent conflicts, and reassembles
//! responses in request order.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use crdb_obs::trace;
use crdb_sim::Location;
use crdb_util::retry::{Breaker, BreakerConfig, Deadline, RetryPolicy};
use crdb_util::time::dur;
use crdb_util::NodeId;

use crate::auth::TenantCert;
use crate::batch::{BatchRequest, BatchResponse, KvError, RequestKind, ResponseKind};
use crate::cluster::KvCluster;
use crate::directory::{CacheEntry, RangeCache};
use crate::txn::TxnMeta;

/// Maximum redirect/stale-cache retries per sub-batch. Exhaustion
/// surfaces [`KvError::Unavailable`]. Sized so the retry window
/// (with backoff, ~19 s) outlasts a liveness-driven lease transfer
/// (TTL 9 s + 2 s check period).
const MAX_ROUTING_RETRIES: u32 = 16;
/// Maximum intent-conflict retries per sub-batch.
const MAX_CONFLICT_RETRIES: u32 = 32;
/// An RPC with no reply by this deadline (its request or response was
/// dropped by a partition) is treated as a `NodeUnavailable` hop
/// failure and retried — the client never hangs on a dropped message.
/// Clamped to the batch deadline's remaining time when one is set.
const RPC_TIMEOUT_MS: u64 = 10_000;

/// Routing backoff: doubles from 50 ms, capped at 1.6 s. The budget is
/// `MAX_ROUTING_RETRIES + 1` because the terminal check lives in
/// `retry_routing` (the redirect path retries without backoff), so the
/// policy must still yield the final backoff at attempt 16 — exactly
/// the legacy `(50ms << n.min(5)).min(1600ms)` schedule.
fn routing_policy() -> RetryPolicy {
    RetryPolicy::exponential(dur::ms(50), dur::ms(1_600), MAX_ROUTING_RETRIES + 1)
}

/// Conflict backoff: linear from 1 ms in 2 ms steps, capped at 32 ms —
/// exactly the legacy `(1 + 2n).min(32)` ms schedule with its 32-retry
/// budget.
fn conflict_policy() -> RetryPolicy {
    RetryPolicy::linear(dur::ms(1), dur::ms(2), dur::ms(32), MAX_CONFLICT_RETRIES)
}

struct ClientInner {
    cluster: KvCluster,
    cert: TenantCert,
    location: Location,
    cache: RefCell<RangeCache>,
    /// Per-target circuit breakers: repeated RPC timeouts against one
    /// node (a dark zone/region, a broken return path) trip the node's
    /// breaker, converting further sends into immediate hop failures
    /// instead of full RPC-timeout waits.
    breakers: RefCell<BTreeMap<NodeId, Breaker>>,
}

/// A cloneable handle to one SQL node's KV client.
#[derive(Clone)]
pub struct KvClient {
    inner: Rc<ClientInner>,
}

impl KvClient {
    /// Creates a client at `location` authenticated by `cert`.
    pub fn new(cluster: KvCluster, cert: TenantCert, location: Location) -> KvClient {
        KvClient {
            inner: Rc::new(ClientInner {
                cluster,
                cert,
                location,
                cache: RefCell::new(RangeCache::new()),
                breakers: RefCell::new(BTreeMap::new()),
            }),
        }
    }

    /// The authenticated tenant certificate.
    pub fn cert(&self) -> &TenantCert {
        &self.inner.cert
    }

    /// The client's location.
    pub fn location(&self) -> Location {
        self.inner.location
    }

    /// The owning cluster.
    pub fn cluster(&self) -> &KvCluster {
        &self.inner.cluster
    }

    /// META lookup statistics: `(meta_lookups, cache_hits)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.inner.cache.borrow();
        (c.meta_lookups, c.cache_hits)
    }

    /// Sends a batch, invoking `cb` with the merged response. All requests
    /// must belong to this client's tenant keyspace (enforced server-side
    /// too). Sub-batches run concurrently; the whole batch fails on the
    /// first sub-batch error.
    pub fn send(&self, batch: BatchRequest, cb: impl FnOnce(BatchResponse) + 'static) {
        // A batch whose deadline already passed never touches the
        // network: the typed terminal error surfaces immediately.
        if batch.deadline.expired(self.inner.cluster.sim.now()) {
            self.inner.cluster.degrade().bump_deadline_exceeded();
            cb(BatchResponse::err(KvError::DeadlineExceeded));
            return;
        }
        // Pieces: (original request index, span-order, request)
        let mut pieces: Vec<(usize, usize, RequestKind)> = Vec::new();
        for (i, req) in batch.requests.iter().enumerate() {
            pieces.push((i, 0, req.clone()));
        }
        let n_results = batch.requests.len();
        // Remember each scan's requested limit: a scan split across ranges
        // dispatches every piece with the full limit (any one range might
        // satisfy it alone), so the merged result must be re-truncated.
        let limits: Vec<Option<usize>> = batch
            .requests
            .iter()
            .map(|r| match r {
                RequestKind::Scan { limit, .. } => Some(*limit),
                _ => None,
            })
            .collect();
        let outer = trace::current();
        let span = trace::child("kv.send");
        span.tag("requests", n_results);
        let cb = {
            let span = span.clone();
            move |resp: BatchResponse| {
                if resp.error.is_some() {
                    span.tag("error", true);
                }
                span.end();
                let _g = outer.enter();
                cb(resp);
            }
        };
        let state = Rc::new(DispatchState {
            client: self.clone(),
            template: BatchRequest { requests: Vec::new(), ..batch },
            results: RefCell::new(vec![Vec::new(); n_results]),
            limits,
            outstanding: RefCell::new(0),
            finished: RefCell::new(Some(Box::new(cb))),
            span,
        });
        *state.outstanding.borrow_mut() = 1; // guard against sync completion
        for (idx, order, req) in pieces {
            DispatchState::dispatch_piece(&state, idx, order, req, 0, 0);
        }
        DispatchState::piece_done(&state); // release the guard
    }

    /// Convenience: non-transactional point read.
    pub fn get(&self, key: Bytes, cb: impl FnOnce(Result<Option<Bytes>, KvError>) + 'static) {
        let batch = BatchRequest {
            tenant: self.inner.cert.tenant(),
            read_ts: self.inner.cluster.now_ts(),
            txn: None,
            deadline: Deadline::NONE,
            requests: vec![RequestKind::Get { key }],
        };
        self.send(batch, move |resp| match resp.error {
            Some(e) => cb(Err(e)),
            None => match resp.results.into_iter().next() {
                Some(ResponseKind::Value(v)) => cb(Ok(v)),
                _ => cb(Err(KvError::RangeNotFound)),
            },
        });
    }

    /// Convenience: non-transactional write.
    pub fn put(&self, key: Bytes, value: Bytes, cb: impl FnOnce(Result<(), KvError>) + 'static) {
        let batch = BatchRequest {
            tenant: self.inner.cert.tenant(),
            read_ts: self.inner.cluster.now_ts(),
            txn: None,
            deadline: Deadline::NONE,
            requests: vec![RequestKind::Put { key, value }],
        };
        self.send(batch, move |resp| match resp.error {
            Some(e) => cb(Err(e)),
            None => cb(Ok(())),
        });
    }

    /// Convenience: snapshot scan.
    pub fn scan(
        &self,
        start: Bytes,
        end: Bytes,
        limit: usize,
        cb: impl FnOnce(Result<Vec<(Bytes, Bytes)>, KvError>) + 'static,
    ) {
        let batch = BatchRequest {
            tenant: self.inner.cert.tenant(),
            read_ts: self.inner.cluster.now_ts(),
            txn: None,
            deadline: Deadline::NONE,
            requests: vec![RequestKind::Scan { start, end, limit }],
        };
        self.send(batch, move |resp| match resp.error {
            Some(e) => cb(Err(e)),
            None => match resp.results.into_iter().next() {
                Some(ResponseKind::Pairs(p)) => cb(Ok(p)),
                _ => cb(Err(KvError::RangeNotFound)),
            },
        });
    }

    /// Resolves the range containing `key`, using the cache or a META
    /// follower read (one network hop to the nearest *reachable* node,
    /// §3.2.5). Fails with [`KvError::Unavailable`] when no live node
    /// is reachable, and [`KvError::RangeNotFound`] when the directory
    /// has no range for the key.
    fn resolve(
        &self,
        key: Bytes,
        parent: trace::MaybeSpan,
        cb: impl FnOnce(Result<CacheEntry, KvError>) + 'static,
    ) {
        // Bind the lookup so the cache borrow ends before `cb` runs: the
        // callback may synchronously re-dispatch (scan split) and re-enter
        // this cache.
        let cached = self.inner.cache.borrow_mut().lookup(&key);
        if let Some(entry) = cached {
            cb(Ok(entry));
            return;
        }
        let cluster = self.inner.cluster.clone();
        let this = self.clone();
        let nearest = match cluster.nearest_node(self.inner.location) {
            Some(n) => n,
            None => {
                cb(Err(KvError::Unavailable));
                return;
            }
        };
        let meta_span = parent.child("meta.lookup");
        let topo = cluster.topology();
        let sim = cluster.sim.clone();
        let my_loc = self.inner.location;
        let node_loc = nearest.location;
        // Request hop.
        topo.send(&sim, my_loc, node_loc, move || {
            // Follower read of META on the nearest node: the directory is
            // read as-of-now (staleness is tolerated because stale entries
            // just cause a redirect).
            let entry = {
                let inner = cluster.inner.borrow();
                inner
                    .directory
                    .lookup(&key)
                    .map(|r| CacheEntry { desc: r.desc.clone(), leaseholder: r.lease.holder })
            };
            let topo2 = cluster.topology();
            let sim2 = cluster.sim.clone();
            // Response hop.
            topo2.send(&sim2, node_loc, my_loc, move || {
                meta_span.end();
                if let Some(e) = entry.clone() {
                    this.inner.cache.borrow_mut().fill_from_meta(e);
                }
                cb(entry.ok_or(KvError::RangeNotFound));
            });
        });
    }
}

/// The batch completion callback, taken exactly once.
type FinishFn = Box<dyn FnOnce(BatchResponse)>;

/// In-flight state for one client batch.
struct DispatchState {
    client: KvClient,
    /// Batch header (tenant, read_ts, txn) without requests.
    template: BatchRequest,
    /// Per original request index: `(span_order, response)` pieces.
    results: RefCell<Vec<Vec<(usize, ResponseKind)>>>,
    /// Per original request index: the scan's requested row limit
    /// (`None` for non-scans), applied again after merging split pieces.
    limits: Vec<Option<usize>>,
    outstanding: RefCell<usize>,
    finished: RefCell<Option<FinishFn>>,
    /// The batch's `kv.send` span; per-attempt `kv.rpc` spans attach here
    /// even from scheduled retry contexts where no ambient span is active.
    span: trace::MaybeSpan,
}

impl DispatchState {
    fn routing_key(template: &BatchRequest, req: &RequestKind) -> Bytes {
        match req {
            RequestKind::EndTxn { .. } => template
                .txn
                .as_ref()
                .map(|t| t.anchor_key.clone())
                .unwrap_or_else(|| Bytes::from_static(b"")),
            other => other.primary_key().clone(),
        }
    }

    /// Routes one piece (a single request clamped to one range).
    fn dispatch_piece(
        state: &Rc<Self>,
        idx: usize,
        order: usize,
        req: RequestKind,
        routing_retries: u32,
        conflict_retries: u32,
    ) {
        *state.outstanding.borrow_mut() += 1;
        // The deadline is re-checked per dispatch: a piece that expired
        // while queued behind a backoff fails typed instead of sending.
        let now = state.client.inner.cluster.sim.now();
        if state.template.deadline.expired(now) {
            state.client.inner.cluster.degrade().bump_deadline_exceeded();
            state.fail(KvError::DeadlineExceeded);
            return;
        }
        let key = Self::routing_key(&state.template, &req);
        let rpc = state.span.child("kv.rpc");
        rpc.tag("req", idx);
        if routing_retries + conflict_retries > 0 {
            rpc.tag("retries", routing_retries + conflict_retries);
        }
        let st = Rc::clone(state);
        // A META hop dropped by a partition would otherwise leave this
        // piece hanging forever: guard the resolve with an RPC timeout
        // that converts silence into a retryable hop failure.
        let done = Rc::new(Cell::new(false));
        let timeout = {
            let st = Rc::clone(state);
            let done = Rc::clone(&done);
            let req = req.clone();
            let rpc = rpc.clone();
            state.client.inner.cluster.sim.schedule_after(state.rpc_timeout(now), move || {
                if done.replace(true) {
                    return;
                }
                rpc.tag("timeout", true);
                rpc.end();
                st.handle_response(
                    idx,
                    order,
                    req,
                    BatchResponse::err(KvError::NodeUnavailable),
                    routing_retries,
                    conflict_retries,
                );
            })
        };
        let sim = state.client.inner.cluster.sim.clone();
        state.client.clone().resolve(key, rpc.clone(), move |entry| {
            if done.replace(true) {
                return;
            }
            sim.cancel(timeout);
            let entry = match entry {
                Ok(e) => e,
                Err(e) => {
                    rpc.end();
                    st.fail(e);
                    return;
                }
            };
            // A scan crossing the range boundary splits here: the in-range
            // prefix executes now, the remainder re-dispatches.
            let mut req = req;
            if let RequestKind::Scan { start, end, limit } = &req {
                if end.as_ref() > entry.desc.end.as_ref()
                    && start.as_ref() < entry.desc.end.as_ref()
                {
                    let tail = RequestKind::Scan {
                        start: entry.desc.end.clone(),
                        end: end.clone(),
                        limit: *limit,
                    };
                    Self::dispatch_piece(&st, idx, order + 1, tail, 0, 0);
                    req = RequestKind::Scan {
                        start: start.clone(),
                        end: entry.desc.end.clone(),
                        limit: *limit,
                    };
                }
            }
            st.send_to_node(idx, order, req, entry, rpc, routing_retries, conflict_retries);
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn send_to_node(
        self: Rc<Self>,
        idx: usize,
        order: usize,
        req: RequestKind,
        entry: CacheEntry,
        rpc: trace::MaybeSpan,
        routing_retries: u32,
        conflict_retries: u32,
    ) {
        let client = self.client.clone();
        let cluster = client.inner.cluster.clone();
        let node = match cluster.node(entry.leaseholder) {
            Some(n) => n,
            None => {
                rpc.end();
                self.fail(KvError::NodeUnavailable);
                return;
            }
        };
        rpc.tag("node", entry.leaseholder);
        let topo = cluster.topology();
        let sim = cluster.sim.clone();
        let my_loc = client.inner.location;
        let node_loc = node.location;
        // Fail fast across a known partition: the leaseholder cannot be
        // reached and (liveness being a global control plane) its lease
        // will not move, so surface the typed error immediately instead
        // of letting the request time out retry after retry.
        if !topo.is_reachable(my_loc, node_loc) {
            let degrade = cluster.degrade();
            degrade.partition_fast_fails.set(degrade.partition_fast_fails.get() + 1);
            rpc.end();
            self.fail(KvError::Unavailable);
            return;
        }
        // Per-target circuit breaker: once the node's breaker is open
        // (repeated RPC timeouts — a broken return path or a node inside
        // a dark domain the client can still "see"), skip the RPC-timeout
        // wait entirely and take the routing-failure path, which backs
        // off, refreshes META, and reroutes once the lease moves.
        let now = sim.now();
        if !self.breaker_allows(entry.leaseholder, now) {
            let degrade = cluster.degrade();
            degrade.breaker_fast_fails.set(degrade.breaker_fast_fails.get() + 1);
            rpc.tag("breaker_open", true);
            rpc.end();
            self.handle_response(
                idx,
                order,
                req,
                BatchResponse::err(KvError::NodeUnavailable),
                routing_retries,
                conflict_retries,
            );
            return;
        }
        let sub = BatchRequest {
            tenant: self.template.tenant,
            read_ts: self.template.read_ts,
            txn: self.template.txn.clone(),
            deadline: self.template.deadline,
            requests: vec![req.clone()],
        };
        let cert = client.inner.cert.clone();
        let st = Rc::clone(&self);
        // RPC timeout: a partition starting while this request is in
        // flight drops a hop; convert the silence into a retryable hop
        // failure so the piece never hangs. Clamped to the deadline's
        // remaining time — waiting past it would be wasted.
        let done = Rc::new(Cell::new(false));
        let target = entry.leaseholder;
        let timeout = {
            let st = Rc::clone(&self);
            let done = Rc::clone(&done);
            let req = req.clone();
            let rpc = rpc.clone();
            sim.schedule_after(self.rpc_timeout(now), move || {
                if done.replace(true) {
                    return;
                }
                st.breaker_record(target, false);
                rpc.tag("timeout", true);
                rpc.end();
                st.handle_response(
                    idx,
                    order,
                    req,
                    BatchResponse::err(KvError::NodeUnavailable),
                    routing_retries,
                    conflict_retries,
                );
            })
        };
        topo.send(&sim, my_loc, node_loc, move || {
            let topo2 = st.client.inner.cluster.topology();
            let sim2 = st.client.inner.cluster.sim.clone();
            let st2 = Rc::clone(&st);
            let req2 = req.clone();
            let _g = rpc.enter();
            let rpc2 = rpc.clone();
            node.receive(&cert, sub, move |resp| {
                // Return hop, then handle.
                let st3 = Rc::clone(&st2);
                topo2.send(&sim2, node_loc, my_loc, move || {
                    if done.replace(true) {
                        return;
                    }
                    // Any reply — even an error — proves the path and
                    // node are live enough to answer.
                    st3.breaker_record(target, true);
                    rpc2.end();
                    st3.client.inner.cluster.sim.cancel(timeout);
                    st3.handle_response(idx, order, req2, resp, routing_retries, conflict_retries);
                });
            });
        });
    }

    /// Effective RPC timeout at `now`: the fixed wire timeout, clamped
    /// to the batch deadline's remaining time.
    fn rpc_timeout(&self, now: crdb_util::SimTime) -> Duration {
        dur::ms(RPC_TIMEOUT_MS).min(self.template.deadline.remaining(now))
    }

    /// Whether `node`'s breaker admits a request at `now`.
    fn breaker_allows(&self, node: NodeId, now: crdb_util::SimTime) -> bool {
        let mut breakers = self.client.inner.breakers.borrow_mut();
        breakers.entry(node).or_insert_with(|| Breaker::new(BreakerConfig::default())).allow(now)
    }

    /// Records an RPC outcome against `node`'s breaker, bumping the
    /// shared trip counter when the breaker opens.
    fn breaker_record(&self, node: NodeId, success: bool) {
        let now = self.client.inner.cluster.sim.now();
        let tripped = {
            let mut breakers = self.client.inner.breakers.borrow_mut();
            let b = breakers.entry(node).or_insert_with(|| Breaker::new(BreakerConfig::default()));
            let before = b.trips();
            if success {
                b.record_success(now);
            } else {
                b.record_failure(now);
            }
            b.trips() > before
        };
        if tripped {
            let degrade = self.client.inner.cluster.degrade();
            degrade.breaker_trips.set(degrade.breaker_trips.get() + 1);
        }
    }

    fn handle_response(
        self: Rc<Self>,
        idx: usize,
        order: usize,
        req: RequestKind,
        resp: BatchResponse,
        routing_retries: u32,
        conflict_retries: u32,
    ) {
        match resp.error {
            None => {
                let result = resp.results.into_iter().next().unwrap_or(ResponseKind::Ok);
                self.results.borrow_mut()[idx].push((order, result));
                Self::piece_done(&self);
            }
            Some(KvError::NotLeaseholder { leaseholder, .. }) => {
                let key = Self::routing_key(&self.template, &req);
                if let Some(holder) = leaseholder {
                    self.client.inner.cache.borrow_mut().update_leaseholder(&key, holder);
                } else {
                    self.client.inner.cache.borrow_mut().invalidate(&key);
                }
                self.retry_routing(idx, order, req, routing_retries, conflict_retries);
            }
            Some(KvError::RangeNotFound) | Some(KvError::NodeUnavailable) => {
                // A dead node or stale descriptor: refresh from META. The
                // lease-check loop moves leases off dead nodes within its
                // period, so retries back off long enough to observe that.
                let key = Self::routing_key(&self.template, &req);
                self.client.inner.cache.borrow_mut().invalidate(&key);
                let sim = self.client.inner.cluster.sim.clone();
                // The backoff must land before the batch deadline: a retry
                // scheduled past it is never scheduled at all.
                match routing_policy().next_delay(
                    routing_retries,
                    sim.now(),
                    self.template.deadline,
                ) {
                    Some(backoff) => {
                        let st = Rc::clone(&self);
                        sim.schedule_after(backoff, move || {
                            st.retry_routing(idx, order, req, routing_retries, conflict_retries);
                        });
                    }
                    None => {
                        self.client.inner.cluster.degrade().bump_deadline_exceeded();
                        self.fail(KvError::DeadlineExceeded);
                    }
                }
            }
            Some(e @ KvError::IntentConflict { .. }) if !req.is_write() => {
                // Back off briefly and retry: the conflicting transaction
                // commits or aborts shortly (short commit windows).
                let sim = self.client.inner.cluster.sim.clone();
                match conflict_policy().delay(conflict_retries) {
                    Some(backoff) if self.template.deadline.allows(sim.now(), backoff) => {
                        let degrade = self.client.inner.cluster.degrade();
                        degrade.retries.set(degrade.retries.get() + 1);
                        let st = Rc::clone(&self);
                        sim.schedule_after(backoff, move || {
                            Self::dispatch_piece(
                                &st,
                                idx,
                                order,
                                req,
                                routing_retries,
                                conflict_retries + 1,
                            );
                            Self::piece_done(&st);
                        });
                    }
                    Some(_) => {
                        self.client.inner.cluster.degrade().bump_deadline_exceeded();
                        self.fail(KvError::DeadlineExceeded);
                    }
                    // Conflict budget exhausted: surface the conflict.
                    None => self.fail(e),
                }
            }
            Some(e) => self.fail(e),
        }
    }

    fn retry_routing(
        self: Rc<Self>,
        idx: usize,
        order: usize,
        req: RequestKind,
        routing_retries: u32,
        conflict_retries: u32,
    ) {
        if routing_retries >= MAX_ROUTING_RETRIES {
            // The retry budget outlasts any single lease transfer; if we
            // still have no live route the range is genuinely unavailable.
            self.fail(KvError::Unavailable);
            return;
        }
        let degrade = self.client.inner.cluster.degrade();
        degrade.retries.set(degrade.retries.get() + 1);
        let st = Rc::clone(&self);
        Self::dispatch_piece(&st, idx, order, req, routing_retries + 1, conflict_retries);
        Self::piece_done(&self);
    }

    fn fail(self: &Rc<Self>, error: KvError) {
        // Bind before branching: the callback may issue a follow-up batch
        // that re-enters this state while the guard is live.
        let cb = self.finished.borrow_mut().take();
        if let Some(cb) = cb {
            cb(BatchResponse::err(error));
        }
        Self::piece_done(self);
    }

    fn piece_done(state: &Rc<Self>) {
        let remaining = {
            let mut o = state.outstanding.borrow_mut();
            *o -= 1;
            *o
        };
        if remaining > 0 {
            return;
        }
        // Bind before matching so the RefMut guard is dropped here and not
        // held across the merge below (PR 3 bug class).
        let finished = state.finished.borrow_mut().take();
        let cb = match finished {
            Some(cb) => cb,
            None => return, // already failed
        };
        // Merge: scans concatenate their pieces in span order, then apply
        // the original limit — each split piece carried the full limit, so
        // a scan crossing N ranges could otherwise return up to N × limit
        // rows.
        let mut merged = Vec::new();
        for (idx, pieces) in state.results.borrow_mut().iter_mut().enumerate() {
            pieces.sort_by_key(|(order, _)| *order);
            if pieces.len() == 1 {
                merged.push(pieces.remove(0).1);
                continue;
            }
            let mut pairs: Vec<(Bytes, Bytes)> = Vec::new();
            let mut fallback = ResponseKind::Ok;
            let mut is_scan = false;
            for (_, piece) in pieces.drain(..) {
                match piece {
                    ResponseKind::Pairs(p) => {
                        is_scan = true;
                        pairs.extend(p);
                    }
                    other => fallback = other,
                }
            }
            if is_scan {
                if let Some(Some(limit)) = state.limits.get(idx) {
                    pairs.truncate(*limit);
                }
                merged.push(ResponseKind::Pairs(pairs));
            } else {
                merged.push(fallback);
            }
        }
        cb(BatchResponse::ok(merged));
    }
}

/// Builds the `TxnMeta` for a new transaction anchored at `anchor_key`.
pub fn make_txn_meta(cluster: &KvCluster, anchor_key: Bytes) -> TxnMeta {
    let id = cluster.begin_txn();
    let ts = cluster.now_ts();
    TxnMeta { txn_id: id, anchor_key, start_ts: ts, write_ts: ts }
}
