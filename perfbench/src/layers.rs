//! Per-layer measurement: counter snapshots (C), span folding (T) and
//! host-time replays (R).
//!
//! C metrics are deltas of counters the program already exposes, taken at
//! the start of the measured window and after its drain. T metrics fold
//! the traced ops' span trees into mean *self time* per op: a span's
//! duration minus the union of its children's intervals. R metrics feed
//! the run's own inputs back into public functions after the window and
//! time the calls from outside.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crdb_core::ServerlessCluster;
use crdb_obs::Trace;
use crdb_sql::node::SqlNode;
use crdb_storage::metrics::StorageMetrics;
use crdb_util::TenantId;

/// Counters of the whole deployment at one instant.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Sim events executed.
    pub events: u64,
    /// Statements shed by the proxy's breaker.
    pub shed: u64,
    /// Warm-pool acquisitions and misses.
    pub pool_acquired: u64,
    /// Warm-pool misses (fresh provisioning).
    pub pool_misses: u64,
    /// Autoscaler suspensions.
    pub suspensions: u64,
    /// Autoscaler scale-ups.
    pub scale_ups: u64,
    /// KV client degrade retries.
    pub degrade_retries: u64,
    /// Range lease transfers.
    pub lease_transfers: u64,
    /// KV batches served, all nodes.
    pub batches_served: u64,
    /// KV CPU busy seconds, all nodes.
    pub kv_busy: f64,
    /// KV vCPUs, all nodes.
    pub kv_vcpus: f64,
    /// Storage counters summed over nodes.
    pub storage: StorageMetrics,
    /// Estimated CPU seconds billed to the measured tenants.
    pub ecpu: f64,
    /// Actual KV CPU seconds of the measured tenants.
    pub kv_cpu_tenants: f64,
    /// Token-bucket stalls over every quota'd tenant.
    pub bucket_stalls: u64,
    /// Measured tenants whose data range's leaseholder sits outside the
    /// tenant's home region.
    pub remote_leases: u64,
    /// Per SQL instance of the measured tenants: (SQL CPU s, meta lookups,
    /// range-cache hits).
    pub sql_nodes: BTreeMap<u64, (f64, u64, u64)>,
}

fn add_storage(a: &mut StorageMetrics, m: &StorageMetrics) {
    a.logical_bytes_written += m.logical_bytes_written;
    a.fsyncs += m.fsyncs;
    a.batches_synced += m.batches_synced;
    a.stall_micros += m.stall_micros;
    a.flush_bytes += m.flush_bytes;
    a.flush_count += m.flush_count;
    a.compact_bytes_out += m.compact_bytes_out;
    a.compact_count += m.compact_count;
    a.point_gets += m.point_gets;
    a.tables_probed += m.tables_probed;
    a.bloom_probes += m.bloom_probes;
    a.bloom_hits += m.bloom_hits;
    a.scan_entries_pulled += m.scan_entries_pulled;
    a.scan_entries_returned += m.scan_entries_returned;
}

fn node_counters(node: &SqlNode) -> (f64, u64, u64) {
    let (lookups, hits) = node.kv_client().cache_stats();
    (node.sql_cpu_seconds(), lookups, hits)
}

impl Snapshot {
    /// Reads every counter. `extra_nodes` are SQL nodes that served
    /// measured ops and may since have stopped (cold-start pods).
    pub fn take(
        cluster: &ServerlessCluster,
        tenants: &[TenantId],
        extra_nodes: &BTreeMap<u64, Rc<SqlNode>>,
    ) -> Snapshot {
        let mut s = Snapshot {
            events: cluster.sim.events_executed(),
            shed: cluster.proxy.shed_statements.get(),
            pool_acquired: *cluster.pool.acquired.borrow(),
            pool_misses: *cluster.pool.pool_misses.borrow(),
            suspensions: cluster.autoscaler.suspensions.get(),
            scale_ups: cluster.autoscaler.scale_ups.get(),
            degrade_retries: cluster.kv.degrade().retries.get(),
            lease_transfers: cluster.kv.lease_transfers(),
            ..Snapshot::default()
        };
        let mut ids = cluster.kv.node_ids();
        ids.sort();
        for id in ids {
            let Some(node) = cluster.kv.node(id) else { continue };
            s.batches_served += node.batches_served.get();
            s.kv_busy += node.cpu.cumulative_busy();
            s.kv_vcpus += node.cpu.vcpus();
            add_storage(&mut s.storage, &node.engine.metrics());
            for &t in tenants {
                s.kv_cpu_tenants += node.cpu.cumulative_usage(t);
            }
        }
        for &t in tenants {
            s.ecpu += cluster.tenant_ecpu_seconds(t);
            let home = cluster.tenant(t).map(|i| i.home_region);
            let holder = cluster.kv.leaseholder_of(&crdb_kv::keys::tenant_span_start(t));
            let region = holder.and_then(|n| cluster.kv.node_location(n)).map(|l| l.region);
            if region.is_some() && region != home {
                s.remote_leases += 1;
            }
            let nodes: Vec<Rc<SqlNode>> = cluster
                .registry
                .with_tenant(t, |e| {
                    e.nodes.iter().chain(e.draining.iter().map(|(n, _)| n)).cloned().collect()
                })
                .unwrap_or_default();
            for n in nodes {
                s.sql_nodes.insert(n.instance_id.raw(), node_counters(&n));
            }
        }
        for (id, n) in extra_nodes {
            s.sql_nodes.insert(*id, node_counters(n));
        }
        for id in cluster.registry.tenant_ids() {
            let Some(info) = cluster.tenant(id) else { continue };
            if let Some(q) = &info.quota {
                s.bucket_stalls += q.clients.borrow().values().map(|c| c.stalls).sum::<u64>();
            }
        }
        s
    }
}

/// The change between two snapshots, as the C metrics need it.
pub struct Delta {
    /// `after − before` of the scalar counters.
    pub after: Snapshot,
    /// The earlier snapshot.
    pub before: Snapshot,
}

impl Delta {
    /// SQL CPU seconds, meta lookups and cache hits of the measured
    /// tenants' SQL nodes over the window.
    pub fn sql_nodes(&self) -> (f64, u64, u64) {
        let mut out = (0.0, 0, 0);
        for (id, &(cpu, lookups, hits)) in &self.after.sql_nodes {
            let (c0, l0, h0) = self.before.sql_nodes.get(id).copied().unwrap_or((0.0, 0, 0));
            out.0 += cpu - c0;
            out.1 += lookups - l0;
            out.2 += hits - h0;
        }
        out
    }
}

/// Per-span-name aggregates over every traced op.
#[derive(Default)]
pub struct SpanFold {
    /// Traced ops folded.
    pub ops: u64,
    /// name → (count, Σ self sim-ns, Σ duration sim-ns).
    pub by_name: BTreeMap<String, (u64, u64, u64)>,
    /// Durations of `admission.queue` spans, sim-ns.
    pub admission_waits: Vec<u64>,
    /// Root span duration per op id.
    pub roots: BTreeMap<u64, u64>,
    /// Spans still open when folded (should be none after the drain).
    pub open_spans: u64,
}

impl SpanFold {
    /// Folds every trace.
    pub fn fold(traces: &[(u64, Trace)]) -> SpanFold {
        let mut f = SpanFold::default();
        for (op, trace) in traces {
            f.ops += 1;
            let spans = trace.spans();
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
            for (i, s) in spans.iter().enumerate() {
                if let Some(p) = s.parent {
                    children[p].push(i);
                }
            }
            for (i, s) in spans.iter().enumerate() {
                let Some(end) = s.end else {
                    f.open_spans += 1;
                    continue;
                };
                let (start, end) = (s.start.as_nanos(), end.as_nanos());
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .filter_map(|&c| {
                        let c = &spans[c];
                        let ce = c.end.map_or(end, |e| e.as_nanos());
                        let (a, b) = (c.start.as_nanos().max(start), ce.min(end));
                        (a < b).then_some((a, b))
                    })
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut cursor = start;
                for (a, b) in iv {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                let total = end - start;
                let e = f.by_name.entry(s.name.clone()).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += total - covered;
                e.2 += total;
                if s.name == "admission.queue" {
                    f.admission_waits.push(total);
                }
                if s.parent.is_none() {
                    f.roots.insert(*op, total);
                }
            }
        }
        f
    }

    fn per_op(&self, ns: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            ns as f64 / self.ops as f64
        }
    }

    /// Mean self time per traced op of the named spans, in ms.
    pub fn self_ms(&self, names: &[&str]) -> f64 {
        let ns = names.iter().filter_map(|n| self.by_name.get(*n)).map(|e| e.1).sum();
        self.per_op(ns) / 1e6
    }

    /// Mean inclusive duration per traced op of the named spans, in ms.
    pub fn total_ms(&self, names: &[&str]) -> f64 {
        let ns = names.iter().filter_map(|n| self.by_name.get(*n)).map(|e| e.2).sum();
        self.per_op(ns) / 1e6
    }

    /// Mean count per traced op of the named spans.
    pub fn count_per_op(&self, name: &str) -> f64 {
        self.per_op(self.by_name.get(name).map_or(0, |e| e.0))
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock through the 64-bit Linux ABI");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Host CPU time this process has used so far (`CLOCK_PROCESS_CPUTIME_ID`).
/// The benchmark is single-threaded, so on an idle core this equals its
/// wall time; unlike wall time it leaves out the time the OS gave to other
/// processes on a shared machine.
pub fn cpu_time() -> Result<Duration, String> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which is valid, exclusive and laid out as the C struct
    // (`repr(C)`, two 64-bit fields on 64-bit Linux, checked above).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    let (secs, nanos) = (u64::try_from(ts.tv_sec), u32::try_from(ts.tv_nsec));
    match (rc, secs, nanos) {
        (0, Ok(secs), Ok(nanos)) => Ok(Duration::new(secs, nanos)),
        _ => Err(format!("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed: {rc}")),
    }
}

/// Times `f` over `inputs` and returns host CPU ns per call (the median of
/// five passes).
pub fn replay_ns<T>(inputs: &[T], mut f: impl FnMut(&T) -> bool) -> Result<f64, String> {
    if inputs.is_empty() {
        return Ok(0.0);
    }
    let mut passes = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = cpu_time()?;
        let mut ok = 0usize;
        for x in inputs {
            ok += usize::from(std::hint::black_box(f(std::hint::black_box(x))));
        }
        let ns = (cpu_time()? - t).as_nanos() as f64 / inputs.len() as f64;
        if ok != inputs.len() {
            return Err(format!("replay: {} of {} calls failed", inputs.len() - ok, inputs.len()));
        }
        passes.push(ns);
    }
    passes.sort_by(f64::total_cmp);
    Ok(passes[2])
}
