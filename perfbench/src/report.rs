//! Metric assembly and output: exact percentiles, the end-to-end and
//! per-layer metric sets, the non-zero-work checks, and the JSON line.

use std::io::Write as _;

use crdb_obs::Trace;

use crate::workloads::Kind;
use crate::Cycle;

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// Every metric in print order.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, String)> {
        self.0.iter()
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line. A +∞ percentile prints as `1e999`, which JSON
    /// readers parse as infinity.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { format!("{v:?}") } else { "1e999".to_string() };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile of sorted samples (`None` = +∞).
fn percentile(sorted: &[Option<u64>], p: f64) -> Option<u64> {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().flatten()
}

fn ns_to_ms(v: Option<u64>) -> f64 {
    v.map_or(f64::INFINITY, |ns| ns as f64 / 1e6)
}

/// The sim-clock end-to-end metrics of one cycle.
pub fn sim_metrics(c: &Cycle) -> Result<Metrics, String> {
    // Failed ops sort last as +∞.
    let mut lat: Vec<Option<u64>> = c.ops().iter().map(|o| o.latency_ns()).collect();
    lat.sort_by_key(|v| v.unwrap_or(u64::MAX));
    let n = lat.len();
    if n < 1000 {
        return Err(format!("{n} ops: p99 needs at least 1000 for 10 samples beyond it"));
    }
    // The highest percentile with at least 10 samples above its rank.
    let p_max = (n - 10) as f64 / n as f64 * 100.0;
    eprintln!("perfbench: {n} op samples; highest percentile with 10 beyond it: p{p_max:.2}");
    let tail: Vec<String> = [0.5, 0.9, 0.99, 0.996, 0.999]
        .iter()
        .map(|p| format!("p{:.1}={:.1}ms", p * 100.0, ns_to_ms(percentile(&lat, *p))))
        .collect();
    eprintln!("perfbench: latency {}", tail.join(" "));
    let committed = c.committed();
    let mut m = Metrics::default();
    m.push("op_p50_ms", ns_to_ms(percentile(&lat, 0.50)), "ms");
    m.push("op_p99_ms", ns_to_ms(percentile(&lat, 0.99)), "ms");
    m.push("ops_per_sim_s", committed as f64 / (c.phase_ns as f64 / 1e9), "ops/s");
    let ecpu = c.delta.after.ecpu - c.delta.before.ecpu;
    m.push("ecpu_ms_per_op", ecpu * 1e3 / committed.max(1) as f64, "ms");
    Ok(m)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric: C from the untraced cycle's counter deltas, T
/// from the traced cycle's span fold, R from the untraced cycle's replays.
pub fn layer_metrics(c: &Cycle, f: &crate::SpanFold, host_s: f64) -> Result<Metrics, String> {
    let (b, a) = (&c.delta.before, &c.delta.after);
    let d = |x: u64, y: u64| (y - x) as f64;
    let (sb, sa) = (&b.storage, &a.storage);
    let st = |get: fn(&crdb_storage::metrics::StorageMetrics) -> u64| d(get(sb), get(sa));
    let s = &c.stats;
    let ops = c.committed().max(1) as f64;
    let window_s = c.phase_ns as f64 / 1e9;
    let (sql_cpu, lookups, hits) = c.delta.sql_nodes();
    let kv_cpu = a.kv_cpu_tenants - b.kv_cpu_tenants;
    let ecpu = a.ecpu - b.ecpu;
    let [parse_ns, plan_ns, get_ns] = c.replay.ok_or("the untraced cycle ran no replay")?;
    let mut adm = f.admission_waits.clone();
    adm.sort_unstable();
    let adm_p99 = if adm.is_empty() {
        0.0
    } else {
        let sorted: Vec<Option<u64>> = adm.into_iter().map(Some).collect();
        ns_to_ms(percentile(&sorted, 0.99))
    };

    let mut m = Metrics::default();
    m.push(
        "error_rate",
        ratio(c.ops().len() as f64 - c.committed() as f64, c.ops().len() as f64),
        "ratio",
    );
    // proxy
    m.push("proxy.hop_ms", f.self_ms(&["network.hop"]), "ms");
    m.push("proxy.connect_self_ms", f.self_ms(&["proxy.connect"]), "ms");
    m.push("proxy.session_open_ms", f.self_ms(&["session.open"]), "ms");
    m.push("proxy.execute_self_ms", f.self_ms(&["proxy.execute"]), "ms");
    m.push("proxy.shed_rate", ratio(d(b.shed, a.shed), s.statements as f64), "ratio");
    // pool
    m.push("pool.acquire_ms", f.total_ms(&["pool.acquire"]), "ms");
    m.push("pool.phase.assignment_ms", f.self_ms(&["pod.assignment"]), "ms");
    m.push("pool.phase.provision_ms", f.self_ms(&["pod.provision"]), "ms");
    m.push("pool.phase.cert_ms", f.self_ms(&["cert.delivery"]), "ms");
    m.push("pool.phase.container_ms", f.self_ms(&["container.start"]), "ms");
    m.push("pool.phase.process_ms", f.self_ms(&["process.start"]), "ms");
    m.push("pool.phase.tcp_retry_ms", f.self_ms(&["tcp.retry"]), "ms");
    m.push(
        "pool.miss_rate",
        ratio(d(b.pool_misses, a.pool_misses), d(b.pool_acquired, a.pool_acquired)),
        "ratio",
    );
    // autoscaler
    m.push("autoscaler.suspensions_per_op", d(b.suspensions, a.suspensions) / ops, "count");
    m.push("autoscaler.scale_ups", d(b.scale_ups, a.scale_ups), "count");
    // SQL pod start
    m.push("sqlnode.start.init_ms", f.self_ms(&["process.init"]), "ms");
    m.push("sqlnode.start.systemdb_ms", f.self_ms(&["systemdb.access"]), "ms");
    m.push("sqlnode.start.catalog_ms", f.self_ms(&["catalog.load"]), "ms");
    m.push("sqlnode.start.register_ms", f.self_ms(&["instance.register"]), "ms");
    // sql
    m.push("sql.exec_self_ms", f.self_ms(&["sql.execute"]), "ms");
    m.push("sql.cpu_ms", f.self_ms(&["sql.cpu"]), "ms");
    m.push("sql.stmts_per_op", s.statements as f64 / ops, "count");
    m.push("sql.rows_read_per_row_out", ratio(s.rows_read as f64, s.rows_out as f64), "ratio");
    m.push("sql.parse_host_us", parse_ns / 1e3, "us");
    m.push("sql.plan_host_us", plan_ns / 1e3, "us");
    // coord
    m.push("coord.read_self_ms", f.self_ms(&["txn.read", "txn.scan"]), "ms");
    m.push(
        "coord.commit_self_ms",
        f.self_ms(&["txn.commit", "commit.intents", "commit.end_txn", "commit.resolve"]),
        "ms",
    );
    m.push("coord.retries_per_op", s.retries as f64 / ops, "count");
    m.push("coord.abort_rate", ratio(s.failed_attempts as f64, s.attempts as f64), "ratio");
    // kvclient
    m.push("kvclient.rpcs_per_op", f.count_per_op("kv.rpc"), "count");
    m.push("kvclient.rpc_net_ms", f.self_ms(&["kv.rpc"]), "ms");
    m.push("kvclient.send_self_ms", f.self_ms(&["kv.send"]), "ms");
    m.push("kvclient.meta_lookup_ms", f.self_ms(&["meta.lookup"]), "ms");
    m.push("kvclient.range_cache_hit_rate", ratio(hits as f64, (hits + lookups) as f64), "ratio");
    m.push(
        "kvclient.degrade_retries_per_op",
        d(b.degrade_retries, a.degrade_retries) / ops,
        "count",
    );
    // admission
    m.push("admission.queue_ms", f.self_ms(&["admission.queue"]), "ms");
    m.push("admission.queue_p99_ms", adm_p99, "ms");
    m.push("admission.queue_len_max", c.queue_len_max as f64, "count");
    // kvnode
    m.push("kvnode.serve_self_ms", f.self_ms(&["kv.serve"]), "ms");
    m.push("kvnode.cpu_ms", f.self_ms(&["kv.cpu"]), "ms");
    m.push("kvnode.batches_per_op", d(b.batches_served, a.batches_served) / ops, "count");
    m.push("kvnode.cpu_util", ratio(a.kv_busy - b.kv_busy, a.kv_vcpus * window_s), "ratio");
    m.push("kv.lease_transfers", d(b.lease_transfers, a.lease_transfers), "count");
    m.push("kv.remote_leases", a.remote_leases as f64, "count");
    // replication, wal
    m.push("replication.quorum_ms", f.self_ms(&["replication.quorum"]), "ms");
    m.push("wal.group_commit_ms", f.self_ms(&["wal.group_commit"]), "ms");
    m.push("storage.batches_per_fsync", ratio(st(|m| m.batches_synced), st(|m| m.fsyncs)), "ratio");
    // storage reads
    m.push("storage.mvcc_ms", f.self_ms(&["storage.mvcc"]), "ms");
    m.push("storage.point_gets_per_op", st(|m| m.point_gets) / ops, "count");
    m.push(
        "storage.tables_probed_per_get",
        ratio(st(|m| m.tables_probed), st(|m| m.point_gets)),
        "ratio",
    );
    m.push("storage.bloom_skip_rate", ratio(st(|m| m.bloom_hits), st(|m| m.bloom_probes)), "ratio");
    m.push(
        "storage.scan_read_amp",
        ratio(st(|m| m.scan_entries_pulled), st(|m| m.scan_entries_returned)),
        "ratio",
    );
    m.push("storage.get_host_ns", get_ns, "ns");
    // storage maintenance
    m.push(
        "storage.write_amp",
        ratio(st(|m| m.flush_bytes) + st(|m| m.compact_bytes_out), st(|m| m.logical_bytes_written)),
        "ratio",
    );
    m.push("storage.stall_us_per_op", st(|m| m.stall_micros) / ops, "us");
    m.push("storage.flushes", st(|m| m.flush_count), "count");
    m.push("storage.compactions", st(|m| m.compact_count), "count");
    // accounting
    m.push("accounting.quota_gate_ms", f.self_ms(&["quota.gate"]), "ms");
    m.push("accounting.bucket_stalls", d(b.bucket_stalls, a.bucket_stalls), "count");
    m.push("accounting.gated_stmts", s.gated_statements as f64, "count");
    m.push("accounting.aggressor_ops_per_sim_s", s.background_committed as f64 / window_s, "ops/s");
    // The Fig. 11 ratio, estimated over measured CPU; its ideal is 1, so the
    // metric is its distance from 1.
    let over_actual = ratio(ecpu, sql_cpu + kv_cpu);
    eprintln!("perfbench: estimated eCPU / measured SQL+KV CPU = {over_actual:.4}");
    m.push("accounting.ecpu_error", (over_actual - 1.0).abs(), "ratio");
    // sim
    let events = d(b.events, a.events);
    m.push("sim.events_per_op", events / ops, "count");
    m.push("sim.host_ns_per_event", ratio(host_s * 1e9, events), "ns");
    Ok(m)
}

/// Each workload must show work in the layer it exists for.
pub fn layer_work_checks(kind: Kind, m: &Metrics) -> Vec<String> {
    let need: &[&str] = match kind {
        Kind::Coldstart => &["pool.acquire_ms"],
        // `BucketClient::stalls` only moves through `try_consume`, which the
        // serverless path never calls; the quota's work shows as statements
        // held at the gate instead.
        Kind::Noisy => &["admission.queue_ms", "accounting.gated_stmts"],
        Kind::YcsbB => &["storage.tables_probed_per_get", "storage.flushes", "storage.compactions"],
        Kind::Tpcc => &["replication.quorum_ms", "wal.group_commit_ms"],
    };
    need.iter()
        .filter(|n| m.get(n).unwrap_or(0.0) <= 0.0)
        .map(|n| format!("{}: {n} shows no work", kind.name()))
        .collect()
}

/// Writes the traced ops' span trees, one JSON document, under
/// `perfbench/out/`.
pub fn write_traces(kind: Kind, seed: u64, traces: &[(u64, Trace)]) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("traces-{}-{seed}.json", kind.name()));
    let mut out = String::from("[");
    for (i, (op, t)) in traces.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("{{\"op\":{op},\"trace\":{}}}", t.to_json()));
    }
    out.push_str("]\n");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}
