//! Read-path benchmark: point-get and bounded-scan throughput at varying
//! L0 depth and version-chain length, comparing the streaming merge
//! iterator (bloom filters + bound/limit pushdown) against the pre-PR
//! eager materialize-then-merge path (`Lsm::scan_eager`).
//!
//! Emits `BENCH_READPATH.json` (hand-rolled JSON, no serde) in the
//! working directory so the repo has a perf trajectory to track:
//!
//! - `point_get`: gets/sec per L0 depth, with bloom hit rate and tables
//!   binary-searched per get (the filters' saved probes).
//! - `bounded_scan`: limit-10 scans/sec over a wide span, eager vs
//!   streaming, per L0 depth and per version-chain length — the streaming
//!   path must stop pulling after ~`limit` live entries while the eager
//!   path materializes the whole span.

// simlint: allow-file(wall-clock) — bench harness: measures real elapsed
// wall time of the simulation run itself, outside the deterministic sim clock

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use crdb_storage::{Lsm, LsmConfig, StorageMetrics};

const SPAN_KEYS: usize = 20_000;
const SCAN_LIMIT: usize = 10;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("user{i:08}"))
}

/// A key with an MVCC-style version suffix: versions of one logical key
/// are adjacent, so a scan over logical keys wades through `chain` entries
/// per key exactly like the version walks in `crdb_kv::mvcc`.
fn vkey(i: usize, version: usize) -> Bytes {
    Bytes::from(format!("user{i:08}@{version:04}"))
}

fn value(i: usize) -> Bytes {
    Bytes::from(format!("value-{i:08}-{}", "p".repeat(32)))
}

/// An LSM whose memtable rotates only when frozen by hand.
fn manual_rotation(config: LsmConfig) -> Lsm {
    Lsm::new(LsmConfig { memtable_size: usize::MAX, ..config })
}

/// Builds an LSM with `n` keys spread over exactly `l0_depth` L0 files
/// (L0 never compacts) — the worst case for read amplification, every
/// file overlapping the whole keyspace.
fn build_l0(n: usize, l0_depth: usize) -> Lsm {
    let mut lsm =
        manual_rotation(LsmConfig { l0_compaction_threshold: usize::MAX, ..LsmConfig::tiny() });
    let per_file = n.div_ceil(l0_depth);
    for file in 0..l0_depth {
        // Stripe keys across files so every file covers the full range.
        for j in 0..per_file {
            let i = j * l0_depth + file;
            if i < n {
                lsm.put(key(i), value(i));
            }
        }
        lsm.freeze_active();
        lsm.settle();
    }
    lsm
}

/// Builds an LSM where each of `n` logical keys carries `chain` adjacent
/// versions, compacted into the leveled structure.
fn build_chains(n: usize, chain: usize) -> Lsm {
    let mut lsm = manual_rotation(LsmConfig::tiny());
    for v in 0..chain {
        for i in 0..n {
            lsm.put(vkey(i, v), value(i));
        }
        lsm.freeze_active();
        lsm.settle();
    }
    lsm
}

struct PointGetRow {
    l0_depth: usize,
    gets_per_sec: f64,
    bloom_hit_rate: f64,
    tables_probed_per_get: f64,
    bloom_probes: u64,
}

fn bench_point_gets(l0_depth: usize) -> PointGetRow {
    let lsm = build_l0(SPAN_KEYS, l0_depth);
    let before = lsm.metrics();
    let rounds = 30_000usize;
    let t0 = Instant::now();
    let mut live = 0usize;
    for r in 0..rounds {
        // Alternate present and absent keys: absent keys are where the
        // filters shine (every table would otherwise be binary-searched).
        let i = (r * 7919) % (SPAN_KEYS * 2);
        if lsm.get(&key(i)).is_some() {
            live += 1;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    assert!(live > 0, "benchmark read nothing");
    let m: StorageMetrics = lsm.metrics().delta(&before);
    PointGetRow {
        l0_depth,
        gets_per_sec: rounds as f64 / secs,
        bloom_hit_rate: m.bloom_hit_rate(),
        tables_probed_per_get: m.tables_probed_per_get(),
        bloom_probes: m.bloom_probes,
    }
}

struct ScanRow {
    label: String,
    l0_depth: usize,
    chain: usize,
    eager_scans_per_sec: f64,
    streaming_scans_per_sec: f64,
    speedup: f64,
    scan_read_amplification: f64,
}

fn bench_bounded_scans(label: &str, lsm: &Lsm, l0_depth: usize, chain: usize) -> ScanRow {
    let start = key(0);
    let end = key(SPAN_KEYS);
    // Warm both paths once and assert equivalence before timing.
    let want = lsm.scan_eager(&start, &end, SCAN_LIMIT);
    assert_eq!(lsm.scan(&start, &end, SCAN_LIMIT), want, "paths diverged");

    let eager_rounds = 40usize;
    let t0 = Instant::now();
    for _ in 0..eager_rounds {
        let got = lsm.scan_eager(&start, &end, SCAN_LIMIT);
        assert_eq!(got.len(), want.len());
    }
    let eager_secs = t0.elapsed().as_secs_f64();

    let before = lsm.metrics();
    let streaming_rounds = 4_000usize;
    let t1 = Instant::now();
    for _ in 0..streaming_rounds {
        let got = lsm.scan(&start, &end, SCAN_LIMIT);
        assert_eq!(got.len(), want.len());
    }
    let streaming_secs = t1.elapsed().as_secs_f64();
    let m = lsm.metrics().delta(&before);

    let eager_rate = eager_rounds as f64 / eager_secs;
    let streaming_rate = streaming_rounds as f64 / streaming_secs;
    ScanRow {
        label: label.to_string(),
        l0_depth,
        chain,
        eager_scans_per_sec: eager_rate,
        streaming_scans_per_sec: streaming_rate,
        speedup: streaming_rate / eager_rate,
        scan_read_amplification: m.scan_read_amplification(),
    }
}

fn main() {
    crdb_bench::header("Read path: bloom filters + streaming merge vs eager materialization");

    let mut point_rows = Vec::new();
    for l0_depth in [2usize, 4, 8, 16] {
        let row = bench_point_gets(l0_depth);
        println!(
            "point-get  L0={:2}  {:>10.0} gets/s  bloom hit rate {:.3}  tables/get {:.3}",
            row.l0_depth, row.gets_per_sec, row.bloom_hit_rate, row.tables_probed_per_get
        );
        point_rows.push(row);
    }

    let mut scan_rows = Vec::new();
    for l0_depth in [2usize, 8, 16] {
        let lsm = build_l0(SPAN_KEYS, l0_depth);
        let row = bench_bounded_scans("l0_depth", &lsm, l0_depth, 1);
        println!(
            "scan(limit={SCAN_LIMIT}) L0={:2}            eager {:>8.1}/s  streaming {:>10.0}/s  speedup {:>7.1}x  pull/ret {:.2}",
            row.l0_depth,
            row.eager_scans_per_sec,
            row.streaming_scans_per_sec,
            row.speedup,
            row.scan_read_amplification
        );
        scan_rows.push(row);
    }
    for chain in [4usize, 16] {
        let lsm = build_chains(SPAN_KEYS / chain, chain);
        let row = bench_bounded_scans("version_chain", &lsm, 0, chain);
        println!(
            "scan(limit={SCAN_LIMIT}) chain={:3}         eager {:>8.1}/s  streaming {:>10.0}/s  speedup {:>7.1}x  pull/ret {:.2}",
            row.chain,
            row.eager_scans_per_sec,
            row.streaming_scans_per_sec,
            row.speedup,
            row.scan_read_amplification
        );
        scan_rows.push(row);
    }

    // Acceptance gates: bounded scans ≥5× over eager; filters doing work.
    let min_speedup = scan_rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let max_hit_rate = point_rows.iter().map(|r| r.bloom_hit_rate).fold(0.0, f64::max);
    println!("\nmin bounded-scan speedup: {min_speedup:.1}x (gate: >= 5x)");
    println!("max bloom hit rate:       {max_hit_rate:.3} (gate: > 0)");
    assert!(min_speedup >= 5.0, "bounded-scan speedup gate failed: {min_speedup:.2}x");
    assert!(max_hit_rate > 0.0, "bloom filters never excluded a table");

    // Hand-rolled JSON: stable key order, no external deps.
    let mut json = String::from("{\n  \"point_get\": [\n");
    for (i, r) in point_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"l0_depth\": {}, \"gets_per_sec\": {:.0}, \"bloom_hit_rate\": {:.4}, \
             \"tables_probed_per_get\": {:.4}, \"bloom_probes\": {}}}{}",
            r.l0_depth,
            r.gets_per_sec,
            r.bloom_hit_rate,
            r.tables_probed_per_get,
            r.bloom_probes,
            if i + 1 < point_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"bounded_scan\": [\n");
    for (i, r) in scan_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"sweep\": \"{}\", \"l0_depth\": {}, \"version_chain\": {}, \
             \"span_keys\": {SPAN_KEYS}, \"limit\": {SCAN_LIMIT}, \
             \"eager_scans_per_sec\": {:.1}, \"streaming_scans_per_sec\": {:.0}, \
             \"speedup\": {:.2}, \"scan_read_amplification\": {:.3}}}{}",
            r.label,
            r.l0_depth,
            r.chain,
            r.eager_scans_per_sec,
            r.streaming_scans_per_sec,
            r.speedup,
            r.scan_read_amplification,
            if i + 1 < scan_rows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"gates\": {{\"min_scan_speedup\": {min_speedup:.2}, \
         \"max_bloom_hit_rate\": {max_hit_rate:.4}}}\n}}\n"
    );
    std::fs::write("BENCH_READPATH.json", &json).expect("write BENCH_READPATH.json");
    println!("\nwrote BENCH_READPATH.json");
}
