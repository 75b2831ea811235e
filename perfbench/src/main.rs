//! The repo benchmark: four tenant workloads scored on the simulated and
//! host clocks, with a traced per-layer breakdown.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcc --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` repeats whole cycles (fresh deployment, set-up, measured
//! window, drain, checks) from the same seed, each in a child process,
//! while the next one is likely to end within `--seconds` of wall time;
//! checks that every cycle produced byte-identical sim-clock results; and
//! prints the end-to-end metrics (host metrics are medians over the
//! cycles, host times scaled to a reference host speed by `hostclock`).
//! `--trace 1` runs the same cycle untraced and then traced, checks that
//! tracing changed nothing on the sim clock, and prints the per-layer
//! metrics. The last line of stdout is one JSON object; a failed check
//! prints `"correct": false` and exits non-zero.

// simlint: allow-file(wall-clock) — bench harness: the wall clock only
// bounds how long a run keeps repeating cycles (`--seconds`); measured
// host times are the process's CPU time, outside the sim clock

mod harness;
mod hostclock;
mod layers;
mod report;
mod workloads;

use std::cell::Cell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crdb_kv::keys;
use crdb_sql::parser::parse;
use crdb_sql::plan::plan_statement;
use crdb_util::time::dur;

use harness::{ClientStats, OpRecord, Sampler};
use hostclock::Split;
use layers::{cpu_time, replay_ns, Delta, Snapshot, SpanFold};
use report::Metrics;
use workloads::{prepare, Kind};

/// How long after the window the drain may run before the run fails.
const DRAIN_CAP: Duration = Duration::from_secs(120);
/// Statements replayed through the parser and planner.
const REPLAY_STATEMENTS: usize = 5000;
/// Keys replayed through `Engine::get`.
const REPLAY_KEYS: usize = 4096;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run a single cycle and print its record.
    cycle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace, mut cycle) = (1u64, 10u64, false, false);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            "--cycle" => cycle = num()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required (tpcc, ycsb_b, coldstart, noisy)")?;
    Ok(Args { kind, seed, seconds, trace, cycle })
}

/// One cycle's results.
struct Cycle {
    /// Host time of the set-up.
    setup: Split,
    /// Host time of the window and its drain.
    run: Split,
    /// Sim-ns from the window start until the last measured op finished.
    phase_ns: u64,
    delta: Delta,
    stats: ClientStats,
    queue_len_max: u64,
    violations: Vec<String>,
    replay: Option<[f64; 3]>,
}

impl Cycle {
    fn ops(&self) -> &[OpRecord] {
        &self.stats.ops
    }

    fn committed(&self) -> u64 {
        self.ops().iter().filter(|o| o.ok).count() as u64
    }

    /// Everything the sim clock decides, folded into one value: two runs of
    /// one seed must agree on it exactly.
    fn fingerprint(&self) -> String {
        let mut h = 0u64;
        for o in self.ops() {
            let end = o.end.map_or(u64::MAX, |e| e.as_nanos());
            h = harness::mix(
                h ^ harness::mix(o.id ^ o.start.as_nanos() ^ end.rotate_left(17) ^ o.ok as u64),
            );
        }
        let s = &self.stats;
        format!(
            "ops={} h={h:016x} phase={} stmts={} rows={}/{} attempts={}/{} retries={} bg={}/{} qmax={} before={:?} after={:?}",
            s.ops.len(),
            self.phase_ns,
            s.statements,
            s.rows_read,
            s.rows_out,
            s.attempts,
            s.failed_attempts,
            s.retries,
            s.background_committed,
            s.gated_statements,
            self.queue_len_max,
            self.delta.before,
            self.delta.after,
        )
    }
}

fn run_cycle(
    kind: Kind,
    seed: u64,
    sampler: Option<Sampler>,
    t0: Duration,
    replay: bool,
) -> Result<Cycle, String> {
    hostclock::start(t0)?;
    let p = prepare(kind, seed, sampler)?;
    let setup = hostclock::split()?;
    let before = Snapshot::take(&p.cluster, &p.tenants, &p.clients.nodes_seen.borrow());
    // Deepest admission queue on any KV node, sampled every 10 sim-ms.
    let queue_len_max = Rc::new(Cell::new(0u64));
    {
        let (q, cluster, end) = (Rc::clone(&queue_len_max), Rc::clone(&p.cluster), p.window.1);
        p.sim.schedule_periodic(dur::ms(10), move || {
            for id in cluster.kv.node_ids() {
                if let Some(n) = cluster.kv.node(id) {
                    q.set(q.get().max(n.admission_queue_len() as u64));
                }
            }
            cluster.sim.now() < end
        });
    }
    let drained = p.clients.finish_window(DRAIN_CAP)?;
    let after = Snapshot::take(&p.cluster, &p.tenants, &p.clients.nodes_seen.borrow());
    let run = hostclock::split()?;

    let mut violations = std::mem::take(&mut *p.clients.violations.borrow_mut());
    if let Err(e) = (p.check)() {
        violations.push(e);
    }
    let stats = std::mem::take(&mut *p.clients.stats.borrow_mut());
    let replay = if replay {
        Some(replays(&p.cluster, p.tenants.first().copied(), &p.clients, &stats)?)
    } else {
        None
    };
    Ok(Cycle {
        setup,
        run,
        phase_ns: drained.duration_since(p.window.0).as_nanos() as u64,
        delta: Delta { before, after },
        stats,
        queue_len_max: queue_len_max.get(),
        violations,
        replay,
    })
}

/// The R metrics: host ns per `parse`, per `plan_statement` and per
/// `Engine::get`, replaying the cycle's own statements and keys.
fn replays(
    cluster: &crdb_core::ServerlessCluster,
    tenant: Option<crdb_util::TenantId>,
    clients: &harness::Clients,
    stats: &ClientStats,
) -> Result<[f64; 3], String> {
    let stmts: Vec<&String> = stats.stmt_log.iter().take(REPLAY_STATEMENTS).collect();
    let parse_ns = replay_ns(&stmts, |s| parse(s).is_ok())?;
    let parsed: Vec<_> = stmts.iter().filter_map(|s| parse(s).ok()).collect();
    let node = clients.nodes_seen.borrow().values().next().cloned();
    let plan_ns = match node {
        Some(node) => {
            let mut catalog = node.catalog().borrow().clone();
            replay_ns(&parsed, |s| plan_statement(&mut catalog, s).is_ok())?
        }
        None => 0.0,
    };
    // The leaseholder's engine, over a sample of the measured tenant's
    // committed versions (storage keys are `b'v'` + key + timestamp).
    let versioned = |k: &[u8]| [b"v", k].concat();
    let span = tenant.map(|t| (keys::tenant_span_start(t), keys::tenant_span_end(t)));
    let holder = span.as_ref().and_then(|(start, _)| cluster.kv.leaseholder_of(start));
    let span = span.map(|(start, end)| (versioned(&start), versioned(&end)));
    let get_ns = match (span, holder.and_then(|n| cluster.kv.node(n))) {
        (Some((start, end)), Some(node)) => {
            let engine = &node.engine;
            let mut keys = Vec::new();
            let mut i = 0usize;
            engine.scan_visit(&start, &end, |k, _| {
                if i.is_multiple_of(8) {
                    keys.push(k.clone());
                }
                i += 1;
                keys.len() < REPLAY_KEYS
            });
            replay_ns(&keys, |k| engine.get(k).is_some())?
        }
        _ => 0.0,
    };
    Ok([parse_ns, plan_ns, get_ns])
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// One untraced cycle, run in a child process so that its set-up time
/// counts from process start and its peak memory is its own.
struct CycleRecord {
    fingerprint: String,
    setup: Split,
    run: Split,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    sim: Vec<(String, f64, String)>,
    violations: Vec<String>,
}

/// Runs one untraced cycle and prints its record, one tab-separated field
/// per line, for the parent process (`--cycle 1`).
fn child_cycle(args: &Args) -> Result<(), String> {
    // Set-up counts from process start: CPU time zero.
    let c = run_cycle(args.kind, args.seed, None, Duration::ZERO, false)?;
    let mut fp = 0u64;
    for b in c.fingerprint().bytes() {
        fp = harness::mix(fp ^ u64::from(b));
    }
    let mut out = format!(
        "fingerprint\t{fp:016x}\nsetup\t{:?}\t{:?}\nrun\t{:?}\t{:?}\npeak_rss_mb\t{:?}\nattempted\t{}\nfailed\t{}\n",
        c.setup.raw_s,
        c.setup.scaled_s,
        c.run.raw_s,
        c.run.scaled_s,
        peak_rss_mb()?,
        c.ops().len(),
        c.ops().len() as u64 - c.committed(),
    );
    for (name, value, unit) in report::sim_metrics(&c)?.iter() {
        out.push_str(&format!("metric\t{name}\t{value:?}\t{unit}\n"));
    }
    for v in &c.violations {
        out.push_str(&format!("violation\t{}\n", v.replace(['\t', '\n'], " ")));
    }
    print!("{out}");
    Ok(())
}

fn spawn_cycle(args: &Args) -> Result<CycleRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.kind.name(), "--seed", &args.seed.to_string(), "--cycle", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a cycle: {e}"))?;
    if !out.status.success() {
        return Err(format!("a cycle exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut r = CycleRecord {
        fingerprint: String::new(),
        setup: Split { raw_s: f64::NAN, scaled_s: f64::NAN },
        run: Split { raw_s: f64::NAN, scaled_s: f64::NAN },
        peak_rss_mb: f64::NAN,
        attempted: 0,
        failed: 0,
        sim: Vec::new(),
        violations: Vec::new(),
    };
    let num = |v: Option<&str>| -> Result<f64, String> {
        v.and_then(|v| v.parse().ok()).ok_or_else(|| format!("bad cycle record: {text}"))
    };
    for line in text.lines() {
        let mut f = line.split('\t');
        match f.next() {
            Some("fingerprint") => r.fingerprint = f.next().unwrap_or_default().to_string(),
            Some("setup") => r.setup = Split { raw_s: num(f.next())?, scaled_s: num(f.next())? },
            Some("run") => r.run = Split { raw_s: num(f.next())?, scaled_s: num(f.next())? },
            Some("peak_rss_mb") => r.peak_rss_mb = num(f.next())?,
            Some("attempted") => r.attempted = num(f.next())? as u64,
            Some("failed") => r.failed = num(f.next())? as u64,
            Some("metric") => {
                let name = f.next().unwrap_or_default().to_string();
                let value = num(f.next())?;
                r.sim.push((name, value, f.next().unwrap_or_default().to_string()));
            }
            Some("violation") => r.violations.push(f.next().unwrap_or_default().to_string()),
            _ => return Err(format!("bad cycle record line: {line}")),
        }
    }
    if r.fingerprint.is_empty() || r.sim.is_empty() {
        return Err(format!("incomplete cycle record: {text}"));
    }
    Ok(r)
}

fn end_to_end(args: &Args, start: Instant) -> Result<Outcome, String> {
    let mut cycles: Vec<CycleRecord> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    // At least two cycles; no cycle that would likely end past the budget.
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        cycles.push(spawn_cycle(args)?);
        longest = longest.max(t.elapsed());
        if cycles.len() >= 2 && (start.elapsed() + longest > budget || cycles.len() >= 64) {
            break;
        }
    }
    let mut problems = Vec::new();
    for (i, c) in cycles.iter().enumerate() {
        if c.fingerprint != cycles[0].fingerprint || c.sim != cycles[0].sim {
            problems
                .push(format!("determinism: cycle {i} of seed {} differs from cycle 0", args.seed));
        }
        problems.extend(c.violations.iter().cloned());
    }
    let first = &cycles[0];
    let mut m = Metrics::default();
    for (name, value, unit) in &first.sim {
        m.push(name, *value, unit);
    }
    m.push("run_host_s", median(cycles.iter().map(|c| c.run.scaled_s).collect()), "s");
    m.push("setup_s", median(cycles.iter().map(|c| c.setup.scaled_s).collect()), "s");
    m.push("peak_rss_mb", median(cycles.iter().map(|c| c.peak_rss_mb).collect()), "MiB");
    let show = |f: fn(&CycleRecord) -> f64| {
        cycles.iter().map(|c| format!("{:.3}", f(c))).collect::<Vec<_>>().join(" ")
    };
    eprintln!(
        "perfbench {} seed {}: {} cycles\n  setup_s    [{}] (CPU s [{}])\n  run_host_s [{}] (CPU s [{}])",
        args.kind.name(),
        args.seed,
        cycles.len(),
        show(|c| c.setup.scaled_s),
        show(|c| c.setup.raw_s),
        show(|c| c.run.scaled_s),
        show(|c| c.run.raw_s),
    );
    Ok(Outcome { metrics: m, attempted: first.attempted, failed: first.failed, problems })
}

fn per_layer(args: &Args, start: Instant) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut untraced = vec![run_cycle(args.kind, args.seed, None, Duration::ZERO, true)?];
    while start.elapsed() < budget / 2 && untraced.len() < 16 {
        untraced.push(run_cycle(args.kind, args.seed, None, cpu_time()?, false)?);
    }
    let sampler = Sampler { every: args.kind.trace_every(), seed: args.seed };
    let traced = run_cycle(args.kind, args.seed, Some(sampler), cpu_time()?, false)?;
    let fold = SpanFold::fold(&traced.stats.traces);

    let base = &untraced[0];
    let mut problems: Vec<String> =
        base.violations.iter().chain(&traced.violations).cloned().collect();
    for c in untraced.iter().skip(1) {
        if c.fingerprint() != base.fingerprint() {
            problems.push("determinism: two untraced cycles of one seed differ".into());
        }
    }
    if traced.fingerprint() != base.fingerprint() {
        problems.push("determinism: tracing changed the sim-clock results".into());
    }
    if fold.open_spans > 0 {
        problems.push(format!("trace: {} spans still open after the drain", fold.open_spans));
    }
    for (op, root_ns) in &fold.roots {
        let untraced_ns = base.ops().get(*op as usize).and_then(OpRecord::latency_ns);
        if untraced_ns != Some(*root_ns) {
            problems.push(format!(
                "trace: op {op} root span {root_ns} ns, untraced latency {untraced_ns:?}"
            ));
            break;
        }
    }
    if fold.roots.is_empty() {
        problems.push("trace: no op was traced".into());
    }
    let host_s = median(untraced.iter().map(|c| c.run.scaled_s).collect());
    let mut m = report::layer_metrics(base, &fold, host_s)?;
    m.push("trace.overhead", traced.run.scaled_s / host_s, "ratio");
    m.push("host.cpu_run_s", median(untraced.iter().map(|c| c.run.raw_s).collect()), "s");
    eprintln!("perfbench: {} ops traced, 1 in {}", fold.ops, sampler.every);
    problems.extend(report::layer_work_checks(args.kind, &m));
    report::write_traces(args.kind, args.seed, &traced.stats.traces)?;
    let attempted = base.ops().len() as u64;
    Ok(Outcome { metrics: m, attempted, failed: attempted - base.committed(), problems })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.cycle {
        return match child_cycle(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let outcome = if args.trace { per_layer(&args, start) } else { end_to_end(&args, start) };
    match outcome {
        Ok(o) => {
            for p in &o.problems {
                eprintln!("perfbench: CHECK FAILED: {p}");
            }
            let correct = o.problems.is_empty();
            println!("{}", o.metrics.to_json(correct, o.attempted, o.failed));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
