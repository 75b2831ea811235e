//! Host CPU time scaled to a reference host speed.
//!
//! The benchmark shares a few cores of a larger machine, and the speed
//! those cores give a single-threaded simulator drifts by up to 1.7× within
//! seconds as other work on the machine comes and goes: identical cycles of
//! one seed took from 0.21 to 0.39 CPU seconds. Raw CPU time therefore
//! measures the neighbours as much as the program.
//!
//! The clock of a cycle ([`start`]) times a fixed calibration pass about
//! every [`STRETCH`] of measured CPU time ([`tick`], called between sim
//! events) and scales each stretch of work between two passes by
//! `CAL_REF / mean(pass before, pass after)`; the passes themselves are
//! not counted. The pass formats, sorts, parses and hashes strings with
//! std only, so no change to the program under test changes it, and it
//! allocates nothing, so the program's heap does not change it either. Of
//! the kernels tried (multiply chains, pointer chases from 64 KiB to
//! 4 MiB, binary search, dynamic dispatch, std map churn) it was the one
//! whose slowdown matched the simulator's: on two vCPUs of a shared cloud
//! host, scaled times of identical cycles in slow and fast periods agreed
//! within 4 %, where their raw CPU times differed by 10–42 %.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write;
use std::time::Duration;

use crate::harness::mix;
use crate::layers::cpu_time;

/// What one calibration pass takes on the reference host; a scaled second
/// is a second of work on that host.
pub const CAL_REF: Duration = Duration::from_micros(1500);
/// Measured CPU time between two calibration passes, at least.
pub const STRETCH: Duration = Duration::from_millis(50);
/// Strings a calibration pass sorts and reformats.
const PASS_KEYS: u64 = 6000;

/// The calibration kernel and its buffers, allocated once.
struct Calibrator {
    keys: Vec<String>,
    order: Vec<usize>,
    line: String,
    by_len: HashMap<usize, u64>,
}

impl Calibrator {
    fn new() -> Calibrator {
        Calibrator {
            keys: (0..PASS_KEYS).map(|i| format!("k{:x}-{}", mix(i), i % 97)).collect(),
            order: Vec::with_capacity(PASS_KEYS as usize),
            line: String::with_capacity(64),
            by_len: HashMap::with_capacity(64),
        }
    }

    /// One pass: fixed, deterministic work. Returns its CPU time.
    fn pass(&mut self) -> Result<Duration, String> {
        let t = cpu_time()?;
        let keys = &self.keys;
        self.by_len.clear();
        self.order.clear();
        self.order.extend(0..keys.len());
        self.order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        for &i in &self.order {
            self.line.clear();
            write!(self.line, "{}-{i:x}", keys[i]).map_err(|e| format!("calibration: {e}"))?;
            let n = self.line.rsplit('-').nth(1).and_then(|n| n.parse::<u64>().ok()).unwrap_or(0);
            *self.by_len.entry(self.line.len()).or_insert(0) += n;
        }
        std::hint::black_box(&self.by_len);
        Ok(cpu_time()? - t)
    }
}

/// Raw and scaled seconds of one measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Split {
    /// CPU seconds, calibration excluded.
    pub raw_s: f64,
    /// Seconds at the reference speed.
    pub scaled_s: f64,
}

const NO_WORK: Split = Split { raw_s: 0.0, scaled_s: 0.0 };

thread_local! {
    /// The clock of the cycle this thread is running.
    static CLOCK: RefCell<Option<ScaledClock>> = const { RefCell::new(None) };
}

/// Starts this thread's clock, measuring work from CPU time `from`
/// (`Duration::ZERO` is process start). Replaces any earlier clock.
pub fn start(from: Duration) -> Result<(), String> {
    let clock = ScaledClock::start(from)?;
    CLOCK.with(|c| *c.borrow_mut() = Some(clock));
    Ok(())
}

/// Closes the open stretch of this thread's clock once it holds at least
/// [`STRETCH`] of work; does nothing without a clock. Call it between sim
/// events only. A failure to read the CPU clock is kept and returned by the
/// next [`split`].
pub fn tick() {
    CLOCK.with(|c| {
        let mut slot = c.borrow_mut();
        if let Some(clock) = slot.as_mut() {
            if clock.failed.is_none() {
                if let Err(e) = clock.tick() {
                    clock.failed = Some(e);
                }
            }
        }
    })
}

/// Closes the open stretch of this thread's clock and returns the work
/// measured since `start` or the previous split.
pub fn split() -> Result<Split, String> {
    CLOCK.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            Some(clock) => match clock.failed.take() {
                Some(e) => Err(e),
                None => clock.split(),
            },
            None => Err("hostclock: split without start".to_string()),
        }
    })
}

/// Measures work in stretches bracketed by calibration passes.
struct ScaledClock {
    calibrator: Calibrator,
    /// CPU time spent on calibration so far.
    excluded: Duration,
    /// Work time (CPU time minus calibration) at the start of the open
    /// stretch.
    mark: Duration,
    /// The pass that opened the open stretch.
    last_pass: Duration,
    /// Work of the closed stretches since the last split.
    split: Split,
    /// The first error `tick` met.
    failed: Option<String>,
}

impl ScaledClock {
    /// Builds the calibrator and runs a warm-up pass, which is not used,
    /// and the pass that opens the first stretch.
    fn start(from: Duration) -> Result<ScaledClock, String> {
        let t = cpu_time()?;
        let mut calibrator = Calibrator::new();
        calibrator.pass()?;
        let last_pass = calibrator.pass()?;
        let excluded = cpu_time()? - t;
        Ok(ScaledClock {
            calibrator,
            excluded,
            mark: from,
            last_pass,
            split: NO_WORK,
            failed: None,
        })
    }

    fn work(&self) -> Result<Duration, String> {
        Ok(cpu_time()?.saturating_sub(self.excluded))
    }

    fn tick(&mut self) -> Result<(), String> {
        let now = self.work()?;
        if now.saturating_sub(self.mark) >= STRETCH {
            self.close_stretch(now)?;
        }
        Ok(())
    }

    fn split(&mut self) -> Result<Split, String> {
        let now = self.work()?;
        self.close_stretch(now)?;
        Ok(std::mem::replace(&mut self.split, NO_WORK))
    }

    fn close_stretch(&mut self, now: Duration) -> Result<(), String> {
        let t = cpu_time()?;
        let pass = self.calibrator.pass()?;
        let work = now.saturating_sub(self.mark).as_secs_f64();
        let speed = CAL_REF.as_secs_f64() * 2.0 / (self.last_pass + pass).as_secs_f64();
        self.split.raw_s += work;
        self.split.scaled_s += work * speed;
        self.last_pass = pass;
        self.excluded += cpu_time()? - t;
        self.mark = self.work()?;
        Ok(())
    }
}
