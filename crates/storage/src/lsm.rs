//! The leveled LSM tree.
//!
//! Writes go WAL → memtable; a full memtable is frozen and flushed into
//! **L0**, whose files may overlap in key space (§5.1.3: "Level 0 in LSMs
//! is special in that files can be overlapping … a backlog of files in
//! this level increases read amplification"). When L0 accumulates enough
//! files it is compacted into L1; levels below L1 are non-overlapping
//! sorted runs that compact downward when they exceed their size target
//! (each level 10× larger than the previous).
//!
//! # Write pipeline
//!
//! The write path is structured so foreground writes never wait on
//! background work:
//!
//! - **Group commit** — [`Lsm::apply`] appends to the WAL without syncing;
//!   [`Lsm::group_commit`] models one fsync that commits every batch
//!   appended since the last one.
//! - **Pipelined flushes** — a full active memtable is *frozen* on write
//!   (rotation is O(1)) and keeps serving reads while a flush job moves it
//!   to L0. Reads consult active → frozen (newest first) → L0 → levels.
//! - **Concurrent per-level compaction** — a compaction job claims its
//!   input files and locks the `{source, target}` level pair when it
//!   starts, and merges and installs its output when it finishes. At most
//!   one job per level pair runs at a time; jobs on disjoint level pairs
//!   run concurrently. Claimed files stay readable until the job finishes.
//! - **One job policy** — [`Lsm::begin_job`] decides what runs next: the
//!   oldest frozen memtable's flush if no flush is in flight, otherwise
//!   the top-scored compaction while fewer than [`COMPACTION_SLOTS`] run.
//!   [`Lsm::finish_job`] completes a job. The KV node charges each job to
//!   its simulated disk between the two; [`Lsm::settle`] runs jobs inline
//!   until none is due.
//! - **Write stalls** — [`Lsm::write_stall`] reports frozen-memtable and
//!   L0-depth backpressure so embedders (and admission control) see a real
//!   signal instead of unbounded debt.
//!
//! L0→L1 jobs always claim exactly the *oldest*
//! `l0_compaction_threshold` unclaimed L0 files. Because the L0/L1 level
//! pair serializes those jobs, the k-th L0 job compacts the same files no
//! matter when it runs — which is what makes flush/compaction byte totals
//! identical whether jobs settle after every write or are held in flight
//! and finished in any order. All flush/compaction byte movement is
//! recorded in [`StorageMetrics`] **at job completion** — that
//! instrumentation is what admission control's write-token capacity
//! estimator consumes.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

use crate::iter::{merge_sources, strip_tombstones, MergeIter, Source};
use crate::memtable::{Memtable, WriteBatch};
use crate::metrics::{StorageMetrics, COMPACT_LEVELS_TRACKED};
use crate::sstable::{SsTable, TableBuilder};
use crate::wal::{GroupCommit, MemWal, WalSink, WalWriter};
use crate::{Key, Value};

/// Tuning knobs for the LSM tree. Defaults are scaled down from production
/// values so tests exercise flush and compaction quickly.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Memtable size that triggers a rotation (freeze + flush).
    pub memtable_size: usize,
    /// Number of L0 files that triggers an L0→L1 compaction. L0 jobs claim
    /// exactly this many of the oldest unclaimed files.
    pub l0_compaction_threshold: usize,
    /// Size target for L1; level `n` targets `base · multiplier^(n-1)`.
    pub level_base_size: usize,
    /// Growth factor between consecutive levels.
    pub level_size_multiplier: usize,
    /// Target output file size for compactions.
    pub sst_target_size: usize,
    /// Number of levels below L0.
    pub num_levels: usize,
    /// Frozen memtables that trigger a write stall (flush backlog).
    pub max_frozen_memtables: usize,
    /// L0 file count that triggers a write stall (compaction backlog).
    pub l0_stall_threshold: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_size: 4 << 20,
            l0_compaction_threshold: 4,
            level_base_size: 16 << 20,
            level_size_multiplier: 10,
            sst_target_size: 2 << 20,
            num_levels: 6,
            max_frozen_memtables: 2,
            l0_stall_threshold: 12,
        }
    }
}

impl LsmConfig {
    /// A tiny configuration that forces frequent flushes and compactions —
    /// used by tests to exercise the full machinery with little data.
    pub fn tiny() -> Self {
        LsmConfig {
            memtable_size: 1 << 10,
            l0_compaction_threshold: 2,
            level_base_size: 4 << 10,
            level_size_multiplier: 4,
            sst_target_size: 2 << 10,
            num_levels: 4,
            max_frozen_memtables: 2,
            l0_stall_threshold: 8,
        }
    }

    fn level_target(&self, level: usize) -> usize {
        debug_assert!(level >= 1);
        self.level_base_size * self.level_size_multiplier.pow(level as u32 - 1)
    }
}

/// Read-path counters. The read path takes `&self`, so these live in
/// `Cell`s and are folded into the [`StorageMetrics`] snapshot returned by
/// [`Lsm::metrics`].
#[derive(Debug, Default)]
struct ReadCounters {
    point_gets: Cell<u64>,
    tables_probed: Cell<u64>,
    bloom_probes: Cell<u64>,
    bloom_hits: Cell<u64>,
    scans: Cell<u64>,
    scan_entries_pulled: Cell<u64>,
    scan_entries_returned: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// An immutable (frozen) memtable awaiting flush. Still serves reads.
struct FrozenMemtable {
    id: u64,
    mem: Memtable,
}

/// Compaction jobs that may run at once, each on its own level pair.
pub const COMPACTION_SLOTS: usize = 2;

/// A claimed memtable flush (see [`Job::Flush`]).
#[derive(Debug)]
pub struct FlushJob {
    frozen_id: u64,
    bytes: u64,
}

/// A claimed compaction (see [`Job::Compaction`]): the input and target
/// files stay in the tree, readable, until the job finishes.
#[derive(Debug)]
pub struct CompactionJob {
    level: usize,
    input_nums: Vec<u64>,
    target_nums: Vec<u64>,
    bytes_in: u64,
}

/// A background job claimed by [`Lsm::begin_job`]; hand it back to
/// [`Lsm::finish_job`] once the embedder has charged its modeled disk.
#[derive(Debug)]
pub enum Job {
    /// Flush of the oldest frozen memtable into a new L0 table.
    Flush(FlushJob),
    /// Merge of claimed files from one level into the next.
    Compaction(CompactionJob),
}

impl Job {
    /// Bytes the job reads: the memtable footprint for a flush, the source
    /// plus overlapping target files for a compaction.
    pub fn bytes(&self) -> u64 {
        match self {
            Job::Flush(f) => f.bytes,
            Job::Compaction(c) => c.bytes_in,
        }
    }
}

/// Why a write should stall, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Too many frozen memtables waiting on flush.
    MemtableBacklog,
    /// Too many L0 files waiting on compaction.
    L0Backlog,
}

/// A single-threaded LSM tree. For concurrent access wrap it in
/// [`crate::engine::Engine`].
pub struct Lsm {
    config: LsmConfig,
    wal: WalWriter,
    /// The active (mutable) memtable.
    memtable: Memtable,
    /// Frozen memtables awaiting flush, oldest first. All still readable.
    frozen: VecDeque<FrozenMemtable>,
    next_frozen_id: u64,
    /// Frozen id currently being flushed (at most one flush in flight).
    flush_inflight: Option<u64>,
    /// L0: overlapping files, newest last.
    l0: Vec<SsTable>,
    /// `levels[i]` is L(i+1): non-overlapping files sorted by min key.
    levels: Vec<Vec<SsTable>>,
    /// Levels participating in an in-flight compaction (0 = L0). A job
    /// from level `n` to `n+1` holds both entries.
    locked_levels: BTreeSet<usize>,
    /// File numbers of L0 tables claimed by the in-flight L0 job.
    claimed_l0: BTreeSet<u64>,
    next_file_num: u64,
    metrics: StorageMetrics,
    read: ReadCounters,
    /// Round-robin compaction cursors, one per level in `levels`.
    cursors: Vec<usize>,
}

impl Lsm {
    /// Creates an LSM with an in-memory WAL.
    pub fn new(config: LsmConfig) -> Self {
        Self::with_wal(config, Box::new(MemWal::new()))
    }

    /// Creates an LSM with a caller-provided WAL sink.
    pub fn with_wal(config: LsmConfig, wal: Box<dyn WalSink>) -> Self {
        let levels = vec![Vec::new(); config.num_levels];
        let cursors = vec![0; config.num_levels];
        Lsm {
            config,
            wal: WalWriter::new(wal),
            memtable: Memtable::new(),
            frozen: VecDeque::new(),
            next_frozen_id: 1,
            flush_inflight: None,
            l0: Vec::new(),
            levels,
            locked_levels: BTreeSet::new(),
            claimed_l0: BTreeSet::new(),
            next_file_num: 1,
            metrics: StorageMetrics::default(),
            read: ReadCounters::default(),
            cursors,
        }
    }

    /// Applies a write batch: unsynced WAL append, memtable apply, and
    /// rotation of a full memtable — the only foreground work; flushes and
    /// compactions run as [`Lsm::begin_job`] jobs. Returns the batch's WAL
    /// sequence number, committed by the group commit that syncs past it.
    pub fn apply(&mut self, batch: &WriteBatch) -> u64 {
        let (seq, rec_bytes) = self.wal.append(batch).expect("wal append");
        self.metrics.wal_bytes += rec_bytes;
        self.metrics.wal_batches += 1;
        self.metrics.logical_bytes_written += batch.payload_bytes() as u64;
        self.memtable.apply_batch(batch);
        self.rotate_if_full();
        seq
    }

    /// Bulk-ingests a batch with no WAL record — the AddSSTable-style
    /// load path. Entries land in the memtable and are flushed/compacted
    /// like any other write, but pay no per-batch WAL append or fsync:
    /// control-plane bulk loads (fixed tenant metadata at creation)
    /// recover by re-running the creating operation, not by WAL replay.
    pub fn ingest(&mut self, batch: &WriteBatch) {
        self.metrics.ingest_batches += 1;
        self.metrics.logical_bytes_written += batch.payload_bytes() as u64;
        self.memtable.apply_batch(batch);
        self.rotate_if_full();
    }

    /// Convenience single-key put.
    pub fn put(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        let mut b = WriteBatch::new();
        b.put(key.into(), value.into());
        self.apply(&b);
    }

    /// Convenience single-key delete.
    pub fn delete(&mut self, key: impl Into<Key>) {
        let mut b = WriteBatch::new();
        b.delete(key.into());
        self.apply(&b);
    }

    /// Models one fsync covering every batch appended since the last one;
    /// returns the committed group. This is the point at which those
    /// batches may be acknowledged.
    pub fn group_commit(&mut self) -> GroupCommit {
        let group = self.wal.sync_all().expect("wal sync");
        self.note_group(group);
        group
    }

    /// Models one fsync covering batches up to and including `seq` —
    /// batches appended after the fsync began ride the next group.
    pub fn group_commit_through(&mut self, seq: u64) -> GroupCommit {
        let group = self.wal.sync_through(seq).expect("wal sync");
        self.note_group(group);
        group
    }

    fn note_group(&mut self, group: GroupCommit) {
        if group.batches > 0 {
            self.metrics.fsyncs += 1;
            self.metrics.batches_synced += group.batches;
        }
    }

    /// Batches appended but not yet covered by a group commit.
    pub fn wal_unsynced_batches(&self) -> u64 {
        self.wal.unsynced_batches()
    }

    /// Point lookup across all levels, newest data first: active memtable,
    /// frozen memtables (newest first), L0 (newest file first), then one
    /// candidate file per level. Each candidate table's bloom filter is
    /// consulted before its entries are searched.
    pub fn get(&self, key: &[u8]) -> Option<Value> {
        bump(&self.read.point_gets);
        if let Some(v) = self.memtable.get(key) {
            return v;
        }
        for f in self.frozen.iter().rev() {
            if let Some(v) = f.mem.get(key) {
                return v;
            }
        }
        for table in self.l0.iter().rev() {
            bump(&self.read.bloom_probes);
            if !table.may_contain(key) {
                bump(&self.read.bloom_hits);
                continue;
            }
            bump(&self.read.tables_probed);
            if let Some(v) = table.get(key) {
                return v;
            }
        }
        for level in &self.levels {
            // Non-overlapping: binary search for the file whose range could
            // contain the key.
            let idx = level.partition_point(|t| t.max_key().is_some_and(|k| k.as_ref() < key));
            if let Some(table) = level.get(idx) {
                bump(&self.read.bloom_probes);
                if !table.may_contain(key) {
                    bump(&self.read.bloom_hits);
                    continue;
                }
                bump(&self.read.tables_probed);
                if let Some(v) = table.get(key) {
                    return v;
                }
            }
        }
        None
    }

    /// A streaming iterator over the live entries in `[start, end)`:
    /// memtables (active then frozen, newest first), L0 windows and one
    /// lazy cursor per level feed a k-way merge that pulls nothing past
    /// what the caller consumes. Tombstones are elided; shadowed versions
    /// are suppressed.
    pub fn iter<'a>(&'a self, start: &'a [u8], end: &'a [u8]) -> LsmIter<'a> {
        let mut sources: Vec<Source<'a>> =
            Vec::with_capacity(2 + self.frozen.len() + self.l0.len());
        sources.push(Source::Mem(self.memtable.range(start, end)));
        for f in self.frozen.iter().rev() {
            sources.push(Source::Mem(f.mem.range(start, end)));
        }
        for table in self.l0.iter().rev() {
            if table.overlaps(start, end) {
                sources.push(Source::Slice(table.range(start, end)));
            }
        }
        for level in &self.levels {
            // Non-overlapping and sorted: binary-search the first file
            // that could intersect; the cursor walks forward lazily.
            let idx = level.partition_point(|t| t.max_key().is_some_and(|k| k.as_ref() < start));
            if idx < level.len() {
                sources.push(Source::Level { tables: &level[idx..], start, end });
            }
        }
        bump(&self.read.scans);
        LsmIter { inner: MergeIter::new(sources), counters: &self.read, pulled: 0, returned: 0 }
    }

    /// Range scan over `[start, end)` returning up to `limit` live
    /// entries. The limit is pushed down into the merge: once `limit`
    /// live entries have been produced nothing more is pulled from any
    /// source.
    pub fn scan(&self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut it = self.iter(start, end);
        while out.len() < limit {
            match it.next() {
                Some((k, v)) => out.push((k.clone(), v.clone())),
                None => break,
            }
        }
        out
    }

    /// Streaming scan: calls `visit` for each live entry in `[start, end)`
    /// in key order until it returns `false` or the span is exhausted.
    /// This is the zero-copy early-termination entry point the MVCC layer
    /// builds its version walks on.
    pub fn scan_visit(
        &self,
        start: &[u8],
        end: &[u8],
        mut visit: impl FnMut(&Key, &Value) -> bool,
    ) {
        for (k, v) in self.iter(start, end) {
            if !visit(k, v) {
                break;
            }
        }
    }

    /// The pre-iterator scan: materializes every overlapping source into
    /// owned `Vec`s, eagerly merges them, and only then applies `limit`.
    /// Kept (unmetered) as the reference implementation for differential
    /// tests and the `read_path` benchmark's baseline — not used on any
    /// production path.
    pub fn scan_eager(&self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Key, Value)> {
        let mut sources: Vec<Vec<(Key, Option<Value>)>> = Vec::new();
        sources
            .push(self.memtable.range(start, end).map(|(k, v)| (k.clone(), v.clone())).collect());
        for f in self.frozen.iter().rev() {
            sources.push(f.mem.range(start, end).map(|(k, v)| (k.clone(), v.clone())).collect());
        }
        for table in self.l0.iter().rev() {
            if table.overlaps(start, end) {
                sources.push(table.range(start, end).to_vec());
            }
        }
        for level in &self.levels {
            let mut run = Vec::new();
            let mut idx =
                level.partition_point(|t| t.max_key().is_some_and(|k| k.as_ref() < start));
            while let Some(table) = level.get(idx) {
                if table.min_key().is_none_or(|k| k.as_ref() >= end) {
                    break;
                }
                run.extend_from_slice(table.range(start, end));
                idx += 1;
            }
            sources.push(run);
        }
        strip_tombstones(merge_sources(sources))
            .into_iter()
            .take(limit)
            .map(|(k, v)| (k, v.expect("stripped")))
            .collect()
    }

    /// Garbage-collection helper for *write-once* keys: if the key's only
    /// occurrence is the live (active) memtable entry, remove it physically
    /// and return true; otherwise the caller must write a tombstone. Avoids
    /// unbounded tombstone churn for MVCC version GC on hot keys.
    pub fn gc_remove_if_in_memtable(&mut self, key: &[u8]) -> bool {
        if self.memtable.get(key).is_some() && !self.frozen.iter().any(|f| f.mem.get(key).is_some())
        {
            self.memtable.remove(key);
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Background jobs
    // ------------------------------------------------------------------

    /// Claims the next background job that is due, or `None` if nothing
    /// can start now. This is the one flush/compaction policy: the oldest
    /// frozen memtable's flush if no flush is in flight, otherwise the
    /// top-scored compaction on an unlocked level pair while fewer than
    /// [`COMPACTION_SLOTS`] compactions run.
    pub fn begin_job(&mut self) -> Option<Job> {
        if let Some(flush) = self.begin_flush() {
            return Some(Job::Flush(flush));
        }
        if self.compactions_in_flight() >= COMPACTION_SLOTS {
            return None;
        }
        let level = self.pick_compaction()?;
        Some(Job::Compaction(self.begin_compaction(level)))
    }

    /// Completes a job claimed by [`Lsm::begin_job`], installing its
    /// output and attributing its bytes.
    pub fn finish_job(&mut self, job: Job) {
        match job {
            Job::Flush(flush) => self.finish_flush(flush),
            Job::Compaction(compaction) => self.finish_compaction(compaction),
        }
    }

    /// Runs every due job inline until [`Lsm::begin_job`] finds nothing
    /// more to start.
    pub fn settle(&mut self) {
        while let Some(job) = self.begin_job() {
            self.finish_job(job);
        }
    }

    /// Freezes the active memtable if it reached the configured size.
    fn rotate_if_full(&mut self) {
        if self.memtable.approx_bytes() >= self.config.memtable_size {
            self.freeze_active();
        }
    }

    /// Unconditionally freezes a non-empty active memtable: O(1) rotation
    /// that keeps the frozen contents readable while a flush job drains
    /// them. Returns whether anything was frozen.
    pub fn freeze_active(&mut self) -> bool {
        if self.memtable.is_empty() {
            return false;
        }
        let mem = std::mem::take(&mut self.memtable);
        let id = self.next_frozen_id;
        self.next_frozen_id += 1;
        self.frozen.push_back(FrozenMemtable { id, mem });
        true
    }

    /// Claims the oldest frozen memtable for flushing (at most one flush
    /// in flight). The memtable keeps serving reads until
    /// [`Lsm::finish_flush`] installs its L0 table.
    fn begin_flush(&mut self) -> Option<FlushJob> {
        if self.flush_inflight.is_some() {
            return None;
        }
        let f = self.frozen.front()?;
        self.flush_inflight = Some(f.id);
        Some(FlushJob { frozen_id: f.id, bytes: f.mem.approx_bytes() as u64 })
    }

    /// Completes a claimed flush: builds the L0 table, retires the frozen
    /// memtable, and attributes the flushed bytes — all at job completion,
    /// which is when a real engine's bytes hit disk.
    fn finish_flush(&mut self, job: FlushJob) {
        assert_eq!(
            self.flush_inflight.take(),
            Some(job.frozen_id),
            "finish_flush for a job that is not in flight"
        );
        let f = self.frozen.pop_front().expect("in-flight flush implies a frozen memtable");
        assert_eq!(f.id, job.frozen_id, "flushes complete oldest-first");
        let table = SsTable::new(self.next_file_num, f.mem.into_entries());
        self.next_file_num += 1;
        self.metrics.flush_bytes += table.size() as u64;
        self.metrics.flush_count += 1;
        self.l0.push(table);
        if self.memtable.is_empty() && self.frozen.is_empty() {
            // Everything appended is now durable in data files.
            let group = self.wal.truncate().expect("wal truncate");
            self.note_group(group);
        }
    }

    /// Number of frozen memtables awaiting flush.
    pub fn frozen_count(&self) -> usize {
        self.frozen.len()
    }

    /// Whether a flush job is currently claimed.
    pub fn flush_in_flight(&self) -> bool {
        self.flush_inflight.is_some()
    }

    /// Scores every unlocked level pair and returns the source level of
    /// the most urgent compaction, if any level is at or past its trigger.
    /// Returns `None` while every eligible level is below trigger or the
    /// needed level pairs are locked by in-flight jobs.
    fn pick_compaction(&self) -> Option<usize> {
        // (score ×1000 where 1000 = exactly at trigger, source level)
        let mut best: Option<(u64, usize)> = None;
        for level in 0..self.levels.len() {
            if self.locked_levels.contains(&level) || self.locked_levels.contains(&(level + 1)) {
                continue;
            }
            let (score_milli, triggered) = if level == 0 {
                let unclaimed = self.l0.len() - self.claimed_l0.len();
                let score = (unclaimed as u64 * 1000) / self.config.l0_compaction_threshold as u64;
                (score, unclaimed >= self.config.l0_compaction_threshold)
            } else {
                let size: usize = self.levels[level - 1].iter().map(|t| t.size()).sum();
                let target = self.config.level_target(level) as u64;
                let score = (size as u64 * 1000) / target;
                (score, size as u64 > target)
            };
            if triggered && best.is_none_or(|(b, _)| score_milli > b) {
                best = Some((score_milli, level));
            }
        }
        best.map(|(_, level)| level)
    }

    /// Claims a compaction out of `level`: records the input/target file
    /// numbers and locks the `{level, level+1}` pair. The claimed files
    /// stay in the tree (and readable) until [`Lsm::finish_compaction`].
    fn begin_compaction(&mut self, level: usize) -> CompactionJob {
        assert!(
            !self.locked_levels.contains(&level) && !self.locked_levels.contains(&(level + 1)),
            "level pair {{{level}, {}}} already locked",
            level + 1
        );
        let (input_nums, min, max) = if level == 0 {
            // Claim exactly the oldest T unclaimed files. Oldest-first is
            // load-bearing: the files left behind are newer, so they keep
            // shadowing the L1 output through read precedence.
            let mut unclaimed: Vec<&SsTable> =
                self.l0.iter().filter(|t| !self.claimed_l0.contains(&t.num())).collect();
            unclaimed.sort_by_key(|t| t.num());
            let take = self.config.l0_compaction_threshold;
            assert!(take > 0 && unclaimed.len() >= take, "L0 claim past available files");
            let inputs = &unclaimed[..take];
            let min = inputs.iter().filter_map(|t| t.min_key()).min().cloned();
            let max = inputs.iter().filter_map(|t| t.max_key()).max().cloned();
            let nums: Vec<u64> = inputs.iter().map(|t| t.num()).collect();
            self.claimed_l0.extend(nums.iter().copied());
            (nums, min, max)
        } else {
            let idx = level - 1;
            assert!(!self.levels[idx].is_empty(), "picked an empty level");
            let cursor = self.cursors[idx] % self.levels[idx].len();
            self.cursors[idx] = cursor + 1;
            let file = &self.levels[idx][cursor];
            (vec![file.num()], file.min_key().cloned(), file.max_key().cloned())
        };
        let target_nums = overlapping_nums(&self.levels[level], min.as_deref(), max.as_deref());
        let input_bytes: u64 = self
            .level_tables(level)
            .iter()
            .filter(|t| input_nums.contains(&t.num()))
            .map(|t| t.size() as u64)
            .sum();
        let target_bytes: u64 = self.levels[level]
            .iter()
            .filter(|t| target_nums.contains(&t.num()))
            .map(|t| t.size() as u64)
            .sum();
        self.locked_levels.insert(level);
        self.locked_levels.insert(level + 1);
        CompactionJob { level, input_nums, target_nums, bytes_in: input_bytes + target_bytes }
    }

    /// Completes a claimed compaction: detaches the claimed files, merges
    /// them through the streaming [`MergeIter`] straight into the table
    /// builder (only surviving entries are materialized), installs the
    /// outputs into the target level, attributes the bytes, and unlocks
    /// the level pair.
    fn finish_compaction(&mut self, job: CompactionJob) {
        let CompactionJob { level, input_nums, target_nums, bytes_in } = job;
        debug_assert!(
            self.locked_levels.contains(&level) && self.locked_levels.contains(&(level + 1)),
            "finishing a compaction whose level pair is not locked"
        );
        let mut inputs = if level == 0 {
            for n in &input_nums {
                self.claimed_l0.remove(n);
            }
            extract_by_num(&mut self.l0, &input_nums)
        } else {
            extract_by_num(&mut self.levels[level - 1], &input_nums)
        };
        // Newest first among L0 inputs so key collisions resolve to the
        // most recent claimed version; the target run is older than all of
        // them and non-overlapping within itself.
        inputs.sort_by_key(|t| std::cmp::Reverse(t.num()));
        let targets = extract_by_num(&mut self.levels[level], &target_nums);
        let is_bottom = level + 1 == self.levels.len();
        let mut builder = TableBuilder::new(self.config.sst_target_size, self.next_file_num);
        {
            let sources: Vec<Source<'_>> =
                inputs.iter().chain(targets.iter()).map(|t| Source::Slice(t.entries())).collect();
            for (k, v) in MergeIter::new(sources) {
                if is_bottom && v.is_none() {
                    continue; // nothing below the bottom can be shadowed
                }
                builder.add(k.clone(), v.clone());
            }
        }
        let (tables, next_num) = builder.finish();
        self.next_file_num = next_num;
        let bytes_out: u64 = tables.iter().map(|t| t.size() as u64).sum();
        let target = &mut self.levels[level];
        target.extend(tables);
        target.sort_by(|a, b| a.min_key().cmp(&b.min_key()));
        debug_assert!(
            target.windows(2).all(|w| w[0].max_key() < w[1].min_key()),
            "level {} must stay non-overlapping",
            level + 1
        );
        self.metrics.compact_bytes_in += bytes_in;
        self.metrics.compact_bytes_out += bytes_out;
        self.metrics.compact_count += 1;
        if level == 0 {
            self.metrics.l0_compact_bytes += bytes_in;
        }
        self.metrics.compact_bytes_per_level[level.min(COMPACT_LEVELS_TRACKED - 1)] += bytes_in;
        self.locked_levels.remove(&level);
        self.locked_levels.remove(&(level + 1));
    }

    /// Number of compaction jobs currently claimed.
    pub fn compactions_in_flight(&self) -> usize {
        self.locked_levels.len() / 2
    }

    fn level_tables(&self, source_level: usize) -> &[SsTable] {
        if source_level == 0 {
            &self.l0
        } else {
            &self.levels[source_level - 1]
        }
    }

    // ------------------------------------------------------------------
    // Backpressure
    // ------------------------------------------------------------------

    /// Whether a write should stall right now, and why: a flush backlog
    /// (frozen memtables piling up) or an L0 backlog (compaction falling
    /// behind). Embedders consult this *before* applying a write; the
    /// signal also reaches admission control via stall metrics.
    pub fn write_stall(&self) -> Option<StallReason> {
        if self.frozen.len() >= self.config.max_frozen_memtables {
            Some(StallReason::MemtableBacklog)
        } else if self.l0.len() >= self.config.l0_stall_threshold {
            Some(StallReason::L0Backlog)
        } else {
            None
        }
    }

    /// Records time a write spent stalled on backpressure.
    pub fn note_stall(&mut self, micros: u64) {
        self.metrics.stall_events += 1;
        self.metrics.stall_micros += micros;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of files currently in L0.
    pub fn l0_file_count(&self) -> usize {
        self.l0.len()
    }

    /// Sizes of L1.. in bytes.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.iter().map(|t| t.size()).sum()).collect()
    }

    /// Read amplification: number of sorted runs a point read may consult.
    pub fn read_amplification(&self) -> usize {
        1 + self.frozen.len() + self.l0.len() + self.levels.iter().filter(|l| !l.is_empty()).count()
    }

    /// Total bytes across memtables (active + frozen) and all tables.
    pub fn total_bytes(&self) -> usize {
        self.memtable.approx_bytes()
            + self.frozen.iter().map(|f| f.mem.approx_bytes()).sum::<usize>()
            + self.l0.iter().map(|t| t.size()).sum::<usize>()
            + self.level_sizes().iter().sum::<usize>()
    }

    /// Cumulative instrumentation counters, including read-path counters.
    pub fn metrics(&self) -> StorageMetrics {
        let mut m = self.metrics;
        m.point_gets = self.read.point_gets.get();
        m.tables_probed = self.read.tables_probed.get();
        m.bloom_probes = self.read.bloom_probes.get();
        m.bloom_hits = self.read.bloom_hits.get();
        m.scans = self.read.scans.get();
        m.scan_entries_pulled = self.read.scan_entries_pulled.get();
        m.scan_entries_returned = self.read.scan_entries_returned.get();
        m
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }
}

/// A streaming scan over an [`Lsm`]'s live entries in `[start, end)`.
/// Yields borrowed `(key, value)` pairs in ascending key order; tombstones
/// and shadowed versions never surface. Entries-pulled/returned counts are
/// folded into the engine's [`StorageMetrics`] when the iterator drops.
pub struct LsmIter<'a> {
    inner: MergeIter<'a>,
    counters: &'a ReadCounters,
    pulled: u64,
    returned: u64,
}

impl<'a> Iterator for LsmIter<'a> {
    type Item = (&'a Key, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        for (k, v) in self.inner.by_ref() {
            self.pulled += 1;
            if let Some(v) = v {
                self.returned += 1;
                return Some((k, v));
            }
        }
        None
    }
}

impl Drop for LsmIter<'_> {
    fn drop(&mut self) {
        let c = self.counters;
        c.scan_entries_pulled.set(c.scan_entries_pulled.get() + self.pulled);
        c.scan_entries_returned.set(c.scan_entries_returned.get() + self.returned);
    }
}

/// File numbers in `level` whose key ranges overlap `[min, max]`
/// (inclusive), in level order.
fn overlapping_nums(level: &[SsTable], min: Option<&[u8]>, max: Option<&[u8]>) -> Vec<u64> {
    let (Some(min), Some(max)) = (min, max) else {
        return Vec::new();
    };
    level
        .iter()
        .filter(|t| match (t.min_key(), t.max_key()) {
            (Some(tmin), Some(tmax)) => tmin.as_ref() <= max && tmax.as_ref() >= min,
            _ => false,
        })
        .map(|t| t.num())
        .collect()
}

/// Removes and returns the tables with the given file numbers, preserving
/// the order of `tables`. Panics if any number is missing — a claimed file
/// must still be present at job completion.
fn extract_by_num(tables: &mut Vec<SsTable>, nums: &[u64]) -> Vec<SsTable> {
    let want: BTreeSet<u64> = nums.iter().copied().collect();
    let mut taken = Vec::with_capacity(nums.len());
    let mut i = 0;
    while i < tables.len() {
        if want.contains(&tables[i].num()) {
            taken.push(tables.remove(i));
        } else {
            i += 1;
        }
    }
    assert_eq!(taken.len(), nums.len(), "claimed tables must still be present");
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("key{i:06}"))
    }

    fn value(i: u32) -> Bytes {
        Bytes::from(format!("value-{i:06}-{}", "x".repeat(32)))
    }

    /// Puts `key(i) → value(i)` and runs every job that falls due.
    fn put_settled(lsm: &mut Lsm, i: u32) {
        lsm.put(key(i), value(i));
        lsm.settle();
    }

    /// Tiny config with a memtable too big to rotate on its own — tests
    /// that drive `freeze_active` by hand need rotation under their
    /// control.
    fn manual_rotation_config() -> LsmConfig {
        LsmConfig { memtable_size: 1 << 20, ..LsmConfig::tiny() }
    }

    /// Freezes the active memtable and flushes it into one new L0 file.
    fn flush_one(lsm: &mut Lsm) {
        assert!(lsm.freeze_active());
        let job = lsm.begin_job().expect("a flush is due");
        assert!(matches!(job, Job::Flush(_)), "flushes are claimed first: {job:?}");
        lsm.finish_job(job);
    }

    #[test]
    fn put_get_through_flush_and_compaction() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..500 {
            put_settled(&mut lsm, i);
        }
        assert!(lsm.metrics().flush_count > 0, "flushes happened");
        assert!(lsm.metrics().compact_count > 0, "compactions happened");
        for i in (0..500).step_by(37) {
            assert_eq!(lsm.get(&key(i)), Some(value(i)), "key {i}");
        }
        assert_eq!(lsm.get(b"nonexistent"), None);
    }

    #[test]
    fn overwrites_visible_after_compaction() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for round in 0..5u32 {
            for i in 0..100 {
                lsm.put(key(i), Bytes::from(format!("round{round}-{i}")));
                lsm.settle();
            }
        }
        for i in (0..100).step_by(13) {
            assert_eq!(lsm.get(&key(i)), Some(Bytes::from(format!("round4-{i}"))));
        }
    }

    #[test]
    fn deletes_shadow_older_values() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..200 {
            put_settled(&mut lsm, i);
        }
        for i in (0..200).step_by(2) {
            lsm.delete(key(i));
            lsm.settle();
        }
        lsm.freeze_active();
        lsm.settle();
        for i in 0..200 {
            let got = lsm.get(&key(i));
            if i % 2 == 0 {
                assert_eq!(got, None, "deleted key {i} resurfaced");
            } else {
                assert_eq!(got, Some(value(i)), "live key {i} lost");
            }
        }
    }

    #[test]
    fn scan_merges_all_levels_in_order() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in (0..300).rev() {
            put_settled(&mut lsm, i);
        }
        let out = lsm.scan(&key(100), &key(110), 1000);
        assert_eq!(out.len(), 10);
        for (n, (k, v)) in out.iter().enumerate() {
            assert_eq!(k, &key(100 + n as u32));
            assert_eq!(v, &value(100 + n as u32));
        }
    }

    #[test]
    fn scan_respects_limit_and_tombstones() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..50 {
            put_settled(&mut lsm, i);
        }
        lsm.delete(key(0));
        let out = lsm.scan(&key(0), &key(50), 5);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].0, key(1), "tombstoned key skipped");
    }

    #[test]
    fn metrics_account_write_amplification() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..1000 {
            lsm.put(key(i % 100), value(i));
            lsm.settle();
        }
        let m = lsm.metrics();
        assert!(m.logical_bytes_written > 0);
        assert!(m.wal_bytes >= m.logical_bytes_written, "WAL framing adds bytes");
        assert!(m.write_amplification() > 1.0, "amp={}", m.write_amplification());
        assert!(m.l0_compact_bytes > 0);
        assert_eq!(
            m.compact_bytes_per_level[0], m.l0_compact_bytes,
            "per-level L0 slot mirrors the l0 counter"
        );
    }

    #[test]
    fn read_amp_shrinks_after_settling() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        // No jobs run while writing: full memtables pile up frozen.
        for i in 0..400 {
            lsm.put(key(i), value(i));
        }
        let before = lsm.read_amplification();
        lsm.settle();
        let after = lsm.read_amplification();
        assert!(after < before, "read amp {before} -> {after}");
        assert_eq!(lsm.frozen_count(), 0);
        assert!(lsm.l0_file_count() < lsm.config().l0_compaction_threshold);
    }

    #[test]
    fn empty_engine_behaves() {
        let mut lsm = Lsm::new(LsmConfig::default());
        assert_eq!(lsm.get(b"k"), None);
        assert!(lsm.scan(b"a", b"z", 10).is_empty());
        assert_eq!(lsm.read_amplification(), 1);
        assert_eq!(lsm.total_bytes(), 0);
        assert!(lsm.begin_job().is_none());
        assert!(lsm.write_stall().is_none());
    }

    #[test]
    fn bloom_filters_cut_point_probes() {
        // L0 never compacts here, so each flush leaves its own file.
        let config = LsmConfig {
            l0_compaction_threshold: 16,
            l0_stall_threshold: 32,
            ..manual_rotation_config()
        };
        let mut lsm = Lsm::new(config);
        // Disjoint key ranges per L0 file: probes for one range should be
        // filtered out of every other file.
        for file in 0..8u32 {
            for i in 0..20 {
                lsm.put(key(file * 1000 + i), value(i));
            }
            lsm.freeze_active();
            lsm.settle();
        }
        assert_eq!(lsm.l0_file_count(), 8);
        for file in 0..8u32 {
            assert_eq!(lsm.get(&key(file * 1000 + 7)), Some(value(7)));
        }
        let m = lsm.metrics();
        assert_eq!(m.point_gets, 8);
        assert!(m.bloom_probes > 0);
        assert!(m.bloom_hit_rate() > 0.0, "filters skipped non-matching L0 files");
        assert!(
            m.tables_probed_per_get() < lsm.read_amplification() as f64,
            "probed {} of {} runs per get",
            m.tables_probed_per_get(),
            lsm.read_amplification()
        );
    }

    #[test]
    fn scan_limit_pushdown_bounds_pulled_entries() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..2000 {
            put_settled(&mut lsm, i);
        }
        let before = lsm.metrics();
        let out = lsm.scan(&key(0), &key(2000), 5);
        assert_eq!(out.len(), 5);
        let d = lsm.metrics().delta(&before);
        assert_eq!(d.scans, 1);
        assert_eq!(d.scan_entries_returned, 5);
        // With pushdown a limit-5 scan pulls a handful of entries per
        // source, not the whole 2000-key span.
        assert!(
            d.scan_entries_pulled < 100,
            "pulled {} entries for a limit-5 scan",
            d.scan_entries_pulled
        );
    }

    #[test]
    fn streaming_scan_matches_eager_scan() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..600 {
            lsm.put(key(i % 300), value(i));
            lsm.settle();
        }
        for i in (0..300).step_by(3) {
            lsm.delete(key(i));
        }
        for limit in [0, 1, 7, 100, usize::MAX] {
            assert_eq!(
                lsm.scan(&key(10), &key(290), limit),
                lsm.scan_eager(&key(10), &key(290), limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn scan_visit_stops_early() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..500 {
            put_settled(&mut lsm, i);
        }
        let mut seen = Vec::new();
        lsm.scan_visit(&key(0), &key(500), |k, _| {
            seen.push(k.clone());
            seen.len() < 3
        });
        assert_eq!(seen, vec![key(0), key(1), key(2)]);
    }

    #[test]
    fn iter_streams_in_order_across_levels() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for i in (0..100).rev() {
            lsm.put(key(i), value(i));
            if i % 25 == 0 {
                lsm.freeze_active();
                // The last batch stays frozen: sources span a frozen
                // memtable, L0 and L1.
                if i > 0 {
                    lsm.settle();
                }
            }
        }
        assert_eq!((lsm.frozen_count(), lsm.l0_file_count()), (1, 1));
        assert!(lsm.level_sizes()[0] > 0);
        let start = key(0);
        let end = key(100);
        let collected: Vec<_> =
            lsm.iter(&start, &end).map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(collected.len(), 100);
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0), "ascending key order");
    }

    #[test]
    fn bytes_survive_in_levels() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..500 {
            put_settled(&mut lsm, i);
        }
        lsm.freeze_active();
        lsm.settle();
        assert!(lsm.total_bytes() > 0);
        let sizes = lsm.level_sizes();
        assert!(sizes.iter().sum::<usize>() > 0, "{sizes:?}");
    }

    // ------------------------------------------------------------------
    // Write-pipeline tests
    // ------------------------------------------------------------------

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..10 {
            lsm.put(key(i), value(i));
        }
        assert_eq!(lsm.metrics().fsyncs, 0, "no sync until the group commits");
        assert_eq!(lsm.wal_unsynced_batches(), 10);
        let g = lsm.group_commit();
        assert_eq!(g.batches, 10);
        let m = lsm.metrics();
        assert_eq!(m.fsyncs, 1);
        assert_eq!(m.batches_synced, 10);
        assert!((m.batches_per_fsync() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn group_commit_through_leaves_later_batches_pending() {
        let mut lsm = Lsm::new(LsmConfig::tiny());
        for i in 0..6 {
            lsm.put(key(i), value(i));
        }
        let g = lsm.group_commit_through(4);
        assert_eq!((g.batches, g.last_seq), (4, 4));
        assert_eq!(lsm.wal_unsynced_batches(), 2);
        let g = lsm.group_commit();
        assert_eq!((g.batches, g.last_seq), (2, 6));
    }

    #[test]
    fn pipelined_flush_keeps_reads_consistent() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for i in 0..50 {
            lsm.put(key(i), value(i));
        }
        assert!(lsm.freeze_active());
        // Writes keep landing in the fresh active memtable.
        for i in 50..60 {
            lsm.put(key(i), value(i));
        }
        lsm.put(key(3), b("overwrite"));
        let job = lsm.begin_job().expect("one frozen memtable");
        assert!(matches!(job, Job::Flush(_)));
        assert!(lsm.flush_in_flight());
        assert!(job.bytes() > 0);
        // Mid-flight: frozen data and newer overwrites both visible.
        assert_eq!(lsm.get(&key(10)), Some(value(10)), "frozen entry readable mid-flush");
        assert_eq!(lsm.get(&key(3)), Some(b("overwrite")), "active shadows frozen");
        assert_eq!(lsm.metrics().flush_bytes, 0, "bytes attributed at completion only");
        lsm.finish_job(job);
        assert_eq!(lsm.frozen_count(), 0);
        assert_eq!(lsm.l0_file_count(), 1);
        assert!(lsm.metrics().flush_bytes > 0);
        assert_eq!(lsm.get(&key(10)), Some(value(10)), "entry readable from L0");
        assert_eq!(lsm.get(&key(3)), Some(b("overwrite")));
    }

    /// Installs one table holding `keys` directly into `level` (0 = L0).
    fn install(lsm: &mut Lsm, level: usize, keys: std::ops::Range<u32>) {
        let entries = keys.map(|i| (key(i), Some(value(i)))).collect();
        let table = SsTable::new(lsm.next_file_num, entries);
        lsm.next_file_num += 1;
        match level {
            0 => lsm.l0.push(table),
            n => lsm.levels[n - 1].push(table),
        }
    }

    fn level_of(job: &Job) -> Option<usize> {
        match job {
            Job::Flush(_) => None,
            Job::Compaction(c) => Some(c.level),
        }
    }

    #[test]
    fn begin_job_claims_one_flush_then_compactions_up_to_the_slots() {
        // Every level below L0 targets one byte, so each non-empty level
        // is over target; bigger levels score higher.
        let config = LsmConfig {
            level_base_size: 1,
            level_size_multiplier: 1,
            num_levels: 6,
            ..manual_rotation_config()
        };
        let mut lsm = Lsm::new(config);
        install(&mut lsm, 0, 0..10);
        install(&mut lsm, 0, 5..15);
        install(&mut lsm, 2, 100..120);
        install(&mut lsm, 3, 200..240);
        install(&mut lsm, 5, 300..330);
        for round in 0..2 {
            lsm.put(key(1000 + round), value(round));
            lsm.freeze_active();
        }

        // A flush comes first, and only one runs at a time.
        let flush = lsm.begin_job().expect("flush due");
        assert!(matches!(flush, Job::Flush(_)));
        // Then the top-scored compactions on disjoint level pairs: L3
        // locks {3, 4}, which rules out L2 ({2, 3}); L5 ({5, 6}) is free.
        let l3 = lsm.begin_job().expect("compaction due");
        assert_eq!(level_of(&l3), Some(3));
        let l5 = lsm.begin_job().expect("second compaction slot");
        assert_eq!(level_of(&l5), Some(5));
        // L0 ({0, 1}) is triggered and unlocked, but both slots are taken.
        assert_eq!(lsm.pick_compaction(), Some(0));
        assert_eq!(lsm.compactions_in_flight(), COMPACTION_SLOTS);
        assert!(lsm.begin_job().is_none(), "no third compaction, no second flush");
        // Reads stay consistent with every job mid-flight.
        assert_eq!(lsm.get(&key(7)), Some(value(7)));
        assert_eq!(lsm.get(&key(210)), Some(value(210)));
        assert_eq!(lsm.get(&key(1001)), Some(value(1)));

        // Finishing the flush frees the flush lane even with full slots.
        lsm.finish_job(flush);
        let flush = lsm.begin_job().expect("second flush");
        assert!(matches!(flush, Job::Flush(_)));
        lsm.finish_job(flush);
        // Finishing out of claim order frees L3's pair: L2 now outscores
        // L0, while L4 ({4, 5}) stays locked by the L5 job.
        lsm.finish_job(l3);
        let l2 = lsm.begin_job().expect("slot freed");
        assert_eq!(level_of(&l2), Some(2));
        assert!(lsm.begin_job().is_none());
        lsm.finish_job(l5);
        lsm.finish_job(l2);
        lsm.settle();
        assert_eq!(lsm.compactions_in_flight(), 0);
        for i in [3, 110, 220, 310, 1000] {
            assert_eq!(lsm.get(&key(i)), Some(value(i % 1000)), "key {i}");
        }
    }

    #[test]
    fn l0_jobs_claim_oldest_files_and_leave_newer_readable() {
        let mut lsm = Lsm::new(manual_rotation_config());
        // Three L0 files over the same key, oldest value first.
        for (n, v) in ["v-old", "v-mid", "v-new"].iter().enumerate() {
            lsm.put(key(1), b(v));
            lsm.put(key(100 + n as u32), value(n as u32));
            flush_one(&mut lsm);
        }
        assert_eq!(lsm.l0_file_count(), 3);
        let job = lsm.begin_job().expect("L0 over threshold");
        let Job::Compaction(c) = &job else { panic!("expected a compaction: {job:?}") };
        assert_eq!(c.level, 0);
        // threshold = 2: exactly the two oldest files are claimed.
        assert_eq!(c.input_nums, vec![1, 2], "oldest-first claim");
        assert!(job.bytes() > 0);
        // Mid-flight: the newest (unclaimed) file still shadows, and the
        // locked {0, 1} pair admits no second L0 job.
        assert_eq!(lsm.get(&key(1)), Some(b("v-new")));
        assert_eq!(lsm.pick_compaction(), None, "L0/L1 locked while the job runs");
        lsm.finish_job(job);
        assert_eq!(lsm.l0_file_count(), 1, "unclaimed file stays in L0");
        assert_eq!(lsm.get(&key(1)), Some(b("v-new")), "newest version survives the merge");
        assert_eq!(lsm.get(&key(100)), Some(value(0)), "compacted data readable from L1");
    }

    #[test]
    fn compaction_bytes_attributed_at_completion() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for round in 0..2u32 {
            for i in 0..40 {
                lsm.put(key(i), value(round * 1000 + i));
            }
            flush_one(&mut lsm);
        }
        let job = lsm.begin_job().unwrap();
        assert_eq!(level_of(&job), Some(0));
        let mid = lsm.metrics();
        assert_eq!(mid.compact_bytes_in, 0, "no bytes before completion");
        assert_eq!(mid.compact_count, 0);
        let expected_in = job.bytes();
        lsm.finish_job(job);
        let done = lsm.metrics();
        assert_eq!(done.compact_bytes_in, expected_in);
        assert_eq!(done.l0_compact_bytes, expected_in);
        assert_eq!(done.compact_bytes_per_level[0], expected_in);
        assert!(done.compact_bytes_out > 0);
        assert_eq!(done.compact_count, 1);
    }

    #[test]
    fn write_stall_signals_flush_and_l0_backlogs() {
        let config = LsmConfig {
            max_frozen_memtables: 2,
            l0_compaction_threshold: 4,
            l0_stall_threshold: 3,
            ..manual_rotation_config()
        };
        let mut lsm = Lsm::new(config);
        assert!(lsm.write_stall().is_none());
        for round in 0..2u32 {
            for i in 0..20 {
                lsm.put(key(round * 100 + i), value(i));
            }
            lsm.freeze_active();
        }
        assert_eq!(lsm.write_stall(), Some(StallReason::MemtableBacklog));
        // Drain the flush backlog into L0, then add files until the L0
        // stall trips.
        lsm.settle();
        assert!(lsm.write_stall().is_none(), "two L0 files are under the stall threshold");
        for round in 2..4u32 {
            for i in 0..20 {
                lsm.put(key(round * 100 + i), value(i));
            }
            flush_one(&mut lsm);
        }
        assert_eq!(lsm.write_stall(), Some(StallReason::L0Backlog));
        lsm.note_stall(250);
        let m = lsm.metrics();
        assert_eq!((m.stall_events, m.stall_micros), (1, 250));
        // Compacting L0 away clears the stall.
        lsm.settle();
        assert!(lsm.write_stall().is_none());
    }

    #[test]
    fn wal_truncates_once_everything_is_flushed() {
        let mut lsm = Lsm::new(manual_rotation_config());
        for i in 0..30 {
            lsm.put(key(i), value(i));
        }
        assert!(lsm.wal_unsynced_batches() > 0);
        lsm.freeze_active();
        lsm.settle();
        // Active and frozen both empty after the flush → WAL truncated,
        // and the unsynced batches were surfaced as durable-via-data.
        assert_eq!(lsm.wal_unsynced_batches(), 0);
        assert!(lsm.metrics().batches_synced >= 30);
    }
}
