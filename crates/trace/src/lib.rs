//! # ld-trace — the observability layer of the GEMM-LD stack
//!
//! The paper's argument is quantitative: Figs. 3–5 and Tables I–III all
//! hinge on knowing where cycles go in each GotoBLAS layer (pack-Ã /
//! pack-B̃, micro-kernel, statistic transform). This crate gives every
//! compute crate a shared, dependency-free set of **monotonic counters**
//! and **scoped timers**, plus [`MetricsReport`] — a stable-schema
//! snapshot with JSON export that `ld-cli --profile` and `ld-bench` emit
//! and CI validates against `schemas/metrics.schema.json`.
//!
//! ## Zero-cost when disabled
//!
//! Everything is gated on the cargo feature `metrics`. With the feature
//! **off** (the default), every entry point is an inlined empty function,
//! [`Stopwatch`] is a zero-sized type that never reads a clock, and no
//! atomics exist — the instrumented hot paths compile to exactly the
//! uninstrumented code. With the feature **on**, counters are relaxed
//! atomic adds on static storage (no allocation, ever, on the hot path —
//! the fault-injection harness in `ld-core` runs with metrics enabled).
//!
//! ## Counter semantics (the layer map)
//!
//! | counter | layer | meaning |
//! |---|---|---|
//! | `pack_a_ns` | pack | time packing Ã micro-panels (MR-interleaved) |
//! | `pack_b_ns` | pack | time packing B̃ micro-panels (NR-interleaved) |
//! | `kernel_ns` | micro-kernel | time in the register-tile loops (AND+POPCNT+accumulate and the C scatter) |
//! | `kernel_tiles` | micro-kernel | distinct `MR×NR` micro-tiles computed (counted once per tile, not per rank-k pass) |
//! | `kernel_words` | micro-kernel | AND+POPCNT word-pair operations: `Σ kc·MR·NR` over every kernel invocation |
//! | `transform_ns` | transform | time in the batched `D = H − p pᵀ` statistic transform |
//! | `bytes_packed` | pack | bytes written into pack buffers (`8 ×` packed words) |
//! | `slabs_emitted` | driver | row slabs completed by the fused pipeline |
//! | `budget_shrinks` | driver | times the memory budget shrank the slab height |
//! | `alloc_peak_bytes` | driver | high-water mark of the *modeled* transient footprint (scratch + output) |
//! | `tiles_claimed` | parallel | dynamic-scheduler chunks claimed (also per worker) |
//! | `steal_count` | parallel | chunks a worker claimed out of its static even-split share (load-balance events; timing-dependent) |
//! | `io_lines_read` | io | text lines parsed (also per format) |
//! | `io_bytes_read` | io | input bytes consumed (also per format) |
//! | `cancel_polls` | driver | cancellation-token polls (one per *computed* slab; slab-granular, never per-tile) |
//! | `checkpoints_written` | driver | checkpoint snapshots flushed (periodic + final; wall-clock dependent) |
//! | `resume_slabs_skipped` | driver | slabs restored from a checkpoint instead of recomputed |
//! | `trace_events_dropped` | trace | flight-recorder span events dropped because a per-worker ring filled |
//! | `shards_launched` | supervisor | shard child processes spawned by `run-sharded` (incl. retries) |
//! | `shard_retries` | supervisor | shard attempts re-dispatched after a failure classification |
//! | `merge_spans_validated` | merge | shard slab spans that passed fingerprint/geometry validation during merge |
//! | `chunks_read` | store | tile-store chunks decoded by the out-of-core driver |
//! | `store_bytes_read` | store | bytes streamed out of a tile store (decoded chunk payload + header) |
//! | `prefetch_hits` | store | chunk reads the prefetch thread had ready before compute asked |
//! | `prefetch_stall_ns` | store | nanoseconds compute spent waiting on a chunk the prefetcher had not finished |
//! | `requests_accepted` | serve | queries the `ld-serve` admission controller enqueued |
//! | `requests_shed` | serve | queries rejected by admission control (queue full, memory budget, queue-deadline expiry) |
//! | `requests_failed` | serve | accepted queries that failed (worker panic, internal error) |
//! | `panels_evicted` | serve | resident `LdMatrix` panels evicted from the LRU cache under memory pressure |
//!
//! Counts (`kernel_tiles`, `kernel_words`, `bytes_packed`,
//! `slabs_emitted`, `io_*`, `cancel_polls`, `resume_slabs_skipped`,
//! `merge_spans_validated`, `chunks_read`, `store_bytes_read`) are
//! **deterministic** — independent of thread
//! count and wall time; the `*_ns` timers, `steal_count`,
//! `checkpoints_written` (its periodic trigger is wall-clock based),
//! the supervisor counters (`shards_launched`, `shard_retries` — retries
//! depend on fault timing), the prefetch race counters
//! (`prefetch_hits`, `prefetch_stall_ns` — whether a read wins the race
//! against compute is pure timing) and the serving counters
//! (`requests_*`, `panels_evicted` — functions of client arrival timing
//! and queue/budget pressure) are not.
//!
//! Beyond the counters, the serving layer records a **request-latency
//! histogram** ([`record_request_latency`] / [`latency_snapshot`]):
//! fixed log₂ buckets on static atomics — allocation-free like every
//! other hot-path entry point — from which [`LatencySummary`] derives
//! the p50/p99 the `ld-serve` health endpoint and `BENCH_serve.json`
//! report.
//! `kernel_words` against elapsed cycles gives the §IV ops/cycle metric:
//! the scalar peak is 3 ops/cycle = 1 word-pair/cycle (AND ∥ POPCNT ∥
//! ADD), so `words/cycle × 3` is directly comparable to that peak.

#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod histogram;
pub mod prometheus;
pub mod recorder;
pub mod telemetry;

use std::fmt::Write as _;

/// Schema version of the JSON produced by [`MetricsReport::to_json`].
/// Bump only when a field is removed or its meaning changes; adding
/// fields is backward-compatible.
pub const SCHEMA_VERSION: u32 = 1;

/// Maximum workers tracked individually; higher worker ids fold into the
/// last slot.
pub const MAX_WORKERS: usize = 64;

/// The global counters. Each is a monotonic `u64`; see the crate docs for
/// the layer map and determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Nanoseconds packing Ã (MR-wide micro-panels).
    PackANs,
    /// Nanoseconds packing B̃ (NR-wide micro-panels).
    PackBNs,
    /// Nanoseconds in the micro-kernel register-tile loops (incl. the C scatter).
    KernelNs,
    /// Nanoseconds in the batched statistic transform.
    TransformNs,
    /// Distinct `MR×NR` micro-tiles computed (once per tile across rank-k passes).
    KernelTiles,
    /// AND+POPCNT word-pair operations (`Σ kc·MR·NR` over kernel calls).
    KernelWords,
    /// Bytes written into pack buffers.
    BytesPacked,
    /// Row slabs completed by the fused pipeline.
    SlabsEmitted,
    /// Times a memory budget shrank the configured slab height.
    BudgetShrinks,
    /// High-water mark of the modeled transient footprint, bytes (gauge: use [`record_peak`]).
    AllocPeakBytes,
    /// Dynamic-scheduler chunks claimed (all workers).
    TilesClaimed,
    /// Chunks claimed outside a worker's static even-split share.
    StealCount,
    /// Text lines parsed by `ld-io`.
    IoLinesRead,
    /// Input bytes consumed by `ld-io`.
    IoBytesRead,
    /// Cancellation-token polls issued by the fused driver (one per
    /// *computed* slab — polling is slab-granular, never per-tile).
    CancelPolls,
    /// Checkpoint snapshots flushed to the sink (periodic + final).
    CheckpointsWritten,
    /// Slabs restored from a checkpoint and skipped by the resumed driver.
    ResumeSlabsSkipped,
    /// Flight-recorder span events dropped because a per-worker ring
    /// buffer filled (see [`recorder`]). Nonzero means the timeline in a
    /// `--trace-out` export is incomplete; raise the ring capacity.
    TraceEventsDropped,
    /// Shard child processes spawned by the `run-sharded` supervisor
    /// (first attempts and retries both count).
    ShardsLaunched,
    /// Shard attempts re-dispatched after a failure classification
    /// (crash, corrupt output, resumable interrupt).
    ShardRetries,
    /// Shard slab spans that passed fingerprint/header/geometry
    /// validation during a shard merge.
    MergeSpansValidated,
    /// Tile-store chunks decoded (CRC-checked) by the out-of-core driver.
    ChunksRead,
    /// Bytes streamed out of a tile store (encoded chunk bytes, header
    /// and CRC trailer included).
    StoreBytesRead,
    /// Chunk reads the prefetch thread had finished before compute asked
    /// for them (the double-buffer won the race).
    PrefetchHits,
    /// Nanoseconds compute spent blocked on a chunk the prefetch thread
    /// had not finished reading yet.
    PrefetchStallNs,
    /// Queries the `ld-serve` admission controller accepted into the
    /// bounded request queue.
    RequestsAccepted,
    /// Queries rejected by admission control — queue full, panel memory
    /// budget exhausted after eviction, or queue-deadline expiry.
    RequestsShed,
    /// Accepted queries that failed with an internal error (worker
    /// panic, panel load failure).
    RequestsFailed,
    /// Resident `LdMatrix` panels evicted from the serve LRU cache to
    /// make room under the memory budget.
    PanelsEvicted,
}

impl Counter {
    /// Number of counters (array sizing).
    pub const COUNT: usize = 29;

    /// All counters, in stable report order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PackANs,
        Counter::PackBNs,
        Counter::KernelNs,
        Counter::TransformNs,
        Counter::KernelTiles,
        Counter::KernelWords,
        Counter::BytesPacked,
        Counter::SlabsEmitted,
        Counter::BudgetShrinks,
        Counter::AllocPeakBytes,
        Counter::TilesClaimed,
        Counter::StealCount,
        Counter::IoLinesRead,
        Counter::IoBytesRead,
        Counter::CancelPolls,
        Counter::CheckpointsWritten,
        Counter::ResumeSlabsSkipped,
        Counter::TraceEventsDropped,
        Counter::ShardsLaunched,
        Counter::ShardRetries,
        Counter::MergeSpansValidated,
        Counter::ChunksRead,
        Counter::StoreBytesRead,
        Counter::PrefetchHits,
        Counter::PrefetchStallNs,
        Counter::RequestsAccepted,
        Counter::RequestsShed,
        Counter::RequestsFailed,
        Counter::PanelsEvicted,
    ];

    /// Stable snake_case name (the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PackANs => "pack_a_ns",
            Counter::PackBNs => "pack_b_ns",
            Counter::KernelNs => "kernel_ns",
            Counter::TransformNs => "transform_ns",
            Counter::KernelTiles => "kernel_tiles",
            Counter::KernelWords => "kernel_words",
            Counter::BytesPacked => "bytes_packed",
            Counter::SlabsEmitted => "slabs_emitted",
            Counter::BudgetShrinks => "budget_shrinks",
            Counter::AllocPeakBytes => "alloc_peak_bytes",
            Counter::TilesClaimed => "tiles_claimed",
            Counter::StealCount => "steal_count",
            Counter::IoLinesRead => "io_lines_read",
            Counter::IoBytesRead => "io_bytes_read",
            Counter::CancelPolls => "cancel_polls",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::ResumeSlabsSkipped => "resume_slabs_skipped",
            Counter::TraceEventsDropped => "trace_events_dropped",
            Counter::ShardsLaunched => "shards_launched",
            Counter::ShardRetries => "shard_retries",
            Counter::MergeSpansValidated => "merge_spans_validated",
            Counter::ChunksRead => "chunks_read",
            Counter::StoreBytesRead => "store_bytes_read",
            Counter::PrefetchHits => "prefetch_hits",
            Counter::PrefetchStallNs => "prefetch_stall_ns",
            Counter::RequestsAccepted => "requests_accepted",
            Counter::RequestsShed => "requests_shed",
            Counter::RequestsFailed => "requests_failed",
            Counter::PanelsEvicted => "panels_evicted",
        }
    }

    /// True when the counter's value is a pure function of the input and
    /// engine configuration — independent of thread count, scheduling and
    /// wall time. The counter-invariant tests pin exactly these.
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            Counter::PackANs
                | Counter::PackBNs
                | Counter::KernelNs
                | Counter::TransformNs
                | Counter::StealCount
                | Counter::AllocPeakBytes
                // periodic checkpoints also fire on a wall-clock cadence
                | Counter::CheckpointsWritten
                // drops depend on event volume, which is timing/sampling dependent
                | Counter::TraceEventsDropped
                // launches/retries depend on fault timing and the retry budget
                | Counter::ShardsLaunched
                | Counter::ShardRetries
                // whether the prefetcher wins the race against compute is
                // pure timing, as is how long a losing read stalls
                | Counter::PrefetchHits
                | Counter::PrefetchStallNs
                // serving counters depend on client arrival timing and
                // queue/budget pressure
                | Counter::RequestsAccepted
                | Counter::RequestsShed
                | Counter::RequestsFailed
                | Counter::PanelsEvicted
        )
    }
}

/// The fixed set of per-format I/O slots ([`io_record`] folds unknown
/// format names into `"other"`).
pub const IO_FORMATS: [&str; 10] = [
    "ms", "vcf", "matrix", "bed", "bim", "fam", "ped", "map", "fasta", "other",
];

#[cfg_attr(not(feature = "metrics"), allow(dead_code))]
fn io_slot(format: &str) -> usize {
    IO_FORMATS
        .iter()
        .position(|&f| f == format)
        .unwrap_or(IO_FORMATS.len() - 1)
}

// ---------------------------------------------------------------------------
// Enabled implementation: static atomics, relaxed ordering.
// ---------------------------------------------------------------------------
#[cfg(feature = "metrics")]
mod imp {
    use super::{io_slot, Counter, MAX_WORKERS};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[allow(clippy::declare_interior_mutable_const)] // array-init pattern
    const ZERO: AtomicU64 = AtomicU64::new(0);

    pub(super) static COUNTERS: [AtomicU64; Counter::COUNT] = [ZERO; Counter::COUNT];
    pub(super) static LATENCY: [AtomicU64; super::LATENCY_BUCKETS] = [ZERO; super::LATENCY_BUCKETS];
    pub(super) static WORKER_TILES: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];
    pub(super) static WORKER_STEALS: [AtomicU64; MAX_WORKERS] = [ZERO; MAX_WORKERS];
    pub(super) static IO_LINES: [AtomicU64; super::IO_FORMATS.len()] =
        [ZERO; super::IO_FORMATS.len()];
    pub(super) static IO_BYTES: [AtomicU64; super::IO_FORMATS.len()] =
        [ZERO; super::IO_FORMATS.len()];
    pub(super) static KERNEL_NAME: Mutex<Option<&'static str>> = Mutex::new(None);

    #[inline]
    pub(super) fn add(c: Counter, v: u64) {
        if v != 0 {
            COUNTERS[c as usize].fetch_add(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(super) fn record_peak(c: Counter, v: u64) {
        COUNTERS[c as usize].fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub(super) fn get(c: Counter) -> u64 {
        COUNTERS[c as usize].load(Ordering::Relaxed)
    }

    #[inline]
    pub(super) fn record_request_latency(ns: u64) {
        LATENCY[super::latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn latency_snapshot() -> [u64; super::LATENCY_BUCKETS] {
        let mut out = [0u64; super::LATENCY_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&LATENCY) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    #[inline]
    pub(super) fn worker_claim(worker: usize, stolen: bool) {
        let w = worker.min(MAX_WORKERS - 1);
        WORKER_TILES[w].fetch_add(1, Ordering::Relaxed);
        add(Counter::TilesClaimed, 1);
        if stolen {
            WORKER_STEALS[w].fetch_add(1, Ordering::Relaxed);
            add(Counter::StealCount, 1);
        }
    }

    #[inline]
    pub(super) fn io_record(format: &str, lines: u64, bytes: u64) {
        let s = io_slot(format);
        if lines != 0 {
            IO_LINES[s].fetch_add(lines, Ordering::Relaxed);
            add(Counter::IoLinesRead, lines);
        }
        if bytes != 0 {
            IO_BYTES[s].fetch_add(bytes, Ordering::Relaxed);
            add(Counter::IoBytesRead, bytes);
        }
    }

    pub(super) fn set_kernel_name(name: &'static str) {
        *KERNEL_NAME
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(name);
    }

    pub(super) fn kernel_name() -> Option<&'static str> {
        *KERNEL_NAME
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(super) fn reset() {
        for c in &COUNTERS {
            c.store(0, Ordering::Relaxed);
        }
        for c in &LATENCY {
            c.store(0, Ordering::Relaxed);
        }
        for c in WORKER_TILES.iter().chain(&WORKER_STEALS) {
            c.store(0, Ordering::Relaxed);
        }
        for c in IO_LINES.iter().chain(&IO_BYTES) {
            c.store(0, Ordering::Relaxed);
        }
        // the resolved kernel name is process-lifetime state; keep it
    }
}

// ---------------------------------------------------------------------------
// Public API. With `metrics` off every function is an inlined no-op and
// `Stopwatch` is zero-sized.
// ---------------------------------------------------------------------------

/// True when the `metrics` feature is compiled in.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "metrics")
}

/// Adds `v` to counter `c` (relaxed atomic add; no-op when disabled).
#[inline(always)]
pub fn add(c: Counter, v: u64) {
    #[cfg(feature = "metrics")]
    imp::add(c, v);
    #[cfg(not(feature = "metrics"))]
    let _ = (c, v);
}

/// Raises gauge `c` to at least `v` (atomic max; no-op when disabled).
#[inline(always)]
pub fn record_peak(c: Counter, v: u64) {
    #[cfg(feature = "metrics")]
    imp::record_peak(c, v);
    #[cfg(not(feature = "metrics"))]
    let _ = (c, v);
}

/// Current value of counter `c` (always 0 when disabled).
#[inline(always)]
pub fn get(c: Counter) -> u64 {
    #[cfg(feature = "metrics")]
    return imp::get(c);
    #[cfg(not(feature = "metrics"))]
    {
        let _ = c;
        0
    }
}

/// Number of log₂ request-latency buckets: bucket `i` counts requests
/// whose latency `ns` satisfies `⌊log₂ ns⌋ = i` (bucket 0 also takes
/// `ns = 0`; the last bucket absorbs everything from `2^39` ns ≈ 9 min
/// up).
pub const LATENCY_BUCKETS: usize = 40;

/// The histogram bucket latency `ns` falls into.
#[cfg_attr(not(feature = "metrics"), allow(dead_code))]
#[inline]
fn latency_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// Inclusive upper bound (ns) of latency bucket `i` — the value the
/// quantile estimator reports for samples landing in that bucket.
fn latency_bucket_ceiling(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Records one served request's end-to-end latency (enqueue → response
/// ready) into the global histogram (relaxed atomic add; no-op when
/// metrics are disabled).
#[inline(always)]
pub fn record_request_latency(ns: u64) {
    #[cfg(feature = "metrics")]
    imp::record_request_latency(ns);
    #[cfg(not(feature = "metrics"))]
    let _ = ns;
}

/// Snapshot of the request-latency histogram buckets (all zero when
/// metrics are disabled).
pub fn latency_snapshot() -> [u64; LATENCY_BUCKETS] {
    #[cfg(feature = "metrics")]
    return imp::latency_snapshot();
    #[cfg(not(feature = "metrics"))]
    [0; LATENCY_BUCKETS]
}

/// Records one dynamic-scheduler chunk claimed by `worker`; `stolen`
/// marks a chunk outside the worker's static even-split share.
#[inline(always)]
pub fn worker_claim(worker: usize, stolen: bool) {
    #[cfg(feature = "metrics")]
    imp::worker_claim(worker, stolen);
    #[cfg(not(feature = "metrics"))]
    let _ = (worker, stolen);
}

/// Records `lines`/`bytes` parsed by the reader for `format` (folded into
/// the fixed [`IO_FORMATS`] slots).
#[inline(always)]
pub fn io_record(format: &str, lines: u64, bytes: u64) {
    #[cfg(feature = "metrics")]
    imp::io_record(format, lines, bytes);
    #[cfg(not(feature = "metrics"))]
    let _ = (format, lines, bytes);
}

/// Records the concrete micro-kernel the dispatcher resolved (stable
/// name, e.g. `"avx512-vpopcnt"`). Survives [`reset`].
#[inline(always)]
pub fn set_kernel_name(name: &'static str) {
    #[cfg(feature = "metrics")]
    imp::set_kernel_name(name);
    #[cfg(not(feature = "metrics"))]
    let _ = name;
}

/// The last resolved micro-kernel name, if any was recorded.
#[inline(always)]
pub fn kernel_name() -> Option<&'static str> {
    #[cfg(feature = "metrics")]
    return imp::kernel_name();
    #[cfg(not(feature = "metrics"))]
    None
}

/// Zeroes every counter, per-worker/per-format slot, and the serve
/// telemetry registry (the resolved kernel name is kept — it is
/// process-lifetime state).
#[inline(always)]
pub fn reset() {
    #[cfg(feature = "metrics")]
    imp::reset();
    telemetry::reset();
}

/// A scoped wall-clock timer. Zero-sized and clock-free when `metrics` is
/// disabled, so it can wrap hot loops unconditionally:
///
/// ```
/// let t = ld_trace::Stopwatch::start();
/// // ... work ...
/// t.stop_into(ld_trace::Counter::KernelNs);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    #[cfg(feature = "metrics")]
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts the timer (reads the clock only when metrics are enabled).
    #[inline(always)]
    pub fn start() -> Self {
        Self {
            #[cfg(feature = "metrics")]
            start: std::time::Instant::now(),
        }
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX` (0 when disabled).
    #[inline(always)]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(feature = "metrics")]
        {
            let d = self.start.elapsed();
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
        }
        #[cfg(not(feature = "metrics"))]
        0
    }

    /// Adds the elapsed time to counter `c` and consumes the timer.
    #[inline(always)]
    pub fn stop_into(self, c: Counter) {
        add(c, self.elapsed_ns());
    }
}

// ---------------------------------------------------------------------------
// MetricsReport
// ---------------------------------------------------------------------------

/// Per-worker dynamic-scheduler activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker id (`tid`), 0-based; ids ≥ [`MAX_WORKERS`] fold into the last slot.
    pub worker: usize,
    /// Chunks this worker claimed.
    pub tiles_claimed: u64,
    /// Chunks claimed outside its static even-split share.
    pub steal_count: u64,
}

/// Per-format parser activity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoMetrics {
    /// Format slot name (one of [`IO_FORMATS`]).
    pub format: &'static str,
    /// Lines parsed.
    pub lines_read: u64,
    /// Bytes consumed.
    pub bytes_read: u64,
}

/// The request-latency histogram in summary form: raw log₂ buckets plus
/// quantiles estimated from them. Bucket quantiles are conservative — a
/// sample is reported at its bucket's inclusive upper bound — so p50/p99
/// never under-state the latency a client saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencySummary {
    /// Total requests recorded (the sum of `buckets`).
    pub count: u64,
    /// Log₂ buckets: `buckets[i]` counts requests with `⌊log₂ ns⌋ = i`.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencySummary {
    fn default() -> Self {
        Self {
            count: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencySummary {
    /// Summarizes the current global histogram.
    pub fn capture() -> Self {
        let buckets = latency_snapshot();
        Self {
            count: buckets.iter().sum(),
            buckets,
        }
    }

    /// The `q`-quantile latency in nanoseconds (bucket upper bound), or
    /// `None` when no requests were recorded. `q` is clamped to `(0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(latency_bucket_ceiling(i));
            }
        }
        Some(latency_bucket_ceiling(LATENCY_BUCKETS - 1))
    }

    /// Median request latency (ns), when any request was recorded.
    pub fn p50_ns(&self) -> Option<u64> {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile request latency (ns), when any request was recorded.
    pub fn p99_ns(&self) -> Option<u64> {
        self.quantile_ns(0.99)
    }
}

/// A point-in-time snapshot of every counter, with optional run context
/// (wall time, thread count, TSC frequency, resolved kernel) supplied by
/// the caller. Serializes to the stable JSON validated by
/// `schemas/metrics.schema.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Whether the `metrics` feature was compiled in (all counters are 0 otherwise).
    pub enabled: bool,
    /// Resolved micro-kernel name, when the dispatcher ran.
    pub kernel: Option<String>,
    /// Worker-thread count of the profiled run (caller-supplied).
    pub threads: Option<u64>,
    /// Wall time of the profiled region, nanoseconds (caller-supplied).
    pub wall_ns: Option<u64>,
    /// Calibrated TSC frequency in Hz (caller-supplied; enables ops/cycle).
    pub tsc_hz: Option<f64>,
    /// Counter values in [`Counter::ALL`] order.
    pub counters: [u64; Counter::COUNT],
    /// Request-latency histogram summary (all-zero outside `ld-serve`).
    /// Holds **successful** requests only; shed/error latencies live in
    /// the outcome-labelled histograms of [`telemetry`].
    pub request_latency: LatencySummary,
    /// Rolling-window success-latency stats (`10s`/`1m`/`5m`), captured
    /// alongside the cumulative histogram (empty when metrics are off).
    pub request_windows: Vec<telemetry::WindowStats>,
    /// Per-worker scheduler activity (only workers that claimed ≥ 1 chunk).
    pub workers: Vec<WorkerMetrics>,
    /// Per-format parser activity (only formats that read ≥ 1 line/byte).
    pub io: Vec<IoMetrics>,
}

impl MetricsReport {
    /// Snapshots the current counter state.
    pub fn capture() -> Self {
        let mut counters = [0u64; Counter::COUNT];
        for (i, c) in Counter::ALL.iter().enumerate() {
            counters[i] = get(*c);
        }
        #[cfg_attr(not(feature = "metrics"), allow(unused_mut))]
        let mut workers = Vec::new();
        #[cfg_attr(not(feature = "metrics"), allow(unused_mut))]
        let mut io = Vec::new();
        #[cfg(feature = "metrics")]
        {
            use std::sync::atomic::Ordering;
            for w in 0..MAX_WORKERS {
                let tiles = imp::WORKER_TILES[w].load(Ordering::Relaxed);
                let steals = imp::WORKER_STEALS[w].load(Ordering::Relaxed);
                if tiles != 0 || steals != 0 {
                    workers.push(WorkerMetrics {
                        worker: w,
                        tiles_claimed: tiles,
                        steal_count: steals,
                    });
                }
            }
            for (s, name) in IO_FORMATS.iter().enumerate() {
                let lines = imp::IO_LINES[s].load(Ordering::Relaxed);
                let bytes = imp::IO_BYTES[s].load(Ordering::Relaxed);
                if lines != 0 || bytes != 0 {
                    io.push(IoMetrics {
                        format: name,
                        lines_read: lines,
                        bytes_read: bytes,
                    });
                }
            }
        }
        Self {
            schema_version: SCHEMA_VERSION,
            enabled: enabled(),
            kernel: kernel_name().map(str::to_owned),
            threads: None,
            wall_ns: None,
            tsc_hz: None,
            counters,
            request_latency: LatencySummary::capture(),
            request_windows: telemetry::rolling_windows(),
            workers,
            io,
        }
    }

    /// Attaches the wall time of the profiled region.
    pub fn with_wall_ns(mut self, ns: u64) -> Self {
        self.wall_ns = Some(ns);
        self
    }

    /// Attaches the worker-thread count of the profiled run.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads as u64);
        self
    }

    /// Attaches the calibrated TSC frequency (enables ops/cycle output).
    pub fn with_tsc_hz(mut self, hz: Option<f64>) -> Self {
        self.tsc_hz = hz;
        self
    }

    /// Value of a counter in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Sum of the per-layer timers: `pack_a + pack_b + kernel + transform`.
    pub fn layer_ns_total(&self) -> u64 {
        self.get(Counter::PackANs)
            .saturating_add(self.get(Counter::PackBNs))
            .saturating_add(self.get(Counter::KernelNs))
            .saturating_add(self.get(Counter::TransformNs))
    }

    /// Fraction of `threads × wall` the per-layer timers account for
    /// (`None` without wall/thread context). Timers sum CPU time across
    /// workers, so this is busy-time coverage, not a wall-time ratio.
    pub fn layer_coverage(&self) -> Option<f64> {
        let wall = self.wall_ns? as f64;
        let threads = self.threads?.max(1) as f64;
        if wall <= 0.0 {
            return None;
        }
        Some(self.layer_ns_total() as f64 / (wall * threads))
    }

    /// Word-pair operations per cycle in the micro-kernel (`None` without
    /// a TSC frequency or kernel time). The scalar §IV peak is 1.
    pub fn words_per_cycle(&self) -> Option<f64> {
        let hz = self.tsc_hz?;
        let kns = self.get(Counter::KernelNs);
        if kns == 0 || hz <= 0.0 {
            return None;
        }
        let cycles = kns as f64 * hz / 1e9;
        Some(self.get(Counter::KernelWords) as f64 / cycles)
    }

    /// Serializes to the stable-schema JSON (hand-rolled; this workspace
    /// builds offline with no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"enabled\": {},", self.enabled);
        match &self.kernel {
            Some(k) => {
                let _ = writeln!(s, "  \"kernel\": \"{}\",", escape_json(k));
            }
            None => s.push_str("  \"kernel\": null,\n"),
        }
        match self.threads {
            Some(t) => {
                let _ = writeln!(s, "  \"threads\": {t},");
            }
            None => s.push_str("  \"threads\": null,\n"),
        }
        match self.wall_ns {
            Some(w) => {
                let _ = writeln!(s, "  \"wall_ns\": {w},");
            }
            None => s.push_str("  \"wall_ns\": null,\n"),
        }
        match self.tsc_hz {
            Some(hz) => {
                let _ = writeln!(s, "  \"tsc_hz\": {hz:.1},");
            }
            None => s.push_str("  \"tsc_hz\": null,\n"),
        }
        s.push_str("  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let _ = write!(s, "    \"{}\": {}", c.name(), self.counters[i]);
            s.push_str(if i + 1 == Counter::COUNT { "\n" } else { ",\n" });
        }
        s.push_str("  },\n  \"request_latency\": {\n");
        let _ = writeln!(s, "    \"count\": {},", self.request_latency.count);
        match self.request_latency.p50_ns() {
            Some(v) => {
                let _ = writeln!(s, "    \"p50_ns\": {v},");
            }
            None => s.push_str("    \"p50_ns\": null,\n"),
        }
        match self.request_latency.p99_ns() {
            Some(v) => {
                let _ = writeln!(s, "    \"p99_ns\": {v},");
            }
            None => s.push_str("    \"p99_ns\": null,\n"),
        }
        s.push_str("    \"windows\": {");
        for (i, (label, _)) in histogram::WINDOWS.iter().enumerate() {
            let w = self.request_windows.iter().find(|w| w.window == *label);
            let (count, p50, p99) = match w {
                Some(w) => (w.count, w.p50_ns, w.p99_ns),
                None => (0, None, None),
            };
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{label}\": {{\"count\": {count}, ");
            match p50 {
                Some(v) => {
                    let _ = write!(s, "\"p50_ns\": {v}, ");
                }
                None => s.push_str("\"p50_ns\": null, "),
            }
            match p99 {
                Some(v) => {
                    let _ = write!(s, "\"p99_ns\": {v}}}");
                }
                None => s.push_str("\"p99_ns\": null}"),
            }
        }
        s.push_str("},\n");
        s.push_str("    \"buckets\": [");
        for (i, b) in self.request_latency.buckets.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{b}");
        }
        s.push_str("]\n  },\n  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"worker\": {}, \"tiles_claimed\": {}, \"steal_count\": {}}}",
                w.worker, w.tiles_claimed, w.steal_count
            );
            s.push_str(if i + 1 == self.workers.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ],\n  \"io\": [\n");
        for (i, m) in self.io.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"format\": \"{}\", \"lines_read\": {}, \"bytes_read\": {}}}",
                escape_json(m.format),
                m.lines_read,
                m.bytes_read
            );
            s.push_str(if i + 1 == self.io.len() { "\n" } else { ",\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders a human-readable per-layer breakdown (the `--profile=text`
    /// output).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        if !self.enabled {
            s.push_str(
                "metrics disabled (build with `--features metrics`; \
                 the default ld-cli build enables them)\n",
            );
            return s;
        }
        if let Some(k) = &self.kernel {
            let _ = writeln!(s, "kernel          : {k}");
        }
        if let Some(t) = self.threads {
            let _ = writeln!(s, "threads         : {t}");
        }
        if let Some(w) = self.wall_ns {
            let _ = writeln!(s, "wall            : {}", fmt_ns(w));
        }
        let layers = [
            ("pack_a", Counter::PackANs),
            ("pack_b", Counter::PackBNs),
            ("kernel", Counter::KernelNs),
            ("transform", Counter::TransformNs),
        ];
        let total = self.layer_ns_total().max(1);
        for (name, c) in layers {
            let v = self.get(c);
            let _ = writeln!(
                s,
                "{name:<16}: {:>10}  ({:5.1}% of layer time)",
                fmt_ns(v),
                100.0 * v as f64 / total as f64
            );
        }
        if let Some(cov) = self.layer_coverage() {
            let _ = writeln!(
                s,
                "layer coverage  : {:5.1}% of threads x wall",
                100.0 * cov
            );
        }
        let _ = writeln!(
            s,
            "kernel tiles    : {} ({} word-pair ops)",
            self.get(Counter::KernelTiles),
            self.get(Counter::KernelWords)
        );
        if let Some(wpc) = self.words_per_cycle() {
            let _ = writeln!(
                s,
                "ops/cycle       : {:.2} word-pairs/cycle = {:.2} ops/cycle \
                 (scalar peak: 1 word-pair = 3 ops)",
                wpc,
                3.0 * wpc
            );
        }
        let _ = writeln!(
            s,
            "bytes packed    : {} · slabs: {} · budget shrinks: {} · alloc peak: {} B",
            self.get(Counter::BytesPacked),
            self.get(Counter::SlabsEmitted),
            self.get(Counter::BudgetShrinks),
            self.get(Counter::AllocPeakBytes),
        );
        let (polls, ckpts, skipped) = (
            self.get(Counter::CancelPolls),
            self.get(Counter::CheckpointsWritten),
            self.get(Counter::ResumeSlabsSkipped),
        );
        if polls != 0 || ckpts != 0 || skipped != 0 {
            let _ = writeln!(
                s,
                "interruption    : {polls} cancel polls · {ckpts} checkpoints written · {skipped} slabs resumed",
            );
        }
        let served = &self.request_latency;
        if served.count != 0 {
            let _ = writeln!(
                s,
                "requests        : {} served · p50 {} · p99 {} · {} accepted / {} shed / {} failed · {} panels evicted",
                served.count,
                fmt_ns(served.p50_ns().unwrap_or(0)),
                fmt_ns(served.p99_ns().unwrap_or(0)),
                self.get(Counter::RequestsAccepted),
                self.get(Counter::RequestsShed),
                self.get(Counter::RequestsFailed),
                self.get(Counter::PanelsEvicted),
            );
        }
        if !self.workers.is_empty() {
            let _ = writeln!(
                s,
                "scheduler       : {} chunks claimed, {} steals across {} workers",
                self.get(Counter::TilesClaimed),
                self.get(Counter::StealCount),
                self.workers.len()
            );
            for w in &self.workers {
                let _ = writeln!(
                    s,
                    "  worker {:<3}    : {} claimed, {} stolen",
                    w.worker, w.tiles_claimed, w.steal_count
                );
            }
        }
        if !self.io.is_empty() {
            for m in &self.io {
                let _ = writeln!(
                    s,
                    "io [{:<6}]     : {} lines, {} bytes",
                    m.format, m.lines_read, m.bytes_read
                );
            }
        }
        s
    }
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Escapes a string for embedding inside a JSON string literal (`"`,
/// `\`, and control characters). The one escaping helper every
/// hand-rolled JSON emitter in the workspace shares — `MetricsReport`,
/// the serve health endpoint, and the serve request log all route
/// through it.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes the unit tests that record into, reset or read back the
/// process-global counters, histograms and flight recorder: the test
/// runner runs them on parallel threads, and one test's `reset()` would
/// wipe another's data mid-assertion.
#[cfg(test)]
pub(crate) fn lock_global_state() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_stable_and_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let n = names.len();
        assert_eq!(n, Counter::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate counter name");
    }

    #[test]
    fn io_slot_folds_unknown_formats() {
        assert_eq!(io_slot("ms"), 0);
        assert_eq!(io_slot("definitely-not-a-format"), IO_FORMATS.len() - 1);
        assert_eq!(IO_FORMATS[io_slot("nope")], "other");
    }

    #[test]
    fn report_json_is_schema_shaped() {
        let _g = crate::lock_global_state();
        let r = MetricsReport::capture()
            .with_wall_ns(123)
            .with_threads(4)
            .with_tsc_hz(Some(3.0e9));
        let j = r.to_json();
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"pack_a_ns\""));
        assert!(j.contains("\"workers\""));
        assert!(j.contains("\"io\""));
        assert!(j.contains("\"wall_ns\": 123"));
        // every counter name appears exactly once
        for c in Counter::ALL {
            assert_eq!(
                j.matches(&format!("\"{}\"", c.name())).count(),
                1,
                "{}",
                c.name()
            );
        }
    }

    #[test]
    fn deterministic_partition_is_fixed() {
        // pin the determinism contract: changing it silently would
        // invalidate the counter-invariant tests
        let det: Vec<&str> = Counter::ALL
            .iter()
            .filter(|c| c.is_deterministic())
            .map(|c| c.name())
            .collect();
        assert_eq!(
            det,
            [
                "kernel_tiles",
                "kernel_words",
                "bytes_packed",
                "slabs_emitted",
                "budget_shrinks",
                "tiles_claimed",
                "io_lines_read",
                "io_bytes_read",
                "cancel_polls",
                "resume_slabs_skipped",
                "merge_spans_validated",
                "chunks_read",
                "store_bytes_read",
            ]
        );
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn counters_accumulate_and_reset() {
        let _g = crate::lock_global_state();
        reset();
        add(Counter::KernelTiles, 3);
        add(Counter::KernelTiles, 4);
        record_peak(Counter::AllocPeakBytes, 100);
        record_peak(Counter::AllocPeakBytes, 50);
        assert_eq!(get(Counter::KernelTiles), 7);
        assert_eq!(get(Counter::AllocPeakBytes), 100);
        worker_claim(2, true);
        worker_claim(2, false);
        io_record("vcf", 5, 80);
        let r = MetricsReport::capture();
        assert!(r.enabled);
        assert_eq!(r.get(Counter::TilesClaimed), 2);
        assert_eq!(r.get(Counter::StealCount), 1);
        assert_eq!(
            r.workers,
            vec![WorkerMetrics {
                worker: 2,
                tiles_claimed: 2,
                steal_count: 1
            }]
        );
        assert_eq!(
            r.io,
            vec![IoMetrics {
                format: "vcf",
                lines_read: 5,
                bytes_read: 80
            }]
        );
        reset();
        assert_eq!(get(Counter::KernelTiles), 0);
        assert!(MetricsReport::capture().workers.is_empty());
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn stopwatch_measures_time() {
        let t = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.elapsed_ns() >= 2_000_000);
    }

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        // ceilings are inclusive upper bounds of their bucket
        assert_eq!(latency_bucket_ceiling(0), 1);
        assert_eq!(latency_bucket_ceiling(10), 2047);
        assert_eq!(latency_bucket(latency_bucket_ceiling(10)), 10);
    }

    #[test]
    fn latency_quantiles_from_buckets() {
        let mut s = LatencySummary::default();
        assert_eq!(s.p50_ns(), None);
        assert_eq!(s.p99_ns(), None);
        // 90 fast requests (~1µs bucket) and 10 slow (~1ms bucket)
        s.buckets[10] = 90;
        s.buckets[20] = 10;
        s.count = 100;
        assert_eq!(s.p50_ns(), Some(latency_bucket_ceiling(10)));
        assert_eq!(s.quantile_ns(0.90), Some(latency_bucket_ceiling(10)));
        assert_eq!(s.p99_ns(), Some(latency_bucket_ceiling(20)));
        assert_eq!(s.quantile_ns(1.0), Some(latency_bucket_ceiling(20)));
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn latency_histogram_records_and_resets() {
        let _g = crate::lock_global_state();
        reset();
        record_request_latency(1_500); // bucket 10
        record_request_latency(1_500_000); // bucket 20
        record_request_latency(0); // bucket 0
        let s = LatencySummary::capture();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[20], 1);
        let j = MetricsReport::capture().to_json();
        assert!(j.contains("\"request_latency\""));
        assert!(j.contains("\"count\": 3"));
        reset();
        assert_eq!(LatencySummary::capture().count, 0);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn fmt_ns_ranges() {
        assert!(fmt_ns(500).ends_with("us"));
        assert!(fmt_ns(5_000_000).ends_with("ms"));
        assert!(fmt_ns(5_000_000_000).ends_with('s'));
    }
}
