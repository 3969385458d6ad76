//! Flight recorder: fixed-capacity, per-worker ring buffers of span events.
//!
//! The counters in the crate root say *how much* work each GotoBLAS layer
//! did; the recorder says *when* and *on which worker*. Each worker owns a
//! pre-allocated ring of [`SpanEvent`] slots; recording a span is two
//! `Instant` reads plus four relaxed atomic stores into a reserved slot —
//! **zero allocation on the hot path**, and with the `metrics` feature off
//! every entry point is an inlined no-op and [`Span`] is zero-sized.
//!
//! ## Lifecycle contract
//!
//! [`start`] installs a recorder, [`stop`] uninstalls it and returns a
//! [`TraceSnapshot`]. Both must be called from the coordinating thread
//! while **no spans are in flight** — the drivers guarantee this by
//! starting before they spawn workers and stopping after the join. A span
//! whose guard outlives `stop` does not corrupt memory (the recorder's
//! storage is retired only by the *next* [`start`]), it just records into
//! a buffer nobody will snapshot.
//!
//! ## Overflow policy: fill-and-drop
//!
//! When a worker's ring fills, later events are **dropped and counted**
//! (never wrapped — wrapping would silently destroy the oldest events and
//! break the monotonic-timeline invariant). Every drop increments
//! [`Counter::TraceEventsDropped`] so `MetricsReport` and CI can assert a
//! complete timeline; [`TraceSnapshot::dropped`] carries the same total.
//!
//! ## Sampling
//!
//! Micro-kernel batch spans ([`SpanKind::KernelBatch`]) cover a whole
//! `jr/ir` tile sweep per `(jc, pc, ic)` block — already coarse — and can
//! additionally be sampled 1-in-N via [`RecorderConfig::kernel_sample`]
//! for very large runs. All other kinds are recorded 1:1.

/// What a span measures. Mirrors the layer map in the crate root plus the
/// scheduler and driver events the counters cannot localize.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Packing Ã micro-panels (MR-interleaved).
    PackA = 0,
    /// Packing B̃ micro-panels (NR-interleaved).
    PackB = 1,
    /// One micro-kernel tile batch: the `jr/ir` register-tile sweep of a
    /// `(jc, pc, ic)` block (sampled 1-in-`kernel_sample`).
    KernelBatch = 2,
    /// The batched `D = H − p pᵀ` statistic transform (setup + per-slab).
    Transform = 3,
    /// Large-buffer allocation/zeroing in the driver (scratch pool,
    /// packed output).
    Alloc = 4,
    /// One dynamic-scheduler chunk executed by a worker. `arg` encodes
    /// `(chunk_index << 1) | stolen`.
    Chunk = 5,
    /// A checkpoint snapshot being serialized and flushed to its sink.
    CheckpointFlush = 6,
    /// Instant marker: a row slab was completed and published. `arg` is
    /// the slab index.
    SlabEmit = 7,
}

impl SpanKind {
    /// Number of kinds (array sizing).
    pub const COUNT: usize = 8;

    /// All kinds, in stable order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::PackA,
        SpanKind::PackB,
        SpanKind::KernelBatch,
        SpanKind::Transform,
        SpanKind::Alloc,
        SpanKind::Chunk,
        SpanKind::CheckpointFlush,
        SpanKind::SlabEmit,
    ];

    /// Stable snake_case name (trace/report key).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PackA => "pack_a",
            SpanKind::PackB => "pack_b",
            SpanKind::KernelBatch => "kernel",
            SpanKind::Transform => "transform",
            SpanKind::Alloc => "alloc",
            SpanKind::Chunk => "chunk",
            SpanKind::CheckpointFlush => "checkpoint_flush",
            SpanKind::SlabEmit => "slab_emit",
        }
    }

    /// True for zero-duration marker events.
    pub fn is_instant(self) -> bool {
        matches!(self, SpanKind::SlabEmit)
    }

    /// True for the *leaf* layers whose durations never contain one
    /// another (they may nest inside [`SpanKind::Chunk`]); the analyzer
    /// sums exactly these into the per-layer wall shares.
    pub fn is_leaf_layer(self) -> bool {
        matches!(
            self,
            SpanKind::PackA
                | SpanKind::PackB
                | SpanKind::KernelBatch
                | SpanKind::Transform
                | SpanKind::Alloc
                | SpanKind::CheckpointFlush
        )
    }

    #[cfg_attr(not(feature = "metrics"), allow(dead_code))]
    fn from_u8(v: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(v as usize).copied()
    }
}

/// One recorded event. Timestamps are nanoseconds since the recorder's
/// epoch ([`start`]); instants have `dur_ns == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What was measured.
    pub kind: SpanKind,
    /// Logical worker id (ring index) that recorded the event.
    pub worker: u32,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Kind-specific payload (bytes packed, word-pairs, slab index,
    /// `(chunk << 1) | stolen`, …).
    pub arg: u64,
}

/// Recorder sizing and sampling knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity per worker, in events. The default (16384 ≈ 512 KiB
    /// per worker) absorbs every span the fused driver emits for matrices
    /// far past the bench sizes; overflow is counted, never wrapped.
    pub capacity_per_worker: usize,
    /// Number of per-worker rings. Worker ids `>= workers` fold into the
    /// last ring (they stay race-free; the timeline just merges them).
    pub workers: usize,
    /// Record 1 in `kernel_sample` micro-kernel batch spans (0 is treated
    /// as 1 = record all).
    pub kernel_sample: u64,
}

impl RecorderConfig {
    /// Default capacity per worker (events).
    pub const DEFAULT_CAPACITY: usize = 16384;

    /// Sizing for a run with `threads` workers (plus nothing else: the
    /// coordinating thread shares ring 0, which is safe — slots are
    /// reserved atomically).
    pub fn for_threads(threads: usize) -> Self {
        Self {
            capacity_per_worker: Self::DEFAULT_CAPACITY,
            workers: threads.clamp(1, crate::MAX_WORKERS),
            kernel_sample: 1,
        }
    }
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self::for_threads(1)
    }
}

/// Everything [`stop`] extracts from the rings: the events (sorted by
/// `(worker, start_ns)`), the drop count, and the balance diagnostics the
/// invariant tests pin.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// All recorded events, sorted by `(worker, start_ns, dur_ns desc)` so
    /// each worker's timeline reads outer-before-inner.
    pub events: Vec<SpanEvent>,
    /// Events dropped because a ring filled (fill-and-drop policy).
    pub dropped: u64,
    /// Spans begun but never ended at snapshot time (must be 0 after a
    /// clean driver run — every begin has an end).
    pub open_spans: u64,
    /// Ring capacity the recorder ran with.
    pub capacity_per_worker: usize,
    /// Number of per-worker rings.
    pub workers: usize,
}

impl TraceSnapshot {
    /// Events recorded by logical worker `w`, in timeline order.
    pub fn worker_events(&self, w: u32) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter(move |e| e.worker == w)
    }

    /// Count of events of one kind.
    pub fn count(&self, kind: SpanKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

// ---------------------------------------------------------------------------
// Enabled implementation
// ---------------------------------------------------------------------------
#[cfg(feature = "metrics")]
mod imp {
    use super::{RecorderConfig, SpanEvent, SpanKind, TraceSnapshot};
    use crate::Counter;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// One event slot. Plain atomics so slot writes are race-free even if
    /// two OS threads share a logical worker id (each still owns a unique
    /// reserved index, and folding ids past the ring count is safe).
    struct Slot {
        kind: AtomicU64,
        start_ns: AtomicU64,
        dur_ns: AtomicU64,
        arg: AtomicU64,
    }

    struct Ring {
        /// Next slot to reserve; values past the capacity mean drops.
        head: AtomicUsize,
        /// Begin/end balance: +1 per span begin, −1 per span end.
        open: AtomicU64,
        slots: Box<[Slot]>,
    }

    pub(super) struct Recorder {
        epoch: Instant,
        cfg: RecorderConfig,
        kernel_seq: AtomicU64,
        rings: Box<[Ring]>,
    }

    impl Recorder {
        fn new(cfg: RecorderConfig) -> Self {
            let ring = || Ring {
                head: AtomicUsize::new(0),
                open: AtomicU64::new(0),
                slots: (0..cfg.capacity_per_worker)
                    .map(|_| Slot {
                        kind: AtomicU64::new(0),
                        start_ns: AtomicU64::new(0),
                        dur_ns: AtomicU64::new(0),
                        arg: AtomicU64::new(0),
                    })
                    .collect(),
            };
            Recorder {
                epoch: Instant::now(),
                cfg,
                kernel_seq: AtomicU64::new(0),
                rings: (0..cfg.workers.max(1)).map(|_| ring()).collect(),
            }
        }

        #[inline]
        fn now_ns(&self) -> u64 {
            u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }

        #[inline]
        fn ring(&self, worker: usize) -> &Ring {
            let w = worker.min(self.rings.len() - 1);
            &self.rings[w]
        }

        /// Reserve a slot and store the event; count a drop when full.
        #[inline]
        fn push(&self, worker: usize, kind: SpanKind, start_ns: u64, dur_ns: u64, arg: u64) {
            let ring = self.ring(worker);
            let idx = ring.head.fetch_add(1, Ordering::Relaxed);
            if idx < ring.slots.len() {
                let s = &ring.slots[idx];
                s.kind.store(kind as u64, Ordering::Relaxed);
                s.start_ns.store(start_ns, Ordering::Relaxed);
                s.dur_ns.store(dur_ns, Ordering::Relaxed);
                s.arg.store(arg, Ordering::Relaxed);
            } else {
                crate::add(Counter::TraceEventsDropped, 1);
            }
        }

        fn snapshot(&self) -> TraceSnapshot {
            let mut events = Vec::new();
            let mut dropped = 0u64;
            let mut open = 0i64;
            for (w, ring) in self.rings.iter().enumerate() {
                let head = ring.head.load(Ordering::Relaxed);
                let filled = head.min(ring.slots.len());
                dropped += (head - filled) as u64;
                open += ring.open.load(Ordering::Relaxed) as i64;
                for s in &ring.slots[..filled] {
                    let kind = match SpanKind::from_u8(s.kind.load(Ordering::Relaxed) as u8) {
                        Some(k) => k,
                        None => continue, // torn slot: skip, never panic
                    };
                    events.push(SpanEvent {
                        kind,
                        worker: w as u32,
                        start_ns: s.start_ns.load(Ordering::Relaxed),
                        dur_ns: s.dur_ns.load(Ordering::Relaxed),
                        arg: s.arg.load(Ordering::Relaxed),
                    });
                }
            }
            events.sort_by(|a, b| {
                (a.worker, a.start_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
                    b.worker,
                    b.start_ns,
                    std::cmp::Reverse(b.dur_ns),
                ))
            });
            TraceSnapshot {
                events,
                dropped,
                open_spans: u64::try_from(open.max(0)).unwrap_or(0),
                capacity_per_worker: self.cfg.capacity_per_worker,
                workers: self.rings.len(),
            }
        }
    }

    /// The active recorder, or null. Retirement rule: [`stop`] nulls this
    /// pointer but keeps the box alive in [`STORE`]; only the *next*
    /// [`start`] drops the previous recorder. A straggler span guard that
    /// outlives `stop` therefore writes into live (dead-to-snapshots)
    /// memory instead of freed memory.
    static ACTIVE: AtomicPtr<Recorder> = AtomicPtr::new(std::ptr::null_mut());
    static STORE: Mutex<Option<Box<Recorder>>> = Mutex::new(None);

    thread_local! {
        static WORKER: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn set_worker(worker: usize) {
        WORKER.with(|w| w.set(worker));
    }

    pub(super) fn worker() -> usize {
        WORKER.with(Cell::get)
    }

    pub(super) fn start(cfg: RecorderConfig) {
        let mut store = STORE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Uninstall first so nothing records into the recorder we are
        // about to drop, then install the replacement.
        ACTIVE.store(std::ptr::null_mut(), Ordering::Release);
        let mut boxed = Box::new(Recorder::new(cfg));
        let ptr: *mut Recorder = &mut *boxed;
        *store = Some(boxed);
        ACTIVE.store(ptr, Ordering::Release);
    }

    pub(super) fn stop() -> Option<TraceSnapshot> {
        let store = STORE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let was = ACTIVE.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if was.is_null() {
            return None;
        }
        // The box outlives the snapshot (it stays in STORE until the next
        // start), so reading through the raw pointer is sound while we
        // hold the lock.
        let rec = store.as_deref()?;
        Some(rec.snapshot())
    }

    pub(super) fn is_active() -> bool {
        !ACTIVE.load(Ordering::Relaxed).is_null()
    }

    /// Snapshot without uninstalling: the live-daemon dump path
    /// (SIGUSR1, `dump-trace` opcode). Holding the STORE lock keeps the
    /// box alive while the rings are read; writers keep recording
    /// concurrently (relaxed ring reads — a dump is a point-in-time
    /// approximation, same as `stop`'s).
    pub(super) fn snapshot_live() -> Option<TraceSnapshot> {
        let store = STORE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ACTIVE.load(Ordering::Acquire).is_null() {
            return None;
        }
        let rec = store.as_deref()?;
        Some(rec.snapshot())
    }

    /// Active recorder, if any. SAFETY: callers only use the reference
    /// transiently (no storage across calls); the pointed-to recorder is
    /// kept alive by STORE until the next `start`, per the module
    /// lifecycle contract.
    #[inline]
    fn active() -> Option<&'static Recorder> {
        let p = ACTIVE.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: see above — non-null ACTIVE points into the boxed
            // recorder held by STORE, which is retired only by the next
            // start(); the reference does not escape the recording call.
            Some(unsafe { &*p })
        }
    }

    #[inline]
    pub(super) fn begin(kind: SpanKind) -> Option<(SpanKind, u64)> {
        let rec = active()?;
        if kind == SpanKind::KernelBatch {
            let n = rec.cfg.kernel_sample.max(1);
            if rec.kernel_seq.fetch_add(1, Ordering::Relaxed) % n != 0 {
                return None;
            }
        }
        rec.ring(worker()).open.fetch_add(1, Ordering::Relaxed);
        Some((kind, rec.now_ns()))
    }

    #[inline]
    pub(super) fn end(kind: SpanKind, start_ns: u64, arg: u64) {
        if let Some(rec) = active() {
            let w = worker();
            let end_ns = rec.now_ns();
            rec.push(w, kind, start_ns, end_ns.saturating_sub(start_ns), arg);
            // wrapping_sub: balance is tracked as a signed value read back
            // as i64 in snapshot(); underflow (end without begin) shows up
            // as a negative balance rather than corrupting anything.
            rec.ring(w).open.fetch_sub(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(super) fn instant(kind: SpanKind, arg: u64) {
        if let Some(rec) = active() {
            let now = rec.now_ns();
            rec.push(worker(), kind, now, 0, arg);
        }
    }
}

// ---------------------------------------------------------------------------
// Public API (no-ops when `metrics` is off)
// ---------------------------------------------------------------------------

/// Installs a fresh recorder. Call from the coordinating thread before
/// spawning workers; replaces (and retires) any previous recorder.
/// No-op when `metrics` is off.
#[inline(always)]
pub fn start(cfg: RecorderConfig) {
    #[cfg(feature = "metrics")]
    imp::start(cfg);
    #[cfg(not(feature = "metrics"))]
    let _ = cfg;
}

/// Uninstalls the active recorder and returns its snapshot. Call after
/// joining workers. `None` when no recorder was active or `metrics` is
/// off.
#[inline(always)]
pub fn stop() -> Option<TraceSnapshot> {
    #[cfg(feature = "metrics")]
    return imp::stop();
    #[cfg(not(feature = "metrics"))]
    None
}

/// Snapshots the active recorder **without uninstalling it** — the
/// continuously-armed daemon dump path (SIGUSR1 / `dump-trace`).
/// Workers keep recording throughout; the returned snapshot is the same
/// point-in-time approximation [`stop`] produces. `None` when no
/// recorder is armed or `metrics` is off.
#[inline(always)]
pub fn snapshot_live() -> Option<TraceSnapshot> {
    #[cfg(feature = "metrics")]
    return imp::snapshot_live();
    #[cfg(not(feature = "metrics"))]
    None
}

/// True while a recorder is installed (always false when `metrics` is
/// off). One relaxed atomic load.
#[inline(always)]
pub fn is_active() -> bool {
    #[cfg(feature = "metrics")]
    return imp::is_active();
    #[cfg(not(feature = "metrics"))]
    false
}

/// Binds the calling OS thread to logical worker `worker` (its ring
/// index). Schedulers call this once per spawned worker; unbound threads
/// record into ring 0.
#[inline(always)]
pub fn set_worker(worker: usize) {
    #[cfg(feature = "metrics")]
    imp::set_worker(worker);
    #[cfg(not(feature = "metrics"))]
    let _ = worker;
}

/// Records a zero-duration marker event (e.g. [`SpanKind::SlabEmit`]).
#[inline(always)]
pub fn instant(kind: SpanKind, arg: u64) {
    #[cfg(feature = "metrics")]
    imp::instant(kind, arg);
    #[cfg(not(feature = "metrics"))]
    let _ = (kind, arg);
}

/// A scoped span guard. Zero-sized and clock-free when `metrics` is off;
/// inert (single relaxed load) when no recorder is active. End it with
/// [`Span::end`] to attach a payload, or let it drop (payload 0).
#[derive(Debug)]
#[must_use = "a span records on end/drop; binding to _ discards it immediately"]
pub struct Span {
    #[cfg(feature = "metrics")]
    inner: Option<(SpanKind, u64)>,
}

impl Span {
    /// Begins a span of `kind` on the current worker's timeline. Inert
    /// when no recorder is active or the kind is sampled out.
    #[inline(always)]
    pub fn begin(kind: SpanKind) -> Self {
        #[cfg(feature = "metrics")]
        {
            Span {
                inner: imp::begin(kind),
            }
        }
        #[cfg(not(feature = "metrics"))]
        {
            let _ = kind;
            Span {}
        }
    }

    /// Ends the span, recording `arg` as its payload.
    #[inline(always)]
    #[cfg_attr(not(feature = "metrics"), allow(unused_mut))]
    pub fn end(mut self, arg: u64) {
        #[cfg(feature = "metrics")]
        if let Some((kind, start_ns)) = self.inner.take() {
            imp::end(kind, start_ns, arg);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = arg;
        std::mem::forget(self);
    }
}

impl Drop for Span {
    #[inline(always)]
    fn drop(&mut self) {
        #[cfg(feature = "metrics")]
        if let Some((kind, start_ns)) = self.inner.take() {
            imp::end(kind, start_ns, 0);
        }
    }
}

#[cfg(all(test, feature = "metrics"))]
mod tests {
    use super::*;
    use crate::Counter;

    // Recorder state is process-global, and these tests also reset the
    // counters the crate's other unit tests assert on.
    use crate::lock_global_state as lock;

    #[test]
    fn inactive_recorder_is_inert() {
        let _g = lock();
        while stop().is_some() {}
        assert!(!is_active());
        let s = Span::begin(SpanKind::PackA);
        s.end(1);
        instant(SpanKind::SlabEmit, 0);
        assert!(stop().is_none());
    }

    #[test]
    fn records_and_snapshots_spans() {
        let _g = lock();
        crate::reset();
        start(RecorderConfig::for_threads(2));
        assert!(is_active());
        set_worker(0);
        let s = Span::begin(SpanKind::PackB);
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.end(64);
        instant(SpanKind::SlabEmit, 3);
        let snap = stop().expect("snapshot");
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.open_spans, 0);
        let span = &snap.events[0];
        assert_eq!(span.kind, SpanKind::PackB);
        assert_eq!(span.arg, 64);
        assert!(span.dur_ns >= 1_000_000);
        assert_eq!(snap.events[1].kind, SpanKind::SlabEmit);
        assert_eq!(snap.events[1].dur_ns, 0);
        assert!(snap.events[1].start_ns >= span.start_ns + span.dur_ns);
        assert!(stop().is_none(), "stop is one-shot");
    }

    #[test]
    fn overflow_fills_and_drops_with_accounting() {
        let _g = lock();
        crate::reset();
        start(RecorderConfig {
            capacity_per_worker: 4,
            workers: 1,
            kernel_sample: 1,
        });
        for i in 0..10 {
            instant(SpanKind::SlabEmit, i);
        }
        let snap = stop().expect("snapshot");
        assert_eq!(snap.events.len(), 4, "ring keeps the first `cap` events");
        let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![0, 1, 2, 3], "fill-and-drop, never wrap");
        assert_eq!(snap.dropped, 6);
        assert_eq!(crate::get(Counter::TraceEventsDropped), 6);
    }

    #[test]
    fn kernel_batch_sampling() {
        let _g = lock();
        crate::reset();
        start(RecorderConfig {
            capacity_per_worker: 64,
            workers: 1,
            kernel_sample: 4,
        });
        for _ in 0..16 {
            Span::begin(SpanKind::KernelBatch).end(0);
        }
        let snap = stop().expect("snapshot");
        assert_eq!(snap.count(SpanKind::KernelBatch), 4, "1-in-4 sampling");
        assert_eq!(snap.open_spans, 0, "sampled-out spans do not unbalance");
    }

    #[test]
    fn drop_guard_ends_the_span() {
        let _g = lock();
        crate::reset();
        start(RecorderConfig::for_threads(1));
        {
            let _s = Span::begin(SpanKind::Transform);
            // dropped without an explicit end
        }
        let snap = stop().expect("snapshot");
        assert_eq!(snap.count(SpanKind::Transform), 1);
        assert_eq!(snap.open_spans, 0);
    }

    #[test]
    fn worker_ids_fold_into_last_ring() {
        let _g = lock();
        crate::reset();
        start(RecorderConfig {
            capacity_per_worker: 8,
            workers: 2,
            kernel_sample: 1,
        });
        set_worker(57);
        instant(SpanKind::SlabEmit, 9);
        set_worker(0);
        let snap = stop().expect("snapshot");
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].worker, 1, "folds into the last ring");
    }
}
