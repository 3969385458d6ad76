//! The three engine workloads: `tri_narrow` (full triangle in memory),
//! `table_a` (rows streamed into the pair table) and `store_a` (the same
//! rows streamed from a tile store).

use crate::host::HostClock;
use crate::stats::{median, peak_rss_mb, SpreadSchedule};
use crate::trace::Recorder;
use crate::{Ctx, Metric, Report};
use ld_bitmat::{AlignedWords, BitMatrix, BitMatrixView};
use ld_core::{
    LdEngine, LdError, LdMatrix, LdStats, MemoryBudget, NanPolicy, RowSlabVisit, RunControl,
    TileSource, TileStoreMeta,
};
use ld_io::tilestore::DirTileStore;
use ld_trace::{Counter, MetricsReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Engine threads in every workload. One: the host gives the benchmark
/// two cores of a shared machine, and with two engine threads the
/// ten-seed spread of `table_a`'s throughput reached 0.27 of its median.
pub const THREADS: usize = 1;
/// Set-up repetitions at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Set-up also repeats until this many seconds of it have been timed, so
/// a cheap set-up (`tri_narrow`'s 0.1 s parse) is timed often enough for
/// a steady median.
const SETUP_MIN_S: f64 = 2.0;
/// Set-up repetitions at most.
const SETUP_MAX_REPS: usize = 40;

/// How many set-ups a run times, given that the first took `first_s`.
pub fn setup_reps(first_s: f64) -> usize {
    ((SETUP_MIN_S / first_s).ceil() as usize).clamp(SETUP_REPS, SETUP_MAX_REPS)
}

/// Calls `table_a` makes at least in an untraced run. It makes 31–42
/// calls in 20 s, right where [`crate::stats::tail`] moves from the
/// median to p75 (at 40 calls), so its `tail_ms` flipped between the two
/// from seed to seed; with 40 it is always p75.
const TABLE_MIN_REPS: usize = 40;

/// Standalone probe repetitions in the traced run; layers report medians.
const PROBE_REPS: usize = 3;
/// PLINK's default `--r2` threshold, as `r2 -o --min-r2 0.2` uses it.
pub const TABLE_MIN_R2: f64 = 0.2;
/// Tile-store chunk height of `store_a`.
const STORE_CHUNK_SNPS: usize = 256;
/// Memory budget of the `store_a` streaming run.
const STORE_BUDGET_MIB: usize = 4;

/// The engine the CLI builds with its built-in defaults, on [`THREADS`].
pub fn engine() -> LdEngine {
    LdEngine::new().threads(THREADS).nan_policy(NanPolicy::Zero)
}

/// Simulates a Li–Stephens panel and writes it as a phased VCF under the
/// work directory. Not timed: generating input is not the program's work.
pub fn write_panel_vcf(ctx: &Ctx, samples: usize, snps: usize) -> Result<PathBuf, String> {
    let g = ld_data::HaplotypeSimulator::new(samples, snps)
        .seed(ctx.seed)
        .generate();
    let path = ctx.work.join("panel.vcf");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    ld_io::vcf::write_vcf(&mut w, &g, &ld_io::vcf::synthetic_sites(snps, 100), 2)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Parses the panel VCF through `ld_io::vcf::read_vcf`, as `r2 -i` does.
pub fn parse_vcf(rec: &Recorder, path: &Path, parent: u64) -> Result<BitMatrix, String> {
    rec.span("io.vcf_parse", parent, |_| {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ld_io::vcf::read_vcf(BufReader::new(file))
            .map(|d| d.matrix)
            .map_err(|e| format!("parsing {}: {e}", path.display()))
    })
}

/// A word-wise FNV-1a digest: equal digests stand in for bit-identity of
/// results too large to keep for every repetition.
pub fn digest_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`digest_words`] over bytes (length folded in).
pub fn digest_bytes(b: &[u8]) -> u64 {
    let chunks = b.chunks_exact(8);
    let tail = chunks.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    digest_words(
        chunks
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .chain([u64::from_le_bytes(last), b.len() as u64]),
    )
}

fn digest_matrix(m: &LdMatrix) -> u64 {
    digest_words(m.packed().iter().map(|v| v.to_bits()))
}

/// The pair-table writer of `r2 -o`: each row slab is formatted into a
/// block (`snp{i}\tsnp{j}\t{v:.6}` for every pair at or above the
/// threshold), and blocks are appended in row order — slabs that arrive
/// early under threading wait in a reorder buffer. The table goes to
/// memory; the file write is not part of this sink.
pub struct TableSink {
    min_r2: f64,
    out: Vec<u8>,
    pending: BTreeMap<usize, (usize, String)>,
    next_row: usize,
}

impl TableSink {
    /// An empty table (header written) with room for `capacity` bytes.
    pub fn new(min_r2: f64, capacity: usize) -> Self {
        let mut out = Vec::with_capacity(capacity);
        out.extend_from_slice(b"SNP_A\tSNP_B\tR2\n");
        Self {
            min_r2,
            out,
            pending: BTreeMap::new(),
            next_row: 0,
        }
    }

    /// Formats one slab and flushes the in-order prefix.
    pub fn visit(&mut self, s: &RowSlabVisit<'_>) {
        let mut block = String::new();
        for (i, row) in s.rows() {
            for (t, &v) in row.iter().enumerate().skip(1) {
                if !v.is_nan() && v >= self.min_r2 {
                    let _ = writeln!(block, "snp{i}\tsnp{}\t{v:.6}", i + t);
                }
            }
        }
        self.pending.insert(s.row_start(), (s.n_rows(), block));
        while let Some((rows, block)) = self.pending.remove(&self.next_row) {
            self.next_row += rows;
            self.out.extend_from_slice(block.as_bytes());
        }
    }

    /// The finished table; `None` if a slab never arrived.
    pub fn finish(self) -> Option<Vec<u8>> {
        self.pending.is_empty().then_some(self.out)
    }
}

/// A [`TileSource`] that times every `read_chunk` of the wrapped store as
/// an `io.read_chunk` span under the current repetition's span.
struct TimedSource<'a> {
    inner: &'a DirTileStore,
    rec: &'a Recorder,
    parent: u64,
    /// Decoded bytes read, summed over every source of the run.
    bytes: &'a AtomicU64,
}

impl TileSource for TimedSource<'_> {
    fn meta(&self) -> &TileStoreMeta {
        self.inner.meta()
    }

    fn read_chunk(&self, index: usize) -> Result<AlignedWords, LdError> {
        let words = self.rec.span("io.read_chunk", self.parent, |_| {
            self.inner.read_chunk(index)
        })?;
        self.bytes
            .fetch_add(words.len() as u64 * 8, Ordering::Relaxed);
        Ok(words)
    }
}

/// What one engine call produced.
enum Output {
    Triangle(Result<LdMatrix, LdError>),
    Table(Result<(), LdError>, Option<Vec<u8>>),
}

/// One measured repetition: wall seconds (raw and rescaled to the
/// reference host) and a digest of the output.
struct Rep {
    wall_s: f64,
    scaled_s: f64,
    digest: Result<u64, String>,
}

/// Runs `rep` until `seconds` of measurement have passed (at least
/// `min_reps` times), after one unrecorded warm-up call. Before each call
/// `between` runs with the seconds measured so far; its own time is not
/// measured. It runs once more at the end, with the whole window.
fn repeat(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Rep,
    mut between: impl FnMut(f64) -> Result<(), String>,
) -> Result<Vec<Rep>, String> {
    let t0 = Instant::now();
    let mut aside_s = 0.0;
    let _ = rep();
    let mut reps = Vec::new();
    loop {
        let measured_s = t0.elapsed().as_secs_f64() - aside_s;
        if reps.len() >= min_reps && measured_s >= seconds {
            break;
        }
        let t1 = Instant::now();
        between(measured_s)?;
        aside_s += t1.elapsed().as_secs_f64();
        reps.push(rep());
    }
    between(seconds)?;
    Ok(reps)
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

fn scaled_walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.scaled_s).collect()
}

/// Counts oracle mismatches and errors among `reps`.
fn failures(reps: &[Rep], expect: u64) -> u64 {
    reps.iter()
        .filter(|r| match &r.digest {
            Ok(d) => *d != expect,
            Err(e) => {
                eprintln!("ldbench: repetition failed: {e}");
                true
            }
        })
        .count() as u64
}

/// Which engine path a workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// `try_stat_matrix_with`: the packed triangle in memory.
    Triangle,
    /// `try_stat_rows_with` into the pair table.
    Table,
    /// `try_stat_rows_outofcore_with` from a tile store into the table.
    Store,
}

/// One set-up as the CLI does it: parse the VCF and, on `store_a`,
/// import the panel into `dir` and open the store. Returns the panel, the
/// store and the seconds of import and open.
fn set_up(
    rec: &Recorder,
    vcf: &Path,
    path: EnginePath,
    dir: &Path,
) -> Result<(BitMatrix, Option<DirTileStore>, f64), String> {
    rec.span("setup", 0, |id| {
        let panel = parse_vcf(rec, vcf, id)?;
        if path != EnginePath::Store {
            return Ok((panel, None, 0.0));
        }
        let t0 = Instant::now();
        rec.span("io.import", id, |_| {
            ld_io::tilestore::import_to_dir(&panel, STORE_CHUNK_SNPS, dir)
        })
        .map_err(|e| format!("import: {e}"))?;
        let store = rec
            .span("io.store_open", id, |_| DirTileStore::open(dir))
            .map_err(|e| format!("open store: {e}"))?;
        Ok((panel, Some(store), t0.elapsed().as_secs_f64()))
    })
}

/// Runs one engine workload.
pub fn run(ctx: &Ctx, path: EnginePath) -> Result<Report, String> {
    let (samples, snps) = match path {
        EnginePath::Triangle => (256, 12_000),
        EnginePath::Table | EnginePath::Store => (2_504, 10_000),
    };
    let rec = &ctx.rec;
    let host = HostClock::new();
    let vcf = write_panel_vcf(ctx, samples, snps)?;
    let vcf_mb = std::fs::metadata(&vcf).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    let eng = engine();
    let stat = LdStats::RSquared;
    let n = snps;
    let pairs = (n * (n + 1) / 2) as f64;

    // ---- set-up: parse (+ import and open); the first before the
    // measurement, the rest spread over it --------------------------------
    let store_dir = ctx.work.join("store");
    let (t, first) = host.time(|| set_up(rec, &vcf, path, &store_dir));
    let (g, store, first_import_s) = first?;
    let mut setup_s = vec![t.scaled_s];
    let mut import_s = vec![first_import_s];
    if g.n_snps() != n || g.n_samples() != samples {
        return Err(format!(
            "parsed panel is {}x{}, expected {samples}x{n}",
            g.n_samples(),
            g.n_snps()
        ));
    }
    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let schedule = SpreadSchedule::new(setup_reps(setup_s[0]), untraced_s);
    let again_dir = ctx.work.join("store-again");
    let more_setups = |measured_s: f64| -> Result<(), String> {
        while schedule.due(setup_s.len(), measured_s) {
            if again_dir.exists() {
                std::fs::remove_dir_all(&again_dir).map_err(|e| e.to_string())?;
            }
            let (t, again) = host.time(|| set_up(rec, &vcf, path, &again_dir));
            setup_s.push(t.scaled_s);
            import_s.push(again?.2);
        }
        Ok(())
    };
    let store_eng = eng
        .clone()
        .memory_budget(MemoryBudget::mib(STORE_BUDGET_MIB));

    // ---- one repetition of the workload's engine call + sink -----------
    let mut table_cap = 0usize;
    let read_bytes = AtomicU64::new(0);
    let mut one_rep = |traced: bool| -> Rep {
        let ctl = RunControl::new();
        let cap = table_cap;
        let run = |run_id: u64| match path {
            EnginePath::Triangle => Output::Triangle(eng.try_stat_matrix_with(&g, stat, &ctl)),
            EnginePath::Table | EnginePath::Store => {
                let sink = Mutex::new(TableSink::new(TABLE_MIN_R2, cap));
                let visit = |s: &RowSlabVisit<'_>| {
                    let mut sink = sink.lock().expect("table sink poisoned");
                    if traced {
                        rec.span("sink.format", run_id, |_| sink.visit(s));
                    } else {
                        sink.visit(s);
                    }
                };
                let res = match &store {
                    Some(st) if traced => {
                        let src = TimedSource {
                            inner: st,
                            rec,
                            parent: run_id,
                            bytes: &read_bytes,
                        };
                        store_eng.try_stat_rows_outofcore_with(&src, stat, visit, &ctl)
                    }
                    Some(st) => store_eng.try_stat_rows_outofcore_with(st, stat, visit, &ctl),
                    None => eng.try_stat_rows_with(&g, stat, visit, &ctl),
                };
                Output::Table(
                    res,
                    sink.into_inner().expect("table sink poisoned").finish(),
                )
            }
        };
        let (t, out) = host.time(|| {
            if traced {
                rec.span("core.run", 0, run)
            } else {
                run(0)
            }
        });
        let digest = match out {
            Output::Triangle(m) => m.map(|m| digest_matrix(&m)).map_err(|e| e.to_string()),
            Output::Table(Err(e), _) => Err(e.to_string()),
            Output::Table(Ok(()), None) => Err("a row slab never reached the table".into()),
            Output::Table(Ok(()), Some(t)) => {
                table_cap = table_cap.max(t.len());
                Ok(digest_bytes(&t))
            }
        };
        Rep {
            wall_s: t.raw_s,
            scaled_s: t.scaled_s,
            digest,
        }
    };

    // ---- measurement ---------------------------------------------------
    let mut report = Report::default();
    ld_trace::reset();
    let min_reps = if path == EnginePath::Table && !ctx.trace {
        TABLE_MIN_REPS
    } else {
        3
    };
    let untraced = repeat(untraced_s, min_reps, || one_rep(false), more_setups)?;
    let u_wall = median(&walls(&untraced)).expect("at least 3 reps");
    let mut traced = Vec::new();
    let mut ctr = MetricsReport::capture();
    if ctx.trace {
        ld_trace::reset();
        traced = repeat(ctx.seconds / 2.0, 3, || one_rep(true), |_| Ok(()))?;
        let t_walls = walls(&traced);
        ctr = MetricsReport::capture()
            .with_wall_ns((t_walls.iter().sum::<f64>() * 1e9) as u64)
            .with_threads(THREADS);
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    // ---- oracle (untimed) ----------------------------------------------
    let oracle = eng.stat_matrix_twopass(&g, stat);
    let expect = match path {
        EnginePath::Triangle => digest_matrix(&oracle),
        EnginePath::Table | EnginePath::Store => {
            let mut t = Vec::new();
            ld_io::text::write_r2_table(&mut t, &oracle, TABLE_MIN_R2)
                .map_err(|e| format!("oracle table: {e}"))?;
            digest_bytes(&t)
        }
    };
    drop(oracle);
    let mut failed = failures(&untraced, expect) + failures(&traced, expect);
    let mut attempted = (untraced.len() + traced.len()) as u64;
    if path == EnginePath::Store {
        // byte-identity with table_a: the in-memory streaming path on the
        // same panel must produce the same table
        let sink = Mutex::new(TableSink::new(TABLE_MIN_R2, table_cap));
        let res = eng.try_stat_rows_with(
            &g,
            stat,
            |s| sink.lock().expect("table sink poisoned").visit(s),
            &RunControl::new(),
        );
        let table = sink.into_inner().expect("table sink poisoned").finish();
        attempted += 1;
        if res.is_err() || table.map(|t| digest_bytes(&t)) != Some(expect) {
            eprintln!("ldbench: in-memory table differs from the store table's oracle");
            failed += 1;
        }
    }
    report.attempted = attempted;
    report.failed = failed;
    report.setups = setup_s.len();

    // ---- end-to-end: timings rescaled to the reference host ------------
    let s_walls = scaled_walls(&untraced);
    let s_wall = median(&s_walls).expect("at least 3 reps");
    let tail_s = report.tail(&s_walls);
    eprintln!(
        "raw (not rescaled): median wall {:.1} ms = {:.2} 1e6 pairs/s; host speed {:.3}x the reference host's",
        u_wall * 1e3,
        pairs / u_wall / 1e6,
        s_wall / u_wall
    );
    report.e2e = vec![
        Metric::new("setup_s", median(&setup_s).expect("setup ran"), "s"),
        Metric::new("mpairs_per_s", pairs / s_wall / 1e6, "1e6/s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::ok_frac(attempted, failed),
        Metric::new("p50_ms", s_wall * 1e3, "ms"),
        Metric::new("tail_ms", tail_s * 1e3, "ms"),
        Metric::new(
            "session_rps",
            s_walls.len() as f64 / s_walls.iter().sum::<f64>(),
            "1/s",
        ),
    ];
    if !ctx.trace {
        return Ok(report);
    }

    // ---- traced run: layers timed from outside -------------------------
    let t_wall = median(&walls(&traced)).expect("at least 3 reps");
    let reps = traced.len() as f64;
    let parse_s = median(&rec.durations_s("io.vcf_parse")).unwrap_or(0.0);
    let import_med = median(&import_s).unwrap_or(0.0);
    let (chunk_s, chunk_calls) = rec.total_s("io.read_chunk");
    let read_bytes = read_bytes.load(Ordering::Relaxed) as f64;
    let format_s = rec.total_s("sink.format").0 / reps;

    // kernels: the counts GEMM alone, slab by slab as the engine runs it
    let view = BitMatrixView::from(&g);
    let counts_s = counts_probe(rec, &view);
    let word_pairs = pairs * view.words_per_snp() as f64;
    let wpc = match ld_kernels::clock::tsc_hz() {
        Some(hz) if counts_s > 0.0 => word_pairs / (counts_s * hz * THREADS as f64),
        _ => 0.0,
    };

    // core: the engine call alone (rows paths: a visitor that only counts)
    let engine_s = match path {
        EnginePath::Triangle => t_wall,
        EnginePath::Table | EnginePath::Store => median(
            &(0..PROBE_REPS)
                .map(|_| {
                    let mut kept = 0usize;
                    let count = |s: &RowSlabVisit<'_>| {
                        kept += s
                            .rows()
                            .map(|(_, row)| row[1..].iter().filter(|&&v| v >= TABLE_MIN_R2).count())
                            .sum::<usize>();
                    };
                    let ctl = RunControl::new();
                    let t0 = Instant::now();
                    let r = rec.span("core.engine", 0, |_| match &store {
                        Some(st) => store_eng.try_stat_rows_outofcore_with(st, stat, count, &ctl),
                        None => eng.try_stat_rows_with(&g, stat, count, &ctl),
                    });
                    let s = t0.elapsed().as_secs_f64();
                    std::hint::black_box(kept);
                    if r.is_err() {
                        return f64::NAN;
                    }
                    s
                })
                .collect::<Vec<_>>(),
        )
        .expect("probe ran"),
    };
    let (touch_s, touch_gbs) = if path == EnginePath::Triangle {
        first_touch(rec, n)?
    } else {
        (0.0, 0.0)
    };
    let chunk_per_rep = chunk_s / reps;
    let attributed = counts_s + touch_s + format_s + chunk_per_rep;
    let overhead_pct = (t_wall / u_wall - 1.0) * 100.0;
    report.overhead_pct = overhead_pct;
    let per_rep = |c: Counter| ctr.get(c) as f64 / reps;
    report.layers = vec![
        Metric::new("io.vcf_parse_s", parse_s, "s"),
        Metric::new("io.vcf_parse_mb_per_s", vcf_mb / parse_s, "MB/s"),
        Metric::new("io.import_s", import_med, "s"),
        Metric::new("io.read_chunk_s", chunk_per_rep, "s"),
        Metric::new("io.read_chunk_calls", chunk_calls as f64 / reps, "count"),
        Metric::new(
            "io.read_chunk_mb_per_s",
            if chunk_s > 0.0 {
                read_bytes / 1e6 / chunk_s
            } else {
                0.0
            },
            "MB/s",
        ),
        Metric::new("kernels.counts_s", counts_s, "s"),
        Metric::new("kernels.word_pairs", word_pairs, "count"),
        Metric::new("kernels.words_per_cycle", wpc, "words/cycle"),
        Metric::new("core.engine_s", engine_s, "s"),
        Metric::new("core.first_touch_s", touch_s, "s"),
        Metric::new("core.first_touch_gb_per_s", touch_gbs, "GB/s"),
        Metric::new("core.unattributed_frac", 1.0 - attributed / t_wall, "ratio"),
        Metric::new("sink.format_s", format_s, "s"),
        Metric::new("ctr.kernel_ms", per_rep(Counter::KernelNs) / 1e6, "ms"),
        Metric::new(
            "ctr.transform_ms",
            per_rep(Counter::TransformNs) / 1e6,
            "ms",
        ),
        Metric::new("ctr.pack_b_ms", per_rep(Counter::PackBNs) / 1e6, "ms"),
        Metric::new("ctr.coverage", ctr.layer_coverage().unwrap_or(0.0), "ratio"),
        Metric::new(
            "ctr.prefetch_stall_ms",
            per_rep(Counter::PrefetchStallNs) / 1e6,
            "ms",
        ),
        Metric::new("ctr.prefetch_hits", per_rep(Counter::PrefetchHits), "count"),
        Metric::new("ctr.steals", per_rep(Counter::StealCount), "count"),
        Metric::new("trace.overhead_pct", overhead_pct, "%"),
    ];
    Ok(report)
}

/// Row-slab height of the counts probe: the engine's default slab.
const PROBE_SLAB: usize = 64;

/// The counts layer alone: every row slab of the upper triangle through
/// `ld_kernels::syrk_slab_counts` (pack + micro-kernel) on [`THREADS`]
/// threads claiming slabs dynamically, each into its own reused scratch —
/// the engine's counts work without its transform or output. Median wall
/// of [`PROBE_REPS`] sweeps after one warm-up, seconds.
pub fn counts_probe(rec: &Recorder, g: &BitMatrixView<'_>) -> f64 {
    let n = g.n_snps();
    let blocks = ld_kernels::BlockSizes::default();
    let kind = ld_kernels::KernelKind::Auto;
    let mut scratch: Vec<Vec<u32>> = (0..THREADS).map(|_| vec![0u32; PROBE_SLAB * n]).collect();
    let mut sweep = || {
        let next = AtomicU64::new(0);
        std::thread::scope(|s| {
            for buf in scratch.iter_mut() {
                let next = &next;
                s.spawn(move || loop {
                    let r0 = next.fetch_add(PROBE_SLAB as u64, Ordering::Relaxed) as usize;
                    if r0 >= n {
                        break;
                    }
                    let rows = r0..(r0 + PROBE_SLAB).min(n);
                    ld_kernels::syrk_slab_counts(g, rows, buf, n - r0, kind, blocks);
                });
            }
        });
    };
    sweep();
    let secs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            rec.span("kernels.counts", 0, |_| sweep());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(&scratch);
    median(&secs).expect("probe ran")
}

/// The output's first touch: `LdMatrix::try_zeros(n)` plus one write per
/// 4 KiB page, median of [`PROBE_REPS`]; returns (seconds, GB/s).
pub fn first_touch(rec: &Recorder, n: usize) -> Result<(f64, f64), String> {
    let bytes = (n * (n + 1) / 2 * 8) as f64;
    let mut secs = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let m = rec.span("core.first_touch", 0, |_| {
            LdMatrix::try_zeros(n).map(|mut m| {
                for v in m.packed_mut().iter_mut().step_by(512) {
                    *v = 1.0;
                }
                m
            })
        });
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(m.map_err(|e| e.to_string())?);
        secs.push(s);
    }
    let s = median(&secs).expect("probe ran");
    Ok((s, bytes / s / 1e9))
}
