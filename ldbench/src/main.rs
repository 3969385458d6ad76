//! `ldbench` — one benchmark for gemm-ld's three user paths.
//!
//! ```text
//! ldbench --workload <tri_narrow|table_a|store_a|serve_mix|all>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload makes its inputs from `--seed`, sets the program up
//! several times, measures for `--seconds`, checks every output against
//! an oracle, and prints one JSON object as its last stdout line. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! measures half the time untraced and half traced, and reports the
//! per-layer metrics, timed from outside by spans around the calls into
//! each layer. See README.md for what each metric means per workload.

mod engine;
mod host;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["tri_narrow", "table_a", "store_a", "serve_mix"];

/// End-to-end metrics (name, unit); every workload reports all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("mpairs_per_s", "1e6/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("session_rps", "1/s"),
];

/// Per-layer metrics (name, unit); a layer a workload does not reach
/// reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("io.vcf_parse_s", "s"),
    ("io.vcf_parse_mb_per_s", "MB/s"),
    ("io.import_s", "s"),
    ("io.read_chunk_s", "s"),
    ("io.read_chunk_calls", "count"),
    ("io.read_chunk_mb_per_s", "MB/s"),
    ("kernels.counts_s", "s"),
    ("kernels.word_pairs", "count"),
    ("kernels.words_per_cycle", "words/cycle"),
    ("core.engine_s", "s"),
    ("core.first_touch_s", "s"),
    ("core.first_touch_gb_per_s", "GB/s"),
    ("core.unattributed_frac", "ratio"),
    ("sink.format_s", "s"),
    ("serve.accept_ms", "ms"),
    ("serve.frame_rtt_ms", "ms"),
    ("serve.pair.queue_ms", "ms"),
    ("serve.pair.service_ms", "ms"),
    ("serve.pair.unattributed_ms", "ms"),
    ("serve.region.queue_ms", "ms"),
    ("serve.region.service_ms", "ms"),
    ("serve.region.unattributed_ms", "ms"),
    ("serve.panel_load_s", "s"),
    ("serve.region_bytes", "bytes"),
    ("serve.region_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("loadgen.late_tail_ms", "ms"),
    ("ctr.kernel_ms", "ms"),
    ("ctr.transform_ms", "ms"),
    ("ctr.pack_b_ms", "ms"),
    ("ctr.coverage", "ratio"),
    ("ctr.prefetch_stall_ms", "ms"),
    ("ctr.prefetch_hits", "count"),
    ("ctr.steals", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run needs: its seed, length, mode, scratch directory and
/// span recorder.
pub struct Ctx {
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    rec: trace::Recorder,
}

/// One named measurement.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }

    /// Successful operations ÷ attempted (1 − the failure fraction).
    fn ok_frac(attempted: u64, failed: u64) -> Self {
        Self::new(
            "ok_frac",
            (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            "ratio",
        )
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    overhead_pct: f64,
    tail_note: String,
    /// Set-ups timed for `setup_s`.
    setups: usize,
}

impl Report {
    /// The `tail_ms` statistic of `xs` ([`stats::tail`]), noting which
    /// percentile it is.
    fn tail(&mut self, xs: &[f64]) -> f64 {
        let (p, v) = stats::tail(xs).unwrap_or((50.0, f64::NAN));
        self.tail_note = format!("tail_ms is p{p} of {} samples", xs.len());
        v
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Checks a report against the metric lists and renders the result line.
fn render(report: &Report, trace: bool) -> Result<String, String> {
    let (want, got): (&[(&str, &str)], &[Metric]) = if trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.e2e)
    };
    for m in got {
        if !want.contains(&(m.name, m.unit)) {
            return Err(format!("unlisted metric {} [{}]", m.name, m.unit));
        }
    }
    let mut body = Vec::new();
    for &(name, unit) in want {
        if !stats::valid_metric_name(name) || !stats::valid_unit(unit) {
            return Err(format!("malformed metric {name} [{unit}]"));
        }
        let found: Vec<&Metric> = got.iter().filter(|m| m.name == name).collect();
        let value = match (found.as_slice(), trace) {
            ([m], _) => m.value,
            ([], true) => 0.0, // layer not on this workload's path
            _ => return Err(format!("metric {name} reported {} times", found.len())),
        };
        if !value.is_finite() || (!trace && value <= 0.0) {
            return Err(format!("metric {name} has no valid value ({value})"));
        }
        eprintln!("  {name:<30} {value:>14.4} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    ))
}

fn run_one(args: &Args) -> Result<String, String> {
    let name = args.workload.as_str();
    let work = PathBuf::from(".ldbench_work").join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
        rec: trace::Recorder::new(args.trace),
    };
    let result = match name {
        "tri_narrow" => engine::run(&ctx, engine::EnginePath::Triangle),
        "table_a" => engine::run(&ctx, engine::EnginePath::Table),
        "store_a" => engine::run(&ctx, engine::EnginePath::Store),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".ldbench_work");
    let report = result?;
    eprintln!(
        "ldbench {name} seed={} seconds={} trace={} threads={} cores={}: {}/{} failed; {} set-ups; {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        engine::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report.failed,
        report.attempted,
        report.setups,
        report.tail_note
    );
    if args.trace {
        let dir = PathBuf::from(".ldbench_out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{name}-seed{}.json", args.seed));
        std::fs::write(&path, ctx.rec.to_json(name, args.seed, report.overhead_pct))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote spans to {}", path.display());
    }
    render(&report, args.trace)
}

/// `--workload all`: every workload in a fresh child process (so each
/// peak RSS is its own), then one line mapping workload to result.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        match (out.status.success(), stdout.lines().last()) {
            (true, Some(line)) => lines.push(format!("\"{w}\": {line}")),
            _ => return Err(format!("workload {w} failed ({})", out.status)),
        }
    }
    Ok(format!("{{{}}}", lines.join(", ")))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ldbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_follow_the_grammar_and_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn render_rejects_missing_or_zero_end_to_end_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.e2e = END_TO_END
            .iter()
            .map(|&(n, u)| Metric::new(n, 1.5, u))
            .collect();
        let line = render(&r, false).expect("complete report renders");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.e2e[0].value = 0.0;
        assert!(render(&r, false).is_err());
        r.e2e.remove(0);
        assert!(render(&r, false).is_err());
        // per-layer: absent layers report 0
        let line = render(&r, true).expect("layers default to 0");
        assert!(line.contains("\"serve.shed\": {\"value\": 0, \"unit\": \"count\"}"));
    }
}
