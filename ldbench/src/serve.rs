//! `serve_mix`: an in-process `ld_serve::Server` driven by two sender
//! threads — an open-loop one-shot sender (one connection per request,
//! through `request_with_retry`) and a closed-loop persistent session.

use crate::engine::{
    counts_probe, engine, first_touch, parse_vcf, setup_reps, write_panel_vcf, SETUP_REPS, THREADS,
};
use crate::host::HostClock;
use crate::stats::{median, ms, peak_rss_mb, tail, OpenLoop};
use crate::{Ctx, Metric, Report};
use ld_core::{CancelToken, Deadline, LdMatrix, LdStats};
use ld_rng::SmallRng;
use ld_serve::{
    request_with_retry, Client, PanelRegistry, PanelSource, Request, Response, ServeConfig, Server,
    ServerHandle, StatCode, Status,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

const SAMPLES: usize = 512;
const SNPS: usize = 8_000;
const PANEL: &str = "panel";
/// Open-loop rate of the one-shot sender.
const ONESHOT_RPS: f64 = 50.0;
/// Every this-many-th session request is a region query.
const REGION_EVERY: usize = 8;
/// Rows of a session region query (at `min_r2` 0: ~800 KB of body).
const REGION_ROWS: usize = 256;
/// LD values in one region reply: every pair `i < j` of its rows.
const REGION_PAIRS: f64 = (REGION_ROWS * (REGION_ROWS - 1) / 2) as f64;
/// Probe repetitions for the accept and round-trip layers.
const PROBES: usize = 20;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One answered (or failed) request, kept for the oracle check.
struct Sent {
    req: Request,
    resp: Result<Response, String>,
    /// Client-observed latency from send, ms.
    latency_ms: f64,
}

fn pair(rng: &mut SmallRng) -> Request {
    let i = rng.gen_range(0..SNPS) as u32;
    let j = rng.gen_range(0..SNPS) as u32;
    Request::Pair {
        panel: PANEL.into(),
        stat: StatCode::RSquared,
        i,
        j,
    }
}

fn region(rng: &mut SmallRng) -> Request {
    let row0 = rng.gen_range(0..SNPS - REGION_ROWS) as u32;
    Request::Region {
        panel: PANEL.into(),
        stat: StatCode::RSquared,
        row0,
        row1: row0 + REGION_ROWS as u32,
        min_r2: 0.0,
    }
}

/// Binds a daemon over the panel as `gemm-ld serve` does (2 workers),
/// with an optional request log.
fn start(vcf: &Path, log: Option<&Path>) -> Result<ServerHandle, String> {
    let mut reg = PanelRegistry::new(engine(), 1 << 30);
    reg.add_source(PANEL, PanelSource::TextFile(vcf.to_path_buf()));
    let cfg = ServeConfig {
        workers: 2,
        request_log: log.map(|p| p.display().to_string()),
        ..ServeConfig::default()
    };
    Server::bind(cfg, reg)
        .and_then(Server::spawn)
        .map_err(|e| format!("bind: {e}"))
}

/// Sends the first query to a fresh daemon, which makes the panel
/// resident.
fn first_reply(addr: &str) -> Result<(), String> {
    let mut c = Client::connect(addr, Duration::from_secs(120)).map_err(|e| e.to_string())?;
    let req = Request::Pair {
        panel: PANEL.into(),
        stat: StatCode::RSquared,
        i: 0,
        j: 1,
    };
    let r = c.request(&req).map_err(|e| e.to_string())?;
    if r.status != Status::Ok {
        return Err(format!(
            "first query answered {}: {}",
            r.status.name(),
            r.message()
        ));
    }
    Ok(())
}

/// What one traffic phase measured.
struct Phase {
    oneshot: OpenLoop,
    oneshot_sent: Vec<Sent>,
    session_sent: Vec<Sent>,
    session_s: f64,
}

impl Phase {
    /// Every request of both senders.
    fn sent(&self) -> impl Iterator<Item = &Sent> {
        self.oneshot_sent.iter().chain(&self.session_sent)
    }

    fn latencies(&self, region: bool) -> Vec<f64> {
        self.sent()
            .filter(|s| matches!(s.req, Request::Region { .. }) == region)
            .map(|s| s.latency_ms)
            .collect()
    }

    fn session_pair_ms(&self) -> Vec<f64> {
        self.session_sent
            .iter()
            .filter(|s| matches!(s.req, Request::Pair { .. }))
            .map(|s| s.latency_ms)
            .collect()
    }
}

/// Drives both senders against `addr` for `seconds`.
fn traffic(ctx: &Ctx, addr: &str, seconds: f64, salt: u64) -> Phase {
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let rec = &ctx.rec;
    let (oneshot, oneshot_sent, (session_sent, session_s)) = std::thread::scope(|s| {
        let one = s.spawn(|| {
            let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x0e5 ^ salt);
            let mut ol = OpenLoop::new(start, ONESHOT_RPS);
            let backoff =
                ld_parallel::Backoff::new(Duration::from_millis(5), Duration::from_millis(100));
            let mut sent = Vec::new();
            for k in 0.. {
                let due = ol.due(k);
                if due >= end {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let req = pair(&mut rng);
                let t0 = Instant::now();
                let resp = rec.span("serve.oneshot", 0, |_| {
                    request_with_retry(addr, &req, 3, IO_TIMEOUT, &backoff)
                });
                let done = Instant::now();
                ol.record(k, t0, done);
                sent.push(Sent {
                    req,
                    resp: resp.map_err(|e| e.to_string()),
                    latency_ms: ms(done - t0),
                });
            }
            (ol, sent)
        });
        let session = s.spawn(|| {
            let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x5e55 ^ salt);
            let mut sent = Vec::new();
            if let Some(wait) = start.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t_start = Instant::now();
            let mut client = Client::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string());
            let mut k = 0;
            while Instant::now() < end {
                k += 1;
                let req = if k % REGION_EVERY == 0 {
                    region(&mut rng)
                } else {
                    pair(&mut rng)
                };
                let t0 = Instant::now();
                let resp = match &mut client {
                    Ok(c) => rec
                        .span("serve.session", 0, |_| c.request(&req))
                        .map_err(|e| e.to_string()),
                    Err(e) => Err(e.clone()),
                };
                let latency_ms = ms(t0.elapsed());
                let broken = resp.is_err();
                sent.push(Sent {
                    req,
                    resp,
                    latency_ms,
                });
                if broken {
                    // the session is gone; reconnect for the next request
                    client = Client::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string());
                }
            }
            (sent, t_start.elapsed().as_secs_f64())
        });
        let (ol, sent) = one.join().expect("one-shot sender panicked");
        (ol, sent, session.join().expect("session sender panicked"))
    });
    Phase {
        oneshot,
        oneshot_sent,
        session_sent,
        session_s,
    }
}

/// The pair table of rows `[r0, r1)` as the daemon formats region
/// replies, built from the oracle matrix.
fn region_oracle(m: &LdMatrix, r0: usize, r1: usize, min_r2: f64) -> Vec<u8> {
    let mut out = String::from("SNP_A\tSNP_B\tR2\n");
    for i in r0..r1 {
        for j in (i + 1)..r1 {
            let v = m.get(i, j);
            if !v.is_nan() && v >= min_r2 {
                let _ = writeln!(out, "snp{i}\tsnp{j}\t{v:.6}");
            }
        }
    }
    out.into_bytes()
}

/// Failed, shed, timed-out or wrong replies among a phase's requests.
fn failures(phase: &Phase, m: &LdMatrix) -> u64 {
    let mut failed = 0u64;
    for s in phase.sent() {
        let ok = match (&s.req, &s.resp) {
            (_, Err(e)) => {
                eprintln!("ldbench: request failed: {e}");
                false
            }
            (_, Ok(r)) if r.status != Status::Ok => {
                eprintln!(
                    "ldbench: request answered {}: {}",
                    r.status.name(),
                    r.message()
                );
                false
            }
            (Request::Pair { i, j, .. }, Ok(r)) => {
                let (i, j) = (*i as usize, *j as usize);
                r.body == m.get(i.min(j), i.max(j)).to_bits().to_le_bytes()
            }
            (
                Request::Region {
                    row0, row1, min_r2, ..
                },
                Ok(r),
            ) => r.body == region_oracle(m, *row0 as usize, *row1 as usize, *min_r2),
            _ => false,
        };
        if !ok {
            failed += 1;
        }
    }
    failed
}

/// Median accept (connect + first inline `Health`) and warm round-trip
/// (`Health` on a persistent connection) times, ms.
fn probe_accept_and_rtt(addr: &str) -> Result<(f64, f64), String> {
    let mut accept = Vec::new();
    for _ in 0..PROBES {
        let t0 = Instant::now();
        let mut c = Client::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
        c.request(&Request::Health).map_err(|e| e.to_string())?;
        accept.push(ms(t0.elapsed()));
    }
    let mut c = Client::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    let mut rtt = Vec::new();
    for k in 0..PROBES + 5 {
        let t0 = Instant::now();
        c.request(&Request::Health).map_err(|e| e.to_string())?;
        if k >= 5 {
            rtt.push(ms(t0.elapsed()));
        }
    }
    Ok((
        median(&accept).expect("probes ran"),
        median(&rtt).expect("probes ran"),
    ))
}

/// One terminal request-log event.
struct LogEvent {
    opcode: String,
    event: String,
    status: String,
    queue_ms: f64,
    service_ms: f64,
    total_ms: f64,
}

/// The raw text of field `key` in a flat JSON-lines object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    rest.split([',', '}']).next()
}

fn read_log(path: &Path) -> Result<Vec<LogEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let num = |l: &str, k: &str| {
        field(l, k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 1e6
    };
    Ok(text
        .lines()
        .map(|l| LogEvent {
            opcode: field(l, "opcode").unwrap_or("").to_string(),
            event: field(l, "event").unwrap_or("").to_string(),
            status: field(l, "status").unwrap_or("").to_string(),
            queue_ms: num(l, "queue_ns"),
            service_ms: num(l, "service_ns"),
            total_ms: num(l, "total_ns"),
        })
        .collect())
}

/// Runs `serve_mix`.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let rec = &ctx.rec;
    let vcf = write_panel_vcf(ctx, SAMPLES, SNPS)?;

    // ---- set-up: bind + panel resident at the first OK reply, rescaled
    // to the reference host -------------------------------------------
    let host = HostClock::new();
    let mut setup_s = Vec::new();
    let mut handle = None;
    while setup_s.len() < setup_s.first().map_or(1, |&first| setup_reps(first)) {
        if let Some(h) = handle.take() {
            ServerHandle::shutdown_and_wait(h);
        }
        let (t, h) = host.time(|| -> Result<ServerHandle, String> {
            let h = start(&vcf, None)?;
            first_reply(&h.addr().to_string())?;
            Ok(h)
        });
        setup_s.push(t.scaled_s);
        handle = Some(h?);
    }
    let handle = handle.expect("set-up ran");
    let addr = handle.addr().to_string();

    // ---- measurement ---------------------------------------------------
    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = traffic(ctx, &addr, untraced_s, 0);
    handle.shutdown_and_wait();
    let mut traced = None;
    let log_path = ctx.work.join("requests.jsonl");
    if ctx.trace {
        let h = start(&vcf, Some(&log_path))?;
        let taddr = h.addr().to_string();
        first_reply(&taddr)?;
        ld_trace::reset();
        let phase = traffic(ctx, &taddr, ctx.seconds / 2.0, 1);
        let probes = probe_accept_and_rtt(&taddr)?;
        h.shutdown_and_wait();
        traced = Some((phase, probes));
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    // ---- oracle (untimed): the engine's triangle of the same panel ----
    let g = parse_vcf(rec, &vcf, 0)?;
    let oracle = engine().stat_matrix_twopass(&g, LdStats::RSquared);
    let mut failed = failures(&plain, &oracle);
    let mut attempted = plain.sent().count() as u64;
    if let Some((phase, _)) = &traced {
        failed += failures(phase, &oracle);
        attempted += phase.sent().count() as u64;
    }
    drop(oracle);

    let mut report = Report {
        attempted,
        failed,
        setups: setup_s.len(),
        ..Report::default()
    };
    let oneshot = &plain.oneshot.latency_ms;
    let tail_ms = report.tail(oneshot);
    report.e2e = vec![
        Metric::new("setup_s", median(&setup_s).expect("setup ran"), "s"),
        // LD values a client receives per second through region replies
        Metric::new(
            "mpairs_per_s",
            REGION_PAIRS / median(&plain.latencies(true)).unwrap_or(f64::NAN) * 1e3 / 1e6,
            "1e6/s",
        ),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::ok_frac(attempted, failed),
        Metric::new("p50_ms", median(oneshot).unwrap_or(0.0), "ms"),
        Metric::new("tail_ms", tail_ms, "ms"),
        Metric::new(
            "session_rps",
            plain.session_sent.len() as f64 / plain.session_s,
            "1/s",
        ),
    ];
    let Some((phase, (accept_ms, rtt_ms))) = traced else {
        return Ok(report);
    };

    // ---- traced run ----------------------------------------------------
    let events = read_log(&log_path)?;
    let terminal = |op: &str| -> Vec<&LogEvent> {
        events
            .iter()
            .filter(|e| e.opcode == op && e.event == "finish" && e.status == "ok")
            .collect()
    };
    let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
    let mut layer_serve = Vec::new();
    for (op, region, name_q, name_s, name_u) in [
        (
            "pair",
            false,
            "serve.pair.queue_ms",
            "serve.pair.service_ms",
            "serve.pair.unattributed_ms",
        ),
        (
            "region",
            true,
            "serve.region.queue_ms",
            "serve.region.service_ms",
            "serve.region.unattributed_ms",
        ),
    ] {
        let ev = terminal(op);
        let server_total = med(ev.iter().map(|e| e.total_ms).collect());
        let client = med(phase.latencies(region));
        layer_serve.push(Metric::new(
            name_q,
            med(ev.iter().map(|e| e.queue_ms).collect()),
            "ms",
        ));
        layer_serve.push(Metric::new(
            name_s,
            med(ev.iter().map(|e| e.service_ms).collect()),
            "ms",
        ));
        layer_serve.push(Metric::new(name_u, client - server_total, "ms"));
    }
    let region_bodies: Vec<f64> = phase
        .sent()
        .filter(|s| matches!(s.req, Request::Region { .. }))
        .filter_map(|s| s.resp.as_ref().ok().map(|r| r.body.len() as f64))
        .collect();
    let shed = events
        .iter()
        .filter(|e| matches!(e.status.as_str(), "shed" | "timeout" | "shutting_down"))
        .count();
    let client_pairs = phase
        .sent()
        .filter(|s| matches!(s.req, Request::Pair { .. }))
        .count();
    let server_pairs = events
        .iter()
        .filter(|e| e.opcode == "pair" && e.event == "accept")
        .count();
    // the traced daemon's first query (the panel load) is not client traffic
    let retries = server_pairs.saturating_sub(client_pairs + 1);
    let late = tail(&plain.oneshot.late_ms).map(|t| t.1).unwrap_or(0.0);
    let overhead_pct = (med(phase.session_pair_ms()) / med(plain.session_pair_ms()) - 1.0) * 100.0;
    report.overhead_pct = overhead_pct;

    // the panel load's own layers: parse, counts GEMM, first touch
    let vcf_mb = std::fs::metadata(&vcf).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    let parse_s = med((0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let r = parse_vcf(rec, &vcf, 0);
            std::hint::black_box(r.is_ok());
            t0.elapsed().as_secs_f64()
        })
        .collect());
    let panel_load_s = med((0..SETUP_REPS)
        .map(|_| {
            let mut reg = PanelRegistry::new(engine(), 1 << 30);
            reg.add_source(PANEL, PanelSource::TextFile(vcf.clone()));
            let t0 = Instant::now();
            let r = rec.span("serve.panel_load", 0, |_| {
                reg.get(
                    PANEL,
                    LdStats::RSquared,
                    &CancelToken::new(),
                    Deadline::after(Duration::from_secs(120)),
                )
            });
            let s = t0.elapsed().as_secs_f64();
            if r.is_err() {
                f64::NAN
            } else {
                s
            }
        })
        .collect());
    let view = ld_bitmat::BitMatrixView::from(&g);
    let counts_s = counts_probe(rec, &view);
    let engine_s = med((0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let m = rec.span("core.engine", 0, |_| {
                engine().try_stat_matrix_with(&g, LdStats::RSquared, &ld_core::RunControl::new())
            });
            let s = t0.elapsed().as_secs_f64();
            if m.is_err() {
                f64::NAN
            } else {
                s
            }
        })
        .collect());
    let (touch_s, touch_gbs) = first_touch(rec, SNPS)?;
    let word_pairs = (SNPS * (SNPS + 1) / 2) as f64 * view.words_per_snp() as f64;
    let wpc = match ld_kernels::clock::tsc_hz() {
        Some(hz) if counts_s > 0.0 => word_pairs / (counts_s * hz * THREADS as f64),
        _ => 0.0,
    };
    report.layers = vec![
        Metric::new("io.vcf_parse_s", parse_s, "s"),
        Metric::new("io.vcf_parse_mb_per_s", vcf_mb / parse_s, "MB/s"),
        Metric::new("kernels.counts_s", counts_s, "s"),
        Metric::new("kernels.word_pairs", word_pairs, "count"),
        Metric::new("kernels.words_per_cycle", wpc, "words/cycle"),
        Metric::new("core.engine_s", engine_s, "s"),
        Metric::new("core.first_touch_s", touch_s, "s"),
        Metric::new("core.first_touch_gb_per_s", touch_gbs, "GB/s"),
        Metric::new(
            "core.unattributed_frac",
            1.0 - (parse_s + counts_s + touch_s) / panel_load_s,
            "ratio",
        ),
        Metric::new("serve.accept_ms", accept_ms, "ms"),
        Metric::new("serve.frame_rtt_ms", rtt_ms, "ms"),
        Metric::new("serve.panel_load_s", panel_load_s, "s"),
        Metric::new("serve.region_bytes", med(region_bodies), "bytes"),
        Metric::new("serve.region_p50_ms", med(phase.latencies(true)), "ms"),
        Metric::new("serve.shed", shed as f64, "count"),
        Metric::new("serve.retries", retries as f64, "count"),
        Metric::new("loadgen.late_tail_ms", late, "ms"),
        Metric::new("trace.overhead_pct", overhead_pct, "%"),
    ];
    report.layers.extend(layer_serve);
    Ok(report)
}
