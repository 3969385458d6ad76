#!/usr/bin/env bash
# Offline CI gate for the gemm-ld workspace.
#
# Runs the full tier-1 pipeline with no network access:
#   1. rustfmt        — formatting is canonical
#   2. clippy         — all targets, warnings are errors
#   3. clippy (strict) — unwrap/expect denied in the panic-free crates
#   4. release build
#   5. workspace tests (quiet)
#   6. feature matrix — the compute stack passes with the `metrics`
#      instrumentation compiled out AND compiled in
#   7. zero-overhead guard — metrics-on and metrics-off CLI builds produce
#      byte-identical r² tables (threads 1/2/7), and `--profile=json`
#      validates against schemas/metrics.schema.json
#   8. perf smoke — the metrics-off build must not trail the metrics-on
#      build by > 2% (warning by default; CI_STRICT_PERF=1 makes it fatal)
#   9. interruption smoke — a deadline-carrying run must not trail a
#      plain run by > 2% (token/deadline polling is slab-granular, so
#      it must be free at kernel scale; same strictness switch)
#  10. kill/resume — `r2 --timeout 0 --checkpoint` must exit 5 with a
#      resume hint and a checkpoint on disk; the `--resume` rerun must
#      exit 0, produce a pair table byte-identical to a clean run, and
#      remove the checkpoint
#  11. malformed-input corpus through the CLI — every fixture must fail
#      with a nonzero exit and a single error line, never a panic
#  12. trace leg — `r2 --trace-out/--trace-report` must emit well-formed
#      Chrome trace-event JSON and a report that validates against
#      schemas/trace_report.schema.json with zero dropped events at the
#      default ring capacity; the flight recorder must cost <= 2% over
#      `--profile` alone (same CI_STRICT_PERF switch as step 8)
#  13. autotune leg — `tune --quick` writes a profile that validates
#      against schemas/cpu_profile.schema.json, a second run loads it
#      (verified by its slab geometry showing up in the metrics
#      counters), and tuned vs default r² tables are byte-identical
#  14. bench-regression gate — a fresh `fused` bench run is diffed
#      against results/baselines/BENCH_fused.json with per-metric
#      tolerance bands (scripts/bench_compare.py); rerun with
#      LD_BENCH_UPDATE_BASELINE=1 to refresh the baseline after an
#      intentional perf change (then commit it)
#  15. shard/merge leg — a 4-way `r2 --shard i/4` split stitched by
#      `merge` must be byte-identical to the one-shot pair table; a
#      merge missing one shard must exit 3 with a gap report naming the
#      shard to re-run and write nothing; a bit-flipped shard file must
#      be rejected by its CRC (exit 3, nothing written)
#  16. kill/retry leg — `run-sharded --fault-kill` SIGKILLs one shard
#      mid-run; the supervisor must classify the crash, retry it, and
#      still produce a panel byte-identical to the one-shot run, with
#      the crash+retry recorded in a manifest that validates against
#      schemas/shard_manifest.schema.json
#  17. out-of-core leg — `import` writes a chunked tile store whose
#      manifest validates against schemas/tile_manifest.schema.json;
#      `r2 --store` (budgeted, streaming) must be byte-identical to the
#      one-shot in-memory table, kill/resume on the store must
#      re-enter bit-identically, a bit-flipped chunk must be rejected
#      with exit 3 naming the chunk, and a fresh `outofcore` bench run
#      is gated against results/baselines/BENCH_outofcore.json (same
#      LD_BENCH_UPDATE_BASELINE refresh switch as step 14)
#  18. serve leg — the `serve_ci` driver spawns a real `gemm-ld serve`
#      daemon on a loopback port and proves: overload (1 slow worker,
#      depth-1 queue) splits into Ok + typed Shed responses with zero
#      hung connections; clients killed mid-request leave the pool
#      serving; SIGINT mid-load drains the in-flight region query —
#      whose bytes must equal the one-shot `r2 -o` table exactly — and
#      exits 0; an expired drain deadline exits 5 with the straggler
#      still receiving a typed response; finally the `serve_load`
#      fault-injection bench (malformed frames, half-open peers, a
#      SIGKILLed server) must pass end to end, and its BENCH_serve.json
#      is gated against results/baselines/BENCH_serve.json — request
#      throughput direction-aware, client p99 with an absolute slack,
#      and the in-run telemetry-overhead A/B bounded at 3% absolute
#      (same LD_BENCH_UPDATE_BASELINE refresh switch as step 14)
#  19. telemetry leg — a daemon with the full observability plane on
#      (--metrics-addr, --request-log, --trace-dump) is driven with real
#      load; the GET /metrics scrape and the `metrics` opcode must both
#      pass scripts/validate_prometheus.py and agree with each other
#      (equal gauges, monotone counters); SIGUSR1 must snapshot the live
#      flight recorder into a Perfetto-valid dump with the daemon still
#      serving; the request log must be schema-valid JSON-lines
#      (schemas/request_log.schema.json) with gap-free seq numbers and a
#      monotone lifecycle per request ending in exactly one terminal
#      event; SIGINT must still drain cleanly to exit 0
#
# Usage: scripts/ci.sh        (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

export CARGO_NET_OFFLINE=true
# The machine running CI may carry a cached `gemm-ld tune` profile or an
# LD_KERNEL override; every leg below must measure the committed defaults
# (the autotune leg re-enables the profile explicitly, in a private path).
export LD_NO_CPU_PROFILE=1
unset LD_KERNEL

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
# The library code of the compute/I/O stack must be panic-free on the
# error path: no unwrap/expect outside tests (lib targets only — test
# modules and doc examples may unwrap freely).
run cargo clippy --no-deps -p ld-core -p ld-parallel -p ld-io -p ld-bitmat -p ld-serve --offline -- \
    -D warnings -D clippy::unwrap-used -D clippy::expect-used
run cargo build --release --workspace --offline
run cargo test -q --workspace --offline

# Feature matrix: the workspace leg above unifies `metrics` ON (ld-cli and
# ld-bench default it); this leg pins the compiled-OUT build of the compute
# stack, then the explicit compiled-IN build of the same package set (which
# includes the metrics_invariants counter tests).
echo "==> feature matrix: compute stack with metrics compiled out"
run cargo test -q --offline -p ld-trace -p ld-kernels -p ld-parallel -p ld-io -p ld-core
echo "==> feature matrix: compute stack with metrics compiled in"
run cargo test -q --offline -p ld-trace -p ld-kernels -p ld-parallel -p ld-io -p ld-core \
    --features "ld-trace/metrics ld-kernels/metrics ld-parallel/metrics ld-io/metrics ld-core/metrics"
# Isolation guard: the suites that share process-global hooks (fault
# injection, allocation counting) and temp directories must stay green
# under a wide parallel runner, not only at the default thread count.
echo "==> isolation: compute, I/O and CLI suites at 8 test threads"
run cargo test -q --offline -p ld-kernels -p ld-core -p ld-io -p ld-cli -- --test-threads=8

# Zero-overhead guard: the instrumentation must never change results.
# Build the CLI both ways, run the same simulated dataset through each at
# 1/2/7 threads, and require byte-identical pair tables; the metrics run
# also emits --profile=json for schema validation below.
echo "==> zero-overhead guard: metrics-on vs metrics-off bit-exactness"
run cargo build --release --offline -p ld-cli
cp target/release/gemm-ld target/release/gemm-ld.metrics
run cargo build --release --offline -p ld-cli --no-default-features
cp target/release/gemm-ld target/release/gemm-ld.nometrics
GUARD_SIM=target/ci-guard.ms
run target/release/gemm-ld.metrics simulate --samples 400 --snps 300 --seed 42 -o "$GUARD_SIM"
for T in 1 2 7; do
    target/release/gemm-ld.metrics r2 -i "$GUARD_SIM" --threads "$T" \
        --profile=json --profile-out "target/ci-profile-t$T.json" \
        -o "target/ci-on-t$T.tsv" 2>/dev/null
    # --trace-out on the metrics-off build exercises the compiled-out
    # recorder stubs: the flag must warn, not change a byte of output.
    target/release/gemm-ld.nometrics r2 -i "$GUARD_SIM" --threads "$T" \
        --trace-out "target/ci-off-trace-t$T.json" \
        -o "target/ci-off-t$T.tsv" 2>/dev/null
    if ! cmp -s "target/ci-on-t$T.tsv" "target/ci-off-t$T.tsv"; then
        echo "guard FAIL: metrics-on and metrics-off outputs differ (threads=$T)" >&2
        exit 1
    fi
done
echo "    metrics-on and metrics-off outputs byte-identical (threads 1/2/7, recorder stubs exercised)"

echo "==> schema validation: --profile=json vs schemas/metrics.schema.json"
if command -v python3 >/dev/null 2>&1; then
    for T in 1 2 7; do
        run python3 scripts/validate_metrics.py schemas/metrics.schema.json "target/ci-profile-t$T.json"
    done
else
    echo "    python3 unavailable; schema validation skipped"
fi

# Trace leg: the flight recorder must produce a well-formed Perfetto
# timeline and an analysis report that (a) validates against the stable
# schema and (b) dropped zero events at the default ring capacity.
echo "==> trace leg: --trace-out/--trace-report schema + zero-drop"
target/release/gemm-ld.metrics r2 -i "$GUARD_SIM" --threads 7 \
    --trace-out target/ci-trace.json \
    --trace-report target/ci-trace-report.json \
    -o target/ci-trace.tsv 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/validate_metrics.py schemas/trace_report.schema.json target/ci-trace-report.json
    python3 - <<'PYEOF'
import json, sys

rep = json.load(open("target/ci-trace-report.json"))
if rep["dropped"] != 0:
    sys.exit(f"trace leg FAIL: {rep['dropped']} events dropped at default ring capacity")
if rep["open_spans"] != 0:
    sys.exit(f"trace leg FAIL: {rep['open_spans']} spans never closed")
if abs(rep["share_sum"] - 1.0) > 0.01:
    sys.exit(f"trace leg FAIL: layer shares sum to {rep['share_sum']:.4f} (must be 1 within 1%)")
doc = json.load(open("target/ci-trace.json"))
evs = doc["traceEvents"]
need = {"ph", "pid", "tid"}
bad = [e for e in evs if not need <= e.keys()]
if bad:
    sys.exit(f"trace leg FAIL: {len(bad)} malformed trace events (missing {need})")
complete = [e for e in evs if e["ph"] == "X"]
if not complete:
    sys.exit("trace leg FAIL: no complete ('X') span events recorded")
if any("ts" not in e or "dur" not in e for e in complete):
    sys.exit("trace leg FAIL: complete events must carry ts + dur")
print(f"    {len(evs)} trace events ({len(complete)} spans), 0 dropped, report schema valid")
PYEOF
else
    echo "    python3 unavailable; trace validation skipped"
fi

# Perf smoke: with the feature compiled out the binary must be at least as
# fast as the instrumented one (the counters are supposed to be the only
# cost, and they are compiled to no-ops). Timing in CI is noisy, so a
# violation warns unless CI_STRICT_PERF=1.
echo "==> perf smoke: metrics-off vs metrics-on wall time"
PERF_SIM=target/ci-perf.ms
run target/release/gemm-ld.metrics simulate --samples 500 --snps 1500 --seed 7 -o "$PERF_SIM"
best_wall() {
    local bin=$1 best="" t
    shift
    for _ in 1 2 3 4 5; do
        t=$("$bin" r2 -i "$PERF_SIM" --threads 2 "$@" 2>&1 >/dev/null \
            | sed -n 's/.* in \([0-9.]*\)s .*/\1/p')
        if [ -z "$best" ] || awk -v a="$t" -v b="$best" 'BEGIN{exit !(a<b)}'; then
            best=$t
        fi
    done
    echo "$best"
}
ON_SECS=$(best_wall target/release/gemm-ld.metrics)
OFF_SECS=$(best_wall target/release/gemm-ld.nometrics)
echo "    best-of-5 wall: metrics-on ${ON_SECS}s, metrics-off ${OFF_SECS}s"
if awk -v on="$ON_SECS" -v off="$OFF_SECS" 'BEGIN{exit !(off > on * 1.02)}'; then
    echo "    WARNING: metrics-off slower than metrics-on by > 2% (noise or regression)"
    if [ "${CI_STRICT_PERF:-0}" = "1" ]; then
        exit 1
    fi
fi

# Recorder-overhead smoke: span recording is a handful of relaxed atomic
# stores per slab, so a traced run must cost <= 2% over `--profile` alone.
# Uses a larger problem than the perf smoke: the summary wall is printed
# at 1 ms resolution, so the run must be long enough that 2% is visible.
echo "==> recorder-overhead smoke: --trace-out vs --profile alone"
REC_SIM=target/ci-recorder.ms
run target/release/gemm-ld.metrics simulate --samples 500 --snps 6000 --seed 9 -o "$REC_SIM"
PERF_SIM_SAVED=$PERF_SIM
PERF_SIM=$REC_SIM
PROF_SECS=$(best_wall target/release/gemm-ld.metrics \
    --profile=json --profile-out target/ci-perf-prof.json)
TRACE_SECS=$(best_wall target/release/gemm-ld.metrics \
    --profile=json --profile-out target/ci-perf-prof.json \
    --trace-out target/ci-perf-trace.json)
PERF_SIM=$PERF_SIM_SAVED
echo "    best-of-5 wall: profile ${PROF_SECS}s, profile+trace ${TRACE_SECS}s"
if awk -v tr="$TRACE_SECS" -v pr="$PROF_SECS" 'BEGIN{exit !(tr > pr * 1.02)}'; then
    echo "    WARNING: recorder costs > 2% over --profile alone (noise or regression)"
    if [ "${CI_STRICT_PERF:-0}" = "1" ]; then
        exit 1
    fi
fi

# Interruption smoke: cancellation/deadline polling happens once per row
# slab, never inside the tile loops, so a run carrying a (never-firing)
# deadline must be indistinguishable from a plain run at kernel scale.
echo "==> interruption smoke: deadline-carrying vs plain wall time"
PLAIN_SECS=$(best_wall target/release/gemm-ld.metrics)
TOKEN_SECS=$(best_wall target/release/gemm-ld.metrics --timeout 3600)
echo "    best-of-5 wall: plain ${PLAIN_SECS}s, with --timeout 3600 ${TOKEN_SECS}s"
if awk -v tok="$TOKEN_SECS" -v plain="$PLAIN_SECS" 'BEGIN{exit !(tok > plain * 1.02)}'; then
    echo "    WARNING: deadline-carrying run slower than plain by > 2% (noise or regression)"
    if [ "${CI_STRICT_PERF:-0}" = "1" ]; then
        exit 1
    fi
fi

# Kill/resume: an interrupted checkpointed run must exit 5 with a resume
# hint and leave a snapshot; the resumed run must complete, match a clean
# (streamed) run byte-for-byte, and clean up its checkpoint.
echo "==> kill/resume: --timeout 0 checkpoint, then --resume to completion"
KR_BIN=target/release/gemm-ld.metrics
KR_SIM=target/ci-kr.ms
KR_CKPT=target/ci-kr.ckpt
run "$KR_BIN" simulate --samples 300 --snps 400 --seed 11 -o "$KR_SIM"
"$KR_BIN" r2 -i "$KR_SIM" --threads 2 -o target/ci-kr-clean.tsv 2>/dev/null
rm -f "$KR_CKPT"
set +e
"$KR_BIN" r2 -i "$KR_SIM" --threads 2 --timeout 0 --checkpoint "$KR_CKPT" \
    -o target/ci-kr-int.tsv 2>target/ci-kr-int.err
kr_status=$?
set -e
if [ "$kr_status" -ne 5 ]; then
    echo "kill/resume FAIL: interrupted run exited $kr_status (expected 5)" >&2
    cat target/ci-kr-int.err >&2
    exit 1
fi
if ! grep -q -- "--resume" target/ci-kr-int.err; then
    echo "kill/resume FAIL: stderr lacks the resume hint:" >&2
    cat target/ci-kr-int.err >&2
    exit 1
fi
if [ ! -f "$KR_CKPT" ]; then
    echo "kill/resume FAIL: no checkpoint at $KR_CKPT after interruption" >&2
    exit 1
fi
run "$KR_BIN" r2 -i "$KR_SIM" --threads 2 --checkpoint "$KR_CKPT" --resume \
    -o target/ci-kr-resumed.tsv
if ! cmp -s target/ci-kr-clean.tsv target/ci-kr-resumed.tsv; then
    echo "kill/resume FAIL: resumed pair table differs from the clean run" >&2
    exit 1
fi
if [ -f "$KR_CKPT" ]; then
    echo "kill/resume FAIL: checkpoint not removed after successful resume" >&2
    exit 1
fi
echo "    exit 5 + snapshot + bit-identical resume + checkpoint cleanup: OK"

# Autotune leg: `tune --quick` must produce a schema-valid, CRC-intact
# profile; a following r2 run must actually load it (its slab geometry
# shows up in the metrics counters); and because tuning only moves
# scheduling/blocking parameters, the tuned table must be byte-identical
# to the default one.
echo "==> autotune leg: tune --quick round-trip + bit-exactness"
TUNE_BIN=target/release/gemm-ld.metrics
TUNE_PROFILE=target/ci-tune-profile.json
TUNE_SIM=target/ci-tune.ms
rm -f "$TUNE_PROFILE"
run env LD_NO_CPU_PROFILE=0 LD_CPU_PROFILE="$TUNE_PROFILE" \
    "$TUNE_BIN" tune --quick --threads 2
if [ ! -f "$TUNE_PROFILE" ]; then
    echo "autotune FAIL: tune wrote no profile at $TUNE_PROFILE" >&2
    exit 1
fi
run "$TUNE_BIN" simulate --samples 300 --snps 250 --seed 13 -o "$TUNE_SIM"
env LD_NO_CPU_PROFILE=0 LD_CPU_PROFILE="$TUNE_PROFILE" \
    "$TUNE_BIN" r2 -i "$TUNE_SIM" --threads 2 \
    --profile=json --profile-out target/ci-tune-metrics.json \
    -o target/ci-tune-on.tsv 2>target/ci-tune-on.err
if grep -q "warning: ignoring CPU profile" target/ci-tune-on.err; then
    echo "autotune FAIL: the freshly tuned profile was rejected on load:" >&2
    cat target/ci-tune-on.err >&2
    exit 1
fi
"$TUNE_BIN" r2 -i "$TUNE_SIM" --threads 2 -o target/ci-tune-off.tsv 2>/dev/null
if ! cmp -s target/ci-tune-on.tsv target/ci-tune-off.tsv; then
    echo "autotune FAIL: tuned and default r2 tables differ" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/validate_metrics.py schemas/cpu_profile.schema.json "$TUNE_PROFILE"
    python3 - <<'PYEOF'
import json, math, sys

prof = json.load(open("target/ci-tune-profile.json"))
slab = prof["payload"]["tuned"]["slab_rows"]
met = json.load(open("target/ci-tune-metrics.json"))
if met.get("enabled"):
    got = met["counters"]["slabs_emitted"]
    want = math.ceil(250 / slab)
    if got != want:
        sys.exit(
            f"autotune FAIL: r2 emitted {got} slabs but the tuned profile's "
            f"slab_rows={slab} implies {want} — the profile was not applied"
        )
    print(f"    profile applied: slab_rows={slab} -> {got} slabs over 250 SNPs")
else:
    print("    (metrics disabled; slab-geometry check skipped)")
PYEOF
else
    echo "    python3 unavailable; profile schema validation skipped"
fi
echo "    tuned profile round-trips; tuned vs default tables byte-identical"

# Corpus step: feed every text-format fixture from the malformed-input
# corpus to the release CLI. Each must exit nonzero with an `error:`
# line on stderr and no panic backtrace.
echo "==> corpus: malformed inputs through the CLI"
BIN=target/release/gemm-ld
checked=0
for fixture in crates/io/tests/corpus/*.ms crates/io/tests/corpus/*.vcf crates/io/tests/corpus/*.txt; do
    set +e
    stderr=$("$BIN" r2 -i "$fixture" 2>&1 >/dev/null)
    status=$?
    set -e
    if [ "$status" -eq 0 ]; then
        echo "corpus FAIL: $fixture exited 0 (must be rejected)" >&2
        exit 1
    fi
    case "$stderr" in
        *"panicked at"*)
            echo "corpus FAIL: $fixture produced a panic backtrace:" >&2
            echo "$stderr" >&2
            exit 1
            ;;
        "error: "*) ;;
        *)
            echo "corpus FAIL: $fixture stderr lacks an 'error:' line:" >&2
            echo "$stderr" >&2
            exit 1
            ;;
    esac
    checked=$((checked + 1))
done
if [ "$checked" -lt 15 ]; then
    echo "corpus FAIL: only $checked fixtures checked (expected >= 15)" >&2
    exit 1
fi
echo "    $checked fixtures rejected cleanly"

# Bench-regression gate: run the fused bench (internally best-of-N per
# size) and diff it against the committed baseline with per-metric
# tolerance bands. LD_BENCH_UPDATE_BASELINE=1 refreshes the baseline
# instead (after an intentional perf change — commit the result).
echo "==> bench-regression gate: fused vs committed baseline"
BASELINE=results/baselines/BENCH_fused.json
rm -f BENCH_fused.json
run target/release/fused --threads 2
if [ "${LD_BENCH_UPDATE_BASELINE:-0}" = "1" ]; then
    cp BENCH_fused.json "$BASELINE"
    echo "    baseline refreshed: $BASELINE (commit it)"
elif command -v python3 >/dev/null 2>&1; then
    run python3 scripts/bench_compare.py "$BASELINE" BENCH_fused.json
else
    echo "    python3 unavailable; bench-regression gate skipped"
fi

# Shard/merge leg: splitting a run across processes must be invisible in
# the output. A 4-way --shard split stitched by `merge` has to reproduce
# the one-shot pair table byte for byte; damaged or incomplete shard sets
# must be rejected before anything is written.
echo "==> shard/merge: 4-way split must merge byte-identical to one-shot"
SH_BIN=target/release/gemm-ld.metrics
SH_SIM=target/ci-shard.ms
run "$SH_BIN" simulate --samples 500 --snps 3000 --seed 17 -o "$SH_SIM"
"$SH_BIN" r2 -i "$SH_SIM" --threads 2 --min-r2 0 -o target/ci-shard-one.tsv 2>/dev/null
for I in 1 2 3 4; do
    run "$SH_BIN" r2 -i "$SH_SIM" --threads 2 --min-r2 0 --slab-rows 32 \
        --shard "$I/4" -o "target/ci-shard-$I.bin"
done
run "$SH_BIN" merge target/ci-shard-1.bin target/ci-shard-2.bin \
    target/ci-shard-3.bin target/ci-shard-4.bin \
    --min-r2 0 -i "$SH_SIM" -o target/ci-shard-merged.tsv
if ! cmp -s target/ci-shard-one.tsv target/ci-shard-merged.tsv; then
    echo "shard/merge FAIL: merged panel differs from the one-shot run" >&2
    exit 1
fi
echo "    4-way shard set merged byte-identical to the one-shot table"

echo "==> shard/merge: incomplete set must exit 3 with a gap report"
rm -f target/ci-shard-gap.tsv
set +e
"$SH_BIN" merge target/ci-shard-1.bin target/ci-shard-2.bin --shards 4 \
    -o target/ci-shard-gap.tsv 2>target/ci-shard-gap.err
gap_status=$?
set -e
if [ "$gap_status" -ne 3 ]; then
    echo "shard/merge FAIL: gap merge exited $gap_status (expected 3)" >&2
    cat target/ci-shard-gap.err >&2
    exit 1
fi
if ! grep -q "missing" target/ci-shard-gap.err \
    || ! grep -q "re-run shard" target/ci-shard-gap.err; then
    echo "shard/merge FAIL: stderr lacks the gap report:" >&2
    cat target/ci-shard-gap.err >&2
    exit 1
fi
if [ -f target/ci-shard-gap.tsv ]; then
    echo "shard/merge FAIL: incomplete merge wrote a partial panel" >&2
    exit 1
fi
echo "    incomplete set rejected with a gap report, nothing written"

echo "==> shard/merge: bit-flipped shard file must be rejected by CRC"
cp target/ci-shard-2.bin target/ci-shard-bad.bin
bad_size=$(wc -c < target/ci-shard-bad.bin)
bad_off=$((bad_size / 2))
printf '\xAA' | dd of=target/ci-shard-bad.bin bs=1 seek="$bad_off" conv=notrunc 2>/dev/null
if cmp -s target/ci-shard-2.bin target/ci-shard-bad.bin; then
    # the original byte was already 0xAA; flip to its complement instead
    printf '\x55' | dd of=target/ci-shard-bad.bin bs=1 seek="$bad_off" conv=notrunc 2>/dev/null
fi
rm -f target/ci-shard-flip.tsv
set +e
"$SH_BIN" merge target/ci-shard-1.bin target/ci-shard-bad.bin \
    target/ci-shard-3.bin target/ci-shard-4.bin \
    -o target/ci-shard-flip.tsv 2>target/ci-shard-flip.err
flip_status=$?
set -e
if [ "$flip_status" -eq 0 ] || [ -f target/ci-shard-flip.tsv ]; then
    echo "shard/merge FAIL: bit-flipped shard was accepted (exit $flip_status)" >&2
    exit 1
fi
if ! grep -qi "CRC" target/ci-shard-flip.err; then
    echo "shard/merge FAIL: stderr does not name the CRC failure:" >&2
    cat target/ci-shard-flip.err >&2
    exit 1
fi
echo "    bit-flipped shard rejected by CRC (exit $flip_status), nothing written"

# Kill/retry leg: the supervisor's own fault harness SIGKILLs shard 1 on
# its first attempt ~25 ms in. The run must still converge: crash
# classified, shard retried after backoff, final panel byte-identical to
# the one-shot run, and the whole story recorded in a schema-valid
# manifest.
echo "==> shard supervisor: SIGKILL one shard mid-run, retry, identical panel"
SUP_DIR=target/ci-sup.shards
rm -rf "$SUP_DIR"
run "$SH_BIN" run-sharded -i "$SH_SIM" -o target/ci-sup.tsv --shards 2 \
    --threads 2 --min-r2 0 --retries 2 --backoff-ms 50 --fault-kill 1 \
    --work-dir "$SUP_DIR"
if ! cmp -s target/ci-shard-one.tsv target/ci-sup.tsv; then
    echo "supervisor FAIL: sharded panel differs from the one-shot run" >&2
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/validate_metrics.py schemas/shard_manifest.schema.json "$SUP_DIR/manifest.json"
    python3 - <<'PYEOF'
import json, sys

man = json.load(open("target/ci-sup.shards/manifest.json"))
if man["interrupted"]:
    sys.exit("supervisor FAIL: manifest marked interrupted after a clean finish")
states = {s["shard"]: s for s in man["shard_states"]}
s1 = states[1]
if "crash" not in s1["classifications"]:
    sys.exit(f"supervisor FAIL: shard 1 never crashed ({s1['classifications']}) "
             "— the fault injection did not land")
if s1["state"] != "done" or s1["attempts"] < 2:
    sys.exit(f"supervisor FAIL: shard 1 not retried to completion: {s1}")
if any(s["state"] != "done" for s in states.values()):
    sys.exit(f"supervisor FAIL: unfinished shards in manifest: {man['shard_states']}")
print(f"    shard 1 crashed and was retried ({s1['attempts']} attempts); "
      "all shards done, manifest schema-valid")
PYEOF
else
    echo "    python3 unavailable; manifest validation skipped"
fi
echo "    SIGKILLed shard retried; final panel byte-identical to one-shot"

# Out-of-core leg: the tile store must be invisible in the output. A
# streamed, memory-budgeted `r2 --store` run has to reproduce the
# one-shot in-memory pair table byte for byte; the manifest must
# validate against its schema; kill/resume must re-enter bit-identically
# without a fresh start; and a damaged chunk must be a typed exit-3
# error that names the chunk.
echo "==> out-of-core: import + streamed r2 must match the one-shot table"
OOC_DIR=target/ci-ooc.store
rm -rf "$OOC_DIR"
run "$SH_BIN" import -i "$SH_SIM" --store "$OOC_DIR" --chunk-snps 256
if command -v python3 >/dev/null 2>&1; then
    run python3 scripts/validate_metrics.py schemas/tile_manifest.schema.json "$OOC_DIR/manifest.json"
else
    echo "    python3 unavailable; tile-manifest schema validation skipped"
fi
run "$SH_BIN" r2 --store "$OOC_DIR" --threads 2 --min-r2 0 \
    --memory-budget-mb 1 -o target/ci-ooc.tsv
if ! cmp -s target/ci-shard-one.tsv target/ci-ooc.tsv; then
    echo "out-of-core FAIL: streamed table differs from the one-shot run" >&2
    exit 1
fi
echo "    budgeted streamed table byte-identical to the one-shot run"

echo "==> out-of-core: kill/resume on the store must be bit-identical"
OOC_CK=target/ci-ooc.ckpt
rm -f "$OOC_CK" target/ci-ooc-resumed.tsv
set +e
"$SH_BIN" r2 --store "$OOC_DIR" --threads 2 --min-r2 0 --timeout 0 \
    --checkpoint "$OOC_CK" -o target/ci-ooc-resumed.tsv 2>target/ci-ooc-kill.err
ooc_kill_status=$?
set -e
if [ "$ooc_kill_status" -ne 5 ] || [ ! -f "$OOC_CK" ]; then
    echo "out-of-core FAIL: killed run exited $ooc_kill_status (expected 5 + checkpoint)" >&2
    cat target/ci-ooc-kill.err >&2
    exit 1
fi
run "$SH_BIN" r2 --store "$OOC_DIR" --threads 2 --min-r2 0 \
    --checkpoint "$OOC_CK" --resume -o target/ci-ooc-resumed.tsv
if ! cmp -s target/ci-shard-one.tsv target/ci-ooc-resumed.tsv; then
    echo "out-of-core FAIL: resumed table differs from the one-shot run" >&2
    exit 1
fi
if [ -f "$OOC_CK" ]; then
    echo "out-of-core FAIL: completed resume left its checkpoint behind" >&2
    exit 1
fi
echo "    killed at slab 0, resumed to a byte-identical table"

echo "==> out-of-core: bit-flipped chunk must be rejected, naming the chunk"
OOC_CHUNK="$OOC_DIR/chunk_000002.bin"
ooc_size=$(wc -c < "$OOC_CHUNK")
ooc_off=$((ooc_size / 2))
printf '\xAA' | dd of="$OOC_CHUNK" bs=1 seek="$ooc_off" conv=notrunc 2>/dev/null
set +e
"$SH_BIN" r2 --store "$OOC_DIR" --threads 2 -o target/ci-ooc-bad.tsv \
    2>target/ci-ooc-bad.err
ooc_bad_status=$?
set -e
if [ "$ooc_bad_status" -ne 3 ]; then
    echo "out-of-core FAIL: damaged chunk exited $ooc_bad_status (expected 3)" >&2
    cat target/ci-ooc-bad.err >&2
    exit 1
fi
if ! grep -q "chunk 2" target/ci-ooc-bad.err; then
    echo "out-of-core FAIL: stderr does not name the damaged chunk:" >&2
    cat target/ci-ooc-bad.err >&2
    exit 1
fi
echo "    damaged chunk rejected (exit 3), error names chunk 2"

# Out-of-core bench gate: same policy as step 14.
echo "==> bench-regression gate: outofcore vs committed baseline"
OOC_BASELINE=results/baselines/BENCH_outofcore.json
rm -f BENCH_outofcore.json
run target/release/outofcore --threads 2
if [ "${LD_BENCH_UPDATE_BASELINE:-0}" = "1" ]; then
    cp BENCH_outofcore.json "$OOC_BASELINE"
    echo "    baseline refreshed: $OOC_BASELINE (commit it)"
elif command -v python3 >/dev/null 2>&1; then
    run python3 scripts/bench_compare.py "$OOC_BASELINE" BENCH_outofcore.json
else
    echo "    python3 unavailable; bench-regression gate skipped"
fi

# Serve leg: the query daemon must degrade, never fall over. The
# serve_ci driver spawns real `gemm-ld serve` processes and checks the
# overload/drain/exit-code contract end to end; `cmp` then holds the
# region bytes it captured mid-drain against the one-shot CLI table.
# serve_load adds concurrent load plus wire-level fault injection
# (malformed frames, half-open peers, killed clients, a SIGKILLed
# server) and emits BENCH_serve.json.
echo "==> serve: overload sheds, killed clients, SIGINT drain, exit codes"
SERVE_SIM=target/ci-serve.ms
SERVE_ONESHOT=target/ci-serve-oneshot.tsv
SERVE_REGION=target/ci-serve-region.tsv
run "$SH_BIN" simulate --samples 200 --snps 160 --seed 23 -o "$SERVE_SIM"
run "$SH_BIN" r2 -i "$SERVE_SIM" --threads 2 -o "$SERVE_ONESHOT"
run target/release/serve_ci --gemm-ld "$SH_BIN" --input "$SERVE_SIM" \
    --region-out "$SERVE_REGION"
if ! cmp -s "$SERVE_ONESHOT" "$SERVE_REGION"; then
    echo "serve FAIL: drained region response differs from the one-shot table" >&2
    exit 1
fi
echo "    in-flight region drained byte-identical to the one-shot table"

echo "==> serve: concurrent load + fault injection (serve_load)"
rm -f BENCH_serve.json
run target/release/serve_load --gemm-ld "$SH_BIN"

# Serve bench gate: same policy as steps 14/17. Throughput is gated
# direction-aware (only drops fail), client p99 gets the microsecond
# slack band, and the in-run telemetry A/B must stay within the
# absolute 3% bound regardless of baseline drift.
echo "==> bench-regression gate: serve vs committed baseline"
SERVE_BASELINE=results/baselines/BENCH_serve.json
if [ "${LD_BENCH_UPDATE_BASELINE:-0}" = "1" ]; then
    cp BENCH_serve.json "$SERVE_BASELINE"
    echo "    baseline refreshed: $SERVE_BASELINE (commit it)"
elif command -v python3 >/dev/null 2>&1; then
    run python3 scripts/bench_compare.py "$SERVE_BASELINE" BENCH_serve.json
else
    echo "    python3 unavailable; bench-regression gate skipped"
fi

# Telemetry leg: a real daemon with the whole observability plane on —
# Prometheus HTTP endpoint, metrics opcode, structured request log,
# armed flight recorder — driven by real load, then inspected from the
# outside like an operator would.
echo "==> telemetry: /metrics scrape + opcode, SIGUSR1 dump, request log"
if ! command -v python3 >/dev/null 2>&1; then
    echo "    python3 unavailable; telemetry leg skipped"
else
    TEL_LOG=target/ci-tel-requests.jsonl
    TEL_DUMP=target/ci-tel-dump.json
    TEL_OUT=target/ci-tel-serve.out
    rm -f "$TEL_LOG" "$TEL_DUMP" "$TEL_OUT" target/ci-tel-serve.err
    "$SH_BIN" serve bench="$SERVE_SIM" --addr 127.0.0.1:0 \
        --metrics-addr 127.0.0.1:0 --request-log "$TEL_LOG" \
        --trace-dump "$TEL_DUMP" --slow-ms 10000 --preload \
        >"$TEL_OUT" 2>target/ci-tel-serve.err &
    TEL_PID=$!
    for _ in $(seq 1 100); do
        grep -q "^metrics on " "$TEL_OUT" 2>/dev/null && break
        sleep 0.1
    done
    TEL_ADDR=$(sed -n 's/^listening on //p' "$TEL_OUT")
    TEL_MADDR=$(sed -n 's/^metrics on //p' "$TEL_OUT")
    if [ -z "$TEL_ADDR" ] || [ -z "$TEL_MADDR" ]; then
        echo "telemetry FAIL: daemon did not announce both addresses:" >&2
        cat "$TEL_OUT" target/ci-tel-serve.err >&2
        kill "$TEL_PID" 2>/dev/null || true
        exit 1
    fi
    # Real load through the LDS1 socket (phase-1 clients, attach mode).
    run target/release/serve_load --attach "$TEL_ADDR" --snps 160
    # Scrape the HTTP endpoint first, the opcode second: the opcode
    # counters must then be >= the scrape's (counters are monotone).
    python3 - "$TEL_MADDR" >target/ci-tel-http.prom <<'PYEOF'
import http.client, sys
host, port = sys.argv[1].rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=5)
conn.request("GET", "/metrics")
resp = conn.getresponse()
if resp.status != 200:
    sys.exit(f"telemetry FAIL: GET /metrics returned {resp.status}")
ctype = resp.getheader("Content-Type") or ""
if "version=0.0.4" not in ctype:
    sys.exit(f"telemetry FAIL: bad /metrics content-type {ctype!r}")
sys.stdout.write(resp.read().decode())
PYEOF
    echo "==> $SH_BIN monitor $TEL_ADDR --raw"
    "$SH_BIN" monitor "$TEL_ADDR" --raw >target/ci-tel-op.prom
    run python3 scripts/validate_prometheus.py target/ci-tel-http.prom
    run python3 scripts/validate_prometheus.py target/ci-tel-op.prom
    python3 - target/ci-tel-http.prom target/ci-tel-op.prom <<'PYEOF'
import sys

def samples(path):
    out = {}
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(None, 1)
        out[name_labels] = float(value)
    return out

http_s, op_s = samples(sys.argv[1]), samples(sys.argv[2])
for gauge in ("gemm_ld_workers", "gemm_ld_registry_budget_bytes"):
    if http_s.get(gauge) != op_s.get(gauge):
        sys.exit(f"telemetry FAIL: {gauge} differs between HTTP scrape "
                 f"({http_s.get(gauge)}) and metrics opcode ({op_s.get(gauge)})")
mono = [k for k in http_s if k.endswith("_total")]
bad = [k for k in mono if k in op_s and op_s[k] + 1e-9 < http_s[k]]
if bad:
    sys.exit(f"telemetry FAIL: counters went backwards between scrapes: {bad}")
acc = "gemm_ld_requests_accepted_total"
if http_s.get(acc, 0) < 320:
    sys.exit(f"telemetry FAIL: {acc}={http_s.get(acc)} after 320-request load")
print(f"    HTTP scrape and metrics opcode mutually consistent "
      f"({len(mono)} counters monotone, {acc}={op_s.get(acc):.0f})")
PYEOF
    # SIGUSR1 must snapshot the live recorder into a Perfetto-valid file
    # without disturbing the daemon.
    kill -USR1 "$TEL_PID"
    for _ in $(seq 1 100); do
        [ -s "$TEL_DUMP" ] && break
        sleep 0.1
    done
    if [ ! -s "$TEL_DUMP" ]; then
        echo "telemetry FAIL: no trace dump at $TEL_DUMP after SIGUSR1" >&2
        kill "$TEL_PID" 2>/dev/null || true
        exit 1
    fi
    python3 - "$TEL_DUMP" <<'PYEOF'
import json, sys

doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
if not evs:
    sys.exit("telemetry FAIL: SIGUSR1 dump is empty (the recorder is armed "
             "before --preload, so panel-compute spans must be present)")
need = {"ph", "pid", "tid"}
bad = [e for e in evs if not need <= e.keys()]
if bad:
    sys.exit(f"telemetry FAIL: {len(bad)} malformed trace events in the dump")
print(f"    SIGUSR1 dump: {len(evs)} Perfetto events, structure valid")
PYEOF
    # The daemon must still be serving after the dump, and drain on
    # SIGINT with exit 0.
    "$SH_BIN" monitor "$TEL_ADDR" --raw >/dev/null
    kill -INT "$TEL_PID"
    set +e
    wait "$TEL_PID"
    tel_status=$?
    set -e
    if [ "$tel_status" -ne 0 ]; then
        echo "telemetry FAIL: daemon exited $tel_status on SIGINT (expected 0)" >&2
        cat target/ci-tel-serve.err >&2
        exit 1
    fi
    # Request log: every line schema-valid JSON, per-request lifecycle
    # ordering monotone with exactly one terminal event, seq gap-free.
    python3 - "$TEL_LOG" <<'PYEOF'
import json, sys

sys.path.insert(0, "scripts")
from validate_metrics import validate

schema = json.load(open("schemas/request_log.schema.json"))
RANK = {"accept": 0, "admit": 1, "shed": 1, "start": 2,
        "timeout": 3, "panic": 3, "finish": 4}
TERMINAL = {"shed", "timeout", "finish"}
per_id = {}
n = 0
for n, line in enumerate(open(sys.argv[1]), 1):
    try:
        ev = json.loads(line)
    except json.JSONDecodeError as e:
        sys.exit(f"telemetry FAIL: request log line {n} is not JSON: {e}")
    errs = validate(ev, schema)
    if errs:
        sys.exit(f"telemetry FAIL: request log line {n}: " + "; ".join(errs))
    if ev["seq"] != n - 1:
        sys.exit(f"telemetry FAIL: line {n} has seq={ev['seq']} (gap)")
    per_id.setdefault(ev["id"], []).append(ev)
if n < 320 * 2:
    sys.exit(f"telemetry FAIL: only {n} log lines after a 320-request load")
for rid, evs in per_id.items():
    ranks = [RANK[e["event"]] for e in evs]
    if ranks != sorted(ranks) or len(set(ranks)) != len(ranks):
        sys.exit(f"telemetry FAIL: request {rid} lifecycle out of order: "
                 f"{[e['event'] for e in evs]}")
    if evs[0]["event"] != "accept":
        sys.exit(f"telemetry FAIL: request {rid} does not start with accept")
    terms = [e for e in evs if e["event"] in TERMINAL]
    if len(terms) != 1:
        sys.exit(f"telemetry FAIL: request {rid} has {len(terms)} terminal "
                 f"events: {[e['event'] for e in evs]}")
    monos = [e["mono_ns"] for e in evs]
    if monos != sorted(monos):
        sys.exit(f"telemetry FAIL: request {rid} mono_ns not monotone")
print(f"    request log: {n} lines schema-valid, {len(per_id)} lifecycles "
      "ordered, one terminal each")
PYEOF
    echo "    telemetry plane verified end to end (scrape, opcode, dump, log)"
fi

echo "==> CI green"
