//! Fault-injection harness for the panic-free boundary.
//!
//! Three failure modes are injected deliberately and must each surface as
//! a typed [`LdError`] — never a panic, abort, or hang:
//!
//! 1. **Allocation failure.** A counting global allocator refuses the
//!    N-th allocation *inside a fallible scope*
//!    ([`ld_core::error::fault::in_fallible_alloc`]), for every N, so
//!    every `try_reserve` site in the pipeline gets exercised.
//! 2. **Worker panic.** [`ld_core::error::fault::arm_kernel_panic`]
//!    makes the fused workers panic mid-scan; the team must drain and
//!    return [`LdError::Worker`] with the payload message preserved.
//! 3. **Memory pressure.** A tight [`MemoryBudget`] forces the slab to
//!    shrink; the result must stay bit-exact against the two-pass oracle,
//!    and an impossible budget must come back as `BudgetExceeded`.
//!
//! This file is its own integration-test binary so the `#[global_allocator]`
//! hook sees only this test's traffic. The fault hooks are process-global,
//! so every test that runs the engine holds [`lock_faults`] for its whole
//! body, and every hook is armed through an RAII guard that disarms it on
//! drop — also when the test panics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ld_bitmat::BitMatrix;
use ld_core::error::fault;
use ld_core::{LdEngine, LdError, LdStats, MemoryBudget};
use ld_rng::SmallRng;

/// Fails the `FAIL_AT`-th fallible allocation (1-based) on any thread
/// currently inside a fallible scope. `0` disarms. Infallible allocations
/// (Vec growth in kernels, test bookkeeping, ...) always succeed — failing
/// those would abort the process, which is exactly what the fallible API
/// exists to avoid.
struct InjectingAlloc;

static FAIL_AT: AtomicUsize = AtomicUsize::new(0);
static FALLIBLE_SEEN: AtomicUsize = AtomicUsize::new(0);

impl InjectingAlloc {
    fn should_fail() -> bool {
        if !fault::in_fallible_alloc() {
            return false;
        }
        let target = FAIL_AT.load(Ordering::Relaxed);
        if target == 0 {
            return false;
        }
        FALLIBLE_SEEN.fetch_add(1, Ordering::Relaxed) + 1 == target
    }
}

unsafe impl GlobalAlloc for InjectingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if Self::should_fail() {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if Self::should_fail() {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout)
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if Self::should_fail() {
            return std::ptr::null_mut();
        }
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: InjectingAlloc = InjectingAlloc;

/// Serializes every test that runs the engine: an armed hook fires on any
/// thread, so an unserialized engine run would trip over a neighbour's
/// fault.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock_faults() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Keeps an injected allocation failure armed; disarms it on drop.
#[must_use = "the allocation failure is disarmed when the guard drops"]
struct AllocFailure(());

impl Drop for AllocFailure {
    fn drop(&mut self) {
        FAIL_AT.store(0, Ordering::Relaxed);
    }
}

fn arm_alloc_failure(nth: usize) -> AllocFailure {
    FALLIBLE_SEEN.store(0, Ordering::Relaxed);
    FAIL_AT.store(nth, Ordering::Relaxed);
    AllocFailure(())
}

fn random_matrix(n_samples: usize, n_snps: usize, seed: u64) -> BitMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = BitMatrix::zeros(n_samples, n_snps);
    for j in 0..n_snps {
        for s in 0..n_samples {
            if rng.next_u64().is_multiple_of(3) {
                g.set(s, j, true);
            }
        }
        // keep every SNP polymorphic so r² is finite everywhere
        g.set(j % n_samples, j, true);
        g.set((j + 1) % n_samples, j, false);
    }
    g
}

fn bits(m: &ld_core::LdMatrix) -> Vec<u64> {
    m.packed().iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// 1. Allocation failure at every fallible site
// ---------------------------------------------------------------------

#[test]
fn every_fallible_allocation_site_fails_cleanly() {
    let _guard = lock_faults();
    let g = random_matrix(96, 48, 0xfa01);
    let engine = LdEngine::new().threads(2).slab_rows(8);

    let mut failures = 0usize;
    let mut completed = false;
    for nth in 1..=64 {
        let armed = arm_alloc_failure(nth);
        let result = engine.try_stat_matrix(&g, LdStats::RSquared);
        drop(armed);
        match result {
            Err(LdError::AllocationFailed { bytes, .. }) => {
                assert!(bytes > 0, "failure should report the requested size");
                failures += 1;
            }
            Err(other) => panic!("expected AllocationFailed, got: {other}"),
            Ok(m) => {
                // nth exceeded the number of fallible allocations in one
                // run: the pipeline completed untouched. Its output must
                // match an uninjected run exactly.
                let clean = engine
                    .try_stat_matrix(&g, LdStats::RSquared)
                    .expect("uninjected run");
                assert_eq!(bits(&m), bits(&clean));
                completed = true;
                break;
            }
        }
    }
    assert!(
        failures >= 3,
        "expected at least diag/tables/output/scratch sites, saw {failures}"
    );
    assert!(completed, "injection never ran past the last fallible site");
}

#[test]
fn counts_matrix_allocation_failure_is_typed() {
    let _guard = lock_faults();
    let g = random_matrix(32, 24, 0xfa02);
    let engine = LdEngine::new().threads(1);
    let armed = arm_alloc_failure(1);
    let result = engine.try_counts_matrix(&g);
    drop(armed);
    assert!(
        matches!(result, Err(LdError::AllocationFailed { .. })),
        "counts buffer must fail as AllocationFailed"
    );
}

// ---------------------------------------------------------------------
// 2. Worker panic containment
// ---------------------------------------------------------------------

#[test]
fn injected_kernel_panic_surfaces_as_worker_error() {
    let _guard = lock_faults();
    let g = random_matrix(64, 80, 0xfa03);
    let engine = LdEngine::new().threads(4).slab_rows(4);

    let armed = fault::arm_kernel_panic();
    let result = engine.try_stat_matrix(&g, LdStats::RSquared);
    drop(armed);

    match result {
        Err(LdError::Worker(p)) => {
            assert!(
                p.message.contains("injected kernel panic"),
                "payload message must survive: {:?}",
                p.message
            );
        }
        Err(other) => panic!("expected LdError::Worker, got {other}"),
        Ok(_) => panic!("expected LdError::Worker, got a clean result"),
    }

    // the engine is not poisoned: the next run succeeds and matches the oracle
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("clean run after disarm");
    let oracle = engine.stat_matrix_twopass(&g, LdStats::RSquared);
    assert_eq!(bits(&m), bits(&oracle));
}

#[test]
fn injected_panic_in_streaming_path_is_contained() {
    let _guard = lock_faults();
    let g = random_matrix(48, 40, 0xfa04);
    let engine = LdEngine::new().threads(3).slab_rows(4);

    let armed = fault::arm_kernel_panic();
    let result = engine.try_stat_rows(&g, LdStats::RSquared, |_slab| {});
    drop(armed);

    assert!(
        matches!(result, Err(LdError::Worker(_))),
        "streaming path must contain worker panics too"
    );
}

// ---------------------------------------------------------------------
// 3. Memory budget: shrink-to-fit stays bit-exact, impossible errors
// ---------------------------------------------------------------------

#[test]
fn budget_constrained_run_matches_twopass_oracle_bitexact() {
    let _guard = lock_faults();
    let n = 300usize;
    let threads = 2usize;
    let g = random_matrix(128, n, 0xfa05);

    // fixed footprint of the matrix form: packed output + tables
    let tri = n * (n + 1) / 2;
    let fixed = 8 * tri + 20 * n;
    let per_row = threads * n * 4;

    let unbounded = LdEngine::new().threads(threads).slab_rows(64);
    let oracle = unbounded.stat_matrix_twopass(&g, LdStats::RSquared);

    // room for exactly 3 slab rows: the slab must shrink 64 → 3 and the
    // values must not move by a single bit
    let engine = unbounded
        .clone()
        .memory_budget(MemoryBudget::bytes(fixed + 3 * per_row));
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("budget admits 3 slab rows");
    assert_eq!(bits(&m), bits(&oracle), "slab shrink changed values");

    // one-row budget still works
    let engine = unbounded
        .clone()
        .memory_budget(MemoryBudget::bytes(fixed + per_row));
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("budget admits 1 slab row");
    assert_eq!(bits(&m), bits(&oracle));

    // below one row: typed refusal, with both sides reported
    let engine = unbounded
        .clone()
        .memory_budget(MemoryBudget::bytes(fixed + per_row - 1));
    match engine.try_stat_matrix(&g, LdStats::RSquared) {
        Err(LdError::BudgetExceeded { required, budget }) => {
            assert_eq!(required, fixed + per_row);
            assert_eq!(budget, fixed + per_row - 1);
        }
        Err(other) => panic!("expected BudgetExceeded, got {other}"),
        Ok(_) => panic!("expected BudgetExceeded, got a clean result"),
    }
}

#[test]
fn tile_iteration_verifies_budget_instead_of_shrinking() {
    let _guard = lock_faults();
    let g = random_matrix(64, 120, 0xfa06);
    let engine = LdEngine::new()
        .threads(1)
        .memory_budget(MemoryBudget::bytes(1024));
    let result = engine.try_for_each_tile(&g, LdStats::RSquared, 64, |_t| {});
    assert!(
        matches!(result, Err(LdError::BudgetExceeded { .. })),
        "a 64-wide tile cannot fit in 1 KiB"
    );
    // a smaller tile fits under a larger budget
    let engine = LdEngine::new()
        .threads(1)
        .memory_budget(MemoryBudget::mib(64));
    engine
        .try_for_each_tile(&g, LdStats::RSquared, 16, |_t| {})
        .expect("16-wide tiles fit in 64 MiB");
}

// ---------------------------------------------------------------------
// 4. Shape and configuration errors
// ---------------------------------------------------------------------

#[test]
fn zero_samples_is_empty_input() {
    let _guard = lock_faults();
    let g = BitMatrix::zeros(0, 5);
    let err = LdEngine::new()
        .try_stat_matrix(&g, LdStats::RSquared)
        .unwrap_err();
    assert!(matches!(err, LdError::EmptyInput), "{err}");
    assert!(err.to_string().contains("zero samples"));
}

#[test]
fn absurd_snp_count_is_size_overflow_not_oom() {
    let _guard = lock_faults();
    // 2^40 SNPs of zero samples occupy no memory, but the packed triangle
    // would need ~2^79 entries: must be a typed overflow, not an abort.
    let g = BitMatrix::zeros(0, 1usize << 40);
    let err = LdEngine::new()
        .try_stat_matrix(&g, LdStats::RSquared)
        .unwrap_err();
    assert!(matches!(err, LdError::SizeOverflow { .. }), "{err}");
}

#[test]
fn cross_matrix_rejects_mismatched_sample_sets() {
    let _guard = lock_faults();
    let a = random_matrix(32, 10, 0xfa07);
    let b = random_matrix(48, 10, 0xfa08);
    let err = LdEngine::new()
        .try_cross_stat_matrix(&a, &b, LdStats::RSquared)
        .unwrap_err();
    match err {
        LdError::DimensionMismatch { left, right, .. } => {
            assert_eq!((left, right), (32, 48));
        }
        other => panic!("expected DimensionMismatch, got {other}"),
    }
}

#[test]
fn zero_tile_is_invalid_config() {
    let _guard = lock_faults();
    let g = random_matrix(16, 8, 0xfa09);
    let err = LdEngine::new()
        .try_for_each_tile(&g, LdStats::RSquared, 0, |_t| {})
        .unwrap_err();
    assert!(matches!(err, LdError::InvalidConfig { .. }), "{err}");
}

#[test]
fn empty_matrix_succeeds_under_any_budget() {
    let _guard = lock_faults();
    let g = BitMatrix::zeros(4, 0);
    let engine = LdEngine::new().memory_budget(MemoryBudget::bytes(1));
    let m = engine
        .try_stat_matrix(&g, LdStats::RSquared)
        .expect("0 SNPs need 0 bytes");
    assert_eq!(m.n_snps(), 0);
}
