//! Versioned, checksummed checkpoints for interruptible LD runs.
//!
//! A multi-hour `n²/2` scan killed at 90% is a total loss unless its
//! completed slabs can be replayed. This module defines the **format** —
//! serialization, parsing, CRC discipline, and resume validation — while
//! the file side (atomic temp+fsync+rename writes) lives in `ld-io`
//! behind the [`CheckpointSink`] trait, keeping the dependency direction
//! `ld-io → ld-core` intact.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic    8  b"LDCKPT01"
//! version  4  FORMAT_VERSION
//! stat     1  0 = r², 1 = D, 2 = D'
//! policy   1  0 = propagate NaN, 1 = zero
//! reserved 2  must be 0
//! n_snps        8
//! n_samples     8
//! matrix_hash   8  FNV-1a over dims + every SNP's packed words
//! slab          8  effective row-slab height of the interrupted run
//! n_slabs       8  ⌈n_snps / slab⌉
//! kernel_len    4  followed by the resolved kernel name (UTF-8)
//! n_records     8
//! header_crc    4  CRC32 (IEEE) of every byte above
//! --- body: n_records × ---
//! index      8   slab index k
//! start_row  8   k·slab
//! end_row    8   min((k+1)·slab, n_snps)
//! n_values   8   packed-triangle span of rows start..end
//! values     8·n_values   f64 bit patterns
//! --- then ---
//! body_crc   4  CRC32 of all record bytes
//! ```
//!
//! Every parse failure is a located [`LdError::Checkpoint`] (byte offset +
//! field name); a resumed run validates the header against the actual
//! input and engine configuration field-by-field, so a checkpoint from a
//! different matrix, statistic, NaN policy, slab geometry or kernel is
//! rejected with a message naming the mismatch instead of silently
//! producing a wrong triangle.

use crate::error::LdError;
use crate::stats::{LdStats, NanPolicy};
use ld_bitmat::BitMatrixView;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: &[u8; 8] = b"LDCKPT01";

/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;

/// CRC32 (IEEE) — the checksum guarding both checkpoint sections, every
/// tile chunk and the tile manifest. The one implementation lives in
/// `ld-kernels`; re-exported here so `ld-io` and the corruption-corpus
/// tests can recompute it.
pub use ld_kernels::crc32;

/// FNV-1a (64-bit) content fingerprint of a genotype matrix: dimensions
/// followed by every SNP's packed words. Cheap (one linear pass over data
/// that is about to be swept anyway) and sensitive to any bit flip, so a
/// checkpoint cannot silently resume against a different input.
pub fn matrix_fingerprint(v: &BitMatrixView<'_>) -> u64 {
    let mut f = Fingerprinter::new(v.n_snps() as u64, v.n_samples() as u64);
    for j in 0..v.n_snps() {
        f.eat_words(v.snp_words(j));
    }
    f.finish()
}

/// Incremental form of [`matrix_fingerprint`] for producers that never
/// hold the whole matrix — a tile-store import streams each chunk's
/// packed words through this and lands on the exact same hash the
/// in-memory path computes, so checkpoints taken against a store resume
/// cleanly against the equivalent in-memory matrix (and vice versa).
///
/// Feed every SNP's words in column order via [`eat_words`]; the header
/// (dimensions) is folded in by [`new`].
///
/// [`new`]: Fingerprinter::new
/// [`eat_words`]: Fingerprinter::eat_words
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    h: u64,
}

impl Fingerprinter {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fingerprint for an `n_samples × n_snps` matrix.
    pub fn new(n_snps: u64, n_samples: u64) -> Self {
        let mut f = Self { h: Self::OFFSET };
        f.eat(n_snps);
        f.eat(n_samples);
        f
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in packed words (consecutive SNP columns, in order).
    pub fn eat_words(&mut self, words: &[u64]) {
        for &w in words {
            self.eat(w);
        }
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// One completed row slab: rows `start_row..end_row` of the packed upper
/// triangle, stored as the contiguous packed span those rows occupy.
#[derive(Clone, Debug, PartialEq)]
pub struct SlabRecord {
    /// Slab index `k` (rows `k·slab .. min((k+1)·slab, n)`).
    pub index: u64,
    /// First row covered by this slab.
    pub start_row: u64,
    /// One past the last row covered by this slab.
    pub end_row: u64,
    /// The packed-triangle values of those rows, in storage order.
    pub values: Vec<f64>,
}

/// A parsed (or about-to-be-serialized) checkpoint: the validated header
/// plus every completed-slab record.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointState {
    /// Statistic the interrupted run was computing.
    pub stat: LdStats,
    /// Monomorphic-SNP policy of the interrupted run.
    pub policy: NanPolicy,
    /// SNP count of the input matrix.
    pub n_snps: u64,
    /// Sample count of the input matrix.
    pub n_samples: u64,
    /// [`matrix_fingerprint`] of the input matrix.
    pub matrix_hash: u64,
    /// Effective row-slab height of the interrupted run.
    pub slab: u64,
    /// Total slab count `⌈n_snps / slab⌉`.
    pub n_slabs: u64,
    /// Resolved micro-kernel name of the interrupted run.
    pub kernel: String,
    /// Completed slabs, in ascending `index` order.
    pub records: Vec<SlabRecord>,
}

fn stat_code(s: LdStats) -> u8 {
    match s {
        LdStats::RSquared => 0,
        LdStats::D => 1,
        LdStats::DPrime => 2,
    }
}

fn stat_from_code(c: u8) -> Option<LdStats> {
    match c {
        0 => Some(LdStats::RSquared),
        1 => Some(LdStats::D),
        2 => Some(LdStats::DPrime),
        _ => None,
    }
}

fn policy_code(p: NanPolicy) -> u8 {
    match p {
        NanPolicy::Propagate => 0,
        NanPolicy::Zero => 1,
    }
}

fn policy_from_code(c: u8) -> Option<NanPolicy> {
    match c {
        0 => Some(NanPolicy::Propagate),
        1 => Some(NanPolicy::Zero),
        _ => None,
    }
}

fn located(message: String) -> LdError {
    LdError::Checkpoint { message }
}

/// A little-endian cursor with located errors: every read that runs past
/// the buffer reports its byte offset and the field it was decoding.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, len: usize, field: &str) -> Result<&'a [u8], LdError> {
        let end = self.pos.checked_add(len).ok_or_else(|| {
            located(format!(
                "length overflow at byte {} reading {field}",
                self.pos
            ))
        })?;
        if end > self.bytes.len() {
            return Err(located(format!(
                "truncated at byte {} (need {} more for {field}, {} available)",
                self.pos,
                len,
                self.bytes.len() - self.pos
            )));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, field: &str) -> Result<u8, LdError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &str) -> Result<u16, LdError> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &str) -> Result<u32, LdError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &str) -> Result<u64, LdError> {
        let b = self.take(8, field)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

impl CheckpointState {
    /// Serializes to the on-disk layout (header CRC + body CRC appended).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + self.kernel.len()
                + self
                    .records
                    .iter()
                    .map(|r| 32 + 8 * r.values.len())
                    .sum::<usize>(),
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(stat_code(self.stat));
        out.push(policy_code(self.policy));
        out.extend_from_slice(&0u16.to_le_bytes()); // reserved
        out.extend_from_slice(&self.n_snps.to_le_bytes());
        out.extend_from_slice(&self.n_samples.to_le_bytes());
        out.extend_from_slice(&self.matrix_hash.to_le_bytes());
        out.extend_from_slice(&self.slab.to_le_bytes());
        out.extend_from_slice(&self.n_slabs.to_le_bytes());
        out.extend_from_slice(&(self.kernel.len() as u32).to_le_bytes());
        out.extend_from_slice(self.kernel.as_bytes());
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        let body_start = out.len();
        for r in &self.records {
            out.extend_from_slice(&r.index.to_le_bytes());
            out.extend_from_slice(&r.start_row.to_le_bytes());
            out.extend_from_slice(&r.end_row.to_le_bytes());
            out.extend_from_slice(&(r.values.len() as u64).to_le_bytes());
            for v in &r.values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let body_crc = crc32(&out[body_start..]);
        out.extend_from_slice(&body_crc.to_le_bytes());
        out
    }

    /// Parses and verifies a checkpoint. Every failure mode — bad magic,
    /// unknown version, truncation anywhere, CRC mismatch in either
    /// section, out-of-range enum codes, record-geometry nonsense — is a
    /// located [`LdError::Checkpoint`]; this function never panics on any
    /// byte string.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LdError> {
        let mut c = Cursor::new(bytes);
        let magic = c.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(located(format!(
                "bad magic at byte 0: expected {MAGIC:?}, found {magic:?} (not an LD checkpoint?)"
            )));
        }
        let version = c.u32("version")?;
        if version != FORMAT_VERSION {
            return Err(located(format!(
                "unsupported checkpoint version {version} at byte 8 (this build reads version {FORMAT_VERSION})"
            )));
        }
        let stat_byte = c.u8("stat code")?;
        let stat = stat_from_code(stat_byte)
            .ok_or_else(|| located(format!("unknown statistic code {stat_byte} at byte 12")))?;
        let policy_byte = c.u8("policy code")?;
        let policy = policy_from_code(policy_byte)
            .ok_or_else(|| located(format!("unknown NaN-policy code {policy_byte} at byte 13")))?;
        let reserved = c.u16("reserved")?;
        if reserved != 0 {
            return Err(located(format!(
                "reserved field at byte 14 must be 0, found {reserved}"
            )));
        }
        let n_snps = c.u64("n_snps")?;
        let n_samples = c.u64("n_samples")?;
        let matrix_hash = c.u64("matrix_hash")?;
        let slab = c.u64("slab")?;
        let n_slabs = c.u64("n_slabs")?;
        let kernel_len = c.u32("kernel name length")? as usize;
        if kernel_len > 256 {
            return Err(located(format!(
                "kernel name length {kernel_len} at byte 56 exceeds the 256-byte cap"
            )));
        }
        let kernel_pos = c.pos;
        let kernel_bytes = c.take(kernel_len, "kernel name")?;
        let kernel = std::str::from_utf8(kernel_bytes)
            .map_err(|e| {
                located(format!(
                    "kernel name at byte {kernel_pos} is not UTF-8: {e}"
                ))
            })?
            .to_owned();
        let n_records = c.u64("record count")?;
        let header_end = c.pos;
        let stored_header_crc = c.u32("header CRC")?;
        let actual_header_crc = crc32(&bytes[..header_end]);
        if stored_header_crc != actual_header_crc {
            return Err(located(format!(
                "header CRC mismatch at byte {header_end}: stored {stored_header_crc:#010x}, computed {actual_header_crc:#010x}"
            )));
        }
        // geometry sanity before trusting record loops
        if slab == 0 && n_snps != 0 {
            return Err(located("header slab height is 0".to_owned()));
        }
        let expect_slabs = if n_snps == 0 {
            0
        } else {
            n_snps.div_ceil(slab)
        };
        if n_slabs != expect_slabs {
            return Err(located(format!(
                "header n_slabs {n_slabs} disagrees with ⌈{n_snps}/{slab}⌉ = {expect_slabs}"
            )));
        }
        if n_records > n_slabs {
            return Err(located(format!(
                "record count {n_records} exceeds total slab count {n_slabs}"
            )));
        }
        let body_start = c.pos;
        let mut records = Vec::with_capacity(n_records.min(4096) as usize);
        for r in 0..n_records {
            let rec_pos = c.pos;
            let index = c.u64("record index")?;
            let start_row = c.u64("record start_row")?;
            let end_row = c.u64("record end_row")?;
            let n_values = c.u64("record value count")?;
            if index >= n_slabs {
                return Err(located(format!(
                    "record {r} at byte {rec_pos}: slab index {index} out of range (n_slabs = {n_slabs})"
                )));
            }
            if start_row != index * slab
                || end_row != ((index + 1) * slab).min(n_snps)
                || end_row <= start_row
            {
                return Err(located(format!(
                    "record {r} at byte {rec_pos}: rows {start_row}..{end_row} do not match slab {index} of height {slab} over {n_snps} SNPs"
                )));
            }
            // packed span of rows start..end: Σ (n − i)
            let span: u64 = (start_row..end_row).map(|i| n_snps - i).sum();
            if n_values != span {
                return Err(located(format!(
                    "record {r} at byte {rec_pos}: {n_values} values but rows {start_row}..{end_row} pack {span}"
                )));
            }
            let vbytes = n_values
                .checked_mul(8)
                .and_then(|b| usize::try_from(b).ok())
                .ok_or_else(|| {
                    located(format!(
                        "record {r} at byte {rec_pos}: value byte count overflows"
                    ))
                })?;
            let raw = c.take(vbytes, "record values")?;
            let mut values = Vec::with_capacity(n_values as usize);
            for chunk in raw.chunks_exact(8) {
                let mut a = [0u8; 8];
                a.copy_from_slice(chunk);
                values.push(f64::from_bits(u64::from_le_bytes(a)));
            }
            if records.iter().any(|prev: &SlabRecord| prev.index == index) {
                return Err(located(format!(
                    "record {r} at byte {rec_pos}: duplicate slab index {index}"
                )));
            }
            records.push(SlabRecord {
                index,
                start_row,
                end_row,
                values,
            });
        }
        let body_end = c.pos;
        let stored_body_crc = c.u32("body CRC")?;
        let actual_body_crc = crc32(&bytes[body_start..body_end]);
        if stored_body_crc != actual_body_crc {
            return Err(located(format!(
                "body CRC mismatch at byte {body_end}: stored {stored_body_crc:#010x}, computed {actual_body_crc:#010x}"
            )));
        }
        if c.pos != bytes.len() {
            return Err(located(format!(
                "{} trailing byte(s) after body CRC at byte {}",
                bytes.len() - c.pos,
                c.pos
            )));
        }
        Ok(Self {
            stat,
            policy,
            n_snps,
            n_samples,
            matrix_hash,
            slab,
            n_slabs,
            kernel,
            records,
        })
    }

    /// Validates this checkpoint against the matrix and engine
    /// configuration of the run about to resume. Every mismatch is a
    /// located [`LdError::Checkpoint`] naming the field, the stored value
    /// and the actual value — a checkpoint must only ever restart the
    /// *identical* computation (that is the bit-exactness argument:
    /// replayed slab bytes + identically-configured recomputation of the
    /// rest ≡ one uninterrupted run).
    pub fn validate_against(
        &self,
        v: &BitMatrixView<'_>,
        stat: LdStats,
        policy: NanPolicy,
        slab: usize,
        kernel: &str,
    ) -> Result<(), LdError> {
        self.validate_against_meta(
            v.n_snps() as u64,
            v.n_samples() as u64,
            matrix_fingerprint(v),
            stat,
            policy,
            slab,
            kernel,
        )
    }

    /// [`validate_against`] for callers that already know the input's
    /// dimensions and fingerprint without holding the matrix — the
    /// out-of-core driver validates against the tile-store manifest
    /// (whose fingerprint was streamed at import time) instead of
    /// re-reading every chunk just to hash it.
    ///
    /// [`validate_against`]: CheckpointState::validate_against
    #[allow(clippy::too_many_arguments)]
    pub fn validate_against_meta(
        &self,
        n_snps: u64,
        n_samples: u64,
        fingerprint: u64,
        stat: LdStats,
        policy: NanPolicy,
        slab: usize,
        kernel: &str,
    ) -> Result<(), LdError> {
        let mismatch = |field: &str, stored: String, actual: String| {
            Err(located(format!(
                "resume rejected: checkpoint {field} is {stored} but the current run has {actual}"
            )))
        };
        if self.n_snps != n_snps {
            return mismatch("n_snps", self.n_snps.to_string(), n_snps.to_string());
        }
        if self.n_samples != n_samples {
            return mismatch(
                "n_samples",
                self.n_samples.to_string(),
                n_samples.to_string(),
            );
        }
        let hash = fingerprint;
        if self.matrix_hash != hash {
            return mismatch(
                "matrix fingerprint",
                format!("{:#018x}", self.matrix_hash),
                format!("{hash:#018x} (the input changed since the checkpoint)"),
            );
        }
        if self.stat != stat {
            return mismatch("statistic", format!("{:?}", self.stat), format!("{stat:?}"));
        }
        if self.policy != policy {
            return mismatch(
                "NaN policy",
                format!("{:?}", self.policy),
                format!("{policy:?}"),
            );
        }
        if self.slab != slab as u64 {
            return mismatch(
                "slab height",
                self.slab.to_string(),
                format!("{slab} (slab geometry must match for slab-aligned replay)"),
            );
        }
        if self.kernel != kernel {
            return mismatch("kernel", self.kernel.clone(), kernel.to_owned());
        }
        Ok(())
    }
}

/// Where checkpoint bytes go. `ld-io` provides the production
/// implementation (atomic temp + fsync + rename file writes); tests use
/// in-memory sinks to cancel deterministically at slab boundaries.
///
/// Implementations must be callable from any worker thread (the fused
/// driver serializes calls under its progress mutex, but which thread
/// crosses the write threshold is scheduling-dependent).
pub trait CheckpointSink: Sync {
    /// Persists one complete checkpoint image. Errors are human-readable
    /// strings; the driver wraps them in [`LdError::Checkpoint`], trips
    /// the run's cancellation token, and surfaces the error after the
    /// team drains.
    fn write_checkpoint(&self, bytes: &[u8]) -> Result<(), String>;
}

/// An in-memory [`CheckpointSink`] holding the latest image — the test
/// harness's deterministic stand-in for a checkpoint file, also usable as
/// a building block by embedders.
#[derive(Debug, Default)]
pub struct MemorySink {
    latest: std::sync::Mutex<Option<Vec<u8>>>,
    writes: std::sync::atomic::AtomicUsize,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently written checkpoint image, if any.
    pub fn latest(&self) -> Option<Vec<u8>> {
        self.latest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// How many checkpoint images have been written.
    pub fn writes(&self) -> usize {
        self.writes.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl CheckpointSink for MemorySink {
    fn write_checkpoint(&self, bytes: &[u8]) -> Result<(), String> {
        *self
            .latest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(bytes.to_vec());
        self.writes
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_bitmat::BitMatrix;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            stat: LdStats::RSquared,
            policy: NanPolicy::Zero,
            n_snps: 7,
            n_samples: 20,
            matrix_hash: 0xDEAD_BEEF_CAFE_F00D,
            slab: 3,
            n_slabs: 3,
            kernel: "scalar-4x4".to_owned(),
            records: vec![
                SlabRecord {
                    index: 0,
                    start_row: 0,
                    end_row: 3,
                    values: (0..(7 + 6 + 5)).map(|i| i as f64 * 0.5).collect(),
                },
                SlabRecord {
                    index: 2,
                    start_row: 6,
                    end_row: 7,
                    values: vec![1.25],
                },
            ],
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // the classic check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_is_lossless() {
        let s = sample_state();
        let bytes = s.to_bytes();
        let back = CheckpointState::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, s);
    }

    #[test]
    fn empty_records_roundtrip() {
        let mut s = sample_state();
        s.records.clear();
        let back = CheckpointState::from_bytes(&s.to_bytes()).expect("roundtrip");
        assert!(back.records.is_empty());
    }

    #[test]
    fn every_truncation_is_located_and_no_panic() {
        let bytes = sample_state().to_bytes();
        for cut in 0..bytes.len() {
            let err = CheckpointState::from_bytes(&bytes[..cut]).expect_err("truncation must fail");
            let msg = err.to_string();
            assert!(
                msg.contains("truncated") || msg.contains("magic"),
                "cut={cut}: {msg}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let bytes = sample_state().to_bytes();
        // flip one bit in every byte; each corruption must be caught (CRC
        // or a structural check), never accepted, never a panic
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] ^= 0x40;
            assert!(
                CheckpointState::from_bytes(&c).is_err(),
                "bit flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_state().to_bytes();
        bytes.push(0);
        let msg = CheckpointState::from_bytes(&bytes).unwrap_err().to_string();
        assert!(msg.contains("trailing"), "{msg}");
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut bytes = sample_state().to_bytes();
        bytes[0] = b'X';
        assert!(CheckpointState::from_bytes(&bytes)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut bytes = sample_state().to_bytes();
        bytes[8] = 99; // version — header CRC also breaks, but version is read first
        let msg = CheckpointState::from_bytes(&bytes).unwrap_err().to_string();
        assert!(msg.contains("version"), "{msg}");
    }

    #[test]
    fn validate_against_catches_every_field() {
        let g = BitMatrix::from_rows(3, 2, [[1u8, 0], [0, 1], [1, 1]]).unwrap();
        let v = g.full_view();
        let base = CheckpointState {
            stat: LdStats::D,
            policy: NanPolicy::Propagate,
            n_snps: 2,
            n_samples: 3,
            matrix_hash: matrix_fingerprint(&v),
            slab: 1,
            n_slabs: 2,
            kernel: "scalar-4x4".to_owned(),
            records: vec![],
        };
        assert!(base
            .validate_against(&v, LdStats::D, NanPolicy::Propagate, 1, "scalar-4x4")
            .is_ok());
        let cases: Vec<(CheckpointState, &str)> = vec![
            (
                CheckpointState {
                    n_snps: 5,
                    ..base.clone()
                },
                "n_snps",
            ),
            (
                CheckpointState {
                    n_samples: 9,
                    ..base.clone()
                },
                "n_samples",
            ),
            (
                CheckpointState {
                    matrix_hash: 1,
                    ..base.clone()
                },
                "fingerprint",
            ),
            (
                CheckpointState {
                    stat: LdStats::RSquared,
                    ..base.clone()
                },
                "statistic",
            ),
            (
                CheckpointState {
                    policy: NanPolicy::Zero,
                    ..base.clone()
                },
                "policy",
            ),
            (
                CheckpointState {
                    slab: 2,
                    n_slabs: 1,
                    ..base.clone()
                },
                "slab",
            ),
            (
                CheckpointState {
                    kernel: "avx512-vpopcnt".to_owned(),
                    ..base.clone()
                },
                "kernel",
            ),
        ];
        for (state, needle) in cases {
            let msg = state
                .validate_against(&v, LdStats::D, NanPolicy::Propagate, 1, "scalar-4x4")
                .unwrap_err()
                .to_string();
            assert!(msg.contains(needle), "wanted {needle} in: {msg}");
            assert!(msg.contains("resume rejected"), "{msg}");
        }
    }

    #[test]
    fn validate_against_rejects_shard_shaped_mismatches() {
        // A shard output file is a checkpoint whose records cover one
        // contiguous slab range of the *global* grid. Feeding one back as
        // a resume snapshot must hit the same validation wall as any other
        // checkpoint: same matrix but different slab geometry, or a
        // different statistic, are located rejections — not silent
        // acceptance of mismatched spans.
        let g = BitMatrix::from_rows(4, 6, [[1u8, 0, 1, 0, 1, 1]; 4]).unwrap();
        let v = g.full_view();
        let shard_state = CheckpointState {
            stat: LdStats::RSquared,
            policy: NanPolicy::Propagate,
            n_snps: 6,
            n_samples: 4,
            matrix_hash: matrix_fingerprint(&v),
            slab: 2,
            n_slabs: 3,
            kernel: "scalar-4x4".to_owned(),
            // shard 1/3 of a slab-2 grid: records for slab 1 only
            records: vec![SlabRecord {
                index: 1,
                start_row: 2,
                end_row: 4,
                values: vec![0.0; 4 + 3],
            }],
        };
        // identical matrix + identical geometry: accepted
        assert!(shard_state
            .validate_against(&v, LdStats::RSquared, NanPolicy::Propagate, 2, "scalar-4x4")
            .is_ok());
        // same matrix, different slab height (e.g. a shard produced under
        // another memory budget): rejected, naming the slab field
        let msg = shard_state
            .validate_against(&v, LdStats::RSquared, NanPolicy::Propagate, 3, "scalar-4x4")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("slab"), "{msg}");
        assert!(msg.contains("resume rejected"), "{msg}");
        // same matrix + geometry, different statistic kind: rejected
        let msg = shard_state
            .validate_against(&v, LdStats::D, NanPolicy::Propagate, 2, "scalar-4x4")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("statistic"), "{msg}");
        // a shard of a *different* matrix with the same shape: the
        // fingerprint catches it even though every geometry field agrees
        let other = BitMatrix::zeros(4, 6);
        let msg = shard_state
            .validate_against(
                &other.full_view(),
                LdStats::RSquared,
                NanPolicy::Propagate,
                2,
                "scalar-4x4",
            )
            .unwrap_err()
            .to_string();
        assert!(msg.contains("fingerprint"), "{msg}");
    }

    #[test]
    fn fingerprint_sensitive_to_any_bit() {
        let mut g = BitMatrix::zeros(10, 4);
        let before = matrix_fingerprint(&g.full_view());
        g.set(3, 2, true);
        let after = matrix_fingerprint(&g.full_view());
        assert_ne!(before, after);
        // shape matters even with identical (all-zero) content
        let a = matrix_fingerprint(&BitMatrix::zeros(8, 4).full_view());
        let b = matrix_fingerprint(&BitMatrix::zeros(4, 8).full_view());
        assert_ne!(a, b);
    }

    #[test]
    fn memory_sink_stores_latest() {
        let s = MemorySink::new();
        assert!(s.latest().is_none());
        s.write_checkpoint(b"one").unwrap();
        s.write_checkpoint(b"two").unwrap();
        assert_eq!(s.latest().as_deref(), Some(&b"two"[..]));
        assert_eq!(s.writes(), 2);
    }
}
