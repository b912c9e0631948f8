//! Stable, versioned byte encodings for [`RunSpec`] identity and
//! [`SimStats`] payloads — the bridge between the in-memory run cache
//! and the durable on-disk store.
//!
//! # Why not `std::hash::Hash`?
//!
//! The run cache used to key entries through `HashMap<RunSpec, _>`,
//! i.e. std's per-process-randomized SipHash. That is fine for one
//! process's lifetime but useless as a durable name: the same spec
//! hashes differently in every process and build, so it cannot address
//! an on-disk record. This module defines the canonical encoding once —
//! [`spec_key_bytes`] — and derives the 128-bit [`spec_digest`] from it
//! with the *fixed-key* SipHash in [`rf_store::hash`]. Both the
//! in-memory [`RunCache`](crate::runner::RunCache) and the store key by
//! this digest, so the two tiers always agree on identity.
//!
//! # Versioning: one answer generation
//!
//! Each store record carries one version word, its schema, and the store
//! serves a record only under the schema it was written with. Here that
//! word is [`DIGEST_SCHEMA`], the *answer generation*: a fold of every
//! input that decides what a record's bytes mean or hold.
//!
//! - `KEY_ENCODING`, the version of [`spec_key_bytes`]. A change to the
//!   `RunSpec` encoding (new field, reordered field, widened enum) MUST
//!   bump it. The golden test below pins the current encoding, so an
//!   accidental change fails loudly.
//! - [`STORED_STATS_VERSION`], the layout of the stored payload.
//! - [`KERNEL_PIN`] and [`ISSUE_PIN`], the digests of the kernel's
//!   simulated behaviour that `tests/kernel_pin.rs` checks. A change
//!   that alters what the kernel computes must move a pin, and so
//!   retires every record an older kernel wrote.
//!
//! A record of another generation is a miss: the spec is simulated again
//! and its answer written under the current generation, and
//! `rfstudy store compact` drops what is left of the old one.
//!
//! Two payload layouts exist, and they differ only in the liveness
//! histograms:
//!
//! - [`encode_stats`] pads every histogram to its logical length,
//!   `phys_regs + 1` buckets. It is the answer's identity form: the
//!   kernel pins, the suite's answer audit and rfbench's digests hash
//!   these bytes, so it stays dense and byte-stable. Nothing reads it
//!   back.
//! - [`encode_stored_stats`], the run store's record form, keeps only
//!   each histogram's buckets up to its last non-zero one. A
//!   2048-register answer's histograms reach a few hundred of their 2049
//!   buckets, so a store hit reads, checksums and decodes that much less.
//!
//! [`decode_stats`] reads the stored layout alone.

use crate::runner::RunSpec;
use rf_bpred::{PredictorKind, PredictorStats};
use rf_core::{ExceptionModel, SchedPolicy, SimStats};
use rf_mem::{CacheConfig, CacheOrg, CacheStats};
use rf_store::Digest;

/// The digest of the kernel's probe matrix: every statistic of a fixed
/// set of simulations (`tests/kernel_pin.rs`). Part of [`DIGEST_SCHEMA`].
pub const KERNEL_PIN: &str = "e8dfe1b56e5498303f36303e026f2326";

/// The digest of the issue-path matrix: statistics plus observed stall
/// cycles of a fixed set of simulations (`tests/kernel_pin.rs`). Part of
/// [`DIGEST_SCHEMA`].
pub const ISSUE_PIN: &str = "cee41abe0a094ce8133cb0bd61e3f8c9";

/// Version of the canonical `RunSpec` byte encoding, the word
/// [`spec_key_bytes`] writes after its magic. Bump on ANY change to it.
const KEY_ENCODING: u32 = 1;

/// The answer generation: the schema every store record is written and
/// read under. A fold of the key encoding, the stored payload layout and
/// the two kernel pins, so a change to any of them retires every record
/// written before it.
pub const DIGEST_SCHEMA: u32 =
    answer_generation(KEY_ENCODING, STORED_STATS_VERSION, KERNEL_PIN, ISSUE_PIN);

/// Version of the dense `SimStats` payload, [`encode_stats`]'s layout.
const DENSE_STATS_VERSION: u32 = 1;

/// Version of the stored `SimStats` payload, [`encode_stored_stats`]'s
/// layout: the dense one with each histogram cut after its last
/// non-zero bucket. Part of [`DIGEST_SCHEMA`].
pub const STORED_STATS_VERSION: u32 = 2;

/// 32-bit FNV-1a over the two version words (little-endian) and the two
/// pins' bytes.
const fn answer_generation(key: u32, stats: u32, kernel_pin: &str, issue_pin: &str) -> u32 {
    let (key, stats) = (key.to_le_bytes(), stats.to_le_bytes());
    let parts: [&[u8]; 4] = [&key, &stats, kernel_pin.as_bytes(), issue_pin.as_bytes()];
    let mut h: u32 = 0x811c_9dc5;
    let mut p = 0;
    while p < parts.len() {
        let mut i = 0;
        while i < parts[p].len() {
            h = (h ^ parts[p][i] as u32).wrapping_mul(0x0100_0193);
            i += 1;
        }
        p += 1;
    }
    h
}

/// Magic prefix of a canonical spec key (guards against feeding foreign
/// bytes to the digest).
const SPEC_MAGIC: &[u8; 6] = b"rfspec";

/// Magic prefix of an encoded stats payload.
const STATS_MAGIC: &[u8; 6] = b"rfstat";

/// The canonical byte encoding of a [`RunSpec`]: a fixed field order,
/// little-endian integers, explicit enum tags, and explicit
/// present/absent markers for options. Every distinct spec maps to a
/// distinct byte string and vice versa (the encoding is injective), so
/// the digest of these bytes is a faithful identity.
pub fn spec_key_bytes(spec: &RunSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(SPEC_MAGIC);
    put_u32(&mut out, KEY_ENCODING);
    put_bytes(&mut out, spec.benchmark.as_bytes());
    put_u64(&mut out, spec.width as u64);
    put_u64(&mut out, spec.dq as u64);
    put_u64(&mut out, spec.regs as u64);
    // Enum tags are written explicitly (not via `as u8` on the variant)
    // so reordering a declaration cannot silently change the encoding.
    out.push(match spec.exceptions {
        ExceptionModel::Precise => 0,
        ExceptionModel::Imprecise => 1,
        ExceptionModel::AlphaHybrid => 2,
    });
    out.push(match spec.cache {
        CacheOrg::Perfect => 0,
        CacheOrg::Lockup => 1,
        CacheOrg::LockupFree => 2,
    });
    put_cache_config(&mut out, &spec.cache_geometry);
    out.push(match spec.policy {
        SchedPolicy::OldestFirst => 0,
        SchedPolicy::YoungestFirst => 1,
    });
    out.push(match spec.predictor {
        PredictorKind::Bimodal => 0,
        PredictorKind::Gshare => 1,
        PredictorKind::Combining => 2,
    });
    put_opt_u64(&mut out, spec.insert_bw.map(|v| v as u64));
    put_opt_u64(&mut out, spec.reorder.map(|v| v as u64));
    out.push(spec.split_dq as u8);
    match &spec.icache {
        None => out.push(0),
        Some((cfg, penalty)) => {
            out.push(1);
            put_cache_config(&mut out, cfg);
            put_u64(&mut out, *penalty);
        }
    }
    put_u64(&mut out, spec.commits);
    put_u64(&mut out, spec.seed);
    out
}

/// The stable 128-bit identity of a spec: [`rf_store::hash::digest128`]
/// over [`spec_key_bytes`]. Identical across processes, builds, and
/// machines — unlike `std::hash::Hash`.
pub fn spec_digest(spec: &RunSpec) -> Digest {
    Digest::of(&spec_key_bytes(spec))
}

/// Encodes a [`SimStats`] into its dense payload bytes, the answer's
/// identity form. Write-only: [`decode_stats`] rejects it.
///
/// Each liveness histogram is written at its logical length,
/// `phys_regs + 1` buckets, with the zeros past its stored end padded
/// back, so the payload does not depend on the in-memory form.
pub fn encode_stats(stats: &SimStats) -> Vec<u8> {
    encode(stats, DENSE_STATS_VERSION)
}

/// Encodes a [`SimStats`] into its stored payload bytes, the run store's
/// record form: each liveness histogram is written as its logical
/// length, its stored length, and only the stored buckets.
/// [`decode_stats`] turns it back into the same `SimStats`.
pub fn encode_stored_stats(stats: &SimStats) -> Vec<u8> {
    encode(stats, STORED_STATS_VERSION)
}

fn encode(stats: &SimStats, version: u32) -> Vec<u8> {
    assert!(stats.histograms_are_compact(), "liveness histograms are not compact");
    let buckets = stats.phys_regs + 1;
    let dense = version == DENSE_STATS_VERSION;
    let words: usize = if dense {
        4 * buckets
    } else {
        stats.live_hist.iter().chain(&stats.live_hist_imprecise).map(Vec::len).sum()
    };
    let mut out = Vec::with_capacity(512 + 8 * words);
    out.extend_from_slice(STATS_MAGIC);
    put_u32(&mut out, version);
    for v in [
        stats.cycles,
        stats.committed,
        stats.issued,
        stats.inserted,
        stats.squashed,
        stats.committed_loads,
        stats.committed_cbr,
        stats.issued_loads,
        stats.issued_cbr,
    ] {
        put_u64(&mut out, v);
    }
    put_u64(&mut out, stats.bpred.predicted());
    put_u64(&mut out, stats.bpred.mispredicted());
    for v in [
        stats.cache.loads,
        stats.cache.load_hits,
        stats.cache.load_misses_primary,
        stats.cache.load_misses_secondary,
        stats.cache.stores,
        stats.cache.store_hits,
        stats.cache.fills_installed,
        stats.cache.fills_cancelled,
    ] {
        put_u64(&mut out, v);
    }
    put_u64(&mut out, stats.peak_outstanding_fills as u64);
    put_u64(&mut out, stats.icache_miss_rate.to_bits());
    for v in [
        stats.no_free_int_cycles,
        stats.no_free_fp_cycles,
        stats.no_free_any_cycles,
        stats.insert_stall_no_reg,
        stats.insert_stall_dq_full,
        stats.dq_occupancy_sum,
    ] {
        put_u64(&mut out, v);
    }
    for hist in stats.live_hist.iter().chain(stats.live_hist_imprecise.iter()) {
        put_u32(&mut out, buckets as u32);
        if !dense {
            put_u32(&mut out, hist.len() as u32);
        }
        for &v in hist {
            put_u64(&mut out, v);
        }
        if dense {
            out.resize(out.len() + 8 * (buckets - hist.len()), 0);
        }
    }
    for class in &stats.cat_sums {
        for &v in class {
            put_u64(&mut out, v);
        }
    }
    out
}

/// Decodes a payload produced by [`encode_stored_stats`].
///
/// Every cycle is counted in one bucket of each liveness histogram, so
/// each histogram must sum to `cycles`; a payload that breaks this is
/// rejected.
///
/// # Errors
///
/// A descriptive message when the magic, version, length, any field
/// bound or the histogram sums do not hold — a corrupt or stale payload
/// never becomes a half-initialized `SimStats`.
pub fn decode_stats(bytes: &[u8]) -> Result<SimStats, String> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(STATS_MAGIC.len())? != STATS_MAGIC {
        return Err("stats payload: bad magic".into());
    }
    let version = r.u32()?;
    if version != STORED_STATS_VERSION {
        return Err(format!("stats payload: version {version}, expected {STORED_STATS_VERSION}"));
    }
    let mut stats = SimStats::new(0);
    stats.cycles = r.u64()?;
    stats.committed = r.u64()?;
    stats.issued = r.u64()?;
    stats.inserted = r.u64()?;
    stats.squashed = r.u64()?;
    stats.committed_loads = r.u64()?;
    stats.committed_cbr = r.u64()?;
    stats.issued_loads = r.u64()?;
    stats.issued_cbr = r.u64()?;
    let predicted = r.u64()?;
    let mispredicted = r.u64()?;
    if mispredicted > predicted {
        return Err("stats payload: mispredicted exceeds predicted".into());
    }
    stats.bpred = PredictorStats::from_counts(predicted, mispredicted);
    stats.cache = CacheStats {
        loads: r.u64()?,
        load_hits: r.u64()?,
        load_misses_primary: r.u64()?,
        load_misses_secondary: r.u64()?,
        stores: r.u64()?,
        store_hits: r.u64()?,
        fills_installed: r.u64()?,
        fills_cancelled: r.u64()?,
    };
    stats.peak_outstanding_fills = usize::try_from(r.u64()?)
        .map_err(|_| "stats payload: peak_outstanding_fills overflows usize".to_string())?;
    stats.icache_miss_rate = f64::from_bits(r.u64()?);
    stats.no_free_int_cycles = r.u64()?;
    stats.no_free_fp_cycles = r.u64()?;
    stats.no_free_any_cycles = r.u64()?;
    stats.insert_stall_no_reg = r.u64()?;
    stats.insert_stall_dq_full = r.u64()?;
    stats.dq_occupancy_sum = r.u64()?;
    let mut hists = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut buckets = None;
    for hist in &mut hists {
        let len = r.u32()? as usize;
        if len == 0 {
            return Err("stats payload: empty histogram".into());
        }
        if *buckets.get_or_insert(len) != len {
            return Err("stats payload: histogram lengths differ".into());
        }
        let stored = r.u32()? as usize;
        if stored > len {
            return Err("stats payload: stored histogram exceeds its length".into());
        }
        // Each stored bucket costs 8 payload bytes, so the length field
        // can never legitimately exceed what remains.
        if stored > r.remaining() / 8 {
            return Err("stats payload: histogram length exceeds payload".into());
        }
        *hist = r
            .take(8 * stored)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect();
        if hist.last() == Some(&0) {
            return Err("stats payload: stored histogram ends in a zero bucket".into());
        }
        // A separate pass: summing inside the decoding iterator keeps
        // the copy above from vectorizing, which costs far more.
        let sum = hist.iter().fold(0u64, |sum, &v| sum.wrapping_add(v));
        if sum != stats.cycles {
            return Err(format!(
                "stats payload: a liveness histogram sums to {sum}, not {} cycles",
                stats.cycles
            ));
        }
    }
    stats.phys_regs = buckets.expect("four histograms were read") - 1;
    let [h0, h1, h2, h3] = hists;
    stats.live_hist = [h0, h1];
    stats.live_hist_imprecise = [h2, h3];
    for class in &mut stats.cat_sums {
        for v in class.iter_mut() {
            *v = r.u64()?;
        }
    }
    if r.remaining() != 0 {
        return Err(format!(
            "stats payload: {} trailing bytes",
            r.remaining()
        ));
    }
    Ok(stats)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn put_cache_config(out: &mut Vec<u8>, cfg: &CacheConfig) {
    put_u64(out, cfg.size_bytes() as u64);
    put_u64(out, cfg.assoc() as u64);
    put_u64(out, cfg.line_bytes() as u64);
    put_u64(out, cfg.hit_latency());
    put_u64(out, cfg.fetch_latency());
}

/// Bounds-checked little-endian cursor over a payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "stats payload: truncated at byte {} (wanted {n} more)",
                self.pos
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> RunSpec {
        RunSpec::baseline("compress", 4).commits(2_000)
    }

    fn busy_stats() -> SimStats {
        let mut s = SimStats::new(8);
        s.cycles = 1_000;
        s.committed = 2_000;
        s.issued = 2_500;
        s.inserted = 2_600;
        s.squashed = 100;
        s.committed_loads = 400;
        s.committed_cbr = 300;
        s.issued_loads = 450;
        s.issued_cbr = 320;
        s.bpred = PredictorStats::from_counts(300, 17);
        s.cache = CacheStats {
            loads: 400,
            load_hits: 380,
            load_misses_primary: 15,
            load_misses_secondary: 5,
            stores: 200,
            store_hits: 190,
            fills_installed: 14,
            fills_cancelled: 1,
        };
        s.peak_outstanding_fills = 3;
        s.icache_miss_rate = 0.0125;
        s.no_free_int_cycles = 11;
        s.no_free_fp_cycles = 7;
        s.no_free_any_cycles = 15;
        s.insert_stall_no_reg = 9;
        s.insert_stall_dq_full = 21;
        s.dq_occupancy_sum = 98_765;
        // Each histogram counts every cycle once.
        s.live_hist[0] = vec![0, 0, 958, 42];
        s.live_hist[1] = vec![0, 0, 0, 0, 993, 7];
        s.live_hist_imprecise[0] = vec![0, 987, 13];
        s.live_hist_imprecise[1] = vec![1_000];
        s.cat_sums[0][0] = 1_000;
        s.cat_sums[1][3] = 77;
        s
    }

    /// GOLDEN: pins the canonical encoding and its digest. If this test
    /// fails because you changed `spec_key_bytes` (or any type it
    /// encodes), bump `KEY_ENCODING` and update the pinned values; the
    /// new [`DIGEST_SCHEMA`] retires every stored record.
    #[test]
    fn spec_digest_is_pinned() {
        let spec = sample_spec();
        let bytes = spec_key_bytes(&spec);
        assert_eq!(&bytes[..6], b"rfspec");
        assert_eq!(bytes.len(), 110, "encoding length changed");
        assert_eq!(
            spec_digest(&spec).to_hex(),
            "6ce7f9631385909453e730557334a8fb",
            "canonical digest changed — see test doc comment"
        );
        // A second field mix, exercising every Option/enum arm.
        let mut alt = RunSpec::baseline("ear", 8);
        alt.exceptions = ExceptionModel::AlphaHybrid;
        alt.cache = CacheOrg::Perfect;
        alt.policy = SchedPolicy::YoungestFirst;
        alt.predictor = PredictorKind::Bimodal;
        alt.insert_bw = Some(2);
        alt.reorder = Some(64);
        alt.split_dq = true;
        alt.icache = Some((CacheConfig::new(8 * 1024, 1, 32, 1, 10), 6));
        let alt = alt.commits(5_000);
        assert_eq!(
            spec_digest(&alt).to_hex(),
            "8d4713beb3f2dc817b3a0f681587ec21",
            "canonical digest changed — see test doc comment"
        );
    }

    #[test]
    fn digest_distinguishes_every_field() {
        let base = sample_spec();
        let d0 = spec_digest(&base);
        let mut variants: Vec<RunSpec> = Vec::new();
        let mut v = base.clone();
        v.benchmark = "ear".into();
        variants.push(v);
        let mut v = base.clone();
        v.width = 8;
        variants.push(v);
        let mut v = base.clone();
        v.regs = 64;
        variants.push(v);
        let mut v = base.clone();
        v.exceptions = ExceptionModel::Imprecise;
        variants.push(v);
        let mut v = base.clone();
        v.cache = CacheOrg::Lockup;
        variants.push(v);
        let mut v = base.clone();
        v.insert_bw = Some(0);
        variants.push(v);
        let mut v = base.clone();
        v.split_dq = true;
        variants.push(v);
        let mut v = base.clone();
        v.seed = 13;
        variants.push(v);
        for variant in &variants {
            assert_ne!(spec_digest(variant), d0, "variant {variant:?}");
        }
        // And the digest is a pure function of the spec.
        assert_eq!(spec_digest(&base), d0);
    }

    /// `pin` with its last hex digit changed.
    fn perturbed(pin: &str) -> String {
        let last = if pin.ends_with('0') { '1' } else { '0' };
        format!("{}{last}", &pin[..pin.len() - 1])
    }

    #[test]
    fn the_answer_generation_moves_with_each_of_its_inputs() {
        assert_ne!(DIGEST_SCHEMA, 1, "records of the key-only schema are retired");
        let (k, v) = (KEY_ENCODING, STORED_STATS_VERSION);
        assert_eq!(answer_generation(k, v, KERNEL_PIN, ISSUE_PIN), DIGEST_SCHEMA);
        let (kernel, issue) = (perturbed(KERNEL_PIN), perturbed(ISSUE_PIN));
        for moved in [
            answer_generation(k + 1, v, KERNEL_PIN, ISSUE_PIN),
            answer_generation(k, v + 1, KERNEL_PIN, ISSUE_PIN),
            answer_generation(k, v, &kernel, ISSUE_PIN),
            answer_generation(k, v, KERNEL_PIN, &issue),
            answer_generation(k, v, ISSUE_PIN, KERNEL_PIN),
        ] {
            assert_ne!(moved, DIGEST_SCHEMA);
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = busy_stats();
        let bytes = encode_stored_stats(&stats);
        assert_eq!(bytes[6..10], STORED_STATS_VERSION.to_le_bytes());
        let back = decode_stats(&bytes).expect("decode");
        assert_eq!(back, stats);
        assert_eq!(encode_stats(&back), encode_stats(&stats));
        // The dense identity form is never read back.
        let dense = encode_stats(&stats);
        assert_eq!(dense[6..10], DENSE_STATS_VERSION.to_le_bytes());
        let err = decode_stats(&dense).expect_err("dense payload");
        assert!(err.contains("version 1, expected 2"), "{err}");
    }

    /// Offset of the first histogram length field: magic(6) + ver(4) +
    /// the fixed counters, 9+2+8+1+1+6 u64s.
    const HIST_OFF: usize = 6 + 4 + 27 * 8;

    #[test]
    fn a_simulated_answer_round_trips_compact() {
        let stats = crate::runner::simulate(&sample_spec());
        assert_eq!(stats.phys_regs, 2048);
        assert!(stats.histograms_are_compact());
        let bytes = encode_stats(&stats);
        // The identity form keeps the dense layout: four u32 lengths of
        // 2049, each followed by 2049 u64 buckets; the cat sums (8 u64s)
        // follow it.
        assert_eq!(bytes.len() - HIST_OFF - 8 * 8, 4 * (4 + 2049 * 8));
        // The stored layout keeps only the buckets the run reached.
        let stored = encode_stored_stats(&stats);
        assert!(4 * stored.len() < bytes.len(), "{} of {} bytes", stored.len(), bytes.len());
        let back = decode_stats(&stored).expect("decode stored");
        assert!(back.histograms_are_compact());
        assert_eq!(back, stats);
        assert_eq!(encode_stats(&back), bytes);
    }

    #[test]
    fn decode_rejects_histograms_the_stored_layout_cannot_have() {
        let bytes = encode_stored_stats(&busy_stats());
        // The first histogram: logical length 9, stored length 4, then
        // its 4 buckets, the last of them 42.
        assert_eq!(bytes[HIST_OFF..HIST_OFF + 8], [9, 0, 0, 0, 4, 0, 0, 0]);
        let last = HIST_OFF + 8 + 3 * 8;
        assert_eq!(bytes[last..last + 8], 42u64.to_le_bytes());
        let cases = [
            (HIST_OFF, 0u32.to_le_bytes().to_vec(), "empty histogram"),
            (HIST_OFF + 4, 10u32.to_le_bytes().to_vec(), "exceeds its length"),
            (last, 0u64.to_le_bytes().to_vec(), "ends in a zero bucket"),
            (HIST_OFF + 8 + 4 * 8, 8u32.to_le_bytes().to_vec(), "lengths differ"),
            (last, 41u64.to_le_bytes().to_vec(), "sums to 999, not 1000 cycles"),
            // `cycles` is the first counter after the magic and version.
            (10, 999u64.to_le_bytes().to_vec(), "sums to 1000, not 999 cycles"),
        ];
        for (at, patch, why) in cases {
            let mut bad = bytes.clone();
            bad[at..at + patch.len()].copy_from_slice(&patch);
            let err = decode_stats(&bad).expect_err(why);
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn stats_decode_rejects_malformed_payloads() {
        let bytes = encode_stored_stats(&busy_stats());
        // Truncation anywhere must fail, never partially decode.
        for cut in [0, 5, 6, 9, 10, HIST_OFF + 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_stats(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_stats(&extended).is_err());
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert!(decode_stats(&wrong).is_err());
        // Wrong version.
        let mut stale = bytes.clone();
        stale[6] = 0xee;
        assert!(decode_stats(&stale).is_err());
        // Absurd histogram length cannot cause a huge allocation.
        let mut hist_bomb = bytes;
        hist_bomb[HIST_OFF..HIST_OFF + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_stats(&hist_bomb).is_err());
    }
}
