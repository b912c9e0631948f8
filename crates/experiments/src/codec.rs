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
//! # Versioning
//!
//! - [`DIGEST_SCHEMA`] stamps each store record with the key-encoding
//!   generation. Changing the `RunSpec` encoding (new field, reordered
//!   field, widened enum) MUST bump it; `rfstudy store gc` then drops
//!   the stale generation. The golden test below pins the current
//!   encoding so an accidental change fails loudly instead of silently
//!   orphaning (or worse, misreading) the corpus.
//! - [`STATS_CODEC_VERSION`] prefixes each payload; [`decode_stats`]
//!   rejects any other version, so a stale payload shape can never be
//!   half-read into a current [`SimStats`].

use crate::runner::RunSpec;
use rf_bpred::{PredictorKind, PredictorStats};
use rf_core::{ExceptionModel, SchedPolicy, SimStats};
use rf_mem::{CacheConfig, CacheOrg, CacheStats};
use rf_store::Digest;

/// Version of the canonical `RunSpec` byte encoding (the store's record
/// schema field). Bump on ANY change to [`spec_key_bytes`].
pub const DIGEST_SCHEMA: u32 = 1;

/// Version of the `SimStats` payload encoding. Bump on ANY change to
/// [`encode_stats`] / [`decode_stats`].
pub const STATS_CODEC_VERSION: u32 = 1;

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
    put_u32(&mut out, DIGEST_SCHEMA);
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

/// Encodes a [`SimStats`] into its versioned payload bytes.
///
/// Each liveness histogram is written at its logical length,
/// `phys_regs + 1` buckets, with the zeros past its stored end padded
/// back, so the payload does not depend on the in-memory form.
pub fn encode_stats(stats: &SimStats) -> Vec<u8> {
    assert!(stats.histograms_are_compact(), "liveness histograms are not compact");
    let buckets = stats.phys_regs + 1;
    let mut out = Vec::with_capacity(512 + 4 * 8 * buckets);
    out.extend_from_slice(STATS_MAGIC);
    put_u32(&mut out, STATS_CODEC_VERSION);
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
        for &v in hist {
            put_u64(&mut out, v);
        }
        out.resize(out.len() + 8 * (buckets - hist.len()), 0);
    }
    for class in &stats.cat_sums {
        for &v in class {
            put_u64(&mut out, v);
        }
    }
    out
}

/// Decodes a payload produced by [`encode_stats`].
///
/// # Errors
///
/// A descriptive message when the magic, version, length, or any field
/// bound does not hold — a corrupt or stale payload never becomes a
/// half-initialized `SimStats`.
pub fn decode_stats(bytes: &[u8]) -> Result<SimStats, String> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(STATS_MAGIC.len())? != STATS_MAGIC {
        return Err("stats payload: bad magic".into());
    }
    let version = r.u32()?;
    if version != STATS_CODEC_VERSION {
        return Err(format!(
            "stats payload: version {version}, expected {STATS_CODEC_VERSION}"
        ));
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
        // Each histogram entry costs 8 payload bytes, so the length
        // field can never legitimately exceed what remains.
        if len > r.remaining() / 8 {
            return Err("stats payload: histogram length exceeds payload".into());
        }
        // Keep the compact form: the buckets up to the last non-zero one.
        let words = r.take(8 * len)?.chunks_exact(8);
        let kept = words.clone().rposition(|w| w.iter().any(|&b| b != 0)).map_or(0, |i| i + 1);
        *hist = words
            .take(kept)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect();
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
        s.cycles = 12_345;
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
        s.live_hist[0] = vec![0, 0, 0, 42];
        s.live_hist[1] = vec![0, 0, 0, 0, 0, 7];
        s.live_hist_imprecise[0] = vec![0, 0, 13];
        s.cat_sums[0][0] = 1_000;
        s.cat_sums[1][3] = 77;
        s
    }

    /// GOLDEN: pins the canonical encoding and its digest. If this test
    /// fails because you changed `spec_key_bytes` (or any type it
    /// encodes), bump [`DIGEST_SCHEMA`], update the pinned values, and
    /// note in the changelog that existing store corpora need
    /// `rfstudy store gc`.
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

    #[test]
    fn stats_round_trip() {
        let stats = busy_stats();
        let bytes = encode_stats(&stats);
        let back = decode_stats(&bytes).expect("decode");
        assert_eq!(back, stats);
    }

    /// Offset of the first histogram length field: magic(6) + ver(4) +
    /// the fixed counters, 9+2+8+1+1+6 u64s.
    const HIST_OFF: usize = 6 + 4 + 27 * 8;

    #[test]
    fn a_simulated_answer_round_trips_compact_through_the_dense_layout() {
        let stats = crate::runner::simulate(&sample_spec());
        assert_eq!(stats.phys_regs, 2048);
        assert!(stats.histograms_are_compact());
        let bytes = encode_stats(&stats);
        // The histogram section keeps the dense layout: four u32 lengths
        // of 2049, each followed by 2049 u64 buckets; the cat sums
        // (8 u64s) follow it.
        assert_eq!(bytes.len() - HIST_OFF - 8 * 8, 4 * (4 + 2049 * 8));
        let back = decode_stats(&bytes).expect("decode");
        assert!(back.histograms_are_compact());
        assert_eq!(back, stats);
        assert_eq!(encode_stats(&back), bytes);
    }

    #[test]
    fn stats_decode_rejects_histograms_of_different_lengths() {
        let bytes = encode_stats(&busy_stats());
        // The second length field follows the first histogram's 9 buckets.
        let second = HIST_OFF + 4 + 9 * 8;
        assert_eq!(bytes[second..second + 4], 9u32.to_le_bytes());
        let mut uneven = bytes.clone();
        uneven[second..second + 4].copy_from_slice(&8u32.to_le_bytes());
        let err = decode_stats(&uneven).expect_err("uneven lengths");
        assert!(err.contains("lengths differ"), "{err}");
        // A zero-length histogram names no register file.
        let mut empty = bytes;
        empty[HIST_OFF..HIST_OFF + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_stats(&empty).is_err());
    }

    #[test]
    fn stats_decode_rejects_malformed_payloads() {
        let stats = busy_stats();
        let bytes = encode_stats(&stats);
        // Truncation anywhere must fail, never partially decode.
        for cut in [0, 5, 6, 9, 10, bytes.len() / 2, bytes.len() - 1] {
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
