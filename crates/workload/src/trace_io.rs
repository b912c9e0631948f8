//! Trace files: a [`SharedTrace`] on disk.
//!
//! The original study replayed ATOM-captured traces; a trace file gives
//! the synthetic generators the same record/replay workflow. It stores a
//! shared trace's three arrays as they are, so reading one back yields
//! the trace a suite run would have built for the same `(benchmark,
//! seed)`.
//!
//! ## Format (`RFT2`)
//!
//! All integers are little-endian.
//!
//! * the magic `RFT2`;
//! * the benchmark name: a `u8` length, then that many UTF-8 bytes;
//! * the seed (`u64`);
//! * the word, address and jump counts (`u32` each);
//! * the [`PackedInst`] words (`u32` each);
//! * the addresses of the loads and stores, in trace order (`u64` each);
//! * the jump list: `(index: u32, pc: u64)` for every instruction whose
//!   PC is not its predecessor's plus 4.
//!
//! The arrays carry no sentinels; reading appends them. A file is outside
//! input, so [`SharedTrace::read_from`] validates it: a known benchmark,
//! every word accepted by [`PackedInst::from_bits`], one address per word
//! that accesses memory, jump indices strictly increasing and in range,
//! and nothing after the jump list.

use crate::shared::SharedTrace;
use crate::spec92;
use rf_isa::PackedInst;
use std::io::{self, BufWriter, Read, Write};

const MAGIC: &[u8; 4] = b"RFT2";

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads exactly `len` bytes. A file ends early only if it is corrupt,
/// so a short read is `InvalidData` naming `what`. The buffer grows with
/// the bytes that arrive, so a lying count cannot allocate more than the
/// file holds.
fn read_exactly(r: &mut impl Read, len: usize, what: &str) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    r.take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() == len {
        Ok(bytes)
    } else {
        Err(invalid(format!("truncated trace: {what} ends early")))
    }
}

fn u32_at(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

impl SharedTrace {
    /// Writes the trace's buffer to `w` in the `RFT2` format. The tail
    /// generator is not written: a file holds exactly [`SharedTrace::len`]
    /// instructions.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    ///
    /// # Examples
    ///
    /// ```
    /// use rf_workload::{spec92, SharedTrace};
    ///
    /// # fn main() -> std::io::Result<()> {
    /// let shared = SharedTrace::new(&spec92::compress(), 1, 100);
    /// let mut file = Vec::new();
    /// shared.write_to(&mut file)?;
    /// let read = SharedTrace::read_from(&mut file.as_slice())?;
    /// assert_eq!((read.benchmark(), read.len()), ("compress", 100));
    /// assert_eq!(read.cursor().count(), 100);
    /// # Ok(())
    /// # }
    /// ```
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        let name = self.benchmark.as_bytes();
        let name_len = u8::try_from(name.len())
            .map_err(|_| invalid(format!("benchmark name {:?} is too long", self.benchmark)))?;
        // Without their sentinels.
        let addrs = &self.addrs[..self.addrs.len() - 1];
        let jumps = &self.jumps[..self.jumps.len() - 1];
        w.write_all(MAGIC)?;
        w.write_all(&[name_len])?;
        w.write_all(name)?;
        w.write_all(&self.seed.to_le_bytes())?;
        for n in [self.words.len(), addrs.len(), jumps.len()] {
            w.write_all(&(n as u32).to_le_bytes())?;
        }
        for word in &self.words {
            w.write_all(&word.bits().to_le_bytes())?;
        }
        for addr in addrs {
            w.write_all(&addr.to_le_bytes())?;
        }
        for &(at, pc) in jumps {
            w.write_all(&at.to_le_bytes())?;
            w.write_all(&pc.to_le_bytes())?;
        }
        w.flush()
    }

    /// Reads a trace written by [`SharedTrace::write_to`]. Its wrong-path
    /// template is rebuilt from the header's benchmark and seed; it has
    /// no tail generator, so its cursors end with the file.
    ///
    /// # Errors
    ///
    /// I/O errors pass through. Anything that is not a well-formed
    /// `RFT2` trace is [`io::ErrorKind::InvalidData`]: an unknown
    /// benchmark, a word [`PackedInst::from_bits`] rejects, a missing or
    /// extra address, jump indices out of order or range, or bytes after
    /// the jump list.
    pub fn read_from(r: &mut impl Read) -> io::Result<SharedTrace> {
        if read_exactly(r, 4, "magic")? != MAGIC {
            return Err(invalid("not an RFT2 trace".into()));
        }
        let name_len = read_exactly(r, 1, "header")?[0];
        let name = read_exactly(r, name_len.into(), "header")?;
        let name = String::from_utf8_lossy(&name);
        let profile =
            spec92::by_name(&name).ok_or_else(|| invalid(format!("unknown benchmark {name:?}")))?;
        let header = read_exactly(r, 20, "header")?;
        let seed = u64_at(&header);
        let [n_words, n_addrs, n_jumps] = [8, 12, 16].map(|at| u32_at(&header[at..]));

        let words = read_exactly(r, n_words as usize * 4, "word array")?
            .chunks_exact(4)
            .enumerate()
            .map(|(i, b)| {
                let bits = u32_at(b);
                PackedInst::from_bits(bits)
                    .ok_or_else(|| invalid(format!("invalid instruction word {bits:#010x} at {i}")))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mem_words = words.iter().filter(|w| w.has_mem()).count();
        if mem_words != n_addrs as usize {
            return Err(invalid(format!(
                "{n_addrs} addresses for {mem_words} memory instructions"
            )));
        }
        let addrs: Vec<u64> = read_exactly(r, n_addrs as usize * 8, "address array")?
            .chunks_exact(8)
            .map(u64_at)
            .collect();
        let jumps: Vec<(u32, u64)> = read_exactly(r, n_jumps as usize * 12, "jump array")?
            .chunks_exact(12)
            .map(|b| (u32_at(b), u64_at(&b[4..])))
            .collect();
        let ordered = jumps.windows(2).all(|pair| pair[0].0 < pair[1].0);
        if !ordered || jumps.last().is_some_and(|&(at, _)| at >= n_words) {
            return Err(invalid(format!("jump indices out of order or past the {n_words} words")));
        }
        if r.read(&mut [0u8])? != 0 {
            return Err(invalid("trailing bytes after the jump list".into()));
        }
        Ok(SharedTrace::from_parts(&profile, seed, words, addrs, jumps, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;

    fn file_of(bench: &str, seed: u64, len: usize) -> Vec<u8> {
        let shared = SharedTrace::new(&spec92::by_name(bench).expect("known"), seed, len);
        let mut buf = Vec::new();
        shared.write_to(&mut buf).unwrap();
        buf
    }

    fn header_len(bench: &str) -> usize {
        4 + 1 + bench.len() + 8 + 3 * 4
    }

    /// The three counts, as the header stores them.
    fn counts(buf: &[u8], bench: &str) -> [u32; 3] {
        let at = header_len(bench) - 12;
        [0, 1, 2].map(|i| u32::from_le_bytes(buf[at + 4 * i..at + 4 * i + 4].try_into().unwrap()))
    }

    fn read_err(buf: &[u8]) -> io::Error {
        let err = SharedTrace::read_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err
    }

    #[test]
    fn roundtrips_every_profile() {
        for p in spec92::all() {
            let buf = file_of(&p.name, 7, 5_000);
            let read = SharedTrace::read_from(&mut buf.as_slice()).unwrap();
            assert_eq!((read.benchmark(), read.seed, read.len()), (p.name.as_str(), 7, 5_000));
            let fresh: Vec<_> = TraceGenerator::new(&p, 7).take(5_000).collect();
            assert_eq!(read.cursor().collect::<Vec<_>>(), fresh, "{}", p.name);
            let wrong: Vec<_> = read.wrong_path().take(500).collect();
            let built = SharedTrace::new(&p, 7, 0).wrong_path().take(500).collect::<Vec<_>>();
            assert_eq!(wrong, built, "{}", p.name);
        }
    }

    #[test]
    fn files_are_compact() {
        let buf = file_of("compress", 1, 10_000);
        let per_inst = (buf.len() - header_len("compress")) as f64 / 10_000.0;
        assert!(per_inst < 8.0, "{per_inst:.2} bytes per instruction");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let buf = file_of("ora", 2, 0);
        assert_eq!(buf.len(), header_len("ora"));
        let read = SharedTrace::read_from(&mut buf.as_slice()).unwrap();
        assert!(read.is_empty());
        assert_eq!(read.cursor().next(), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = file_of("gcc1", 2, 10);
        buf[3] = b'1';
        assert!(read_err(&buf).to_string().contains("not an RFT2"));
        read_err(b"NOPE");
        read_err(b"RF");
    }

    #[test]
    fn rejects_unknown_benchmarks() {
        let mut buf = file_of("gcc1", 2, 10);
        buf[5..9].copy_from_slice(b"gccx");
        assert!(read_err(&buf).to_string().contains("unknown benchmark"));
    }

    #[test]
    fn rejects_invalid_words() {
        let mut buf = file_of("gcc1", 2, 10);
        let at = header_len("gcc1");
        buf[at + 3] = 0xff; // spare bits of the first word
        assert!(read_err(&buf).to_string().contains("invalid instruction word"));
    }

    #[test]
    fn rejects_truncation_in_every_array() {
        let bench = "tomcatv";
        let buf = file_of(bench, 3, 200);
        let [words, addrs, jumps] = counts(&buf, bench).map(|n| n as usize);
        assert!(addrs > 0 && jumps > 0);
        let words_end = header_len(bench) + 4 * words;
        let addrs_end = words_end + 8 * addrs;
        assert_eq!(buf.len(), addrs_end + 12 * jumps);
        for (cut, what) in [
            (header_len(bench) - 2, "header"),
            (words_end - 1, "word array"),
            (addrs_end - 3, "address array"),
            (buf.len() - 5, "jump array"),
        ] {
            let err = read_err(&buf[..cut]);
            assert!(err.to_string().contains(what), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn rejects_an_address_count_that_disagrees_with_the_words() {
        let bench = "su2cor";
        let mut buf = file_of(bench, 1, 100);
        let at = header_len(bench) - 8;
        let n = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        buf[at..at + 4].copy_from_slice(&(n - 1).to_le_bytes());
        assert!(read_err(&buf).to_string().contains("memory instructions"));
    }

    #[test]
    fn rejects_non_increasing_and_out_of_range_jumps() {
        let bench = "espresso";
        let buf = file_of(bench, 4, 300);
        let [_, _, jumps] = counts(&buf, bench);
        assert!(jumps >= 2);
        let second = buf.len() - 12 * (jumps as usize - 1);
        for index in [0u32, 300, u32::MAX] {
            let mut bad = buf.clone();
            bad[second..second + 4].copy_from_slice(&index.to_le_bytes());
            assert!(read_err(&bad).to_string().contains("jump indices"), "index {index}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut buf = file_of("doduc", 5, 50);
        buf.push(0);
        assert!(read_err(&buf).to_string().contains("trailing bytes"));
    }
}
