//! A durable, content-addressed record store: append-only segment files
//! of length-prefixed, checksummed records plus a rebuildable in-memory
//! index.
//!
//! The store maps a 128-bit [`Digest`] (plus the full key bytes it was
//! derived from) to an opaque payload. It is generic over what the key
//! and payload mean — the experiment layer uses it as a durable
//! `RunSpec → SimStats` corpus, keyed by a stable digest of the spec's
//! canonical byte encoding.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   store.lock        advisory lock file (rotation & compaction)
//!   seg-00000001.log  append-only segment (oldest)
//!   seg-00000002.log  ...
//!   seg-0000000N.log  active segment (highest number)
//! ```
//!
//! Each segment is a sequence of records:
//!
//! ```text
//! magic "RFR2" | schema u32 | key_len u32 | payload_len u32
//! | digest [16] | checksum u64 | key bytes | payload bytes
//! ```
//!
//! All integers are little-endian. The checksum covers everything after
//! the magic except the checksum itself: header bytes 4..32, then the key
//! and the payload, streamed without copying them together. The magic
//! names the record format ([`RecordFormat`]), and with it the checksum:
//!
//! - `RFR2` (what appends and compaction write): xxHash64 under a pinned
//!   seed ([`hash::record_hasher`]);
//! - `RFR1` (older stores): SipHash-2-4 under a pinned key
//!   ([`hash::checksum`]). Such records stay readable and verifiable, and
//!   [`Store::compact`] re-encodes them as `RFR2`.
//!
//! Both formats share the header layout, so one segment may hold both.
//!
//! # Durability & concurrency
//!
//! - **Appends** are a single `O_APPEND` `write` of the whole record
//!   while holding the store lock *shared*, so concurrent processes
//!   interleave whole records, never bytes. Appends are not individually
//!   fsynced; call [`Store::sync`] to flush (the suite does at exit).
//! - **Directory entries** are fsynced where they are created: the store
//!   directory when an open creates it, the first segment when the first
//!   append creates it. Opening an existing store fsyncs nothing.
//! - **Rotation** (when the active segment exceeds the size bound) and
//!   **compaction** take the lock *exclusively*: the sealed segment is
//!   fsynced, the new one is created, and the directory entry is fsynced
//!   before the lock drops.
//! - **Reads** go through a [`Snapshot`]: the segment set and each
//!   segment's length are captured at open, and every read stays inside
//!   those bounds — concurrent appends past the captured length are
//!   invisible, and a concurrent compaction cannot disturb the open file
//!   descriptors (POSIX keeps unlinked-but-open files readable).
//! - **Crash recovery** is by construction: a torn tail record fails its
//!   length bound or checksum and is skipped (and counted); everything
//!   before it is intact because records are never modified in place.
//!
//! Records are immutable once written; re-appending a digest supersedes
//! the older record (last-written wins, with later segments outranking
//! earlier ones). [`Store::compact`] rewrites the live record set into a
//! fresh segment and deletes the old ones; its `keep_schema` filter is
//! how stale key-schema generations are garbage-collected.

#![warn(missing_docs)]

pub mod hash;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::ops::Deref;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Fixed byte length of a record header (everything before the key).
pub const HEADER_LEN: usize = 40;

/// Default segment size bound: appends past this rotate to a fresh
/// segment. Small enough that compaction and verification work in
/// bounded pieces, large enough that a full suite corpus fits in a
/// handful of segments.
pub const DEFAULT_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

/// Name of the advisory lock file inside the store directory.
const LOCK_FILE: &str = "store.lock";

/// A stable 128-bit content identity (see [`hash::digest128`]).
///
/// Equal digests *almost certainly* mean equal keys, but the store never
/// relies on that: reads verify the full key bytes, so a collision can
/// only cause a miss, never a wrong payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Digest of raw key bytes.
    pub fn of(key: &[u8]) -> Self {
        Self(hash::digest128(key))
    }

    /// Lowercase hex rendering (32 chars).
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A record format version, named by the record's magic bytes. The
/// formats share one header layout and differ only in their checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordFormat {
    /// `RFR1`: SipHash-2-4 checksum. Read and verified, never written.
    Rfr1,
    /// `RFR2`: xxHash64 checksum.
    Rfr2,
}

impl RecordFormat {
    /// The format appends and compaction write.
    pub const CURRENT: Self = Self::Rfr2;

    /// The magic bytes opening a record of this format.
    pub fn magic(self) -> [u8; 4] {
        match self {
            Self::Rfr1 => *b"RFR1",
            Self::Rfr2 => *b"RFR2",
        }
    }

    fn from_magic(magic: &[u8]) -> Option<Self> {
        [Self::Rfr1, Self::Rfr2].into_iter().find(|f| f.magic() == magic)
    }

    /// The checksum of an encoded record: header bytes 4..32, then the
    /// key and payload.
    fn checksum(self, record: &[u8]) -> u64 {
        let (head, body) = (&record[4..32], &record[HEADER_LEN..]);
        match self {
            Self::Rfr1 => hash::checksum(&[head, body].concat()),
            Self::Rfr2 => {
                let mut h = hash::record_hasher();
                h.update(head);
                h.update(body);
                h.finish()
            }
        }
    }
}

impl fmt::Display for RecordFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&self.magic()).expect("ASCII magic"))
    }
}

/// Serialises one record into its on-disk byte form.
fn encode_record(
    format: RecordFormat,
    schema: u32,
    digest: Digest,
    key: &[u8],
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + key.len() + payload.len());
    buf.extend_from_slice(&format.magic());
    buf.extend_from_slice(&schema.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&digest.0);
    buf.extend_from_slice(&[0u8; 8]); // checksum placeholder
    buf.extend_from_slice(key);
    buf.extend_from_slice(payload);
    let sum = format.checksum(&buf);
    buf[32..40].copy_from_slice(&sum.to_le_bytes());
    buf
}

/// A parsed record header. (The checksum field is not carried here:
/// verification recomputes it against the stored bytes directly.)
#[derive(Debug, Clone, Copy)]
struct Header {
    format: RecordFormat,
    schema: u32,
    key_len: u32,
    payload_len: u32,
    digest: Digest,
}

impl Header {
    fn parse(bytes: &[u8; HEADER_LEN]) -> Option<Self> {
        let format = RecordFormat::from_magic(&bytes[..4])?;
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let mut digest = [0u8; 16];
        digest.copy_from_slice(&bytes[16..32]);
        Some(Self {
            format,
            schema: u32_at(4),
            key_len: u32_at(8),
            payload_len: u32_at(12),
            digest: Digest(digest),
        })
    }

    fn record_len(&self) -> u64 {
        HEADER_LEN as u64 + self.key_len as u64 + self.payload_len as u64
    }
}

/// Sanity bound on a single key or payload: anything larger is treated
/// as corruption, not a record (a real stats payload is a few kilobytes
/// compact, at most about 65 KiB dense for a 2048-register file).
const MAX_FIELD_BYTES: u32 = 256 * 1024 * 1024;

/// How a header walk over a segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// The walk landed exactly on the segment's end.
    Clean,
    /// The last record runs past the end (a crash mid-append).
    Torn,
    /// A header does not parse or claims an absurd length.
    Corrupt,
}

/// Walks the record headers of the first `len` bytes of `file`, one
/// `pread` per header, calling `each(offset, header)` for every whole
/// record. Stops at the first torn or corrupt record: everything after
/// it is unreachable without its length. Checksums are *not* recomputed:
/// bit rot inside a whole record is caught record by record on read.
fn walk_segment(file: &File, len: u64, mut each: impl FnMut(u64, &Header)) -> io::Result<Tail> {
    let mut pos = 0u64;
    let mut header = [0u8; HEADER_LEN];
    while pos < len {
        if pos + HEADER_LEN as u64 > len {
            return Ok(Tail::Torn);
        }
        file.read_exact_at(&mut header, pos)?;
        let Some(h) = Header::parse(&header) else { return Ok(Tail::Corrupt) };
        if h.key_len > MAX_FIELD_BYTES || h.payload_len > MAX_FIELD_BYTES {
            return Ok(Tail::Corrupt);
        }
        if pos + h.record_len() > len {
            return Ok(Tail::Torn);
        }
        each(pos, &h);
        pos += h.record_len();
    }
    Ok(Tail::Clean)
}

/// Whether the segment at `path` frames only whole, well-formed records.
fn segment_is_clean(path: &Path) -> io::Result<bool> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    Ok(walk_segment(&file, len, |_, _| {})? == Tail::Clean)
}

/// A durable record store rooted at one directory. Cheap to construct;
/// every operation re-derives its file handles, so one `Store` value can
/// be shared freely and concurrent `Store`s (in this or other processes)
/// on the same directory cooperate through the advisory lock.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    segment_bytes: u64,
}

impl Store {
    /// Opens (creating if necessary) a store rooted at `dir`, then
    /// recovers from a torn tail (see [`Store::open_with_snapshot`]).
    /// Creating the directory fsyncs its entry, so the store itself
    /// survives a crash immediately after creation; opening an existing
    /// clean store creates, changes and fsyncs nothing.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or syncing the directory, or recovering.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let store = Self::open_dir(dir.into())?;
        if let Some((no, path)) = store.segments()?.pop() {
            if !segment_is_clean(&path)? {
                store.rotate_past_damage(no)?;
            }
        }
        Ok(store)
    }

    /// Opens the store and a [`Snapshot`] of it together, walking each
    /// segment's headers once: the snapshot's walk doubles as crash
    /// recovery. When the active segment ends in a torn or corrupt
    /// record (a crash mid-append), it is sealed and a fresh segment
    /// takes over. Readers stop scanning a segment at its first bad
    /// record, so appending *after* one would strand every later record;
    /// rotating instead keeps new appends reachable while the damaged
    /// tail stays skip-and-counted until the next compaction.
    ///
    /// # Errors
    ///
    /// As [`Store::open`] and [`Store::snapshot`].
    pub fn open_with_snapshot(dir: impl Into<PathBuf>) -> io::Result<(Self, Snapshot)> {
        let store = Self::open_dir(dir.into())?;
        let snap = store.snapshot()?;
        if let Some(no) = snap.damaged_tail() {
            store.rotate_past_damage(no)?;
        }
        Ok((store, snap))
    }

    /// A store over `dir`, creating the directory (and fsyncing its
    /// entry) when it does not exist yet.
    fn open_dir(dir: PathBuf) -> io::Result<Self> {
        if !dir.is_dir() {
            fs::create_dir_all(&dir)?;
            sync_dir(&dir)?;
            if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
                sync_dir(parent)?;
            }
        }
        Ok(Self { dir, segment_bytes: DEFAULT_SEGMENT_BYTES })
    }

    /// Crash recovery for a damaged active segment `no`: seals it and
    /// rotates to a fresh one, unless another opener already rotated
    /// past the damage or the "damage" was an append in flight that has
    /// since completed.
    fn rotate_past_damage(&self, no: u64) -> io::Result<()> {
        self.rotate(&self.lock_file()?, no, |path| Ok(!segment_is_clean(path)?))
    }

    /// Under the exclusive lock on `lock`, seals active segment `no` and
    /// rotates to a fresh one — if, re-checked under the lock, `no` is
    /// still the active segment and `due` still holds for it (another
    /// process may have rotated while we waited).
    fn rotate(
        &self,
        lock: &File,
        no: u64,
        due: impl Fn(&Path) -> io::Result<bool>,
    ) -> io::Result<()> {
        lock.lock()?;
        let result = (|| {
            let (cur_no, cur_path) = self.active_segment()?;
            if cur_no != no || !due(&cur_path)? {
                return Ok(());
            }
            self.seal_and_rotate(cur_no, &cur_path)
        })();
        let _ = lock.unlock();
        result
    }

    /// Seals (fsyncs) active segment `no` at `path`, creates its
    /// successor and makes the new directory entry durable. Called under
    /// the exclusive lock.
    fn seal_and_rotate(&self, no: u64, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()?;
        let next = self.dir.join(segment_name(no + 1));
        OpenOptions::new().create_new(true).write(true).open(&next)?.sync_all()?;
        sync_dir(&self.dir)
    }

    /// Overrides the segment-size bound (tests use tiny segments to
    /// force rotation; the default is [`DEFAULT_SEGMENT_BYTES`]).
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Opens the advisory lock file (creating it if absent).
    fn lock_file(&self) -> io::Result<File> {
        OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(self.dir.join(LOCK_FILE))
    }

    /// Lists segment files as `(number, path)` in ascending order.
    fn segments(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut segs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(no) = parse_segment_name(name) {
                segs.push((no, entry.path()));
            }
        }
        segs.sort_unstable_by_key(|(no, _)| *no);
        Ok(segs)
    }

    /// The active segment `(number, path)`: the highest-numbered one, or
    /// segment 1 (not yet created) on an empty store.
    fn active_segment(&self) -> io::Result<(u64, PathBuf)> {
        Ok(match self.segments()?.pop() {
            Some(seg) => seg,
            None => (1, self.dir.join(segment_name(1))),
        })
    }

    /// Appends one record. The write is a single `O_APPEND` `write_all`
    /// of the whole encoded record under a shared lock, so records from
    /// concurrent appenders interleave whole, never torn. One directory
    /// listing finds the active segment; only when that segment has
    /// outgrown the bound does the append drop the shared lock, rotate
    /// under the exclusive one (the outgoing segment sealed, its
    /// successor created and made durable before any appender can
    /// proceed) and retry. Not fsynced — see [`Store::sync`] — but the
    /// append that creates the store's first segment fsyncs the
    /// directory entry it made.
    ///
    /// # Errors
    ///
    /// Any I/O error locking, rotating, or writing.
    pub fn append(
        &self,
        schema: u32,
        digest: Digest,
        key: &[u8],
        payload: &[u8],
    ) -> io::Result<()> {
        let record = encode_record(RecordFormat::CURRENT, schema, digest, key, payload);
        let lock = self.lock_file()?;
        loop {
            lock.lock_shared()?;
            let full = self.append_shared(&record);
            let _ = lock.unlock();
            let Some(no) = full? else { return Ok(()) };
            let bound = self.segment_bytes;
            self.rotate(&lock, no, |p| Ok(fs::metadata(p).map_or(0, |m| m.len()) >= bound))?;
        }
    }

    /// Under the shared lock: appends `record` to the active segment, or
    /// returns that segment's number, unwritten, when it has outgrown
    /// the bound.
    fn append_shared(&self, record: &[u8]) -> io::Result<Option<u64>> {
        let (no, path) = self.active_segment()?;
        let mut seg = match OpenOptions::new().append(true).open(&path) {
            Ok(seg) => seg,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let seg = OpenOptions::new().create(true).append(true).open(&path)?;
                sync_dir(&self.dir)?;
                seg
            }
            Err(e) => return Err(e),
        };
        if seg.metadata()?.len() >= self.segment_bytes {
            return Ok(Some(no));
        }
        seg.write_all(record)?;
        Ok(None)
    }

    /// Fsyncs the active segment, making every record appended so far
    /// durable. The suite calls this once at exit rather than per
    /// append; records lost to a crash before `sync` are simply absent
    /// (never torn — the next reader's checksum scan drops any partial
    /// tail).
    ///
    /// # Errors
    ///
    /// Any I/O error opening or syncing the segment.
    pub fn sync(&self) -> io::Result<()> {
        let (_, path) = self.active_segment()?;
        match File::open(path) {
            Ok(f) => f.sync_all(),
            // An empty store has nothing to sync.
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Opens a snapshot-consistent reader over the current segment set.
    /// Retries a few times if a concurrent compaction unlinks a segment
    /// between listing and opening.
    ///
    /// # Errors
    ///
    /// Any I/O error listing or reading segments (after retries).
    pub fn snapshot(&self) -> io::Result<Snapshot> {
        let mut last_err = None;
        for _ in 0..5 {
            match Snapshot::open(self) {
                Ok(snap) => return Ok(snap),
                Err(e) if e.kind() == io::ErrorKind::NotFound => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("retries imply at least one error"))
    }

    /// Compacts the store: rewrites the live record set (latest record
    /// per digest, valid checksum, and — when `keep_schema` is given —
    /// only that key-schema version) into one fresh segment, every record
    /// re-encoded in the current [`RecordFormat`], then deletes the old
    /// segments. Runs entirely under the exclusive lock; readers with
    /// open snapshots are unaffected.
    ///
    /// # Errors
    ///
    /// Any I/O error reading, writing, or replacing segments.
    pub fn compact(&self, keep_schema: Option<u32>) -> io::Result<CompactReport> {
        let lock = self.lock_file()?;
        lock.lock()?;
        let result = self.compact_locked(keep_schema);
        let _ = lock.unlock();
        result
    }

    fn compact_locked(&self, keep_schema: Option<u32>) -> io::Result<CompactReport> {
        let snap = Snapshot::open(self)?;
        let old_segs = self.segments()?;
        let max_no = old_segs.last().map_or(0, |(no, _)| *no);
        let mut report = CompactReport {
            kept: 0,
            dropped_stale_schema: 0,
            dropped_superseded: snap.records.saturating_sub(snap.index.len() as u64),
            dropped_corrupt: snap.torn + snap.corrupt,
            bytes_before: snap.bytes,
            bytes_after: 0,
        };
        // Write the compacted segment under a temp name, make it
        // durable, then rename it into place as the new highest segment
        // and delete the superseded ones. A reader listing at any point
        // sees either the old segments, both (the compacted one wins:
        // higher number, scanned last), or just the new one.
        let new_path = self.dir.join(segment_name(max_no + 1));
        let tmp_path = self.dir.join(format!("{}.tmp", segment_name(max_no + 1)));
        let mut out = BufWriter::new(
            OpenOptions::new().create(true).truncate(true).write(true).open(&tmp_path)?,
        );
        // Deterministic output order: ascending digest.
        let mut live: Vec<(&Digest, &Loc)> = snap.index.iter().collect();
        live.sort_unstable_by_key(|(d, _)| **d);
        for (digest, loc) in live {
            let Some((h, record)) = snap.read_record(loc) else {
                report.dropped_corrupt += 1;
                continue;
            };
            if keep_schema.is_some_and(|keep| h.schema != keep) {
                report.dropped_stale_schema += 1;
                continue;
            }
            debug_assert_eq!(h.digest, *digest);
            let key_end = HEADER_LEN + h.key_len as usize;
            let (key, payload) = (&record[HEADER_LEN..key_end], &record[key_end..]);
            let record = encode_record(RecordFormat::CURRENT, h.schema, h.digest, key, payload);
            out.write_all(&record)?;
            report.bytes_after += record.len() as u64;
            report.kept += 1;
        }
        out.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        fs::rename(&tmp_path, &new_path)?;
        sync_dir(&self.dir)?;
        for (_, path) in old_segs {
            fs::remove_file(path)?;
        }
        sync_dir(&self.dir)?;
        Ok(report)
    }
}

/// What [`Store::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Records carried into the compacted segment.
    pub kept: u64,
    /// Live records dropped because their key-schema version was stale.
    pub dropped_stale_schema: u64,
    /// Superseded records (older writes of a re-appended digest).
    pub dropped_superseded: u64,
    /// Torn or corrupt records dropped.
    pub dropped_corrupt: u64,
    /// Segment bytes before compaction.
    pub bytes_before: u64,
    /// Segment bytes after compaction.
    pub bytes_after: u64,
}

/// One record's location inside a snapshot.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: usize,
    offset: u64,
    len: u64,
    schema: u32,
    format: RecordFormat,
}

/// A payload returned by [`Snapshot::get`]. It holds the whole record as
/// read from its segment and derefs to the bytes past the header and
/// key, so a read copies the payload once, from the file, and never
/// again.
pub struct Payload {
    record: Vec<u8>,
    start: usize,
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.record[self.start..]
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Payload").field(&&**self).finish()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// A read-only, snapshot-consistent view of the store.
///
/// The segment set and each segment's byte length are captured at open;
/// reads never look past them, so concurrent appends and compactions
/// cannot tear what this snapshot returns. The index maps each digest to
/// its *latest* record at capture time.
#[derive(Debug)]
pub struct Snapshot {
    segs: Vec<SegView>,
    index: HashMap<Digest, Loc>,
    /// Records scanned (including superseded duplicates).
    pub records: u64,
    /// Total segment bytes scanned.
    pub bytes: u64,
    /// Torn (incomplete) tail records skipped.
    pub torn: u64,
    /// Records abandoned to corruption (bad magic / absurd lengths); the
    /// rest of that segment is unreachable and also uncounted.
    pub corrupt: u64,
    /// Live record count per key-schema version.
    pub schemas: BTreeMap<u32, u64>,
    /// Live record count per record format (what [`Store::compact`]
    /// would upgrade: everything not [`RecordFormat::CURRENT`]).
    pub formats: BTreeMap<RecordFormat, u64>,
}

#[derive(Debug)]
struct SegView {
    no: u64,
    file: File,
    len: u64,
    tail: Tail,
}

impl Snapshot {
    fn open(store: &Store) -> io::Result<Self> {
        let mut snap = Self {
            segs: Vec::new(),
            index: HashMap::new(),
            records: 0,
            bytes: 0,
            torn: 0,
            corrupt: 0,
            schemas: BTreeMap::new(),
            formats: BTreeMap::new(),
        };
        for (no, path) in store.segments()? {
            let file = File::open(&path)?;
            let len = file.metadata()?.len();
            snap.segs.push(SegView { no, file, len, tail: Tail::Clean });
        }
        for s in 0..snap.segs.len() {
            snap.scan_segment(s)?;
        }
        for loc in snap.index.values() {
            *snap.schemas.entry(loc.schema).or_insert(0) += 1;
            *snap.formats.entry(loc.format).or_insert(0) += 1;
        }
        Ok(snap)
    }

    /// Walks one segment's records, indexing each digest (later records
    /// supersede earlier ones), and notes how the walk ended.
    fn scan_segment(&mut self, s: usize) -> io::Result<()> {
        let Self { segs, index, records, .. } = self;
        let seg = &mut segs[s];
        let tail = walk_segment(&seg.file, seg.len, |offset, h| {
            let loc = Loc {
                seg: s,
                offset,
                len: h.record_len(),
                schema: h.schema,
                format: h.format,
            };
            index.insert(h.digest, loc);
            *records += 1;
        })?;
        seg.tail = tail;
        self.bytes += self.segs[s].len;
        match tail {
            Tail::Clean => {}
            Tail::Torn => self.torn += 1,
            Tail::Corrupt => self.corrupt += 1,
        }
        Ok(())
    }

    /// The number of the last segment when its walk ended on a torn or
    /// corrupt record: the damage crash recovery rotates past.
    fn damaged_tail(&self) -> Option<u64> {
        self.segs.last().filter(|seg| seg.tail != Tail::Clean).map(|seg| seg.no)
    }

    /// Reads and checksum-verifies the record at `loc`; `None` when the
    /// stored checksum does not match (bit rot or a torn interior, which
    /// cannot happen for whole-record appends but is still checked).
    fn read_record(&self, loc: &Loc) -> Option<(Header, Vec<u8>)> {
        let mut buf = vec![0u8; loc.len as usize];
        self.segs[loc.seg].file.read_exact_at(&mut buf, loc.offset).ok()?;
        let h = Header::parse(buf[..HEADER_LEN].try_into().expect("header bytes"))?;
        if h.record_len() != loc.len {
            return None;
        }
        let stored = u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes"));
        (h.format.checksum(&buf) == stored).then_some((h, buf))
    }

    /// Distinct digests resolvable through this snapshot.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the snapshot indexes no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Segment files in this snapshot's view.
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Whether `digest` has a (not necessarily valid) record.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.index.contains_key(digest)
    }

    /// Whether `digest` has a record under exactly this key-schema
    /// version (what a write-behind tier checks before appending — a
    /// stale-schema record must not suppress the fresh write).
    pub fn contains_schema(&self, schema: u32, digest: &Digest) -> bool {
        self.index.get(digest).is_some_and(|loc| loc.schema == schema)
    }

    /// Looks up a payload by digest, verifying the record end to end:
    /// the key-schema version must match, the record checksum must hold,
    /// and the stored key bytes must equal `key` exactly — so even a
    /// digest collision cannot return another key's payload.
    pub fn get(&self, schema: u32, digest: &Digest, key: &[u8]) -> Option<Payload> {
        let loc = self.index.get(digest)?;
        if loc.schema != schema {
            return None;
        }
        let (h, record) = self.read_record(loc)?;
        let start = HEADER_LEN + h.key_len as usize;
        (record[HEADER_LEN..start] == *key).then_some(Payload { record, start })
    }

    /// Re-reads and checksum-verifies every *live* record, returning a
    /// full integrity report (`rfstudy store verify`).
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport {
            live: self.index.len() as u64,
            records: self.records,
            bytes: self.bytes,
            torn: self.torn,
            corrupt: self.corrupt,
            bad_checksum: 0,
            schemas: self.schemas.clone(),
            formats: self.formats.clone(),
        };
        for loc in self.index.values() {
            if self.read_record(loc).is_none() {
                report.bad_checksum += 1;
            }
        }
        report
    }
}

/// Integrity report from [`Snapshot::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Distinct live digests.
    pub live: u64,
    /// Records scanned, including superseded ones.
    pub records: u64,
    /// Segment bytes scanned.
    pub bytes: u64,
    /// Torn tail records skipped at scan time.
    pub torn: u64,
    /// Corrupt records abandoned at scan time.
    pub corrupt: u64,
    /// Live records whose checksum failed on re-read.
    pub bad_checksum: u64,
    /// Live record count per key-schema version.
    pub schemas: BTreeMap<u32, u64>,
    /// Live record count per record format.
    pub formats: BTreeMap<RecordFormat, u64>,
}

impl VerifyReport {
    /// Whether every live record verified clean (torn tails are expected
    /// after a crash and do not fail verification — they were already
    /// excluded from the live set).
    pub fn is_clean(&self) -> bool {
        self.bad_checksum == 0 && self.corrupt == 0
    }
}

/// `seg-NNNNNNNN.log` for segment `no`.
fn segment_name(no: u64) -> String {
    format!("seg-{no:08}.log")
}

/// Parses a segment file name back to its number.
fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Fsyncs a directory so renames/creates/unlinks inside it are durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Reads a whole file (test helper surface kept out of the public API).
#[cfg(test)]
fn read_file(path: &Path) -> Vec<u8> {
    fs::read(path).expect("read file")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rf-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_a_record() {
        let dir = temp_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        let key = b"spec bytes".as_slice();
        let digest = Digest::of(key);
        store.append(1, digest, key, b"payload bytes").unwrap();
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get(1, &digest, key).as_deref(), Some(b"payload bytes".as_slice()));
        // Wrong schema, wrong key, unknown digest: all miss.
        assert_eq!(snap.get(2, &digest, key), None);
        assert_eq!(snap.get(1, &digest, b"other key"), None);
        assert_eq!(snap.get(1, &Digest::of(b"other"), key), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_append_supersedes_earlier() {
        let dir = temp_dir("supersede");
        let store = Store::open(&dir).unwrap();
        let key = b"k".as_slice();
        let digest = Digest::of(key);
        store.append(1, digest, key, b"old").unwrap();
        store.append(1, digest, key, b"new").unwrap();
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.records, 2);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get(1, &digest, key).as_deref(), Some(b"new".as_slice()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_seals_and_continues() {
        let dir = temp_dir("rotate");
        let store = Store::open(&dir).unwrap().with_segment_bytes(64);
        for i in 0u32..8 {
            let key = i.to_le_bytes();
            store.append(1, Digest::of(&key), &key, &[0u8; 64]).unwrap();
        }
        let segs = store.segments().unwrap();
        assert!(segs.len() > 1, "tiny bound must force rotation, got {segs:?}");
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.len(), 8);
        for i in 0u32..8 {
            let key = i.to_le_bytes();
            assert!(snap.get(1, &Digest::of(&key), &key).is_some(), "record {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        let dir = temp_dir("torn");
        let store = Store::open(&dir).unwrap();
        let (ka, kb) = (b"a".as_slice(), b"b".as_slice());
        store.append(1, Digest::of(ka), ka, b"payload a").unwrap();
        store.append(1, Digest::of(kb), kb, b"payload b").unwrap();
        // Crash simulation: truncate the segment mid-record.
        let (_, path) = store.active_segment().unwrap();
        let full = read_file(&path);
        let torn_len = full.len() - 5;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn_len as u64)
            .unwrap();
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.torn, 1);
        assert_eq!(snap.len(), 1);
        assert!(snap.get(1, &Digest::of(ka), ka).is_some(), "intact record survives");
        assert_eq!(snap.get(1, &Digest::of(kb), kb), None, "torn record is invisible");
        // The next append goes after the torn bytes; the scan then stops
        // at the torn record, so the re-appended record must land in a
        // *fresh* segment to be visible. Verify compaction heals this:
        // compact drops the torn tail and the store stays usable.
        let report = store.compact(None).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped_corrupt, 1);
        let healed = store.snapshot().unwrap();
        assert_eq!(healed.torn, 0);
        assert!(healed.get(1, &Digest::of(ka), ka).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_a_torn_tail_rotates_so_new_appends_stay_reachable() {
        let dir = temp_dir("recover");
        let store = Store::open(&dir).unwrap();
        let (ka, kb, kc) = (b"a".as_slice(), b"b".as_slice(), b"c".as_slice());
        store.append(1, Digest::of(ka), ka, b"payload a").unwrap();
        store.append(1, Digest::of(kb), kb, b"payload b").unwrap();
        // Crash simulation: the process dies mid-append, tearing the tail.
        let (_, path) = store.active_segment().unwrap();
        let torn_len = read_file(&path).len() - 5;
        OpenOptions::new().write(true).open(&path).unwrap().set_len(torn_len as u64).unwrap();
        drop(store);
        // The next open recovers by sealing the damaged segment and
        // rotating, so this append is NOT stranded behind the tear.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.segments().unwrap().len(), 2, "recovery rotated");
        store.append(1, Digest::of(kc), kc, b"payload c").unwrap();
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.torn, 1, "the damaged tail is still counted");
        assert!(snap.get(1, &Digest::of(ka), ka).is_some());
        assert!(snap.get(1, &Digest::of(kc), kc).is_some(), "post-crash append visible");
        // A clean store reopens without rotating.
        store.compact(None).unwrap();
        let before = store.segments().unwrap();
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.segments().unwrap(), before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_detects_bit_rot() {
        let dir = temp_dir("bitrot");
        let store = Store::open(&dir).unwrap();
        let key = b"k".as_slice();
        let digest = Digest::of(key);
        store.append(7, digest, key, b"payload").unwrap();
        // Flip one payload byte in place.
        let (_, path) = store.active_segment().unwrap();
        let mut bytes = read_file(&path);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let snap = store.snapshot().unwrap();
        assert!(snap.contains(&digest), "indexed by header");
        assert_eq!(snap.get(7, &digest, key), None, "checksum rejects the payload");
        let report = snap.verify();
        assert_eq!(report.bad_checksum, 1);
        assert!(!report.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_ignores_concurrent_appends() {
        let dir = temp_dir("snapshot");
        let store = Store::open(&dir).unwrap();
        let ka = b"a".as_slice();
        store.append(1, Digest::of(ka), ka, b"payload a").unwrap();
        let snap = store.snapshot().unwrap();
        // Appends (and even a re-append of the same digest) after the
        // snapshot opened are invisible to it.
        let kb = b"b".as_slice();
        store.append(1, Digest::of(kb), kb, b"payload b").unwrap();
        store.append(1, Digest::of(ka), ka, b"changed").unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get(1, &Digest::of(ka), ka).as_deref(), Some(b"payload a".as_slice()));
        assert_eq!(snap.get(1, &Digest::of(kb), kb), None);
        // A fresh snapshot sees everything.
        let fresh = store.snapshot().unwrap();
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh.get(1, &Digest::of(ka), ka).as_deref(), Some(b"changed".as_slice()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_survives_compaction() {
        let dir = temp_dir("compaction");
        let store = Store::open(&dir).unwrap();
        for i in 0u32..4 {
            let key = i.to_le_bytes();
            store.append(1, Digest::of(&key), &key, &i.to_le_bytes()).unwrap();
        }
        let snap = store.snapshot().unwrap();
        let report = store.compact(None).unwrap();
        assert_eq!(report.kept, 4);
        // The old segments are gone from the directory, but the open
        // snapshot still reads coherently through its captured FDs.
        for i in 0u32..4 {
            let key = i.to_le_bytes();
            assert_eq!(
                snap.get(1, &Digest::of(&key), &key).as_deref(),
                Some(i.to_le_bytes().as_slice()),
                "record {i} via pre-compaction snapshot"
            );
        }
        let fresh = store.snapshot().unwrap();
        assert_eq!(fresh.len(), 4);
        assert_eq!(fresh.records, 4, "superseded duplicates compacted away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_drops_stale_schema_generations() {
        let dir = temp_dir("gc");
        let store = Store::open(&dir).unwrap();
        let (old_key, new_key) = (b"old".as_slice(), b"new".as_slice());
        store.append(1, Digest::of(old_key), old_key, b"v1 payload").unwrap();
        store.append(2, Digest::of(new_key), new_key, b"v2 payload").unwrap();
        let report = store.compact(Some(2)).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped_stale_schema, 1);
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.get(2, &Digest::of(new_key), new_key).as_deref(), Some(b"v2 payload".as_slice()));
        assert_eq!(snap.get(1, &Digest::of(old_key), old_key), None);
        assert_eq!(snap.schemas.get(&1), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_appenders_interleave_whole_records() {
        let dir = temp_dir("concurrent");
        let store = Store::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for w in 0u32..4 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0u32..25 {
                        let key = (w * 1000 + i).to_le_bytes();
                        let payload = vec![w as u8; 100 + i as usize];
                        store.append(1, Digest::of(&key), &key, &payload).unwrap();
                    }
                });
            }
        });
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.records, 100);
        assert_eq!(snap.len(), 100);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.corrupt, 0);
        for w in 0u32..4 {
            for i in 0u32..25 {
                let key = (w * 1000 + i).to_le_bytes();
                let got = snap.get(1, &Digest::of(&key), &key).expect("record present");
                assert_eq!(*got, vec![w as u8; 100 + i as usize]);
            }
        }
        assert!(snap.verify().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_name(1), "seg-00000001.log");
        assert_eq!(parse_segment_name("seg-00000001.log"), Some(1));
        assert_eq!(parse_segment_name("seg-00012345.log"), Some(12345));
        assert_eq!(parse_segment_name("seg-1.log"), None);
        assert_eq!(parse_segment_name("seg-00000001.log.tmp"), None);
        assert_eq!(parse_segment_name("store.lock"), None);
    }

    #[test]
    fn empty_store_is_empty_and_syncs() {
        let dir = temp_dir("empty");
        let store = Store::open(&dir).unwrap();
        store.sync().unwrap();
        let snap = store.snapshot().unwrap();
        assert!(snap.is_empty());
        assert_eq!(snap.records, 0);
        assert!(snap.verify().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends `record` bytes to the active segment as they are, the way
    /// an older build of the store wrote them.
    fn append_raw(store: &Store, record: &[u8]) {
        let (_, path) = store.active_segment().unwrap();
        OpenOptions::new().create(true).append(true).open(path).unwrap().write_all(record).unwrap();
    }

    /// GOLDEN: pins the `RFR2` record checksum (xxHash64 under the pinned
    /// seed, over header bytes 4..32, the key and the payload). If this
    /// fails, every `RFR2` record on disk fails verification.
    #[test]
    fn rfr2_record_checksum_is_pinned() {
        let key = b"rfstudy".as_slice();
        let record = encode_record(RecordFormat::Rfr2, 1, Digest::of(key), key, b"payload");
        assert_eq!(&record[..4], b"RFR2");
        let stored = u64::from_le_bytes(record[32..40].try_into().unwrap());
        assert_eq!(stored, 0xb714_3315_2f80_4291);
        let mut streamed = hash::record_hasher();
        streamed.update(&record[4..32]);
        streamed.update(key);
        streamed.update(b"payload");
        assert_eq!(streamed.finish(), stored);
        // The same record as RFR1 differs only in magic and checksum.
        let old = encode_record(RecordFormat::Rfr1, 1, Digest::of(key), key, b"payload");
        assert_eq!(&old[..4], b"RFR1");
        assert_eq!(old[4..32], record[4..32]);
        assert_eq!(old[40..], record[40..]);
        let want = hash::checksum(&[&old[4..32], &old[40..]].concat());
        assert_eq!(old[32..40], want.to_le_bytes());
    }

    #[test]
    fn mixed_rfr1_and_rfr2_segment_reads_back_and_compacts_to_rfr2() {
        let dir = temp_dir("mixed");
        let store = Store::open(&dir).unwrap();
        let keys: Vec<[u8; 4]> = (0u32..6).map(u32::to_le_bytes).collect();
        let payload = |i: usize| vec![i as u8; 50 + i];
        for (i, key) in keys[..3].iter().enumerate() {
            let record = encode_record(RecordFormat::Rfr1, 1, Digest::of(key), key, &payload(i));
            append_raw(&store, &record);
        }
        for (i, key) in keys.iter().enumerate().skip(3) {
            store.append(1, Digest::of(key), key, &payload(i)).unwrap();
        }
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.segment_count(), 1, "one segment holds both formats");
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(snap.get(1, &Digest::of(key), key).as_deref(), Some(&payload(i)[..]));
        }
        let mix = BTreeMap::from([(RecordFormat::Rfr1, 3), (RecordFormat::Rfr2, 3)]);
        assert_eq!(snap.formats, mix);
        let report = snap.verify();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.formats, mix);

        let compacted = store.compact(None).unwrap();
        assert_eq!(compacted.kept, 6);
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.formats, BTreeMap::from([(RecordFormat::Rfr2, 6)]));
        assert!(snap.verify().is_clean());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(snap.get(1, &Digest::of(key), key).as_deref(), Some(&payload(i)[..]));
        }
        // Every record on disk now opens with the RFR2 magic.
        let (_, path) = store.active_segment().unwrap();
        let file = File::open(&path).unwrap();
        let mut magics = Vec::new();
        let tail = walk_segment(&file, file.metadata().unwrap().len(), |_, h| magics.push(h.format))
            .unwrap();
        assert_eq!(tail, Tail::Clean);
        assert_eq!(magics, vec![RecordFormat::Rfr2; 6]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_payload_byte_fails_either_checksum() {
        for format in [RecordFormat::Rfr1, RecordFormat::Rfr2] {
            let dir = temp_dir(&format!("flip-{format}"));
            let store = Store::open(&dir).unwrap();
            let key = b"k".as_slice();
            let digest = Digest::of(key);
            let mut record = encode_record(format, 3, digest, key, b"payload bytes");
            let last = record.len() - 1;
            record[last] ^= 0x01;
            append_raw(&store, &record);
            let snap = store.snapshot().unwrap();
            assert!(snap.contains(&digest), "{format}: indexed by header");
            assert_eq!(snap.get(3, &digest, key), None, "{format}: checksum rejects it");
            let report = snap.verify();
            assert_eq!(report.bad_checksum, 1, "{format}");
            assert!(!report.is_clean(), "{format}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Every file in `dir` with its length, modification time and bytes.
    fn dir_state(dir: &Path) -> Vec<(String, u64, std::time::SystemTime, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let meta = e.metadata().unwrap();
                let name = e.file_name().into_string().unwrap();
                (name, meta.len(), meta.modified().unwrap(), read_file(&e.path()))
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn a_read_only_open_of_an_existing_store_creates_and_changes_no_file() {
        let dir = temp_dir("readonly");
        let store = Store::open(&dir).unwrap().with_segment_bytes(64);
        for i in 0u32..4 {
            let key = i.to_le_bytes();
            store.append(1, Digest::of(&key), &key, &[i as u8; 64]).unwrap();
        }
        store.sync().unwrap();
        let before = dir_state(&dir);
        let dir_mtime = fs::metadata(&dir).unwrap().modified().unwrap();
        assert!(before.len() > 2, "several segments and the lock file: {before:?}");

        let (store, snap) = Store::open_with_snapshot(&dir).unwrap();
        for i in 0u32..4 {
            let key = i.to_le_bytes();
            assert!(snap.get(1, &Digest::of(&key), &key).is_some(), "record {i}");
        }
        assert!(snap.verify().is_clean());
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.snapshot().unwrap().len(), 4);
        drop((store, snap, reopened));

        assert_eq!(dir_state(&dir), before);
        assert_eq!(fs::metadata(&dir).unwrap().modified().unwrap(), dir_mtime);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_with_snapshot_rotates_past_a_torn_tail() {
        let dir = temp_dir("recover-snapshot");
        let store = Store::open(&dir).unwrap();
        let (ka, kb, kc) = (b"a".as_slice(), b"b".as_slice(), b"c".as_slice());
        store.append(1, Digest::of(ka), ka, b"payload a").unwrap();
        store.append(1, Digest::of(kb), kb, b"payload b").unwrap();
        let (_, path) = store.active_segment().unwrap();
        let torn_len = read_file(&path).len() - 5;
        OpenOptions::new().write(true).open(&path).unwrap().set_len(torn_len as u64).unwrap();
        drop(store);
        let (store, snap) = Store::open_with_snapshot(&dir).unwrap();
        assert_eq!(snap.torn, 1, "the snapshot's walk saw the tear");
        assert_eq!(store.segments().unwrap().len(), 2, "recovery rotated");
        store.append(1, Digest::of(kc), kc, b"payload c").unwrap();
        let fresh = store.snapshot().unwrap();
        assert!(fresh.get(1, &Digest::of(ka), ka).is_some());
        assert!(fresh.get(1, &Digest::of(kc), kc).is_some(), "post-crash append visible");
        // The next open finds a clean active segment and rotates no more.
        let (store, snap) = Store::open_with_snapshot(&dir).unwrap();
        assert_eq!(snap.damaged_tail(), None);
        assert_eq!(store.segments().unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
