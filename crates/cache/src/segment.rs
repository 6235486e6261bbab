//! The segment-log disk tier: an append-only record log with an in-memory
//! index.
//!
//! A store of one file per entry pays one open + one parse per lookup,
//! which is fine for a lazy single-process cache and a bottleneck for a
//! fleet: N serve workers rehydrating a corpus-scale store would spend
//! almost all of their wall clock in per-file loads. This store is an
//! append-only log with an in-memory index instead, and it is the cache's
//! only persistent tier:
//!
//! * **Records** are framed with a fixed 76-byte ASCII header —
//!   `ZSR1 <len:8x> <crc:8x> <lsn:16x> <kind> <circuit:16x> <compiler:16x> `
//!   — followed by the payload and a trailing newline. The payload is the
//!   compact binary [`CompileOutput`] encoding (`zac_core::output_bin`),
//!   which decodes ~an order of magnitude faster than the JSON envelope;
//!   that, plus one sequential scan instead of per-entry opens, keeps cold
//!   opens cheap. Kind `P` is a put, `T` a tombstone.
//! * **Segments**: each writer appends to its own active segment
//!   (`seg-<seq>-p<pid>-<n>.active.log`), sealed by rename to `.seg.log`
//!   once it exceeds [`SegmentConfig::seal_bytes`]. Writers never share an
//!   append file, so no write interleaving is possible; readers validate
//!   every record's length, trailing newline, and checksum before indexing
//!   it, so a concurrently-appended tail is simply not visible until it is
//!   complete — cross-process sharing without torn reads.
//! * **Index**: key → (segment, offset, len, lsn). Records carry a
//!   store-monotonic LSN; the highest LSN wins, so duplicate records from
//!   racing writers or compaction are harmless. Lookups that miss the
//!   index refresh it (re-list the directory, scan known segments from
//!   their last indexed offset) so entries appended by *other* processes
//!   become visible on demand.
//! * **Recovery**: a torn final record (crashed writer) fails validation
//!   and scanning stops at the last valid boundary; when the store holds
//!   the advisory `compact.lock` it adopts dead writers' active segments —
//!   truncating the torn tail and sealing the rest — and the truncated
//!   bytes are counted as `recovered_bytes`. The write and read paths run
//!   through the `cache.disk.write` / `cache.disk.read` fault points, so
//!   all of this is exercised deterministically under `ZAC_FAULTS`.
//! * **Compaction** happens on open only (background-free): when the
//!   sealed segments carry enough garbage (superseded records), the live
//!   records are rewritten — same LSNs — into one fresh sealed segment and
//!   the old files are deleted. Tombstones are conservatively retained
//!   (they are 77 bytes each and may still shadow records in other
//!   writers' active segments). A crash mid-compaction leaves only a
//!   `*.compacting` temp file, swept at the next open; the source segments
//!   are not touched until the replacement is durably in place.
//!
//! Files that are not segments (for instance entries of an older per-file
//! layout) are ignored, so such a directory opens as a cold store: keys are
//! content hashes, so nothing recompiles wrongly — it just recompiles once.

use crate::disk::LoadOutcome;
use crate::CacheKey;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use zac_core::{decode_output, encode_output, CompileOutput};
use zac_telemetry::metrics;

/// Leading magic of every record header (the trailing space is part of it).
pub const RECORD_MAGIC: &[u8; 5] = b"ZSR1 ";

/// Fixed header length in bytes; the payload follows immediately and the
/// record ends with one `\n`, so a record spans `HEADER + len + 1` bytes.
pub const RECORD_HEADER_LEN: usize = 76;

/// Framing overhead per record (header + trailing newline).
const RECORD_OVERHEAD: u64 = RECORD_HEADER_LEN as u64 + 1;

/// Tuning knobs for a [`SegmentStore`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Active segments are sealed once they exceed this many bytes.
    pub seal_bytes: u64,
    /// Compaction on open runs only when sealed segments carry at least
    /// this much garbage…
    pub compact_min_garbage: u64,
    /// …and the garbage is at least this fraction of the sealed bytes.
    pub compact_garbage_ratio: f64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self { seal_bytes: 4 << 20, compact_min_garbage: 64 << 10, compact_garbage_ratio: 0.25 }
    }
}

/// Counters for one store (process-global mirrors live in
/// `zac_telemetry::metrics` under `cache.segment.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentStats {
    /// Records appended (puts and tombstones).
    pub appends: u64,
    /// Active segments sealed (size rotation, adoption, and shutdown).
    pub seals: u64,
    /// Garbage records dropped by compaction.
    pub compacted_records: u64,
    /// Bytes of torn tails truncated at adoption plus damaged spans
    /// skipped in sealed segments.
    pub recovered_bytes: u64,
    /// Live index entries.
    pub index_entries: usize,
    /// Segments (sealed + active) currently known to the index.
    pub segments: usize,
}

#[derive(Default)]
struct SegmentCounters {
    appends: AtomicU64,
    seals: AtomicU64,
    compacted_records: AtomicU64,
    recovered_bytes: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    Put,
    Tombstone,
}

struct Header {
    len: usize,
    crc: u32,
    lsn: u64,
    kind: RecordKind,
    key: CacheKey,
}

/// One live record's location.
#[derive(Debug, Clone)]
struct IndexEntry {
    stem: String,
    /// Absolute file offset of the *payload* (header already skipped).
    offset: u64,
    len: usize,
    lsn: u64,
}

struct SegmentMeta {
    path: PathBuf,
    sealed: bool,
    /// Byte offset up to which records have been validated and indexed;
    /// refresh resumes here, so completed foreign appends become visible.
    scanned: u64,
    /// Records seen by the scan (live + superseded), for garbage math.
    records: u64,
    /// Cached read handle (independent cursor from any writer's).
    file: Option<File>,
}

struct ActiveSegment {
    stem: String,
    file: File,
    written: u64,
}

struct StoreState {
    index: HashMap<CacheKey, IndexEntry>,
    /// Highest tombstone LSN per deleted key; puts older than this stay
    /// dead even if their segment is scanned later.
    dead: HashMap<CacheKey, u64>,
    segments: HashMap<String, SegmentMeta>,
    active: Option<ActiveSegment>,
    next_seq: u64,
    next_lsn: u64,
}

/// The segment-log store behind [`crate::CompileCache::with_segment_store`].
pub struct SegmentStore {
    dir: PathBuf,
    token: String,
    config: SegmentConfig,
    state: Mutex<StoreState>,
    stats: SegmentCounters,
}

/// Transient-append retry budget: 1 initial attempt + 2 retries.
const APPEND_ATTEMPTS: u32 = 3;

/// Retry backoff: ~0.5 ms doubling per attempt, jittered by a hash of
/// (key, attempt) so concurrent writers racing on one entry spread out —
/// deterministically, keeping the no-RNG-in-tree invariant.
fn backoff(key: CacheKey, attempt: u64) -> std::time::Duration {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [key.circuit, key.compiler, attempt] {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let base_us = 500u64 << (attempt - 1).min(4);
    std::time::Duration::from_micros(base_us + h % base_us)
}

fn crc32(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

fn frame_record(lsn: u64, kind: RecordKind, key: CacheKey, payload: &[u8]) -> Vec<u8> {
    let kind = match kind {
        RecordKind::Put => 'P',
        RecordKind::Tombstone => 'T',
    };
    let mut buf = format!(
        "ZSR1 {:08x} {:08x} {:016x} {kind} {:016x} {:016x} ",
        payload.len(),
        crc32(payload),
        lsn,
        key.circuit,
        key.compiler,
    )
    .into_bytes();
    debug_assert_eq!(buf.len(), RECORD_HEADER_LEN);
    buf.extend_from_slice(payload);
    buf.push(b'\n');
    buf
}

fn hex_field(buf: &[u8], range: std::ops::Range<usize>) -> Option<u64> {
    let text = std::str::from_utf8(&buf[range]).ok()?;
    u64::from_str_radix(text, 16).ok()
}

/// Parses a header at the start of `buf`; `None` means "not a valid record
/// boundary" (torn tail, mid-write bytes, or damage).
fn parse_header(buf: &[u8]) -> Option<Header> {
    if buf.len() < RECORD_HEADER_LEN || !buf.starts_with(RECORD_MAGIC) {
        return None;
    }
    for sep in [13, 22, 39, 41, 58, 75] {
        if buf[sep] != b' ' {
            return None;
        }
    }
    let kind = match buf[40] {
        b'P' => RecordKind::Put,
        b'T' => RecordKind::Tombstone,
        _ => return None,
    };
    Some(Header {
        len: usize::try_from(hex_field(buf, 5..13)?).ok()?,
        crc: hex_field(buf, 14..22)? as u32,
        lsn: hex_field(buf, 23..39)?,
        kind,
        key: CacheKey { circuit: hex_field(buf, 42..58)?, compiler: hex_field(buf, 59..75)? },
    })
}

fn stem_seq(stem: &str) -> Option<u64> {
    let hex = stem.strip_prefix("seg-")?.get(..16)?;
    u64::from_str_radix(hex, 16).ok()
}

/// The pid embedded in a stem's writer token (`seg-<seq>-p<pid>-<n>`).
fn stem_pid(stem: &str) -> Option<u32> {
    let token = stem.strip_prefix("seg-")?.get(17..)?;
    token.strip_prefix('p')?.split('-').next()?.parse().ok()
}

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    // No portable liveness probe: be conservative and never adopt.
    true
}

fn index_insert(
    index: &mut HashMap<CacheKey, IndexEntry>,
    dead: &mut HashMap<CacheKey, u64>,
    key: CacheKey,
    kind: RecordKind,
    entry: IndexEntry,
) {
    match kind {
        RecordKind::Tombstone => {
            let tomb = dead.entry(key).or_insert(0);
            *tomb = (*tomb).max(entry.lsn);
            if index.get(&key).is_some_and(|cur| cur.lsn <= entry.lsn) {
                index.remove(&key);
                metrics::CACHE_SEGMENT_INDEX_ENTRIES.add(-1);
            }
        }
        RecordKind::Put => {
            if dead.get(&key).is_some_and(|&tomb| tomb >= entry.lsn) {
                return;
            }
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut cur) => {
                    if entry.lsn >= cur.get().lsn {
                        cur.insert(entry);
                    }
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(entry);
                    metrics::CACHE_SEGMENT_INDEX_ENTRIES.add(1);
                }
            }
        }
    }
}

impl SegmentStore {
    /// Opens (creating if needed) a segment store over `dir` with default
    /// tuning. See [`open_with`](Self::open_with).
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directory cannot be created or listed.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(dir, SegmentConfig::default())
    }

    /// Opens a store: creates the directory if needed, scans every segment
    /// into the index, and — when the advisory `compact.lock` is free —
    /// adopts dead writers' active segments (truncating torn tails) and
    /// compacts garbage out of the sealed set.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directory cannot be created or listed.
    pub fn open_with(dir: impl Into<PathBuf>, config: SegmentConfig) -> io::Result<Self> {
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = Self {
            token: format!("p{}-{}", std::process::id(), STORE_SEQ.fetch_add(1, Ordering::Relaxed)),
            config,
            state: Mutex::new(StoreState {
                index: HashMap::new(),
                dead: HashMap::new(),
                segments: HashMap::new(),
                active: None,
                next_seq: 1,
                next_lsn: 1,
            }),
            stats: SegmentCounters::default(),
            dir,
        };
        let lock = store.try_lock_dir();
        {
            let mut st = store.lock_state();
            if lock.is_some() {
                // Crashed compactions leave only their temp file behind.
                for name in store.list_dir()? {
                    if name.ends_with(".compacting") {
                        fs::remove_file(store.dir.join(name)).ok();
                    }
                }
            }
            store.refresh_locked(&mut st)?;
            if lock.is_some() {
                store.adopt_orphans_locked(&mut st);
                store.maybe_compact_locked(&mut st);
            }
        }
        if let Some(lock) = lock {
            fs::remove_file(lock).ok();
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of this store's counters.
    pub fn stats(&self) -> SegmentStats {
        let st = self.lock_state();
        SegmentStats {
            appends: self.stats.appends.load(Ordering::Relaxed),
            seals: self.stats.seals.load(Ordering::Relaxed),
            compacted_records: self.stats.compacted_records.load(Ordering::Relaxed),
            recovered_bytes: self.stats.recovered_bytes.load(Ordering::Relaxed),
            index_entries: st.index.len(),
            segments: st.segments.len(),
        }
    }

    /// State lock, recovering from poisoning: every mutation sequence is
    /// ordered file-write-first, so a panic unwinding through a fault point
    /// leaves the in-memory state consistent with some durable prefix.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn list_dir(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    /// Acquires the advisory directory lock, breaking stale ones (dead pid,
    /// or — where liveness cannot be probed — an old mtime). Advisory: a
    /// raced break-in at worst runs two concurrent compactions, which
    /// rewrite the same live records under the same LSNs.
    fn try_lock_dir(&self) -> Option<PathBuf> {
        let path = self.dir.join("compact.lock");
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Some(path);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::read_to_string(&path)
                        .ok()
                        .and_then(|pid| pid.trim().parse::<u32>().ok())
                        .map(|pid| pid != std::process::id() && !pid_alive(pid))
                        .unwrap_or(true)
                        || fs::metadata(&path)
                            .and_then(|m| m.modified())
                            .ok()
                            .and_then(|t| t.elapsed().ok())
                            .is_some_and(|age| age.as_secs() > 300);
                    if !stale {
                        return None;
                    }
                    fs::remove_file(&path).ok();
                }
                Err(_) => return None,
            }
        }
        None
    }

    /// Re-lists the directory and scans every segment's unindexed suffix,
    /// making entries appended by other writers (or compacted elsewhere)
    /// visible. Segments that vanished (compacted away) are dropped along
    /// with index entries still pointing at them — their live records were
    /// re-indexed from the replacement segment by the same scan.
    fn refresh_locked(&self, st: &mut StoreState) -> io::Result<()> {
        let names = self.list_dir()?;
        let mut present: Vec<(String, bool)> = Vec::new();
        for name in &names {
            if let Some(stem) = name.strip_suffix(".seg.log") {
                present.push((stem.to_owned(), true));
            } else if let Some(stem) = name.strip_suffix(".active.log") {
                present.push((stem.to_owned(), false));
            }
        }
        for (stem, sealed) in &present {
            let path =
                self.dir.join(format!("{stem}.{}", if *sealed { "seg.log" } else { "active.log" }));
            let meta = st.segments.entry(stem.clone()).or_insert_with(|| SegmentMeta {
                path: path.clone(),
                sealed: *sealed,
                scanned: 0,
                records: 0,
                file: None,
            });
            if meta.path != path {
                // Sealed (renamed) by another writer; any cached handle
                // still reads the same inode.
                meta.path = path;
            }
            meta.sealed = *sealed;
            if let Some(seq) = stem_seq(stem) {
                st.next_seq = st.next_seq.max(seq + 1);
            }
            self.scan_segment_locked(st, stem);
        }
        // Purge segments deleted by a foreign compaction.
        let gone: Vec<String> = st
            .segments
            .keys()
            .filter(|stem| !present.iter().any(|(s, _)| s == *stem))
            .cloned()
            .collect();
        for stem in gone {
            if st.active.as_ref().is_some_and(|a| a.stem == stem) {
                continue; // our own active file; never purge it blindly
            }
            st.segments.remove(&stem);
            let orphaned: Vec<CacheKey> =
                st.index.iter().filter(|(_, e)| e.stem == stem).map(|(&k, _)| k).collect();
            for key in orphaned {
                st.index.remove(&key);
                metrics::CACHE_SEGMENT_INDEX_ENTRIES.add(-1);
            }
        }
        Ok(())
    }

    /// Scans one segment from its last indexed offset, validating each
    /// record (header shape, bounds, trailing newline, checksum) before
    /// indexing it. Scanning stops at the first invalid boundary: in an
    /// active segment that tail may still be completed by its writer (the
    /// offset is not advanced); in a sealed segment it is damage, skipped
    /// permanently and counted as recovered bytes.
    fn scan_segment_locked(&self, st: &mut StoreState, stem: &str) {
        let StoreState { index, dead, segments, next_lsn, .. } = st;
        let Some(meta) = segments.get_mut(stem) else { return };
        let file_len = match fs::metadata(&meta.path) {
            Ok(m) => m.len(),
            Err(_) => return,
        };
        if file_len <= meta.scanned {
            return;
        }
        let mut buf = Vec::with_capacity((file_len - meta.scanned) as usize);
        let read = (|| -> io::Result<()> {
            let mut f = File::open(&meta.path)?;
            f.seek(SeekFrom::Start(meta.scanned))?;
            f.take(file_len - meta.scanned).read_to_end(&mut buf)?;
            Ok(())
        })();
        if read.is_err() {
            return;
        }
        let base = meta.scanned;
        let mut pos = 0usize;
        while pos < buf.len() {
            let rest = &buf[pos..];
            let valid = parse_header(rest).and_then(|h| {
                let total = RECORD_HEADER_LEN + h.len + 1;
                (rest.len() >= total
                    && rest[total - 1] == b'\n'
                    && crc32(&rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + h.len]) == h.crc)
                    .then_some((h, total))
            });
            let Some((header, total)) = valid else {
                if meta.sealed {
                    // Damage inside a sealed file: nothing after it is
                    // reachable; skip it for good.
                    let lost = (buf.len() - pos) as u64;
                    meta.scanned = base + buf.len() as u64;
                    self.stats.recovered_bytes.fetch_add(lost, Ordering::Relaxed);
                    metrics::CACHE_SEGMENT_RECOVERED_BYTES.add(lost);
                }
                return;
            };
            *next_lsn = (*next_lsn).max(header.lsn + 1);
            index_insert(
                index,
                dead,
                header.key,
                header.kind,
                IndexEntry {
                    stem: stem.to_owned(),
                    offset: base + pos as u64 + RECORD_HEADER_LEN as u64,
                    len: header.len,
                    lsn: header.lsn,
                },
            );
            meta.records += 1;
            pos += total;
            meta.scanned = base + pos as u64;
        }
    }

    /// Adopts active segments of dead writers: truncates the torn tail (if
    /// any) to the last valid record boundary and seals the file. Only runs
    /// under the directory lock.
    fn adopt_orphans_locked(&self, st: &mut StoreState) {
        let orphans: Vec<String> = st
            .segments
            .iter()
            .filter(|(stem, meta)| {
                !meta.sealed
                    && stem_pid(stem).is_some_and(|pid| !pid_alive(pid))
                    && st.active.as_ref().map(|a| &a.stem) != Some(stem)
            })
            .map(|(stem, _)| stem.clone())
            .collect();
        for stem in orphans {
            let Some(meta) = st.segments.get_mut(&stem) else { continue };
            let file_len = fs::metadata(&meta.path).map(|m| m.len()).unwrap_or(meta.scanned);
            if file_len > meta.scanned {
                let torn = file_len - meta.scanned;
                let truncated = OpenOptions::new()
                    .write(true)
                    .open(&meta.path)
                    .and_then(|f| f.set_len(meta.scanned));
                if truncated.is_ok() {
                    self.stats.recovered_bytes.fetch_add(torn, Ordering::Relaxed);
                    metrics::CACHE_SEGMENT_RECOVERED_BYTES.add(torn);
                }
            }
            let sealed_path = self.dir.join(format!("{stem}.seg.log"));
            if fs::rename(&meta.path, &sealed_path).is_ok() {
                meta.path = sealed_path;
                meta.sealed = true;
                meta.file = None;
                self.stats.seals.fetch_add(1, Ordering::Relaxed);
                metrics::CACHE_SEGMENT_SEALS.incr();
            }
        }
    }

    /// Rewrites the live records of every sealed segment into one fresh
    /// sealed segment (same LSNs) and deletes the originals, when the
    /// garbage they carry clears the configured thresholds. Tombstones are
    /// retained: a record they shadow may still sit in another writer's
    /// active segment.
    fn maybe_compact_locked(&self, st: &mut StoreState) {
        let sealed: Vec<String> =
            st.segments.iter().filter(|(_, m)| m.sealed).map(|(s, _)| s.clone()).collect();
        if sealed.is_empty() {
            return;
        }
        let total: u64 = sealed.iter().filter_map(|s| st.segments.get(s)).map(|m| m.scanned).sum();
        let live_puts: Vec<(CacheKey, IndexEntry)> = st
            .index
            .iter()
            .filter(|(_, e)| sealed.contains(&e.stem))
            .map(|(&k, e)| (k, e.clone()))
            .collect();
        let live_bytes: u64 =
            live_puts.iter().map(|(_, e)| e.len as u64 + RECORD_OVERHEAD).sum::<u64>()
                + st.dead.len() as u64 * RECORD_OVERHEAD;
        let garbage = total.saturating_sub(live_bytes);
        if garbage < self.config.compact_min_garbage
            || (garbage as f64) < self.config.compact_garbage_ratio * total as f64
        {
            return;
        }

        // Read every sealed source once, sequentially.
        let mut sources: HashMap<String, Vec<u8>> = HashMap::new();
        for stem in &sealed {
            let Some(meta) = st.segments.get(stem) else { return };
            match fs::read(&meta.path) {
                Ok(bytes) => sources.insert(stem.clone(), bytes),
                Err(_) => return, // compaction is optional; never at the cost of data
            };
        }

        let seq = st.next_seq;
        let new_stem = format!("seg-{seq:016x}-{}", self.token);
        let tmp = self.dir.join(format!("{new_stem}.compacting"));
        let mut out = Vec::new();
        let mut moved: Vec<(CacheKey, IndexEntry)> = Vec::new();
        let mut kept = 0u64;
        for (key, entry) in &live_puts {
            let src = &sources[&entry.stem];
            let (start, end) = (entry.offset as usize, entry.offset as usize + entry.len);
            let Some(payload) = src.get(start..end) else { return };
            moved.push((
                *key,
                IndexEntry {
                    stem: new_stem.clone(),
                    offset: out.len() as u64 + RECORD_HEADER_LEN as u64,
                    len: entry.len,
                    lsn: entry.lsn,
                },
            ));
            out.extend_from_slice(&frame_record(entry.lsn, RecordKind::Put, *key, payload));
            kept += 1;
        }
        let mut dead_sorted: Vec<(CacheKey, u64)> = st.dead.iter().map(|(&k, &l)| (k, l)).collect();
        dead_sorted.sort_by_key(|&(k, _)| (k.circuit, k.compiler));
        for (key, lsn) in dead_sorted {
            out.extend_from_slice(&frame_record(lsn, RecordKind::Tombstone, key, &[]));
            kept += 1;
        }

        let written = (|| -> io::Result<()> {
            if let Some(e) = zac_telemetry::fault_point!("cache.disk.write") {
                return Err(e);
            }
            let mut f = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
            f.write_all(&out)?;
            f.flush()?;
            Ok(())
        })();
        if written.is_err() {
            fs::remove_file(&tmp).ok();
            return;
        }
        let final_path = self.dir.join(format!("{new_stem}.seg.log"));
        if fs::rename(&tmp, &final_path).is_err() {
            fs::remove_file(&tmp).ok();
            return;
        }
        st.next_seq += 1;

        // The replacement is durable; retire the sources.
        let dropped: u64 = sealed
            .iter()
            .filter_map(|s| st.segments.get(s))
            .map(|m| m.records)
            .sum::<u64>()
            .saturating_sub(kept);
        for stem in &sealed {
            if let Some(meta) = st.segments.remove(stem) {
                fs::remove_file(&meta.path).ok();
            }
        }
        st.segments.insert(
            new_stem.clone(),
            SegmentMeta {
                path: final_path,
                sealed: true,
                scanned: out.len() as u64,
                records: kept,
                file: None,
            },
        );
        for (key, entry) in moved {
            // Direct rebind (not `index_insert`): same LSN, new location.
            st.index.insert(key, entry);
        }
        self.stats.compacted_records.fetch_add(dropped, Ordering::Relaxed);
        metrics::CACHE_SEGMENT_COMPACTED_RECORDS.add(dropped);
    }

    /// Looks `key` up, refreshing the index from disk on a miss so entries
    /// appended by other processes are found.
    pub fn load_classified(&self, key: CacheKey) -> LoadOutcome {
        let mut st = self.lock_state();
        if let Some(outcome) = self.read_indexed_locked(&mut st, key) {
            return outcome;
        }
        let _ = self.refresh_locked(&mut st);
        self.read_indexed_locked(&mut st, key).unwrap_or(LoadOutcome::Miss)
    }

    /// Reads the indexed record for `key`, if any. `None` means "not in
    /// the index (or unreachable without a refresh)" — the caller decides
    /// whether to refresh and retry.
    fn read_indexed_locked(&self, st: &mut StoreState, key: CacheKey) -> Option<LoadOutcome> {
        let entry = st.index.get(&key)?.clone();
        if zac_telemetry::fault_point!("cache.disk.read").is_some() {
            return Some(LoadOutcome::ReadError);
        }
        let opened = {
            let meta = st.segments.get_mut(&entry.stem)?;
            if meta.file.is_none() {
                meta.file = File::open(&meta.path).ok();
            }
            meta.file.is_some()
        };
        if !opened {
            // Compacted away (or deleted) under us; drop the stale binding
            // and let the caller refresh to find the record's new home.
            st.index.remove(&key);
            metrics::CACHE_SEGMENT_INDEX_ENTRIES.add(-1);
            return None;
        }
        let mut payload = vec![0u8; entry.len];
        let read = {
            let file = st.segments.get_mut(&entry.stem)?.file.as_mut()?;
            file.seek(SeekFrom::Start(entry.offset)).and_then(|_| file.read_exact(&mut payload))
        };
        if read.is_err() {
            return Some(LoadOutcome::ReadError);
        }
        match decode_output(&payload) {
            Ok(mut out) => {
                out.from_cache = false;
                Some(LoadOutcome::Hit(Box::new(out)))
            }
            Err(_) => {
                // Post-scan bit rot: the checksum passed at indexing time
                // but the bytes no longer decode. Drop the entry; the next
                // lookup is a clean miss.
                st.index.remove(&key);
                metrics::CACHE_SEGMENT_INDEX_ENTRIES.add(-1);
                Some(LoadOutcome::Quarantined)
            }
        }
    }

    /// Appends `key → output`, retrying transient failures up to twice with
    /// a small deterministic jittered backoff. Returns the retries used.
    ///
    /// # Errors
    ///
    /// [`io::Error`] once the budget is exhausted, or immediately with
    /// `InvalidData` for non-finite outputs.
    pub fn append(&self, key: CacheKey, output: &CompileOutput) -> io::Result<u64> {
        let mut pristine = output.clone();
        pristine.from_cache = false;
        let mut retries = 0u64;
        loop {
            let mut st = self.lock_state();
            let err = match self.append_locked(&mut st, key, &pristine) {
                Ok(()) => return Ok(retries),
                Err(e) => e,
            };
            drop(st);
            if err.kind() == io::ErrorKind::InvalidData || retries + 1 >= u64::from(APPEND_ATTEMPTS)
            {
                return Err(err);
            }
            retries += 1;
            std::thread::sleep(backoff(key, retries));
        }
    }

    /// Removes `key` by appending a tombstone (compaction reclaims the
    /// record's bytes at a later open).
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the tombstone cannot be written.
    pub fn remove(&self, key: CacheKey) -> io::Result<()> {
        let mut st = self.lock_state();
        self.write_record_locked(&mut st, key, RecordKind::Tombstone, &[])
    }

    fn append_locked(
        &self,
        st: &mut StoreState,
        key: CacheKey,
        output: &CompileOutput,
    ) -> io::Result<()> {
        let payload = encode_output(output)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.write_record_locked(st, key, RecordKind::Put, &payload)
    }

    fn write_record_locked(
        &self,
        st: &mut StoreState,
        key: CacheKey,
        kind: RecordKind,
        payload: &[u8],
    ) -> io::Result<()> {
        if let Some(e) = zac_telemetry::fault_point!("cache.disk.write") {
            return Err(e);
        }
        if st.active.is_none() {
            let seq = st.next_seq;
            let stem = format!("seg-{seq:016x}-{}", self.token);
            let path = self.dir.join(format!("{stem}.active.log"));
            let file = OpenOptions::new().append(true).create_new(true).open(&path)?;
            st.next_seq += 1;
            st.segments.insert(
                stem.clone(),
                SegmentMeta { path, sealed: false, scanned: 0, records: 0, file: None },
            );
            st.active = Some(ActiveSegment { stem, file, written: 0 });
        }
        let lsn = st.next_lsn;
        let frame = frame_record(lsn, kind, key, payload);
        {
            let active = st.active.as_mut().expect("active segment just ensured");
            if let Err(e) = active.file.write_all(&frame).and_then(|()| active.file.flush()) {
                // Truncate back to the known-good boundary so the file never
                // carries a torn record that a foreign scan would stop at.
                let _ = active.file.set_len(active.written);
                return Err(e);
            }
            active.written += frame.len() as u64;
        }
        st.next_lsn += 1;
        let active_stem = st.active.as_ref().map(|a| a.stem.clone()).expect("active exists");
        let active_written = st.active.as_ref().map(|a| a.written).expect("active exists");
        if let Some(meta) = st.segments.get_mut(&active_stem) {
            meta.scanned = active_written;
            meta.records += 1;
        }
        index_insert(
            &mut st.index,
            &mut st.dead,
            key,
            kind,
            IndexEntry {
                stem: active_stem,
                offset: active_written - payload.len() as u64 - 1,
                len: payload.len(),
                lsn,
            },
        );
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        metrics::CACHE_SEGMENT_APPENDS.incr();
        if active_written >= self.config.seal_bytes {
            // Best-effort: the append itself already succeeded, so a seal
            // failure must not fail it (a retried append would duplicate the
            // record). Sealing retries on the next append. Panic-kind faults
            // still unwind here, which is what the mid-seal crash tests want.
            let _ = self.seal_active_locked(st, true);
        }
        Ok(())
    }

    /// Seals the active segment (rename to `.seg.log`). With `faults` set it
    /// carries the `cache.disk.write` fault point so mid-seal crashes are
    /// testable; on failure the segment simply stays active and sealing
    /// retries on the next append. `Drop` passes `faults = false` so an armed
    /// fault plan can't fire during teardown of an unrelated test.
    fn seal_active_locked(&self, st: &mut StoreState, faults: bool) -> io::Result<()> {
        let Some(active) = st.active.take() else { return Ok(()) };
        if faults {
            if let Some(e) = zac_telemetry::fault_point!("cache.disk.write") {
                st.active = Some(active);
                return Err(e);
            }
        }
        let sealed_path = self.dir.join(format!("{}.seg.log", active.stem));
        let old_path = self.dir.join(format!("{}.active.log", active.stem));
        match fs::rename(&old_path, &sealed_path) {
            Ok(()) => {
                if let Some(meta) = st.segments.get_mut(&active.stem) {
                    meta.path = sealed_path;
                    meta.sealed = true;
                }
                self.stats.seals.fetch_add(1, Ordering::Relaxed);
                metrics::CACHE_SEGMENT_SEALS.incr();
                Ok(())
            }
            Err(e) => {
                st.active = Some(active);
                Err(e)
            }
        }
    }

    /// Loads many keys with one sequential read per touched segment — the
    /// warm path behind `CompileCache::warm_from_manifest`. Keys absent
    /// from the index (after one refresh) are skipped.
    pub fn bulk_load(&self, keys: &[CacheKey]) -> Vec<(CacheKey, CompileOutput)> {
        let mut st = self.lock_state();
        if keys.iter().any(|k| !st.index.contains_key(k)) {
            let _ = self.refresh_locked(&mut st);
        }
        let mut by_stem: HashMap<String, Vec<(CacheKey, u64, usize)>> = HashMap::new();
        for &key in keys {
            if let Some(e) = st.index.get(&key) {
                by_stem.entry(e.stem.clone()).or_default().push((key, e.offset, e.len));
            }
        }
        let mut warmed = Vec::with_capacity(keys.len());
        for (stem, locs) in by_stem {
            let Some(meta) = st.segments.get(&stem) else { continue };
            let Ok(bytes) = fs::read(&meta.path) else { continue };
            for (key, offset, len) in locs {
                let Some(payload) = bytes.get(offset as usize..offset as usize + len) else {
                    continue;
                };
                if let Ok(mut out) = decode_output(payload) {
                    out.from_cache = false;
                    warmed.push((key, out));
                }
            }
        }
        warmed
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        // Seal the active segment so a cleanly-closed store leaves no
        // `.active.log` for a later opener to treat as an orphan.
        let mut st = self.lock_state();
        let _ = self.seal_active_locked(&mut st, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{sample_output, temp_cache_dir};

    fn key(i: u64) -> CacheKey {
        CacheKey { circuit: i, compiler: 0x42 }
    }

    #[test]
    fn header_roundtrip_and_framing_invariants() {
        let payload = b"payload-bytes";
        let frame = frame_record(7, RecordKind::Put, key(3), payload);
        assert_eq!(frame.len(), RECORD_HEADER_LEN + payload.len() + 1);
        assert_eq!(*frame.last().unwrap(), b'\n');
        let h = parse_header(&frame).expect("framed record parses");
        assert_eq!((h.len, h.lsn, h.kind), (payload.len(), 7, RecordKind::Put));
        assert_eq!(h.key, key(3));
        assert_eq!(h.crc, crc32(payload));
        // A tombstone frames an empty payload.
        let tomb = frame_record(9, RecordKind::Tombstone, key(3), &[]);
        assert_eq!(tomb.len(), RECORD_HEADER_LEN + 1);
        assert_eq!(parse_header(&tomb).unwrap().kind, RecordKind::Tombstone);
    }

    #[test]
    fn corrupt_headers_do_not_parse() {
        let frame = frame_record(1, RecordKind::Put, key(1), b"x");
        assert!(parse_header(&frame[..RECORD_HEADER_LEN - 1]).is_none(), "truncated header");
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(parse_header(&bad_magic).is_none());
        let mut bad_kind = frame.clone();
        bad_kind[40] = b'Q';
        assert!(parse_header(&bad_kind).is_none());
        let mut bad_hex = frame;
        bad_hex[5] = b'z';
        assert!(parse_header(&bad_hex).is_none());
    }

    #[test]
    fn stem_parsing() {
        let stem = format!("seg-{:016x}-p{}-3", 0x2au64, 4242);
        assert_eq!(stem_seq(&stem), Some(0x2a));
        assert_eq!(stem_pid(&stem), Some(4242));
        assert_eq!(stem_seq("not-a-stem"), None);
        assert_eq!(stem_pid("seg-0000000000000001-weird"), None);
    }

    #[test]
    fn append_and_reload_across_open() {
        let dir = temp_cache_dir("seg-basic");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.append(key(1), &sample_output("a", 1)).unwrap();
            store.append(key(2), &sample_output("b", 2)).unwrap();
            // Supersede key 1.
            store.append(key(1), &sample_output("a2", 3)).unwrap();
            assert_eq!(store.stats().appends, 3);
            assert_eq!(store.stats().index_entries, 2);
        }
        let store = SegmentStore::open(&dir).unwrap();
        let LoadOutcome::Hit(out) = store.load_classified(key(1)) else {
            panic!("key 1 should hit");
        };
        assert_eq!(out.summary.name, "a2", "highest LSN wins");
        assert!(matches!(store.load_classified(key(2)), LoadOutcome::Hit(_)));
        assert!(matches!(store.load_classified(key(9)), LoadOutcome::Miss));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstone_deletes_across_open_and_scan_order() {
        let dir = temp_cache_dir("seg-tomb");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.append(key(5), &sample_output("dead", 1)).unwrap();
            store.remove(key(5)).unwrap();
            assert!(matches!(store.load_classified(key(5)), LoadOutcome::Miss));
        }
        let store = SegmentStore::open(&dir).unwrap();
        assert!(matches!(store.load_classified(key(5)), LoadOutcome::Miss));
        assert_eq!(store.stats().index_entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_rotates_at_threshold_and_scans_back() {
        let dir = temp_cache_dir("seg-seal");
        let config = SegmentConfig { seal_bytes: 1, ..SegmentConfig::default() };
        {
            let store = SegmentStore::open_with(&dir, config).unwrap();
            for i in 0..4 {
                store.append(key(i), &sample_output("s", i as usize)).unwrap();
            }
            assert_eq!(store.stats().seals, 4, "every append rotates at a 1-byte threshold");
        }
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".log"))
            .collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().all(|n| n.ends_with(".seg.log")), "{names:?}");
        let store = SegmentStore::open_with(&dir, config).unwrap();
        for i in 0..4 {
            assert!(matches!(store.load_classified(key(i)), LoadOutcome::Hit(_)), "key {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_invisible_and_truncated_on_adopting_open() {
        let dir = temp_cache_dir("seg-torn");
        let path;
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.append(key(1), &sample_output("keep", 1)).unwrap();
            let st = store.lock_state();
            path = st.segments.values().next().unwrap().path.clone();
            drop(st);
            // Simulate a crash: forget the store so Drop does not seal.
            std::mem::forget(store);
        }
        let clean_len = fs::metadata(&path).unwrap().len();
        // A torn record: valid header promising more payload than exists.
        let mut torn = frame_record(99, RecordKind::Put, key(2), &[1, 2, 3, 4]);
        torn.truncate(torn.len() - 3);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&torn).unwrap();
        drop(f);

        // The dead-writer stem uses our own (live) pid, so adoption skips
        // it; rename it to a definitely-dead writer token.
        let adopted = dir.join("seg-0000000000000001-p999999-0.active.log");
        fs::rename(&path, &adopted).unwrap();

        let store = SegmentStore::open(&dir).unwrap();
        assert!(matches!(store.load_classified(key(1)), LoadOutcome::Hit(_)), "good prefix kept");
        assert!(matches!(store.load_classified(key(2)), LoadOutcome::Miss), "torn tail dropped");
        let stats = store.stats();
        assert_eq!(stats.recovered_bytes, torn.len() as u64);
        assert!(stats.seals >= 1, "orphan adopted and sealed");
        let sealed = dir.join("seg-0000000000000001-p999999-0.seg.log");
        assert!(sealed.exists());
        assert_eq!(fs::metadata(&sealed).unwrap().len(), clean_len, "truncated to last boundary");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_on_open_drops_garbage_and_keeps_live_records() {
        let dir = temp_cache_dir("seg-compact");
        let config = SegmentConfig {
            seal_bytes: 1, // seal after every append → all garbage is in sealed segments
            compact_min_garbage: 1,
            compact_garbage_ratio: 0.0,
        };
        {
            let store = SegmentStore::open_with(&dir, config).unwrap();
            for round in 0..3 {
                for i in 0..4 {
                    store.append(key(i), &sample_output("v", round * 10 + i as usize)).unwrap();
                }
            }
            store.remove(key(3)).unwrap();
        }
        let store = SegmentStore::open_with(&dir, config).unwrap();
        let stats = store.stats();
        // 12 puts of which 3 live (key 3 tombstoned), plus 1 tombstone kept.
        assert_eq!(stats.compacted_records, 9, "{stats:?}");
        assert_eq!(stats.index_entries, 3);
        assert_eq!(stats.segments, 1, "sealed set rewritten into one segment");
        for i in 0..3 {
            let LoadOutcome::Hit(out) = store.load_classified(key(i)) else {
                panic!("key {i} must survive compaction");
            };
            assert_eq!(out.summary.g1, 20 + i as usize, "latest version survives");
        }
        assert!(matches!(store.load_classified(key(3)), LoadOutcome::Miss));

        // The tombstone survives the rewrite: a third open still misses.
        let store = SegmentStore::open_with(&dir, config).unwrap();
        assert!(matches!(store.load_classified(key(3)), LoadOutcome::Miss));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_store_visibility_without_reopen() {
        let dir = temp_cache_dir("seg-xstore");
        let a = SegmentStore::open(&dir).unwrap();
        let b = SegmentStore::open(&dir).unwrap();
        a.append(key(1), &sample_output("from-a", 1)).unwrap();
        let LoadOutcome::Hit(out) = b.load_classified(key(1)) else {
            panic!("store B must see A's append via refresh-on-miss");
        };
        assert_eq!(out.summary.name, "from-a");
        b.append(key(2), &sample_output("from-b", 2)).unwrap();
        assert!(matches!(a.load_classified(key(2)), LoadOutcome::Hit(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_load_returns_decoded_outputs() {
        let dir = temp_cache_dir("seg-bulk");
        let store = SegmentStore::open(&dir).unwrap();
        for i in 0..6 {
            store.append(key(i), &sample_output("w", i as usize)).unwrap();
        }
        let keys: Vec<CacheKey> = (0..8).map(key).collect();
        let mut warmed = store.bulk_load(&keys);
        warmed.sort_by_key(|(k, _)| k.circuit);
        assert_eq!(warmed.len(), 6, "absent keys are skipped");
        for (i, (k, out)) in warmed.iter().enumerate() {
            assert_eq!(k.circuit, i as u64);
            assert_eq!(out.summary.g1, i);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_close_seals_the_active_segment() {
        let dir = temp_cache_dir("seg-close");
        {
            let store = SegmentStore::open(&dir).unwrap();
            store.append(key(1), &sample_output("x", 1)).unwrap();
        }
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().any(|n| n.ends_with(".seg.log"))
                && !names.iter().any(|n| n.ends_with(".active.log")),
            "{names:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lock_file_is_released_and_stale_locks_are_broken() {
        let dir = temp_cache_dir("seg-lock");
        {
            let _store = SegmentStore::open(&dir).unwrap();
            assert!(!dir.join("compact.lock").exists(), "lock released after open");
        }
        fs::write(dir.join("compact.lock"), "999999").unwrap(); // dead pid
        let store = SegmentStore::open(&dir).unwrap();
        assert!(!dir.join("compact.lock").exists(), "stale lock broken and released");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
