//! Content-addressed on-disk result cache for corpus entries.
//!
//! The paper's analysis is a pure function of (trace bytes, entry
//! config, engine version), so a fleet run can skip every entry whose
//! result is already on disk — **if** the cache can never silently
//! serve a stale or corrupt record. The design leans on three rules:
//!
//! 1. **Content-addressed keys.** A cell's name is a digest of the
//!    trace *content* ([`bwsa_trace::codec::content_digest`]), the
//!    manifest entry's analysis config (key, class, threshold,
//!    baseline), and [`ENGINE_VERSION`]. Editing a trace, retagging an
//!    entry, or changing the analysis engine moves the key; stale cells
//!    are simply never addressed again and age out under the byte
//!    budget.
//! 2. **Verify-on-read, miss-on-anything.** Cells are framed with the
//!    BWSS2 codec primitives — magic, format version, length, payload,
//!    CRC32 — and decode re-checks all of them plus the embedded entry
//!    key. A torn, bit-flipped, truncated, or version-mismatched cell
//!    is a *miss* (counted in [`CacheStats::corrupt`]), never an error:
//!    the entry is recomputed and the cell rewritten.
//! 3. **Crash-safe writes.** Cells are written to a temp file, fsync'd,
//!    and renamed into place, so a `kill -9` leaves either the old
//!    cell, the new cell, or a stray temp file — never a torn cell at
//!    the addressed name. A pid lock file keeps concurrent corpus runs
//!    from interleaving writes; a second runner degrades to read-only.
//!
//! Cache faults — including the `corpus.cache_read` /
//! `corpus.cache_write` failpoints — are contained inside this module
//! with [`supervisor::catch`]: an injected fault degrades a read to a
//! miss and skips a write, so a cache under chaos produces the same
//! `FleetSummary` bytes as no cache at all.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bwsa_resilience::supervisor;
use bwsa_trace::codec::{self, Cursor};

use crate::failpoints;
use crate::fleet::{EntryRecord, EntryStatus};

/// Version of the *analysis engine* whose results the cache stores.
/// Bump whenever analysis semantics change (pipeline defaults, conflict
/// algebra, required-size search); every existing cell then becomes
/// unaddressable and ages out.
pub const ENGINE_VERSION: u64 = 2;

/// Version of the on-disk cell framing. A cell with any other value is
/// a miss.
const CELL_FORMAT_VERSION: u16 = 1;

/// Cell file magic.
const CELL_MAGIC: &[u8; 4] = b"BWCC";

/// The byte budget of every cache directory (LRU-evicted past this).
pub const DEFAULT_CACHE_BUDGET: u64 = 256 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// The content address of one cached entry result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Derives the cache key for one manifest entry: trace content
    /// digest × entry config × [`ENGINE_VERSION`]. `threshold` is the
    /// *effective* threshold (after any session-wide override).
    pub fn for_entry(
        trace_digest: u64,
        entry_key: &str,
        class: &str,
        threshold: u64,
        baseline: u64,
    ) -> CacheKey {
        let mut h = fnv_u64(FNV_OFFSET, trace_digest);
        h = fnv_u64(h, ENGINE_VERSION);
        h = fnv_u64(h, entry_key.len() as u64);
        h = fnv_bytes(h, entry_key.as_bytes());
        h = fnv_u64(h, class.len() as u64);
        h = fnv_bytes(h, class.as_bytes());
        h = fnv_u64(h, threshold);
        h = fnv_u64(h, baseline);
        CacheKey(h)
    }

    /// The key as the raw 64-bit digest.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The cell file name this key addresses.
    pub fn file_name(self) -> String {
        format!("{:016x}.cell", self.0)
    }
}

/// Serializes an [`EntryRecord`] as one cache cell: magic, format
/// version, CRC32-framed payload. Failed records have no stable result
/// to cache; callers must not store them (decode rejects the status).
pub fn encode_cell(record: &EntryRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64 + record.key.len() + record.class.len());
    codec::put_varint(&mut payload, ENGINE_VERSION);
    codec::put_varint(&mut payload, record.key.len() as u64);
    payload.extend_from_slice(record.key.as_bytes());
    codec::put_varint(&mut payload, record.class.len() as u64);
    payload.extend_from_slice(record.class.as_bytes());
    payload.push(match record.status {
        EntryStatus::Ok => 0,
        EntryStatus::Degraded => 1,
        EntryStatus::Failed => 2,
    });
    for v in [
        record.records,
        record.chunks_dropped,
        record.retries,
        record.downgrades,
        record.total_sets,
        record.max_set,
        record.required_size,
        record.baseline,
    ] {
        codec::put_varint(&mut payload, v);
    }
    codec::put_u64_le(&mut payload, record.avg_dynamic_size.to_bits());
    codec::put_u64_le(&mut payload, record.avg_static_size.to_bits());

    let mut cell = Vec::with_capacity(payload.len() + 14);
    cell.extend_from_slice(CELL_MAGIC);
    cell.extend_from_slice(&CELL_FORMAT_VERSION.to_le_bytes());
    codec::put_u32_le(&mut cell, payload.len() as u32);
    cell.extend_from_slice(&payload);
    codec::put_u32_le(&mut cell, codec::crc32(&payload));
    cell
}

/// Verify-on-read decode of one cache cell. Returns `None` — a miss —
/// for *any* defect: bad magic or framing version, truncation, trailing
/// bytes, CRC mismatch, engine-version mismatch, a stored entry key
/// other than `expected_key`, or a status that is never cached.
pub fn decode_cell(bytes: &[u8], expected_key: &str) -> Option<EntryRecord> {
    let mut cur = Cursor::new(bytes);
    if cur.take(4).ok()? != CELL_MAGIC {
        return None;
    }
    if cur.get_u16_le().ok()? != CELL_FORMAT_VERSION {
        return None;
    }
    let len = cur.get_u32_le().ok()? as usize;
    let payload = cur.take(len).ok()?;
    let crc = cur.get_u32_le().ok()?;
    // An exact-length check makes every bit flip in the length field
    // structurally detectable, independent of the CRC.
    if !cur.is_empty() || codec::crc32(payload) != crc {
        return None;
    }

    let mut p = Cursor::new(payload);
    if p.get_varint().ok()? != ENGINE_VERSION {
        return None;
    }
    let key_len = p.get_varint().ok()? as usize;
    let key = std::str::from_utf8(p.take(key_len).ok()?).ok()?;
    if key != expected_key {
        return None;
    }
    let class_len = p.get_varint().ok()? as usize;
    let class = std::str::from_utf8(p.take(class_len).ok()?).ok()?;
    let status = match p.get_u8().ok()? {
        0 => EntryStatus::Ok,
        1 => EntryStatus::Degraded,
        _ => return None,
    };
    let mut ints = [0u64; 8];
    for slot in &mut ints {
        *slot = p.get_varint().ok()?;
    }
    let avg_dynamic_size = f64::from_bits(p.get_u64_le().ok()?);
    let avg_static_size = f64::from_bits(p.get_u64_le().ok()?);
    if !p.is_empty() {
        return None;
    }
    Some(EntryRecord {
        key: key.to_owned(),
        class: class.to_owned(),
        status,
        error: None,
        records: ints[0],
        chunks_dropped: ints[1],
        retries: ints[2],
        downgrades: ints[3],
        total_sets: ints[4],
        max_set: ints[5],
        avg_dynamic_size,
        avg_static_size,
        required_size: ints[6],
        baseline: ints[7],
    })
}

/// Hit/miss/eviction/corruption counters for one cache over one run.
///
/// Deliberately **not** part of `FleetSummary::to_json`: the summary's
/// bytes are the bit-identity contract (warm and cold runs must render
/// identically), so cache observability flows through these counters
/// and the `corpus.cache_*` obs metrics instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries served from a verified cell.
    pub hits: u64,
    /// Entries that had to be analyzed (no cell, or an invalid one).
    pub misses: u64,
    /// Cells removed by the byte-budget LRU pass.
    pub evictions: u64,
    /// Cells that existed but failed verify-on-read (subset of misses).
    pub corrupt: u64,
}

/// Exclusive-writer pid lock; removed on drop.
#[derive(Debug)]
struct LockFile {
    path: PathBuf,
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Claims `dir/lock` for this process. A live lock held by another
/// process yields `None` (the cache degrades to read-only); a stale
/// lock left by a dead process is broken and re-taken.
fn acquire_lock(dir: &Path) -> Option<LockFile> {
    let path = dir.join("lock");
    for _ in 0..2 {
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                let _ = write!(file, "{}", std::process::id());
                let _ = file.sync_all();
                return Some(LockFile { path });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let stale = match holder {
                    // Unparseable lock content: a torn lock write, safe
                    // to break.
                    None => true,
                    Some(pid) => {
                        // Liveness is only checkable where /proc exists;
                        // elsewhere assume the holder is alive.
                        Path::new("/proc").exists() && !Path::new(&format!("/proc/{pid}")).exists()
                    }
                };
                if !stale {
                    return None;
                }
                let _ = fs::remove_file(&path);
            }
            Err(_) => return None,
        }
    }
    None
}

/// One open cache directory of content-addressed cells, shared across a
/// batch's worker threads.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    budget: u64,
    lock: Option<LockFile>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory held to
    /// [`DEFAULT_CACHE_BUDGET`]. Infallible: an uncreatable directory
    /// just means every read misses, and a lock held by a live process
    /// means reads work but writes are skipped
    /// ([`ResultCache::writable`]).
    pub fn open(dir: impl Into<PathBuf>) -> ResultCache {
        let dir = dir.into();
        let _ = fs::create_dir_all(&dir);
        let lock = acquire_lock(&dir);
        ResultCache {
            dir,
            budget: DEFAULT_CACHE_BUDGET,
            lock,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Whether this process holds the writer lock.
    pub fn writable(&self) -> bool {
        self.lock.is_some()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Looks `key` up and fully verifies the cell. Any defect — torn
    /// write, bit flip, version or key mismatch, injected fault at the
    /// `corpus.cache_read` failpoint — is a miss, never an error.
    pub fn load(&self, key: CacheKey, expected_key: &str) -> Option<EntryRecord> {
        let path = self.dir.join(key.file_name());
        let read = supervisor::catch(|| {
            bwsa_resilience::failpoint!(failpoints::CACHE_READ);
            fs::read(&path)
        });
        match read {
            Ok(Ok(bytes)) => match decode_cell(&bytes, expected_key) {
                Some(record) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    // Best-effort LRU recency: bump the cell's mtime.
                    if let Ok(file) = fs::File::options().write(true).open(&path) {
                        let _ = file.set_modified(std::time::SystemTime::now());
                    }
                    Some(record)
                }
                None => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            Ok(Err(e)) => {
                if e.kind() != std::io::ErrorKind::NotFound {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            // Injected fault or panic inside the read: contained, miss.
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// `true` when `key` addresses a cell that would verify for
    /// `expected_key`. Does not touch the counters or recency — used by
    /// the daemon to quota-charge only the misses before running.
    pub fn peek(&self, key: CacheKey, expected_key: &str) -> bool {
        fs::read(self.dir.join(key.file_name()))
            .ok()
            .and_then(|bytes| decode_cell(&bytes, expected_key))
            .is_some()
    }

    /// Atomically writes `record`'s cell. Skipped without the writer
    /// lock, for failed records (no stable result), and on any fault —
    /// including the `corpus.cache_write` failpoint — since an
    /// unwritten cell only costs a future recompute.
    pub fn store(&self, key: CacheKey, record: &EntryRecord) {
        if self.lock.is_none() || record.status == EntryStatus::Failed {
            return;
        }
        let path = self.dir.join(key.file_name());
        let tmp = self
            .dir
            .join(format!("{:016x}.tmp{}", key.as_u64(), std::process::id()));
        let bytes = encode_cell(record);
        let outcome = supervisor::catch(|| {
            bwsa_resilience::failpoint!(failpoints::CACHE_WRITE);
            write_atomic(&tmp, &path, &bytes)
        });
        if !matches!(outcome, Ok(Ok(()))) {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// The byte-budget LRU pass: while the cells exceed the budget,
    /// remove the least-recently-used (oldest mtime, path as a
    /// deterministic tiebreak). Requires the writer lock; errors are
    /// ignored (a racing reader just sees a miss).
    pub fn evict_to_budget(&self) {
        if self.lock.is_none() {
            return;
        }
        let Ok(read_dir) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut cells: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        for entry in read_dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("cell") {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                cells.push((mtime, meta.len(), path));
            }
        }
        let mut total: u64 = cells.iter().map(|(_, len, _)| *len).sum();
        if total <= self.budget {
            return;
        }
        cells.sort_by(|a, b| (a.0, &a.2).cmp(&(b.0, &b.2)));
        for (_, len, path) in cells {
            if total <= self.budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                total = total.saturating_sub(len);
            }
        }
    }
}

fn write_atomic(tmp: &Path, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = fs::File::create(tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key: &str) -> EntryRecord {
        EntryRecord {
            key: key.to_owned(),
            class: "integer".to_owned(),
            status: EntryStatus::Ok,
            error: None,
            records: 12345,
            chunks_dropped: 0,
            retries: 1,
            downgrades: 0,
            total_sets: 7,
            max_set: 33,
            avg_dynamic_size: 3.75,
            avg_static_size: 0.1 + 0.2, // a value with an inexact repr
            required_size: 256,
            baseline: 1024,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bwsa_cache_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn cell_roundtrip_is_bit_exact() {
        let rec = record("a.bwss");
        let cell = encode_cell(&rec);
        let back = decode_cell(&cell, "a.bwss").expect("decodes");
        assert_eq!(back, rec);
        assert_eq!(
            back.avg_static_size.to_bits(),
            rec.avg_static_size.to_bits()
        );
    }

    #[test]
    fn decode_rejects_wrong_key_version_and_truncation() {
        let cell = encode_cell(&record("a.bwss"));
        assert!(decode_cell(&cell, "b.bwss").is_none(), "key mismatch");
        assert!(decode_cell(&cell[..cell.len() - 1], "a.bwss").is_none());
        let mut extra = cell.clone();
        extra.push(0);
        assert!(decode_cell(&extra, "a.bwss").is_none(), "trailing bytes");
        let mut wrong_ver = cell.clone();
        wrong_ver[4] ^= 0xff; // format version field
        assert!(decode_cell(&wrong_ver, "a.bwss").is_none());
        let mut failed = record("a.bwss");
        failed.status = EntryStatus::Failed;
        let failed_cell = encode_cell(&failed);
        assert!(
            decode_cell(&failed_cell, "a.bwss").is_none(),
            "failed records never verify"
        );
    }

    #[test]
    fn keys_separate_content_config_and_engine() {
        let base = CacheKey::for_entry(1, "a.bwss", "integer", 100, 1024);
        assert_eq!(base, CacheKey::for_entry(1, "a.bwss", "integer", 100, 1024));
        for other in [
            CacheKey::for_entry(2, "a.bwss", "integer", 100, 1024),
            CacheKey::for_entry(1, "b.bwss", "integer", 100, 1024),
            CacheKey::for_entry(1, "a.bwss", "crypto", 100, 1024),
            CacheKey::for_entry(1, "a.bwss", "integer", 10, 1024),
            CacheKey::for_entry(1, "a.bwss", "integer", 100, 512),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn store_load_and_corruption_counting() {
        let dir = scratch("storeload");
        let cache = ResultCache::open(&dir);
        assert!(cache.writable());
        let key = CacheKey::for_entry(42, "a.bwss", "integer", 100, 1024);
        assert!(cache.load(key, "a.bwss").is_none(), "cold cache misses");
        cache.store(key, &record("a.bwss"));
        assert_eq!(cache.load(key, "a.bwss").expect("hit"), record("a.bwss"));
        // Poison the cell in place: next read is a counted corrupt miss.
        let cell_path = dir.join(key.file_name());
        let mut bytes = fs::read(&cell_path).expect("read cell");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&cell_path, &bytes).expect("rewrite cell");
        assert!(cache.load(key, "a.bwss").is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (1, 2, 1));
    }

    #[test]
    fn second_writer_degrades_to_read_only() {
        let dir = scratch("lock");
        let first = ResultCache::open(&dir);
        assert!(first.writable());
        let second = ResultCache::open(&dir);
        assert!(!second.writable(), "live lock blocks a second writer");
        let key = CacheKey::for_entry(7, "a.bwss", "x", 1, 2);
        second.store(key, &record("a.bwss"));
        assert!(
            !dir.join(key.file_name()).exists(),
            "read-only skips writes"
        );
        drop(first);
        assert!(!dir.join("lock").exists(), "lock removed on drop");
        // A stale lock from a dead pid is broken and re-taken.
        fs::write(dir.join("lock"), "4294967294").expect("plant stale lock");
        let third = ResultCache::open(&dir);
        assert!(third.writable(), "stale lock is reclaimed");
    }

    #[test]
    fn eviction_respects_budget_oldest_first() {
        let dir = scratch("evict");
        let cache = ResultCache::open(&dir);
        let mut keys = Vec::new();
        for i in 0..4u64 {
            let key = CacheKey::for_entry(i, "a.bwss", "x", 1, 2);
            cache.store(key, &record("a.bwss"));
            // Spread mtimes so LRU order is unambiguous.
            let when = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i);
            let file = fs::File::options()
                .write(true)
                .open(dir.join(key.file_name()))
                .expect("open cell");
            file.set_modified(when).expect("set mtime");
            keys.push(key);
        }
        let cell_len = fs::metadata(dir.join(keys[0].file_name()))
            .expect("cell meta")
            .len();
        // Budget for exactly two cells: the two oldest go.
        let cache = ResultCache {
            budget: cell_len * 2,
            ..cache
        };
        cache.evict_to_budget();
        assert_eq!(cache.stats().evictions, 2);
        assert!(!dir.join(keys[0].file_name()).exists());
        assert!(!dir.join(keys[1].file_name()).exists());
        assert!(dir.join(keys[2].file_name()).exists());
        assert!(dir.join(keys[3].file_name()).exists());
    }

    #[test]
    fn injected_cache_faults_degrade_to_miss_and_skip() {
        let dir = scratch("faults");
        let cache = ResultCache::open(&dir);
        let key = CacheKey::for_entry(9, "a.bwss", "x", 1, 2);
        {
            let _fp = bwsa_resilience::failpoint::scoped("corpus.cache_write=error(chaos)")
                .expect("arm failpoint");
            cache.store(key, &record("a.bwss"));
        }
        assert!(!dir.join(key.file_name()).exists(), "faulted write skipped");
        cache.store(key, &record("a.bwss"));
        {
            let _fp = bwsa_resilience::failpoint::scoped("corpus.cache_read=panic(chaos)")
                .expect("arm failpoint");
            assert!(cache.load(key, "a.bwss").is_none(), "faulted read misses");
        }
        assert!(
            cache.load(key, "a.bwss").is_some(),
            "cell intact after fault"
        );
    }
}
