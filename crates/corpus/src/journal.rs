//! The run journal: an append-only WAL of completed corpus entries.
//!
//! Each completed entry appends one CRC-framed record — manifest key
//! plus cache key — and the file is fsync'd every few appends, so after
//! a `kill -9` the journal names (a durable prefix of) the entries
//! whose results already sit in the cache. `bwsa corpus --resume` loads
//! it to report progress and then replays those entries from the
//! content-addressed cache; the fleet fold's schedule-invariance makes
//! the resumed summary byte-identical to an uninterrupted run.
//!
//! Durability discipline mirrors the checkpoint rotation the CLI uses
//! for `analyze --resume`:
//!
//! * a *torn tail* (the crash case) is normal — parsing stops at the
//!   first bad frame and keeps the valid prefix;
//! * on each new run the previous journal rotates to `journal.prev`,
//!   and compaction on resume rewrites the journal via a temp file +
//!   the same rotation;
//! * a journal whose *header* is unreadable falls back to the
//!   `journal.prev` ancestor (surfaced to the caller as a warning).
//!
//! Journal faults — including the `corpus.journal_append` failpoint —
//! are contained: a failed append poisons further appends (keeping the
//! on-disk prefix valid) but never fails the run; resume just recomputes
//! more entries.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bwsa_resilience::supervisor;
use bwsa_trace::codec::{self, Cursor};

use crate::cache::CacheKey;
use crate::failpoints;

const JOURNAL_MAGIC: &[u8; 4] = b"BWCJ";
const JOURNAL_FORMAT_VERSION: u16 = 1;

/// Appends are fsync'd whenever this many records have accumulated
/// since the last sync (and once more when the run finishes).
const SYNC_BATCH: u64 = 4;

/// One journaled completion: a manifest entry key and the cache key its
/// result was stored under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The manifest entry key (path as written).
    pub key: String,
    /// The content-addressed cache key of the stored result.
    pub cache_key: CacheKey,
}

/// Where `load` found the completed-entry set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalSource {
    /// No journal on disk: nothing to resume.
    Absent,
    /// The newest journal was readable.
    Primary,
    /// The newest journal's header was torn; the `journal.prev`
    /// ancestor was used instead.
    Ancestor,
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal")
}

fn prev_path(dir: &Path) -> PathBuf {
    dir.join("journal.prev")
}

fn header() -> Vec<u8> {
    let mut buf = Vec::with_capacity(6);
    buf.extend_from_slice(JOURNAL_MAGIC);
    buf.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
    buf
}

fn encode_record(entry: &JournalEntry) -> Vec<u8> {
    let mut payload = Vec::with_capacity(entry.key.len() + 10);
    codec::put_varint(&mut payload, entry.key.len() as u64);
    payload.extend_from_slice(entry.key.as_bytes());
    codec::put_u64_le(&mut payload, entry.cache_key.as_u64());
    let mut frame = Vec::with_capacity(payload.len() + 8);
    codec::put_u32_le(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    codec::put_u32_le(&mut frame, codec::crc32(&payload));
    frame
}

/// Parses one journal file. `None` means the header itself was missing
/// or torn (fall back to the ancestor); `Some` returns every record up
/// to the first torn frame — a torn *tail* is the normal crash shape
/// and keeps the valid prefix.
fn parse_file(path: &Path) -> Option<Vec<JournalEntry>> {
    let bytes = fs::read(path).ok()?;
    let mut cur = Cursor::new(&bytes);
    if cur.take(4).ok()? != JOURNAL_MAGIC || cur.get_u16_le().ok()? != JOURNAL_FORMAT_VERSION {
        return None;
    }
    let mut entries = Vec::new();
    while !cur.is_empty() {
        let Ok(len) = cur.get_u32_le() else { break };
        let Ok(payload) = cur.take(len as usize) else {
            break;
        };
        let Ok(crc) = cur.get_u32_le() else { break };
        if codec::crc32(payload) != crc {
            break;
        }
        let mut p = Cursor::new(payload);
        let Ok(key_len) = p.get_varint() else { break };
        let Ok(key_bytes) = p.take(key_len as usize) else {
            break;
        };
        let Ok(key) = std::str::from_utf8(key_bytes) else {
            break;
        };
        let Ok(cache_key) = p.get_u64_le() else { break };
        if !p.is_empty() {
            break;
        }
        entries.push(JournalEntry {
            key: key.to_owned(),
            cache_key: CacheKey::from_u64(cache_key),
        });
    }
    Some(entries)
}

/// Loads the completed-entry set for a resume: the newest journal if
/// its header is intact, else the `journal.prev` ancestor.
pub fn load(dir: &Path) -> (Vec<JournalEntry>, JournalSource) {
    let primary = journal_path(dir);
    if let Some(entries) = parse_file(&primary) {
        return (entries, JournalSource::Primary);
    }
    let had_primary = primary.exists();
    if let Some(entries) = parse_file(&prev_path(dir)) {
        return (entries, JournalSource::Ancestor);
    }
    let source = if had_primary {
        // The newest journal exists but is unreadable and there is no
        // ancestor: resume starts from nothing.
        JournalSource::Ancestor
    } else {
        JournalSource::Absent
    };
    (Vec::new(), source)
}

/// The open, appendable journal for one run.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    file: fs::File,
    unsynced: u64,
    /// Set after a failed append: the on-disk prefix stays valid and
    /// later appends are dropped rather than written after torn bytes.
    poisoned: bool,
}

impl Journal {
    /// Starts a *fresh* journal for a non-resume run: any existing
    /// journal rotates to `journal.prev` first. Returns `None` when the
    /// directory is unwritable (the run simply goes unjournaled).
    pub fn fresh(dir: &Path) -> Option<Journal> {
        let path = journal_path(dir);
        if path.exists() {
            let _ = fs::rename(&path, prev_path(dir));
        }
        Journal::create(dir, &[])
    }

    /// Starts the journal for a resume: compacts `completed` into a new
    /// journal via temp file + rotation, then appends continue after it.
    pub fn resumed(dir: &Path, completed: &[JournalEntry]) -> Option<Journal> {
        Journal::create(dir, completed)
    }

    fn create(dir: &Path, completed: &[JournalEntry]) -> Option<Journal> {
        let path = journal_path(dir);
        let tmp = dir.join(format!("journal.tmp{}", std::process::id()));
        let mut bytes = header();
        for entry in completed {
            bytes.extend_from_slice(&encode_record(entry));
        }
        let write = (|| -> std::io::Result<fs::File> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            drop(file);
            if path.exists() {
                fs::rename(&path, prev_path(dir))?;
            }
            fs::rename(&tmp, &path)?;
            fs::OpenOptions::new().append(true).open(&path)
        })();
        match write {
            Ok(file) => Some(Journal {
                inner: Mutex::new(Inner {
                    file,
                    unsynced: 0,
                    poisoned: false,
                }),
            }),
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                None
            }
        }
    }

    /// Appends one completed entry, fsync'ing every `SYNC_BATCH` (4)
    /// records. Contained: an injected fault at `corpus.journal_append`
    /// or an I/O error drops this and all later appends instead of
    /// tearing the valid prefix.
    pub fn append(&self, entry: &JournalEntry) {
        let frame = encode_record(entry);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if inner.poisoned {
            return;
        }
        let outcome = supervisor::catch(|| {
            bwsa_resilience::failpoint!(failpoints::JOURNAL_APPEND);
            inner.file.write_all(&frame)
        });
        match outcome {
            Ok(Ok(())) => {
                inner.unsynced += 1;
                if inner.unsynced >= SYNC_BATCH {
                    let _ = inner.file.sync_data();
                    inner.unsynced = 0;
                }
            }
            _ => inner.poisoned = true,
        }
    }

    /// Final fsync at the end of a run.
    pub fn finish(&self) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if inner.unsynced > 0 {
            let _ = inner.file.sync_data();
            inner.unsynced = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bwsa_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn entry(key: &str, cache_key: u64) -> JournalEntry {
        JournalEntry {
            key: key.to_owned(),
            cache_key: CacheKey::from_u64(cache_key),
        }
    }

    #[test]
    fn append_load_roundtrip() {
        let dir = scratch("roundtrip");
        let journal = Journal::fresh(&dir).expect("create journal");
        journal.append(&entry("a.bwss", 1));
        journal.append(&entry("b.bwss", 2));
        journal.finish();
        let (entries, source) = load(&dir);
        assert_eq!(source, JournalSource::Primary);
        assert_eq!(entries, vec![entry("a.bwss", 1), entry("b.bwss", 2)]);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let dir = scratch("torntail");
        let journal = Journal::fresh(&dir).expect("create journal");
        journal.append(&entry("a.bwss", 1));
        journal.append(&entry("b.bwss", 2));
        journal.finish();
        drop(journal);
        let path = journal_path(&dir);
        let bytes = fs::read(&path).expect("read journal");
        // Chop into the middle of the second frame.
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear journal");
        let (entries, source) = load(&dir);
        assert_eq!(source, JournalSource::Primary);
        assert_eq!(entries, vec![entry("a.bwss", 1)]);
    }

    #[test]
    fn torn_header_falls_back_to_the_rotated_ancestor() {
        let dir = scratch("ancestor");
        let journal = Journal::fresh(&dir).expect("first run journal");
        journal.append(&entry("a.bwss", 1));
        journal.finish();
        drop(journal);
        // Second run rotates the first journal to journal.prev.
        let journal = Journal::fresh(&dir).expect("second run journal");
        journal.append(&entry("a.bwss", 1));
        journal.append(&entry("b.bwss", 2));
        journal.finish();
        drop(journal);
        assert!(prev_path(&dir).exists(), "rotation left an ancestor");
        // Tear the newest journal's header: the ancestor answers.
        fs::write(journal_path(&dir), b"BW").expect("tear header");
        let (entries, source) = load(&dir);
        assert_eq!(source, JournalSource::Ancestor);
        assert_eq!(entries, vec![entry("a.bwss", 1)]);
    }

    #[test]
    fn resume_compacts_and_rotates() {
        let dir = scratch("compact");
        let journal = Journal::fresh(&dir).expect("create journal");
        journal.append(&entry("a.bwss", 1));
        journal.finish();
        drop(journal);
        let (completed, _) = load(&dir);
        let journal = Journal::resumed(&dir, &completed).expect("resume journal");
        journal.append(&entry("b.bwss", 2));
        journal.finish();
        drop(journal);
        assert!(prev_path(&dir).exists(), "compaction rotated the old file");
        let (entries, source) = load(&dir);
        assert_eq!(source, JournalSource::Primary);
        assert_eq!(entries, vec![entry("a.bwss", 1), entry("b.bwss", 2)]);
    }

    #[test]
    fn injected_append_fault_poisons_instead_of_tearing() {
        let dir = scratch("fault");
        let journal = Journal::fresh(&dir).expect("create journal");
        journal.append(&entry("a.bwss", 1));
        {
            let _fp = bwsa_resilience::failpoint::scoped("corpus.journal_append=error(chaos)")
                .expect("arm failpoint");
            journal.append(&entry("b.bwss", 2));
        }
        // Poisoned: later appends are dropped, the prefix stays valid.
        journal.append(&entry("c.bwss", 3));
        journal.finish();
        drop(journal);
        let (entries, source) = load(&dir);
        assert_eq!(source, JournalSource::Primary);
        assert_eq!(entries, vec![entry("a.bwss", 1)]);
    }

    #[test]
    fn missing_journal_is_an_empty_resume() {
        let dir = scratch("absent");
        let (entries, source) = load(&dir);
        assert!(entries.is_empty());
        assert_eq!(source, JournalSource::Absent);
    }
}
