//! Zero-copy trace ingest: memory-mapped file bytes with a buffered-read
//! fallback.
//!
//! [`TraceBytes::open`] memory-maps a regular file read-only on Unix so
//! [`crate::decode`] and the streaming columnar analysis scan pages
//! straight out of the page cache, with no copy into a heap buffer.
//! Pipes, empty files, non-Unix targets, and any mmap failure fall back
//! to an ordinary whole-file read; callers only ever see a byte slice.
//! A reader done with part of the slice hands it to [`release`], which
//! drops the mapped pages under it from memory.
//!
//! This is the one module in the crate allowed to use `unsafe` (the raw
//! `mmap`/`munmap`/`madvise` calls); everything else remains
//! `deny(unsafe_code)`.
//!
//! # Example
//!
//! ```no_run
//! use bwsa_trace::mmap::TraceBytes;
//!
//! let bytes = TraceBytes::open("trace.bws3".as_ref())?;
//! assert!(bytes.len() > 0);
//! # Ok::<(), bwsa_trace::TraceError>(())
//! ```

use crate::TraceError;
use std::fs::File;
use std::ops::Deref;
use std::path::Path;

/// File bytes for ingest: memory-mapped when possible, owned otherwise.
///
/// Dereferences to `[u8]`, so decoders take `&[u8]` and never know which
/// path produced it.
#[derive(Debug)]
pub enum TraceBytes {
    /// A read-only, privately mapped view of the file.
    #[cfg(unix)]
    Mapped(Mmap),
    /// A heap copy (fallback for pipes, empty files, or mmap failure).
    Owned(Vec<u8>),
}

impl TraceBytes {
    /// Opens `path`, preferring a read-only memory map.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the file cannot be opened or (on
    /// the fallback path) read.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = File::open(path)?;
        Self::from_file(&file)
    }

    /// Maps an already-open file, falling back to reading it whole.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the fallback read fails.
    pub fn from_file(file: &File) -> Result<Self, TraceError> {
        #[cfg(unix)]
        {
            if let Ok(meta) = file.metadata() {
                if meta.is_file() && meta.len() > 0 {
                    if let Some(map) = Mmap::map(file, meta.len() as usize) {
                        return Ok(TraceBytes::Mapped(map));
                    }
                }
            }
        }
        let mut buf = Vec::new();
        let mut reader = file;
        std::io::Read::read_to_end(&mut reader, &mut buf)?;
        Ok(TraceBytes::Owned(buf))
    }

    /// Wraps an in-memory buffer (no file involved).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        TraceBytes::Owned(bytes)
    }

    /// Returns `true` when the bytes come from a memory map rather than
    /// a heap copy.
    pub fn is_mapped(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(self, TraceBytes::Mapped(_))
        }
        #[cfg(not(unix))]
        {
            false
        }
    }
}

impl Deref for TraceBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            TraceBytes::Mapped(map) => map.as_slice(),
            TraceBytes::Owned(buf) => buf,
        }
    }
}

/// Drops from the process's resident set the pages of a [`TraceBytes`]
/// mapping under `bytes`, from the 64 KiB boundary at or before its start
/// to the one at or before its end, for a reader done with them: the page
/// cache keeps them, and a later read faults them back in. Does nothing
/// for bytes outside every live mapping, such as a heap buffer.
pub fn release(bytes: &[u8]) {
    #[cfg(unix)]
    unix::release(bytes);
    #[cfg(not(unix))]
    let _ = bytes;
}

#[cfg(unix)]
pub use unix::Mmap;

#[cfg(unix)]
mod unix {
    //! The raw `mmap(2)` wrapper. `std` already links libc on Unix, so
    //! the syscall wrappers are declared directly instead of pulling in
    //! the `libc` crate.
    #![allow(unsafe_code)]

    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_DONTNEED: i32 = 4;
    /// [`release`]'s granularity: a multiple of every common page size.
    const GRANULE: usize = 64 << 10;

    /// The live mappings as `(start, len)`, so that [`release`] advises
    /// only pages of one; [`Mmap`]'s drop unmaps under the lock.
    static LIVE: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

    /// The list, also after a panic elsewhere: every update (a push or a
    /// retain) leaves it valid, and `Drop` must not panic.
    fn live() -> MutexGuard<'static, Vec<(usize, usize)>> {
        LIVE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    pub(super) fn release(bytes: &[u8]) {
        let from = bytes.as_ptr() as usize;
        let to = from + bytes.len();
        let live = live();
        let Some(&(start, _)) = live.iter().find(|&&(s, len)| s <= from && to <= s + len) else {
            return;
        };
        let start = (from / GRANULE * GRANULE).max(start);
        let end = to / GRANULE * GRANULE;
        if start < end {
            // SAFETY: [start, end) is page-aligned (a mapping starts on a
            // page, GRANULE is a multiple of the page size) and lies in a
            // live PROT_READ, MAP_PRIVATE file mapping that the held lock
            // keeps mapped. Such pages are never written, so dropping them
            // only makes the next read fault the file's bytes back in:
            // the same bytes, under the condition every read of a file
            // mapping already relies on, that the file does not change.
            unsafe {
                madvise(start as *mut c_void, end - start, MADV_DONTNEED);
            }
        }
    }

    /// An owned read-only `MAP_PRIVATE` mapping, unmapped on drop.
    #[derive(Debug)]
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ-only and exclusively owned by this
    // struct for its whole lifetime, so shared cross-thread reads and a
    // Drop on any thread are sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only; `None` on any failure
        /// (callers fall back to a buffered read).
        pub(super) fn map(file: &File, len: usize) -> Option<Mmap> {
            if len == 0 {
                return None;
            }
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we
            // hold open; the kernel validates the fd and length, and a
            // MAP_FAILED return is handled below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return None;
            }
            live().push((ptr as usize, len));
            Some(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until Drop unmaps it.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }

        /// Number of mapped bytes.
        pub fn len(&self) -> usize {
            self.len
        }

        /// Always `false`: zero-length maps are never constructed.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            let mut live = live();
            live.retain(|&(start, _)| start != self.ptr as usize);
            // SAFETY: `ptr`/`len` describe the mapping created in `map`,
            // unmapped exactly once here.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::io::Write as _;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bwsa-mmap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn regular_file_is_mapped_and_readable() {
        let path = temp_path("regular");
        std::fs::write(&path, b"BWS3 hello mapped world").unwrap();
        let bytes = TraceBytes::open(&path).unwrap();
        assert_eq!(&bytes[..4], b"BWS3");
        assert_eq!(bytes.len(), 23);
        #[cfg(unix)]
        assert!(bytes.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_falls_back_to_owned() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let bytes = TraceBytes::open(&path).unwrap();
        assert!(bytes.is_empty());
        assert!(!bytes.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn released_pages_read_back_unchanged() {
        let path = temp_path("release");
        let data: Vec<u8> = (0..(1u32 << 20)).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let bytes = TraceBytes::open(&path).unwrap();
        assert_eq!(&bytes[..], &data[..]);
        release(&bytes[1000..700_000]);
        release(&bytes);
        assert_eq!(&bytes[..], &data[..]);
        // Heap bytes are outside every mapping: left as they are.
        let owned = TraceBytes::from_vec(data.clone());
        release(&owned);
        assert_eq!(&owned[..], &data[..]);
        drop(bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pipe_like_source_falls_back_to_owned() {
        // A file opened after seeking/teeing still works via from_file;
        // simulate the non-mmap branch with an owned buffer.
        let bytes = TraceBytes::from_vec(vec![1, 2, 3]);
        assert!(!bytes.is_mapped());
        assert_eq!(&*bytes, &[1, 2, 3]);
    }

    #[test]
    fn mapped_bytes_survive_many_reads() {
        let path = temp_path("large");
        let mut f = std::fs::File::create(&path).unwrap();
        let chunk = [0xABu8; 4096];
        for _ in 0..8 {
            f.write_all(&chunk).unwrap();
        }
        drop(f);
        let bytes = TraceBytes::open(&path).unwrap();
        assert_eq!(bytes.len(), 8 * 4096);
        assert!(bytes.iter().all(|&b| b == 0xAB));
        std::fs::remove_file(&path).unwrap();
    }
}
