//! Zero-copy trace ingest: memory-mapped file bytes with a buffered-read
//! fallback.
//!
//! [`TraceBytes::open`] memory-maps a regular file read-only on Unix so
//! [`crate::decode`] and the streaming columnar analysis scan pages
//! straight out of the page cache, with no copy into a heap buffer.
//! Pipes, empty files, non-Unix targets, and any mmap failure fall back
//! to an ordinary whole-file read; callers only ever see a byte slice.
//!
//! This is the one module in the crate allowed to use `unsafe` (the raw
//! `mmap`/`munmap` calls); everything else remains `deny(unsafe_code)`.
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

#[cfg(unix)]
pub use unix::Mmap;

#[cfg(unix)]
mod unix {
    //! The raw `mmap(2)` wrapper. `std` already links libc on Unix, so
    //! the two syscall wrappers are declared directly instead of pulling
    //! in the `libc` crate.
    #![allow(unsafe_code)]

    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

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
