//! The one spill file: where a byte budget (`--rrr-budget`) puts what it
//! keeps out of RAM. The inverted index ([`crate::SampleIndex`]) spills its
//! sealed segments through it and reads them back through
//! [`SpillFile::read_at`] alone.
//!
//! A file is created in `TMPDIR` on its first append, only ever appended
//! to, read with positioned reads through `&self`, and removed when its
//! owner drops it. An append that fails (`TMPDIR` missing, read-only or
//! full) warns once on stderr, is counted, and ends spilling for that file:
//! the owner keeps the bytes resident and the run completes over budget.
//! Reading back is different: once the only copy of some bytes is on disk,
//! a vanished or truncated file is not recoverable, and the read panics
//! naming the file.

use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic suffix for spill-file names, so that concurrent spill files in
/// one process never collide.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// An append-only temp file of spilled bytes; see the module docs.
#[derive(Debug)]
pub(crate) struct SpillFile {
    path: PathBuf,
    file: Option<File>,
    /// Bytes appended so far: the file's length and the bytes written.
    len: u64,
    /// Failed creations or appends; nonzero ends spilling.
    failures: u64,
    /// What the owner keeps resident when an append fails, for the warning.
    what: &'static str,
}

impl SpillFile {
    /// A file to be created on first append, for an owner that keeps `what`
    /// resident when it cannot be written.
    pub(crate) fn new(what: &'static str) -> Self {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ripples-spill-{}-{seq}.rrr", std::process::id()));
        Self {
            path,
            file: None,
            len: 0,
            failures: 0,
            what,
        }
    }

    /// Whether appends may still go to disk: false for good after one failed.
    pub(crate) fn writable(&self) -> bool {
        self.failures == 0
    }

    /// Writes `parts` back to back at the end of the file, creating it on
    /// first use, and returns the offset of the first byte. On failure it
    /// warns, counts, and returns `None`; nothing refers to what a partial
    /// write may have left past the end.
    pub(crate) fn append(&mut self, parts: &[&[u8]]) -> Option<u64> {
        let at = self.len;
        match self.write_at(at, parts) {
            Ok(written) => {
                self.len += written;
                Some(at)
            }
            Err(e) => {
                self.failures += 1;
                eprintln!(
                    "warning: cannot write spill file {:?}: {e}; \
                     keeping {} resident beyond --rrr-budget",
                    self.path, self.what
                );
                None
            }
        }
    }

    fn write_at(&mut self, mut at: u64, parts: &[&[u8]]) -> std::io::Result<u64> {
        if self.file.is_none() {
            self.file = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .read(true)
                    .write(true)
                    .open(&self.path)?,
            );
        }
        let file = self.file.as_ref().expect("spill file just opened");
        let start = at;
        for part in parts {
            write_all_at(file, part, at)?;
            at += part.len() as u64;
        }
        Ok(at - start)
    }

    /// Fills `buf` from the bytes appended at `offset`.
    ///
    /// # Panics
    ///
    /// Panics, naming the file, if it cannot be read there.
    pub(crate) fn read_at(&self, offset: u64, buf: &mut [u8]) {
        let file = self
            .file
            .as_ref()
            .expect("a spilled read without a spill file");
        read_exact_at(file, buf, offset)
            .unwrap_or_else(|e| panic!("cannot read spill file {:?}: {e}", self.path));
    }

    /// Bytes written to the file over its lifetime.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.len
    }

    /// Creations or appends that failed.
    pub(crate) fn write_failures(&self) -> u64 {
        self.failures
    }

    /// Where the file is, or will be once something is appended.
    #[cfg(test)]
    pub(crate) fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, bytes: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, bytes, offset)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn write_all_at(mut file: &File, bytes: &[u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek as _, SeekFrom, Write as _};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)
}

#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_read_back_and_the_file_goes_with_its_owner() {
        let mut spill = SpillFile::new("test bytes");
        assert!(!spill.path().exists(), "no file before the first append");
        assert_eq!(spill.append(&[b"abc", b"de"]), Some(0));
        assert_eq!(spill.append(&[b"fgh"]), Some(5));
        assert_eq!(spill.bytes_written(), 8);
        let mut buf = [0u8; 4];
        spill.read_at(3, &mut buf);
        assert_eq!(&buf, b"defg");
        let path = spill.path().to_path_buf();
        assert!(path.exists());
        drop(spill);
        assert!(!path.exists(), "the file is removed on drop");
    }
}
