//! A counting wrapper around the temp-dir `DiskStore`, owned by the
//! benchmark, so reads per query and write amplification are measured
//! from outside the storage crate.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bindex::storage::{ByteStore, DiskStore};

use crate::trace;

#[derive(Debug, Default)]
pub struct IoCounters {
    pub reads: AtomicU64,
    pub bytes_read: AtomicU64,
    pub files_written: AtomicU64,
    pub bytes_written: AtomicU64,
    /// fsync calls the wrapped `DiskStore` makes: two per atomic file
    /// write (file, then directory), one per explicit sync, one per
    /// removal (directory).
    pub syncs: AtomicU64,
}

/// A plain copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoSnapshot {
    pub reads: u64,
    pub bytes_read: u64,
    pub files_written: u64,
    pub bytes_written: u64,
    pub syncs: u64,
}

impl IoCounters {
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            files_written: self.files_written.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            files_written: self.files_written - earlier.files_written,
            bytes_written: self.bytes_written - earlier.bytes_written,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

pub struct CountingStore {
    inner: DiskStore,
    counters: Arc<IoCounters>,
}

impl CountingStore {
    pub fn open(dir: &Path, counters: Arc<IoCounters>) -> io::Result<Self> {
        Ok(Self {
            inner: DiskStore::open(dir)?,
            counters,
        })
    }
}

impl ByteStore for CountingStore {
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let _span = trace::span("storage.io");
        self.inner.write_file(name, data)?;
        bump(&self.counters.files_written, 1);
        bump(&self.counters.bytes_written, data.len() as u64);
        bump(&self.counters.syncs, 2);
        Ok(())
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        let _span = trace::span("storage.io");
        let bytes = self.inner.read_file(name)?;
        bump(&self.counters.reads, 1);
        bump(&self.counters.bytes_read, bytes.len() as u64);
        Ok(bytes)
    }

    fn file_size(&self, name: &str) -> io::Result<u64> {
        self.inner.file_size(name)
    }

    fn file_names(&self) -> io::Result<Vec<String>> {
        self.inner.file_names()
    }

    fn append_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let _span = trace::span("storage.io");
        self.inner.append_file(name, data)?;
        bump(&self.counters.bytes_written, data.len() as u64);
        Ok(())
    }

    fn sync_file(&mut self, name: &str) -> io::Result<()> {
        let _span = trace::span("storage.io");
        self.inner.sync_file(name)?;
        bump(&self.counters.syncs, 1);
        Ok(())
    }

    fn remove_file(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove_file(name)?;
        bump(&self.counters.syncs, 1);
        Ok(())
    }
}
