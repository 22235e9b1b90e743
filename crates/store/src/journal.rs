//! One shard's journal file: open-with-recovery, append, sync.
//!
//! A [`ShardJournal`] owns one append-only file. Opening streams the
//! whole file through [`records`](crate::record::records), truncates any
//! torn tail (a partial record left by a crash mid-append), and leaves
//! the handle positioned at the end of the valid prefix. Records are
//! encoded into one write buffer and reach the file whole and in order:
//! outside a scope every append is a single `write_all` of one framed
//! record; inside one ([`begin`](ShardJournal::begin) …
//! [`commit`](ShardJournal::commit)) the scope's records go out as a
//! single `write_all` at commit. Either way a crash can only ever tear
//! the *last* record written — which the next open drops.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::record::{records, StoreError};

/// What opening one shard file found and did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardRecovery {
    /// Intact records replayed from the valid prefix.
    pub records: usize,
    /// Largest `seq` seen in the valid prefix (`None` if empty).
    pub max_seq: Option<u64>,
    /// Torn-tail bytes truncated off the end of the file.
    pub torn_bytes: usize,
    /// Why the tail failed to decode, if it did.
    pub tail: Option<StoreError>,
}

/// One shard's append-only journal file (always opened with recovery).
#[derive(Debug)]
pub(crate) struct ShardJournal {
    file: File,
    /// Framed records not yet written. Empty whenever no scope is open.
    pending: Vec<u8>,
    /// Whether a scope is open: appends stay in `pending` until commit.
    scoped: bool,
}

impl ShardJournal {
    /// Opens (creating if absent) and recovers the journal at `path`:
    /// streams the existing contents through the decoder, truncates any
    /// torn tail, and seeks to the end of the valid prefix. Returns the
    /// journal and the recovery report.
    ///
    /// A record of another format version is not a torn tail: the open
    /// fails with [`StoreError::BadVersion`] and the file is left exactly
    /// as it was.
    pub(crate) fn open(path: &Path) -> Result<(Self, ShardRecovery), StoreError> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut recovery = ShardRecovery::default();
        let mut scanned = records(&buf);
        for rec in scanned.by_ref() {
            recovery.records += 1;
            recovery.max_seq = recovery.max_seq.max(Some(rec.seq()));
        }
        if let Some(foreign @ StoreError::BadVersion { .. }) = scanned.tail() {
            return Err(foreign.clone());
        }
        recovery.torn_bytes = buf.len() - scanned.consumed();
        if recovery.torn_bytes > 0 {
            file.set_len(scanned.consumed() as u64)?;
        }
        file.seek(SeekFrom::Start(scanned.consumed() as u64))?;
        recovery.tail = scanned.tail().cloned();
        let journal = ShardJournal {
            file,
            pending: Vec::new(),
            scoped: false,
        };
        Ok((journal, recovery))
    }

    /// Opens a scope: until [`commit`](ShardJournal::commit), appends
    /// are buffered instead of written.
    pub(crate) fn begin(&mut self) {
        self.scoped = true;
    }

    /// Closes the scope and writes everything it buffered with a single
    /// `write_all`.
    pub(crate) fn commit(&mut self) -> Result<(), StoreError> {
        self.scoped = false;
        self.flush()
    }

    /// Appends the one framed record `encode` adds to the write buffer:
    /// buffered if a scope is open, otherwise written before returning
    /// (a single `write_all`, so a crash mid-append leaves at most a
    /// torn tail). An `encode` that refuses its record has added nothing;
    /// its error is returned and the buffer stays as it was.
    pub(crate) fn append(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        encode(&mut self.pending)?;
        if self.scoped {
            return Ok(());
        }
        self.flush()
    }

    /// Writes the buffered records, if any. The buffer is emptied even
    /// when the write fails: the store stops journaling on the first
    /// error, and a partial write is a torn tail the next open drops.
    fn flush(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&self.pending);
        self.pending.clear();
        Ok(written?)
    }

    /// Flushes the file to stable storage (`fsync`), writing any
    /// buffered records first. Appends survive *process* death without
    /// this; call it when the journal must also survive OS or power
    /// failure.
    pub(crate) fn sync(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        self.file.sync_data()?;
        Ok(())
    }
}
