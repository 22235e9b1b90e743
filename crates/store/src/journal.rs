//! One shard's journal file: open-with-recovery, append, sync.
//!
//! A [`ShardJournal`] owns one append-only file. Opening streams the
//! whole file through a [`RecordStream`](crate::RecordStream) — one
//! fixed window, whatever the file's size — truncates any torn tail (a
//! partial record left by a crash mid-append), and leaves the handle
//! positioned at the end of the valid prefix. A read that fails while
//! recovering is an error, not a tail: the open fails and the file is
//! not touched.
//!
//! Records are encoded into one write buffer and reach the file whole
//! and in order: outside a scope every append is a single `write_all` of
//! one framed record; inside one ([`begin`](ShardJournal::begin) …
//! [`commit`](ShardJournal::commit)) the scope's records go out as a
//! single `write_all` at commit. Either way a crash can only ever tear
//! the *last* record written — which the next open drops.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use talus_core::codec::DecodeError;

use crate::record::StoreError;
use crate::stream::records_from;

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

/// Recovers `file`, whose contents `reader` yields from the first byte:
/// streams them through the decoder, truncates any torn tail, and seeks
/// to the end of the valid prefix.
///
/// Nothing is written unless the whole file was read and decoded to a
/// verdict: a failed read is [`DecodeError::Io`] and a record of another
/// format version is [`DecodeError::BadVersion`], and either leaves the
/// file exactly as it was.
fn recover(mut file: &File, reader: impl Read) -> Result<ShardRecovery, StoreError> {
    let len = file.metadata()?.len();
    let mut recovery = ShardRecovery::default();
    let mut stream = records_from(reader.take(len));
    for rec in stream.by_ref() {
        let rec = rec?;
        recovery.records += 1;
        recovery.max_seq = recovery.max_seq.max(Some(rec.seq()));
    }
    if let Some(foreign @ StoreError::Decode(DecodeError::BadVersion { .. })) = stream.tail() {
        return Err(foreign.clone());
    }
    // The stream ended without a read error, so `valid` is a verdict on
    // all `len` bytes: what follows it is a torn tail.
    let valid = stream.consumed();
    if valid < len {
        file.set_len(valid)?;
    }
    file.seek(SeekFrom::Start(valid))?;
    recovery.torn_bytes = usize::try_from(len - valid).unwrap_or(usize::MAX);
    recovery.tail = stream.tail().cloned();
    Ok(recovery)
}

impl ShardJournal {
    /// Opens (creating if absent) and recovers the journal at `path`;
    /// see [`recover`]. Returns the journal and the recovery report.
    pub(crate) fn open(path: &Path) -> Result<(Self, ShardRecovery), StoreError> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let recovery = recover(&file, &file)?;
        let journal = ShardJournal {
            file,
            pending: Vec::new(),
            scoped: false,
        };
        Ok((journal, recovery))
    }

    /// Bytes of the file that are whole lock scopes: everything written
    /// so far, as seen by a caller holding the journal's lock (no write
    /// is in flight, and a scope's records go out in one write). A
    /// reader of that prefix can never see a half-written record.
    pub(crate) fn committed_len(&self) -> Result<u64, StoreError> {
        Ok(self.file.metadata()?.len())
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
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), DecodeError>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, Record};

    /// Yields the first `good` bytes of `file`, then fails.
    struct FailsMidFile<'a> {
        file: &'a File,
        good: u64,
    }

    impl Read for FailsMidFile<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.good == 0 {
                return Err(std::io::ErrorKind::Other.into());
            }
            let n = self.file.take(self.good).read(buf)?;
            self.good -= n as u64;
            Ok(n)
        }
    }

    /// Everything in `file`, through the handle recovery used.
    fn contents(mut file: &File) -> Vec<u8> {
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0)).unwrap();
        std::io::copy(&mut file, &mut bytes).unwrap();
        bytes
    }

    /// A read that fails part-way through recovery fails the open and
    /// changes nothing: not the file's length, not a byte of it — even
    /// when the bytes read so far end mid-record, where folding the error
    /// into a tail would have truncated every record after the failure.
    #[test]
    fn a_read_error_during_recovery_truncates_nothing() {
        let path = std::env::temp_dir().join(format!(
            "talus-store-recover-read-error-{}.talus",
            std::process::id()
        ));
        let mut bytes = Vec::new();
        for seq in 0..6 {
            bytes.extend_from_slice(&encode_record(&Record::Deregister { seq, id: seq }));
        }
        let record_len = bytes.len() as u64 / 6;
        bytes.extend_from_slice(&[0xAB; 7]); // a torn tail a clean open drops
        std::fs::write(&path, &bytes).unwrap();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();

        // Fails at a record boundary, inside a record, and inside the tail.
        for good in [2 * record_len, 3 * record_len + 5, 6 * record_len + 3] {
            (&file).seek(SeekFrom::Start(0)).unwrap();
            let failing = FailsMidFile { file: &file, good };
            assert_eq!(
                recover(&file, failing),
                Err(StoreError::Decode(DecodeError::Io(
                    std::io::ErrorKind::Other
                ))),
                "failing after {good} bytes"
            );
            assert_eq!(contents(&file), bytes, "after {good} bytes");
        }

        // The same file, read to the end, recovers as ever.
        (&file).seek(SeekFrom::Start(0)).unwrap();
        let recovery = recover(&file, &file).unwrap();
        assert_eq!((recovery.records, recovery.torn_bytes), (6, 7));
        assert_eq!(recovery.max_seq, Some(5));
        assert_eq!(contents(&file), bytes[..bytes.len() - 7]);
        std::fs::remove_file(&path).ok();
    }
}
