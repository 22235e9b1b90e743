//! [`RecordStream`]: the records of a journal read through one fixed
//! window — the only way a shard file is read.

use std::io::{ErrorKind, Read};

use talus_core::codec::DecodeError;
use talus_core::limits::STORE_MAX_RECORD_LEN;

use crate::record::{
    decode_record_in, framed_len, LastGrid, Record, Scan, StoreError, RECORD_HEADER_LEN,
};

/// Bytes of the one buffer a [`RecordStream`] reads through: what
/// opening, restoring, dumping or querying a journal holds of each file
/// being read, whatever the journal's size.
pub const STREAM_WINDOW_LEN: usize = 1 << 20;

// The largest legal record must fit whole, or the stream could not
// decode it without growing.
const _: () = assert!(STREAM_WINDOW_LEN >= RECORD_HEADER_LEN + STORE_MAX_RECORD_LEN as usize);

/// A streaming iterator over the records a reader yields, read through
/// one fixed window.
///
/// [`records`](crate::records) decodes a journal that is already in
/// memory. A shard file is not: it grows for as long as the plane runs,
/// and a restart that read it whole would cost memory in proportion to
/// the journal's history, not to the state it rebuilds. `RecordStream`
/// pulls the same bytes from any [`Read`] through a window of
/// [`STREAM_WINDOW_LEN`] bytes, runs the same
/// [`decode_record`](crate::decode_record) over it, and gives the same
/// records, the same [`consumed`](RecordStream::consumed) and the same
/// [`tail`](RecordStream::tail) as `records` over the whole file would.
/// The window is allocated once and never grows: it is sized at compile
/// time to hold the largest record the format allows, so there is
/// nothing to tune and no input that makes it bigger.
///
/// Items are `Ok(record)` for each record of the valid prefix, in order,
/// then at most one `Err` — a failed read, never a decode failure — and
/// then nothing. Once it has returned `None` without an `Err`,
/// `consumed` is the length of the valid prefix and `tail` says why the
/// stream ended there.
///
/// ## A read error is not a torn tail
///
/// A *tail* is a statement about the bytes: the journal's valid prefix
/// ends here, and recovery may cut the rest off. A failed `read` says
/// nothing about the bytes, so it is kept apart: the stream yields it as
/// its one `Err` item, then ends, and `tail` stays `None`. A caller that
/// truncates must have seen the stream end without an `Err` first —
/// [`Store::open`](crate::Store::open) returns the error and leaves the
/// file as it was.
///
/// ```
/// use talus_store::{encode_record, records_from, Record};
///
/// let mut journal = encode_record(&Record::Deregister { seq: 0, id: 7 });
/// journal.extend_from_slice(&[0xAB; 5]); // a torn tail
/// let mut stream = records_from(&journal[..]);
/// assert_eq!(stream.next(), Some(Ok(Record::Deregister { seq: 0, id: 7 })));
/// assert_eq!(stream.next(), None);
/// assert_eq!(stream.consumed(), journal.len() as u64 - 5);
/// assert!(stream.tail().is_some());
/// ```
#[derive(Debug)]
pub struct RecordStream<R> {
    reader: R,
    /// The window: [`STREAM_WINDOW_LEN`] bytes, allocated once.
    /// `window[start..end]` are the bytes read and not yet decoded.
    window: Vec<u8>,
    start: usize,
    end: usize,
    /// The reader has reported end of input.
    eof: bool,
    consumed: u64,
    tail: Option<StoreError>,
    /// A read failed (and was yielded): the stream is over.
    failed: bool,
    /// The stream's curves share a grid while their sizes do.
    grids: LastGrid,
}

/// Streams the records `reader` yields; see [`RecordStream`].
pub fn records_from<R: Read>(reader: R) -> RecordStream<R> {
    RecordStream {
        reader,
        window: vec![0; STREAM_WINDOW_LEN],
        start: 0,
        end: 0,
        eof: false,
        consumed: 0,
        tail: None,
        failed: false,
        grids: LastGrid::default(),
    }
}

impl<R: Read> RecordStream<R> {
    /// Bytes of the records returned so far — the whole valid prefix
    /// once the stream is exhausted.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Why the stream stopped before the end of its input, if it did
    /// (`None` = still going, ended exactly at a record boundary, or
    /// ended on a read error).
    pub fn tail(&self) -> Option<&StoreError> {
        self.tail.as_ref()
    }

    /// Bytes allocated for the stream's buffer: [`STREAM_WINDOW_LEN`],
    /// from the first record to the last.
    pub fn capacity(&self) -> usize {
        self.window.capacity()
    }

    /// Collects the rest of the stream: [`scan`](crate::scan) for a
    /// reader. Holds every record at once, so it is for callers that
    /// want them all (tests, small journals).
    ///
    /// # Errors
    ///
    /// [`StoreError::Decode`] ([`DecodeError::Io`]) if a read fails.
    pub fn into_scan(mut self) -> Result<Scan, StoreError> {
        let records = self.by_ref().collect::<Result<_, _>>()?;
        Ok(Scan {
            records,
            consumed: usize::try_from(self.consumed).unwrap_or(usize::MAX),
            tail: self.tail,
        })
    }

    /// Reads until the window holds everything `decode_record` needs to
    /// give its final answer on the record at `start` — its header, then
    /// the length the header declares — or the input ends.
    fn fill(&mut self) -> std::io::Result<()> {
        loop {
            let have = self.end - self.start;
            let need = match framed_len(&self.window[self.start..self.end]) {
                Ok(total) => total,
                Err(DecodeError::Truncated) => RECORD_HEADER_LEN,
                // The header alone already refuses the record.
                Err(_) => return Ok(()),
            };
            if have >= need || self.eof {
                return Ok(());
            }
            if self.start > 0 {
                // Move what there is of the record (less than one
                // record's bytes) to the front, so the read below has the
                // rest of the window to fill. `need` fits in it by the
                // assertion on `STREAM_WINDOW_LEN`.
                self.window.copy_within(self.start..self.end, 0);
                self.start = 0;
                self.end = have;
            }
            match self.reader.read(&mut self.window[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl<R: Read> Iterator for RecordStream<R> {
    type Item = Result<Record, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.tail.is_some() {
            return None;
        }
        if let Err(e) = self.fill() {
            self.failed = true;
            // Not `StoreError::from`: that reads an unexpected EOF as a
            // truncated record, and no read failure may pass for a tail.
            return Some(Err(StoreError::Decode(DecodeError::Io(e.kind()))));
        }
        if self.start == self.end {
            return None; // the input ended at a record boundary
        }
        match decode_record_in(&self.window[self.start..self.end], &mut self.grids) {
            Ok((rec, used)) => {
                self.start += used;
                self.consumed += used as u64;
                Some(Ok(rec))
            }
            Err(e) => {
                self.tail = Some(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use talus_core::MissCurve;
    use talus_partition::{CacheSpec, Planner};

    use super::*;
    use crate::record::{encode_record, records, scan};
    use crate::{Store, StoreSink};

    fn curve(sizes: &[f64], top: f64) -> MissCurve {
        let misses: Vec<f64> = (0..sizes.len()).map(|i| top / (1 + i) as f64).collect();
        MissCurve::from_samples(sizes, &misses).unwrap()
    }

    fn grids(records: &[Record]) -> Vec<&Arc<[f64]>> {
        records
            .iter()
            .filter_map(|r| match r {
                Record::Curve { curve, .. } => Some(curve.grid()),
                _ => None,
            })
            .collect()
    }

    /// A stream's curves on one size grid decode onto one grid, whatever
    /// records lie between them; a curve on other sizes gets its own, and
    /// the curves after it share one again. A record decoded alone shares
    /// nothing.
    #[test]
    fn a_streams_curves_share_one_grid() {
        let sizes: Vec<f64> = (0..65).map(|i| i as f64 * 1024.0).collect();
        let mut journal = Vec::new();
        let mut written = Vec::new();
        for seq in 0..40u64 {
            let on = if seq == 20 { &sizes[..33] } else { &sizes[..] };
            let rec = Record::Curve {
                seq,
                id: seq % 3,
                tenant: 0,
                curve: curve(on, 9.0 + seq as f64),
            };
            journal.extend_from_slice(&encode_record(&rec));
            journal.extend_from_slice(&encode_record(&Record::Deregister { seq, id: 99 }));
            written.push(rec);
        }
        let streamed: Vec<Record> = records_from(&journal[..]).map(Result::unwrap).collect();
        for got in [
            streamed,
            records(&journal).collect(),
            scan(&journal).records,
        ] {
            let got_curves: Vec<&Record> = got
                .iter()
                .filter(|r| matches!(r, Record::Curve { .. }))
                .collect();
            assert!(got_curves.iter().copied().eq(written.iter()));
            let grids = grids(&got);
            assert!(grids[..20].iter().all(|g| Arc::ptr_eq(g, grids[0])));
            assert!(grids[21..].iter().all(|g| Arc::ptr_eq(g, grids[21])));
            assert_eq!(Arc::strong_count(grids[0]), 20);
            assert_eq!(Arc::strong_count(grids[20]), 1);
            assert_eq!(Arc::strong_count(grids[21]), 19);
        }
        let (alone, _) = crate::decode_record(&journal).unwrap();
        assert_eq!(Arc::strong_count(grids(&[alone])[0]), 1);
    }

    /// What a restore reads — a shard file through `stream_shard` — holds
    /// one grid for the curves the live plane journaled on one, however
    /// many grids they arrived on.
    #[test]
    fn a_restores_curves_share_one_grid() {
        let dir =
            std::env::temp_dir().join(format!("talus-store-stream-grids-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sizes: Vec<f64> = (0..65).map(|i| i as f64 * 1024.0).collect();
        {
            let store = Store::open(&dir, 1).unwrap();
            store.register(
                7,
                &CacheSpec::new(65_536, 4).with_planner(Planner::new(1024)),
            );
            for k in 0..64 {
                // Each curve built with a grid of its own.
                store.submit(7, k % 4, &curve(&sizes, 10.0 + f64::from(k)));
            }
        }
        let store = Store::open(&dir, 1).unwrap();
        let replayed: Vec<Record> = store.stream_shard(0).unwrap().map(Result::unwrap).collect();
        let grids = grids(&replayed);
        assert_eq!(grids.len(), 64);
        assert!(grids.iter().all(|g| Arc::ptr_eq(g, grids[0])));
        assert_eq!(Arc::strong_count(grids[0]), 64);
        std::fs::remove_dir_all(&dir).ok();
    }
}
