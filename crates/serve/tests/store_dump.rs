//! `talus-serve store-dump`, run as the binary it is: it prints every
//! record of a journal and writes none of it (a torn tail is named,
//! never truncated), and it reads a directory's shard files as
//! `Store::open` lays them out.

mod common;

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use common::{curve_from_seed, temp_dir};
use talus_serve::{CacheSpec, ShardedReconfigService};
use talus_store::{encode_record, scan, Record, Store, StoreSink};

/// Every file in `dir` and its bytes.
fn files(dir: &Path) -> BTreeMap<OsString, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list the journal")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let bytes = std::fs::read(entry.path()).expect("read a shard file");
            (entry.file_name(), bytes)
        })
        .collect()
}

/// Runs `store-dump` on `dir` and returns its stdout and stderr; it
/// must succeed and leave every file as it was.
fn dump(dir: &Path, json: bool) -> (String, String) {
    let before = files(dir);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_talus-serve"));
    cmd.arg("store-dump").arg(dir);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.output().expect("run store-dump");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "store-dump failed: {stderr}");
    assert!(
        files(dir) == before,
        "store-dump changed the journal it read"
    );
    (stdout, stderr)
}

/// Journals a small history, every record type in it, into `shards`
/// files in `dir`.
fn journal(dir: &Path, shards: usize) {
    let store = Arc::new(Store::open(dir, shards).expect("open store"));
    let plane = ShardedReconfigService::new(shards).with_sink(store as Arc<dyn StoreSink>);
    let ids: Vec<_> = (0..4)
        .map(|_| plane.register(CacheSpec::new(1024, 2)))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        for t in 0..2 {
            let curve = curve_from_seed((i * 2 + t) as u64);
            plane.submit(*id, t, curve).expect("registered");
        }
    }
    plane.run_epoch();
    plane.deregister(ids[0]).expect("registered");
}

/// Records in the valid prefix of every file, by the slice scanner.
fn scanned(dir: &Path) -> usize {
    files(dir).values().map(|b| scan(b).records.len()).sum()
}

/// A journal with a torn tail: both dumps leave every byte where it
/// was, print exactly the records `scan` finds, and name the tail.
#[test]
fn a_dump_reads_a_torn_journal_without_writing_it() {
    let dir = temp_dir("dump");
    journal(&dir, 2);
    // The first 11 bytes of a record whose write never finished.
    let torn = encode_record(&Record::Deregister { seq: 99, id: 7 });
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("shard-001.talus"))
        .and_then(|mut f| f.write_all(&torn[..11]))
        .expect("tear shard 1");
    let expected = scanned(&dir);
    assert!(expected > 0);

    let (text, _) = dump(&dir, false);
    assert!(
        text.contains("torn tail: 11 byte(s)"),
        "the tail is named:\n{text}"
    );
    let printed = text
        .lines()
        .filter(|l| l.trim_start().starts_with("seq "))
        .count();
    assert_eq!(printed, expected, "one line a record:\n{text}");

    let (json, notes) = dump(&dir, true);
    let objects: Vec<&str> = json.lines().collect();
    assert_eq!(objects.len(), expected, "one object a record:\n{json}");
    for object in objects {
        assert!(
            object.starts_with("{\"shard\":")
                && object.ends_with('}')
                && object.contains("\"type\":"),
            "{object}"
        );
    }
    assert!(notes.contains("torn tail: 11 byte(s)"), "{notes}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shard-000` and `shard-002` are a three-shard journal to
/// `Store::open`; the dump reads the same layout, the middle shard
/// without a file.
#[test]
fn a_gap_in_the_numbering_is_a_shard_without_a_file() {
    let dir = temp_dir("dump-gap");
    journal(&dir, 3);
    std::fs::remove_file(dir.join("shard-001.talus")).expect("open one gap");
    let expected = scanned(&dir);

    let (text, _) = dump(&dir, false);
    assert!(text.contains("shard 1: no file"), "{text}");
    assert!(text.contains("3 shard(s)"), "{text}");
    let printed = text
        .lines()
        .filter(|l| l.trim_start().starts_with("seq "))
        .count();
    assert_eq!(printed, expected, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
