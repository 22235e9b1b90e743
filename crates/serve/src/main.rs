//! `talus-serve`: the plane's two process-level entry points.
//!
//! ```text
//! talus-serve cluster-server <total> <first> <count> <dir>   # one cluster member
//! talus-serve store-dump <dir> [--json]                      # print a journal
//! ```
//!
//! `cluster-server` runs one member of a multi-process cluster. It opens
//! (or re-opens) the journal slice in `<dir>` for global shards
//! `<first>..<first> + <count>` of `<total>`, restores its plane from it,
//! binds an ephemeral loopback port, prints the bound address as the
//! first line of its stdout, and serves until it is killed. A
//! [`ClusterClient`](talus_serve::ClusterClient) assembles members from
//! those addresses; `tests/cluster.rs` runs three such processes, kills
//! one and restarts it over its journal.
//!
//! `store-dump` prints a journal directory record by record: the
//! operator's view of what a warm restart would replay. It only reads.
//! Each shard file is streamed through one fixed window, and a torn tail
//! is reported where it starts, never truncated, so dumping a live
//! member's directory cannot cut a record the member is still writing.
//! With `--json` it prints one JSON object per record on stdout (the
//! rest goes to stderr), so the output pipes straight into `jq`. A
//! closed stdout (`| head`) ends the dump quietly.
//!
//! With no mode, or arguments that do not fit one, it prints its usage
//! and exits 2.

use std::fs::File;
use std::io::{self, BufWriter, ErrorKind, Write};
use std::path::Path;
use std::sync::Arc;

use talus_core::ShardTopology;
use talus_serve::{RpcServer, ShardedReconfigService};
use talus_store::{records_from, shard_files, Record, Store, StoreSink};

const USAGE: &str = "usage: talus-serve cluster-server <total> <first> <count> <dir>
       talus-serve store-dump <dir> [--json]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args[..] {
        ["cluster-server", total, first, count, dir] => {
            match [total, first, count].map(str::parse::<usize>) {
                [Ok(total), Ok(first), Ok(count)]
                    if count > 0 && first.checked_add(count).is_some_and(|end| end <= total) =>
                {
                    run_cluster_server(total, first, count, Path::new(dir))
                }
                _ => usage(),
            }
        }
        ["store-dump", dir] => run_store_dump(Path::new(dir), false),
        ["store-dump", dir, "--json"] => run_store_dump(Path::new(dir), true),
        _ => usage(),
    };
    match result {
        Ok(()) => {}
        // Whoever reads the output has stopped reading: nothing is lost.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("talus-serve: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Context for an error from the store, as an I/O error `main` reports.
fn at(path: &Path, e: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("{}: {e}", path.display()))
}

/// One member of a multi-process cluster: restores global shards
/// `first..first + count` of `total` from the journal in `dir`, prints
/// the address it serves them on, and serves until killed.
fn run_cluster_server(total: usize, first: usize, count: usize, dir: &Path) -> io::Result<()> {
    let topology = ShardTopology::range(total, first, count);
    let store = Store::open(dir, count).map_err(|e| at(dir, e))?;
    let store = Arc::new(store.with_topology(topology));
    let plane = ShardedReconfigService::new(count).with_topology(topology);
    let restored = plane.restore(&store).map_err(|e| at(dir, e))?;
    let plane = plane.with_sink(store as Arc<dyn StoreSink>);
    let handle = RpcServer::bind("127.0.0.1:0", Arc::new(plane))?.spawn()?;
    let addr = handle.local_addr();
    // The first line of stdout is the whole handover: whoever started
    // this process reads the address from the pipe, and waits on nothing
    // else.
    let mut stdout = io::stdout().lock();
    writeln!(stdout, "{addr}")?;
    stdout.flush()?;
    eprintln!(
        "cluster-server: shards {first}..{} of {total} on {addr} ({} records restored)",
        first + count,
        restored.records
    );
    loop {
        std::thread::park();
    }
}

/// Prints every record of the journal in `dir`, shard file by shard
/// file, without writing a byte of it.
fn run_store_dump(dir: &Path, json: bool) -> io::Result<()> {
    let files = shard_files(dir).map_err(|e| at(dir, e))?;
    if files.is_empty() {
        return Err(at(dir, "no shard-*.talus files"));
    }
    let mut out = BufWriter::new(io::stdout().lock());
    // A line about the journal rather than a record: beside `--json`'s
    // records it goes to stderr, so stdout stays one object a line.
    let note = |out: &mut BufWriter<_>, line: String| {
        if json {
            eprintln!("{line}");
            Ok(())
        } else {
            writeln!(out, "{line}")
        }
    };
    let (mut total, mut torn) = (0usize, 0usize);
    for (shard, path) in files.iter().enumerate() {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                note(
                    &mut out,
                    format!("shard {shard}: no file (a gap in the numbering)"),
                )?;
                continue;
            }
            Err(e) => return Err(at(path, e)),
        };
        note(&mut out, format!("shard {shard}:"))?;
        // Records print as they stream off the file: a dump holds one
        // window of the journal, however long the journal is.
        let mut records = records_from(&file);
        let mut printed = 0usize;
        for rec in records.by_ref() {
            let rec = rec.map_err(|e| at(path, e))?;
            printed += 1;
            if json {
                writeln!(out, "{}", record_json(shard, &rec))?;
            } else {
                writeln!(
                    out,
                    "  seq {:>5}  {:<10} {}",
                    rec.seq(),
                    rec.label(),
                    record_text(&rec)
                )?;
            }
        }
        if let Some(tail) = records.tail() {
            torn += 1;
            let start = records.consumed();
            let len = file.metadata()?.len();
            note(
                &mut out,
                format!(
                    "  (torn tail: {} byte(s) from byte {start}, left in place: {tail})",
                    len.saturating_sub(start)
                ),
            )?;
        }
        note(&mut out, format!("  {printed} records"))?;
        total += printed;
    }
    note(
        &mut out,
        format!(
            "{}: {} shard(s), {total} records, {torn} torn tail(s)",
            dir.display(),
            files.len()
        ),
    )?;
    out.flush()
}

/// One record as a line of text.
fn record_text(rec: &Record) -> String {
    match rec {
        Record::Register { id, spec, .. } => format!(
            "cache {id}: capacity {}, {} tenant(s)",
            spec.capacity, spec.tenants
        ),
        Record::Deregister { id, .. } => format!("cache {id}"),
        Record::Curve {
            id, tenant, curve, ..
        } => format!("cache {id} tenant {tenant}: {} points", curve.len()),
        Record::EpochCut { epoch, drained, .. } => format!("epoch {epoch}: drained {drained:?}"),
        Record::Plan {
            id,
            epoch,
            version,
            plan,
            ..
        } => format!(
            "cache {id} v{version} (epoch {epoch}): allocations {:?}",
            plan.allocations()
        ),
    }
}

/// One JSON array of `u64`s, e.g. `[3,1,4]`.
fn json_u64s(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// One record as a single-line JSON object. Hand-rolled: every field is
/// an integer or an integer array, so no escaping is ever needed.
fn record_json(file_shard: usize, rec: &Record) -> String {
    match rec {
        Record::Register { seq, id, spec } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"register","id":{id},"capacity":{},"tenants":{}}}"#,
            spec.capacity, spec.tenants
        ),
        Record::Deregister { seq, id } => {
            format!(r#"{{"shard":{file_shard},"seq":{seq},"type":"deregister","id":{id}}}"#)
        }
        Record::Curve {
            seq,
            id,
            tenant,
            curve,
        } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"curve","id":{id},"tenant":{tenant},"points":{}}}"#,
            curve.len()
        ),
        Record::EpochCut {
            seq,
            shard,
            epoch,
            drained,
        } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"epoch-cut","cut_shard":{shard},"epoch":{epoch},"drained":{}}}"#,
            json_u64s(drained)
        ),
        Record::Plan {
            seq,
            id,
            epoch,
            version,
            updates,
            plan,
        } => format!(
            r#"{{"shard":{file_shard},"seq":{seq},"type":"plan","id":{id},"epoch":{epoch},"version":{version},"updates":{updates},"allocations":{}}}"#,
            json_u64s(&plan.allocations())
        ),
    }
}
