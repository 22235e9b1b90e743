//! The table of a paired run (see `scripts/pairs.sh`).
//!
//! ```text
//! bench_pairs BENCHMARK.json SAMPLES.tsv
//! bench_pairs --criterion SAMPLES.tsv
//! ```
//!
//! For the repo benchmark, `SAMPLES.tsv` holds one run a line —
//! `workload<TAB>pair<TAB>side<TAB>` and the run's one-line JSON result,
//! side `base` or `head` — and the table has one Markdown row per
//! workload and end-to-end metric. With `--criterion` a line is
//! `pair<TAB>side<TAB>` and the path of the run's
//! `scripts/bench_baseline.sh` record, and the table has one `ns_per_iter`
//! row per bench. Every row carries the verdict of
//! [`talus_bench::pairs::verdict`]. Exits 2 on unreadable or malformed
//! input; the verdicts never change the exit code.

use std::process::ExitCode;
use talus_bench::pairs::{criterion_table, table};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let result = match args.as_slice() {
        [flag, samples] if flag == "--criterion" => {
            read(samples).and_then(|samples| criterion_table(&samples, read))
        }
        [manifest, samples] => read(manifest).and_then(|m| table(&m, &read(samples)?)),
        _ => {
            eprintln!("usage: bench_pairs BENCHMARK.json SAMPLES.tsv");
            eprintln!("       bench_pairs --criterion SAMPLES.tsv");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_pairs: {e}");
            ExitCode::from(2)
        }
    }
}
