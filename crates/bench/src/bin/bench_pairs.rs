//! The table of a paired benchmark run (see `scripts/pairs.sh`).
//!
//! ```text
//! bench_pairs BENCHMARK.json SAMPLES.tsv
//! ```
//!
//! `SAMPLES.tsv` holds one run a line — `workload<TAB>pair<TAB>side<TAB>`
//! and the run's one-line JSON result, side `base` or `head`. Prints one
//! Markdown row per workload and end-to-end metric, with the verdict of
//! [`talus_bench::pairs::verdict`]. Exits 2 on unreadable or malformed
//! input; the verdicts never change the exit code.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [manifest, samples] = args.as_slice() else {
        eprintln!("usage: bench_pairs BENCHMARK.json SAMPLES.tsv");
        return ExitCode::from(2);
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    match (|| talus_bench::pairs::table(&read(manifest)?, &read(samples)?))() {
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
