//! The repo benchmark: one workload per process, metrics by name.
//!
//! `talus-benchmark --workload W --seed N --seconds S --trace 0|1 --out DIR`
//! runs workload `W` on inputs generated from `N`, measures `S` seconds
//! of cycle time, checks the outputs, prints every metric with its unit
//! and ends with the one-line JSON result. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` wraps every call into a layer in a
//! span, adds the decomposed replays, reports the per-layer metrics and
//! writes `DIR/trace-W.json`. `--manifest` prints `BENCHMARK.json`.

mod check;
mod manifest;
mod plane;
mod pool;
mod producer;
mod report;
mod rng;
mod run;
mod simpaper;
mod stats;
mod trace;

use report::{result_json, Ops};
use run::{drive, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: PathBuf,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut out) =
        (None, 1, manifest::RUN_SECONDS, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !manifest::WORKLOADS
        .iter()
        .any(|(name, _)| *name == workload)
    {
        return Err(format!("unknown workload {workload}"));
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        out: out.ok_or("--out is required")?,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--manifest") {
        print!("{}", manifest::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("talus-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("talus-benchmark: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    // The plane workloads run a thousand spans a cycle and thousands of
    // cycles: keep every 64th cycle's raw spans. The other two fit whole.
    let retain_every = if args.workload.starts_with("plane_") {
        64
    } else {
        1
    };
    let mut ctx = Ctx {
        tracer: Tracer::new(args.traced, retain_every),
        ops: Ops::default(),
        out_dir: args.out.clone(),
        seed: args.seed,
    };
    println!(
        "# workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let values = match args.workload.as_str() {
        "plane_local" => drive(
            &mut plane::PlaneLocal::new(args.seed),
            &mut ctx,
            args.seconds,
            args.traced,
        ),
        "plane_rpc_journal" => drive(
            &mut plane::PlaneRpcJournal::new(args.seed, args.traced, &args.out),
            &mut ctx,
            args.seconds,
            args.traced,
        ),
        "producer_fed" => drive(
            &mut producer::ProducerFed,
            &mut ctx,
            args.seconds,
            args.traced,
        ),
        "sim_paper" => drive(
            &mut simpaper::SimPaper::new(),
            &mut ctx,
            args.seconds,
            args.traced,
        ),
        other => unreachable!("parse() admitted workload {other}"),
    };

    if args.traced {
        let path = args.out.join(format!("trace-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, ctx.tracer.to_json(&args.workload, args.seed)) {
            eprintln!("talus-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("# trace written to {}", path.display());
    }
    let wanted = if args.traced {
        manifest::per_layer()
    } else {
        manifest::end_to_end()
    };
    for m in &wanted {
        println!(
            "{:<52} {:>18.6} {}",
            m.name,
            values.get(&m.name).unwrap_or(0.0),
            m.unit
        );
    }
    for note in &ctx.ops.notes {
        println!("# FAILED: {note}");
    }
    let correct = ctx.ops.failed == 0;
    match result_json(&ctx.ops, correct, &wanted, &values, !args.traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("talus-benchmark: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "sim_paper",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--out",
            "o",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("sim_paper", 7, 3, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--out", "o"]).is_err());
        assert!(args(&["--workload", "nope", "--out", "o"]).is_err());
        assert!(args(&["--workload", "sim_paper", "--trace", "2", "--out", "o"]).is_err());
        assert!(args(&["--workload", "sim_paper", "--seconds", "0", "--out", "o"]).is_err());
        assert!(args(&["--workload", "sim_paper"]).is_err());
    }
}
