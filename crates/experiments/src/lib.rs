//! # talus-experiments — figure and table regeneration
//!
//! One driver per table/figure of the paper (see DESIGN.md §4 for the
//! experiment index). Each driver measures the relevant configurations on
//! the synthetic workload substrate, writes a CSV into `results/`, and
//! prints an ASCII rendition plus a shape summary to stdout.
//!
//! ## Scale
//!
//! The paper runs 10-billion-instruction SPEC slices against caches up to
//! 72 MB. The default **quick** scale shrinks every working set (and the
//! cache sizes swept) by 16× and simulates fewer accesses; since LRU/RRIP
//! behaviour depends on the *ratio* of working set to cache size, curve
//! shapes — cliffs, plateaus, crossovers — are preserved, and the x-axes
//! are relabelled back to paper megabytes. `--full` runs at paper scale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
pub mod figs;
pub mod sweep;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Global experiment scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier applied to every profile footprint and cache size.
    pub footprint: f64,
    /// Accesses simulated per sweep point (after warmup).
    pub accesses: u64,
    /// Warmup accesses per sweep point (excluded from statistics).
    pub warmup: u64,
    /// Mixes for Fig. 12.
    pub mixes: usize,
    /// Fixed work per app (instructions) for multi-programmed runs.
    pub work_instructions: f64,
    /// Whether this is the quick configuration.
    pub quick: bool,
}

impl Scale {
    /// Quick scale: 16× smaller footprints, minutes for the full suite.
    pub fn quick() -> Self {
        Scale {
            footprint: 1.0 / 16.0,
            accesses: 300_000,
            warmup: 150_000,
            mixes: 12,
            work_instructions: 8e6,
            quick: true,
        }
    }

    /// Paper scale (hours).
    pub fn full() -> Self {
        Scale {
            footprint: 1.0,
            accesses: 20_000_000,
            warmup: 10_000_000,
            mixes: 100,
            work_instructions: 1e9,
            quick: false,
        }
    }

    /// Converts a paper-scale megabyte figure to simulated lines.
    pub fn mb_to_lines(&self, paper_mb: f64) -> u64 {
        talus_sim::mb_to_lines(paper_mb * self.footprint).max(16)
    }
}

/// Where result CSVs are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    fs::create_dir_all(&dir).expect("can create results directory");
    dir
}

/// Writes a CSV file with a header row.
///
/// # Panics
///
/// Panics on I/O errors (experiments are developer tools).
pub fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) {
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    let mut f = fs::File::create(path).expect("can create CSV");
    f.write_all(out.as_bytes()).expect("can write CSV");
    println!("  wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_roundtrips_sizes() {
        let s = Scale::quick();
        let lines = s.mb_to_lines(32.0);
        assert!((talus_sim::lines_to_mb(lines) / s.footprint - 32.0).abs() < 0.01);
        // 32 MB at 1/16 scale = 2 MB = 32768 lines.
        assert_eq!(lines, 32768);
    }

    #[test]
    fn full_scale_is_identity() {
        let s = Scale::full();
        assert_eq!(s.mb_to_lines(1.0), 16384);
    }

    #[test]
    fn tiny_sizes_are_floored() {
        let s = Scale::quick();
        assert!(s.mb_to_lines(0.0001) >= 16);
    }
}
