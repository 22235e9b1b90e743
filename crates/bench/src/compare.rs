//! Baseline comparison: diff two `results/bench_baseline.json` files and
//! flag regressions on the hot paths.
//!
//! `scripts/bench_baseline.sh` emits a flat `{name: median ns/iter}` map;
//! this module parses that format (no JSON dependency — the format is a
//! two-level object this workspace itself generates), joins two baselines
//! by bench name, and classifies changes. The `bench_compare` binary (and
//! `scripts/bench_compare.sh`) wrap it for the command line; CI runs it
//! warn-only against the committed baseline, since shared-runner numbers
//! are too noisy to gate on.

use std::collections::BTreeMap;
use std::fmt;

/// Bench-name prefixes considered hot paths: the planning pipeline the
/// online service leans on (hulls, plan, allocation), the serving plane's
/// ingest cycle (`serve_ingest/` covers the local variants, the
/// `serve_ingest/rpc` loopback wire-protocol cycle, and the
/// `serve_ingest/analytic` synthesis-in-the-loop cycle alike) and its
/// reader's snapshot lookup (`serve_snapshot/`), the wire
/// codec that cycle's frames go through (`wire_codec/`), the journal
/// append/replay paths riding that cycle (`store_journal/`), the monitor
/// record/curve paths, the analytic curve-synthesis backend
/// (`analytic_curve/` — its price point is what makes monitor-free
/// serving viable), the access-stream generators that feed the monitors
/// (`workload_gen/`), the per-access cache loops, and the RRIP victim
/// search under them (`policy_victim/`). A regression
/// beyond threshold on these fails the comparison (unless warn-only).
pub const HOT_PREFIXES: &[&str] = &[
    "convex_hull/",
    "plan/",
    "alloc_",
    "preprocess_hulls",
    "talus_reconfigure",
    "interval_software",
    "serve_ingest/",
    "serve_snapshot/",
    "wire_codec/",
    "store_journal/",
    "monitor_record/",
    "monitor_curve/",
    "analytic_curve/",
    "workload_gen/",
    "set_assoc_access/",
    "set_assoc_access_block/",
    "organisation_access/",
    "policy_victim/",
];

/// Relative change flagged as a regression by default (10%).
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// One bench present in both baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// The bench name (`group/function` as reported by the harness).
    pub name: String,
    /// Median ns/iter in the old baseline.
    pub old_ns: f64,
    /// Median ns/iter in the new baseline.
    pub new_ns: f64,
}

impl BenchDiff {
    /// Relative change: `+0.25` means 25% slower, `-0.5` twice as fast.
    pub fn change(&self) -> f64 {
        self.new_ns / self.old_ns - 1.0
    }

    /// Whether this bench sits on a hot path (see [`HOT_PREFIXES`]).
    pub fn is_hot(&self) -> bool {
        HOT_PREFIXES.iter().any(|p| self.name.starts_with(p))
    }
}

impl fmt::Display for BenchDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<48} {:>12.2} -> {:>12.2} ns  {:>+8.1}%{}",
            self.name,
            self.old_ns,
            self.new_ns,
            self.change() * 100.0,
            if self.is_hot() { "  [hot]" } else { "" }
        )
    }
}

/// The joined result of comparing two baselines.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Benches in both files, sorted worst regression first.
    pub diffs: Vec<BenchDiff>,
    /// Benches only in the old baseline (removed or filtered out).
    pub only_old: Vec<String>,
    /// Benches only in the new baseline (newly added).
    pub only_new: Vec<String>,
}

impl CompareReport {
    /// Hot-path benches slower than `threshold` (relative, e.g. `0.10`).
    pub fn regressions(&self, threshold: f64) -> Vec<&BenchDiff> {
        self.diffs
            .iter()
            .filter(|d| d.is_hot() && d.change() > threshold)
            .collect()
    }
}

/// Parses a `bench_baseline.json` into a name → ns/iter map.
///
/// Accepts exactly the shape `scripts/bench_baseline.sh` writes: string
/// keys mapping to bare numbers inside the `"benches"` object; the
/// `_note` string and all braces are skipped.
///
/// # Errors
///
/// Returns a message naming the offending line if a benches entry does
/// not parse as `"name": number`.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut map = BTreeMap::new();
    let mut in_benches = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if !in_benches {
            in_benches = line.starts_with("\"benches\"");
            continue;
        }
        if line == "}" || line.is_empty() {
            in_benches = false;
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected \"name\": value, got {raw:?}", lineno + 1))?;
        let name = name.trim().trim_matches('"');
        let ns: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("line {}: bad number for {name}: {e}", lineno + 1))?;
        map.insert(name.to_string(), ns);
    }
    if map.is_empty() {
        return Err("no benches found (is this a bench_baseline.json?)".into());
    }
    Ok(map)
}

/// Joins two parsed baselines into a [`CompareReport`].
///
/// # Errors
///
/// Propagates [`parse_baseline`] errors, prefixed with which file failed.
pub fn compare(old_text: &str, new_text: &str) -> Result<CompareReport, String> {
    let old = parse_baseline(old_text).map_err(|e| format!("old baseline: {e}"))?;
    let new = parse_baseline(new_text).map_err(|e| format!("new baseline: {e}"))?;
    let mut report = CompareReport::default();
    for (name, &old_ns) in &old {
        match new.get(name) {
            Some(&new_ns) => report.diffs.push(BenchDiff {
                name: name.clone(),
                old_ns,
                new_ns,
            }),
            None => report.only_old.push(name.clone()),
        }
    }
    report
        .only_new
        .extend(new.keys().filter(|n| !old.contains_key(*n)).cloned());
    report
        .diffs
        .sort_by(|a, b| b.change().total_cmp(&a.change()));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(entries: &[(&str, f64)]) -> String {
        let mut s =
            String::from("{\n  \"_note\": \"median ns/iter per bench\",\n  \"benches\": {\n");
        for (i, (name, ns)) in entries.iter().enumerate() {
            s.push_str(&format!(
                "    \"{name}\": {ns}{}\n",
                if i + 1 < entries.len() { "," } else { "" }
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    #[test]
    fn parses_the_generated_format() {
        let text = baseline(&[("plan/hull_only", 22.47), ("convex_hull/256", 745.05)]);
        let map = parse_baseline(&text).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map["plan/hull_only"], 22.47);
    }

    #[test]
    fn rejects_garbage_and_empty() {
        assert!(parse_baseline("{}").is_err());
        let bad = "{\n\"benches\": {\n\"x\": notanumber\n}\n}";
        assert!(parse_baseline(bad).unwrap_err().contains("bad number"));
    }

    #[test]
    fn flags_hot_regressions_only() {
        let old = baseline(&[
            ("plan/hull_only", 100.0),
            ("monitor_record/mattson_exact", 100.0),
            ("prefetcher_generate/raw_scan", 100.0),
        ]);
        let new = baseline(&[
            ("plan/hull_only", 105.0),                // hot, within threshold
            ("monitor_record/mattson_exact", 150.0),  // hot, regressed
            ("prefetcher_generate/raw_scan", 1000.0), // cold, ignored
        ]);
        let report = compare(&old, &new).unwrap();
        let regs = report.regressions(DEFAULT_THRESHOLD);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "monitor_record/mattson_exact");
        assert!((regs[0].change() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reports_added_and_removed_benches() {
        let old = baseline(&[("plan/hull_only", 10.0), ("gone/bench", 1.0)]);
        let new = baseline(&[
            ("plan/hull_only", 9.0),
            ("monitor_record/sampled_mattson", 2.0),
        ]);
        let report = compare(&old, &new).unwrap();
        assert_eq!(report.only_old, vec!["gone/bench"]);
        assert_eq!(report.only_new, vec!["monitor_record/sampled_mattson"]);
        assert_eq!(report.diffs.len(), 1);
        assert!(report.regressions(DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn diffs_sort_worst_first() {
        let old = baseline(&[("plan/a", 100.0), ("plan/b", 100.0), ("plan/c", 100.0)]);
        let new = baseline(&[("plan/a", 90.0), ("plan/b", 200.0), ("plan/c", 120.0)]);
        let report = compare(&old, &new).unwrap();
        let names: Vec<&str> = report.diffs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["plan/b", "plan/c", "plan/a"]);
        assert!(!report.diffs[0].to_string().is_empty());
    }
}
