//! What a run hands back: operation counts, failed checks, and the named
//! metric values, printed once per name with its unit and then as the
//! one-line JSON result the driver reads.

use crate::manifest::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Operations attempted and failed. A check that does not hold counts as
/// a failed operation, exactly like a refused or errored call.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Ops {
    /// Counts one operation; `what` is only rendered when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `VmHWM` of this process in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders the result line. `wanted` is the manifest's list for this
/// run's mode; per-layer metrics a workload never touches read 0, while
/// a missing or non-finite end-to-end value is an error.
pub fn result_json(
    ops: &Ops,
    correct: bool,
    wanted: &[Metric],
    values: &Values,
    require_all: bool,
) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted, ops.failed
    );
    for (i, m) in wanted.iter().enumerate() {
        let value = match values.get(&m.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} is {v}", m.name)),
            None if require_all => return Err(format!("metric {} was not measured", m.name)),
            None => 0.0,
        };
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{comma}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::end_to_end;

    #[test]
    fn failed_checks_are_counted_and_noted() {
        let mut ops = Ops::default();
        ops.passed(3);
        ops.check(true, || unreachable!());
        ops.check(false, || "plan differs".to_string());
        assert_eq!((ops.attempted, ops.failed), (5, 1));
        assert_eq!(ops.notes, vec!["plan differs"]);
    }

    #[test]
    fn result_line_holds_exactly_the_wanted_metrics() {
        let wanted = end_to_end();
        let mut values = Values::default();
        for (i, m) in wanted.iter().enumerate() {
            values.set(&m.name, 1.5 + i as f64);
        }
        values.set("not.in.the.list", 9.0);
        let ops = Ops {
            attempted: 10,
            ..Ops::default()
        };
        let line = result_json(&ops, true, &wanted, &values, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("not.in.the.list"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn missing_or_non_finite_values_are_refused() {
        let wanted = end_to_end();
        let mut values = Values::default();
        assert!(result_json(&Ops::default(), true, &wanted, &values, true).is_err());
        assert!(result_json(&Ops::default(), true, &wanted, &values, false).is_ok());
        values.set("setup_s", f64::NAN);
        assert!(result_json(&Ops::default(), true, &wanted, &values, false).is_err());
    }

    #[test]
    fn peak_rss_reads_something() {
        assert!(peak_rss_mb() > 0.0);
    }
}
