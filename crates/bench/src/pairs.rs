//! Paired runs of the repo benchmark: the verdict a change gets against
//! its base.
//!
//! `scripts/pairs.sh` runs `benchmark/run.sh` on a base tree and on the
//! checkout in alternating order and collects each run's last line, the
//! one-line JSON result; the `bench_pairs` binary hands the collection
//! and `BENCHMARK.json` to [`table`], which writes one row per workload
//! and end-to-end metric: both medians, their ratio, how many pairs the
//! change won, the base's interquartile range and the [`verdict`].
//!
//! The rule is the one the benchmark's gate applies. A **gain** needs
//! at least [`GAIN_PAIRS`] pairs, the change to win at least nine in ten
//! of them and its median to beat the base's by more than the base's
//! interquartile range. A
//! **regression** is a median worse than the base's by more than the
//! metric's `bound` in `BENCHMARK.json` (relative to the base median).
//! Anything else is **unresolved** where either side's interquartile
//! range is wider than that bound — unless every run of the change beat
//! every run of the base — and the **same** otherwise. The share of failed operations (`failed / attempted` of each run)
//! gets a row of its own, [`FAILED_SHARE`], whose bound is zero: it may
//! not rise at all.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest pairs that can show a gain: below ten, nine wins in ten is one
/// lucky pair.
pub const GAIN_PAIRS: usize = 10;

/// The row name of a run's `failed / attempted` share.
pub const FAILED_SHARE: &str = "failed_share";

/// One end-to-end metric of the benchmark, with its regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in a run's result line.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Largest relative worsening of the median that is no regression.
    pub bound: f64,
}

/// What a metric's paired samples say about the change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better in at least nine pairs in ten of at least [`GAIN_PAIRS`],
    /// by more than the base's IQR.
    Gain,
    /// Worse in the median by more than the metric's bound.
    Regression,
    /// Neither, but the runs spread wider than the bound.
    Unresolved,
    /// Neither, within the bound.
    Same,
}

impl Verdict {
    /// The word the table prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// The `q` quantile of `sorted` (ascending, not empty), interpolated
/// linearly between order statistics.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (not empty).
fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The interquartile range of `values` (not empty).
fn iqr(values: &[f64]) -> f64 {
    let v = sorted(values);
    quantile(&v, 0.75) - quantile(&v, 0.25)
}

/// Pairs in which `head` beat `base` (a tie is no win).
fn wins(metric: &Metric, base: &[f64], head: &[f64]) -> usize {
    base.iter()
        .zip(head)
        .filter(|&(b, h)| if metric.lower_is_better { h < b } else { h > b })
        .count()
}

/// The verdict on one metric from its paired samples: `base[i]` and
/// `head[i]` are pair `i`'s two runs. Both are non-empty and of one
/// length.
pub fn verdict(metric: &Metric, base: &[f64], head: &[f64]) -> Verdict {
    let (b, h) = (median(base), median(head));
    // How much better the change's median is (negative: worse).
    let gap = if metric.lower_is_better { b - h } else { h - b };
    let bound = metric.bound * b.abs();
    // Whether every run of the change beat every run of the base.
    let apart = if metric.lower_is_better {
        head.iter().all(|h| base.iter().all(|b| h < b))
    } else {
        head.iter().all(|h| base.iter().all(|b| h > b))
    };
    if -gap > bound {
        Verdict::Regression
    } else if base.len() >= GAIN_PAIRS
        && 10 * wins(metric, base, head) >= 9 * base.len()
        && gap > iqr(base)
    {
        Verdict::Gain
    } else if iqr(base).max(iqr(head)) > bound && !apart {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// The value of the string field `key` in a one-line JSON object.
fn string_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let rest = &object[object.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(&rest[..rest.find('"')?])
}

/// The number `text` starts with.
fn leading_number(text: &str) -> Option<f64> {
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

/// The value of the number field `key` in a one-line JSON object.
fn number_field(object: &str, key: &str) -> Option<f64> {
    leading_number(&object[object.find(&format!("\"{key}\": "))? + key.len() + 4..])
}

/// The end-to-end metrics `BENCHMARK.json` declares, then
/// [`FAILED_SHARE`] with bound zero.
///
/// # Errors
///
/// A message if the file has no `"end_to_end"` list, or an entry lacks
/// its name, direction or bound.
fn end_to_end(manifest: &str) -> Result<Vec<Metric>, String> {
    let start = manifest
        .find("\"end_to_end\"")
        .ok_or("BENCHMARK.json: no \"end_to_end\" list")?;
    let list = &manifest[start..];
    let list = &list[..list.find(']').ok_or("BENCHMARK.json: unterminated list")?];
    let mut metrics = Vec::new();
    for entry in list.split('{').skip(1) {
        let bad = || format!("BENCHMARK.json: bad end_to_end entry {{{entry}");
        metrics.push(Metric {
            name: string_field(entry, "name").ok_or_else(bad)?.to_string(),
            lower_is_better: string_field(entry, "better").ok_or_else(bad)? == "lower",
            bound: number_field(entry, "bound").ok_or_else(bad)?,
        });
    }
    metrics.push(Metric {
        name: FAILED_SHARE.to_string(),
        lower_is_better: true,
        bound: 0.0,
    });
    Ok(metrics)
}

/// The metric values of one result line, [`FAILED_SHARE`] among them
/// (a run that attempted nothing counts as all failed).
///
/// # Errors
///
/// A message if the line has no `attempted`/`failed` counts.
fn result_values(line: &str) -> Result<BTreeMap<String, f64>, String> {
    const VALUE: &str = "\": {\"value\": ";
    let mut values = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find(VALUE) {
        let key = &rest[rest[..at].rfind('"').map_or(0, |q| q + 1)..at];
        if let Some(value) = leading_number(&rest[at + VALUE.len()..]) {
            values.insert(key.to_string(), value);
        }
        rest = &rest[at + VALUE.len()..];
    }
    let count = |key| number_field(line, key).ok_or(format!("no \"{key}\" in {line:?}"));
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let share = if attempted > 0.0 {
        failed / attempted
    } else {
        1.0
    };
    values.insert(FAILED_SHARE.to_string(), share);
    Ok(values)
}

/// The comparison table of a pairs run, as Markdown. `samples` holds one
/// run a line, `workload<TAB>pair<TAB>side<TAB>result line`, where side
/// is `base` or `head`; a pair is counted for a workload only when both
/// its sides ran. A metric no pair measured gets no row.
///
/// # Errors
///
/// A message if the manifest or a line does not parse, or a side is
/// neither `base` nor `head`.
pub fn table(manifest: &str, samples: &str) -> Result<String, String> {
    let metrics = end_to_end(manifest)?;
    // workload → pair → [base, head] result values.
    type Sides = [Option<BTreeMap<String, f64>>; 2];
    let mut runs: BTreeMap<&str, BTreeMap<&str, Sides>> = BTreeMap::new();
    for line in samples.lines().filter(|l| !l.trim().is_empty()) {
        let mut fields = line.splitn(4, '\t');
        let (Some(workload), Some(pair), Some(side), Some(result)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("bad sample line {line:?}"));
        };
        let slot = match side {
            "base" => 0,
            "head" => 1,
            _ => return Err(format!("bad side {side:?} in {line:?}")),
        };
        runs.entry(workload).or_default().entry(pair).or_default()[slot] =
            Some(result_values(result)?);
    }
    let mut out = String::from(
        "| workload | metric | base median | head median | head/base | wins | base IQR | verdict |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for (workload, pairs) in &runs {
        for metric in &metrics {
            let (base, head): (Vec<f64>, Vec<f64>) = pairs
                .values()
                .filter_map(|[b, h]| {
                    Some((
                        *b.as_ref()?.get(&metric.name)?,
                        *h.as_ref()?.get(&metric.name)?,
                    ))
                })
                .unzip();
            if base.is_empty() {
                continue;
            }
            let (b, h) = (median(&base), median(&head));
            let ratio = if b == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", h / b)
            };
            let _ = writeln!(
                out,
                "| {workload} | {} | {b:.6} | {h:.6} | {ratio} | {}/{} | {:.6} | {} |",
                metric.name,
                wins(metric, &base, &head),
                base.len(),
                iqr(&base),
                verdict(metric, &base, &head).as_str(),
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "latency".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn higher(bound: f64) -> Metric {
        Metric {
            name: "rate".into(),
            lower_is_better: false,
            bound,
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
        assert_eq!(iqr(&[7.0]), 0.0);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_iqr() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        // Ten wins by 10: the gap (10) is past the base's IQR (4.5).
        let head: Vec<f64> = base.iter().map(|b| b - 10.0).collect();
        assert_eq!(verdict(&lower(0.25), &base, &head), Verdict::Gain);
        // Nine wins in ten still gain; eight do not.
        let mut nine = head.clone();
        nine[0] = base[0];
        assert_eq!(wins(&lower(0.25), &base, &nine), 9);
        assert_eq!(verdict(&lower(0.25), &base, &nine), Verdict::Gain);
        let mut eight = nine.clone();
        eight[1] = base[1] + 1.0;
        assert_eq!(verdict(&lower(0.25), &base, &eight), Verdict::Same);
        // Ten wins inside the base's spread are no gain.
        let close: Vec<f64> = base.iter().map(|b| b - 1.0).collect();
        assert_eq!(verdict(&lower(0.25), &base, &close), Verdict::Same);
        // Pairs, not sorted runs: the same runs paired the other way
        // round win once.
        let reversed: Vec<f64> = head.iter().rev().map(|h| h + 9.5).collect();
        assert_eq!(wins(&lower(0.25), &base, &reversed), 5);
        assert_eq!(verdict(&lower(0.25), &base, &reversed), Verdict::Same);
        // Nine pairs are too few, whatever they read.
        assert_eq!(verdict(&lower(0.25), &base[1..], &head[1..]), Verdict::Same);
        // The direction follows the metric.
        let up: Vec<f64> = base.iter().map(|b| b + 10.0).collect();
        assert_eq!(verdict(&higher(0.25), &base, &up), Verdict::Gain);
        assert_eq!(verdict(&lower(0.25), &base, &up), Verdict::Same);
    }

    #[test]
    fn a_regression_is_a_median_worse_by_more_than_the_bound() {
        let base = [100.0, 100.0, 100.0];
        assert_eq!(
            verdict(&lower(0.25), &base, &[125.0; 3]),
            Verdict::Same,
            "at the bound"
        );
        assert_eq!(
            verdict(&lower(0.25), &base, &[126.0; 3]),
            Verdict::Regression
        );
        assert_eq!(verdict(&higher(0.25), &base, &[76.0; 3]), Verdict::Same);
        assert_eq!(
            verdict(&higher(0.25), &base, &[74.0; 3]),
            Verdict::Regression
        );
        // Runs spread past the bound leave it open, unless every run of
        // the change beat every run of the base.
        let wide = [60.0, 100.0, 140.0];
        assert_eq!(
            verdict(&lower(0.25), &wide, &[90.0, 100.0, 110.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower(0.25), &[100.0; 3], &wide),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower(0.1), &[100.0, 101.0, 102.0], &[50.0, 70.0, 99.0]),
            Verdict::Same,
            "three pairs show no gain"
        );
        // A zero bound: any rise regresses, none does not.
        assert_eq!(verdict(&lower(0.0), &[0.0], &[0.0]), Verdict::Same);
        assert_eq!(verdict(&lower(0.0), &[0.0], &[1e-9]), Verdict::Regression);
    }

    const MANIFEST: &str = r#"{
  "end_to_end": [
    {"name": "plans_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}
  ],
  "per_layer": [
    {"name": "core.hull.us_per_curve", "unit": "us", "better": "lower"}
  ]
}"#;

    fn line(plans: f64, rss: f64, failed: u64) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": 1000, \"failed\": {failed}, \"metrics\": \
             {{\"plans_per_s\": {{\"value\": {plans}, \"unit\": \"1/s\"}}, \
             \"peak_rss_mb\": {{\"value\": {rss}, \"unit\": \"MB\"}}}}}}"
        )
    }

    #[test]
    fn the_manifest_gives_the_end_to_end_bounds_and_the_failed_share() {
        let metrics = end_to_end(MANIFEST).unwrap();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["plans_per_s", "peak_rss_mb", FAILED_SHARE]);
        assert!(!metrics[0].lower_is_better && metrics[1].lower_is_better);
        assert_eq!((metrics[0].bound, metrics[1].bound), (0.25, 0.15));
        assert!(end_to_end("{}").is_err());
    }

    #[test]
    fn a_result_line_gives_its_metrics() {
        let values = result_values(&line(99584.85, 28.5, 10)).unwrap();
        assert_eq!(values["plans_per_s"], 99584.85);
        assert_eq!(values["peak_rss_mb"], 28.5);
        assert_eq!(values[FAILED_SHARE], 0.01);
        assert!(result_values("{\"metrics\": {}}").is_err());
    }

    #[test]
    fn the_table_has_a_row_per_workload_and_metric() {
        let mut samples = String::new();
        for pair in 1..=10 {
            for (side, plans) in [("base", 100.0 + pair as f64), ("head", 60.0)] {
                samples += &format!("w\t{pair}\t{side}\t{}\n", line(plans, 30.0, 0));
            }
        }
        // A pair with one side missing is not counted.
        samples += &format!("w\t11\tbase\t{}\n", line(1.0, 30.0, 0));
        let text = table(MANIFEST, &samples).unwrap();
        let rows: Vec<&str> = text.lines().skip(2).collect();
        assert_eq!(rows.len(), 3, "{text}");
        assert!(rows[0].starts_with("| w | plans_per_s |"), "{text}");
        assert!(rows[0].contains("| 0/10 |") && rows[0].ends_with("| regression |"));
        assert!(rows[1].contains("peak_rss_mb") && rows[1].ends_with("| same |"));
        assert!(rows[2].contains(FAILED_SHARE) && rows[2].contains("| - |"));
        assert!(table(MANIFEST, "w\t1\tother\t{}").is_err());
    }
}
