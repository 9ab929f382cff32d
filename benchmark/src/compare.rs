//! `compare A B`: judge two sets of saved run outputs against the bounds
//! of [`registry::END_TO_END`] (the ones `BENCHMARK.json` states).
//!
//! A and B are files, or directories of files, holding the standard
//! output of untraced runs (a provenance line, then a result line, per
//! run). For every workload and end-to-end metric the report gives each
//! side's median and quartiles and one verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — not worse, but one side's own spread (quartile
//!   distance over median) is wider than the bound, so "no change" is
//!   not shown — unless every run of B reads better than every run of A;
//! * `ok` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::registry;
use crate::stats::{quartiles, spread};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric on one workload. `a` is the reference side.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    // Fold the direction away: larger is worse from here on.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    if sign * (mb - ma) > bound * ma.abs() {
        return Verdict::Worse;
    }
    let b_worst = b.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
    let a_best = a.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
    if spread(a).abs().max(spread(b).abs()) > bound && b_worst >= a_best {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// `workload -> metric -> values` of the untraced runs under `path`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Runs, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.is_file() {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        // A result line belongs to the provenance line before it.
        let mut workload: Option<String> = None;
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let v = json::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
            if let Some(p) = v.get("provenance") {
                let traced = p.get("trace").and_then(Value::as_f64) == Some(1.0);
                workload = p
                    .get("workload")
                    .and_then(Value::as_str)
                    .filter(|_| !traced)
                    .map(String::from);
            } else if let (Some(w), Some(metrics)) = (workload.take(), v.get("metrics")) {
                for (name, m) in metrics.as_obj() {
                    let value = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .ok_or("metric without a value")?;
                    runs.entry(w.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(runs)
}

/// Print the report; `Ok(true)` when any pair is `worse`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut any_worse = false;
    println!(
        "{:<13} {:<8} {:>4}  {:>11} {:>23}  {:>11} {:>23}  {:>7}  verdict",
        "workload", "metric", "n", "A median", "[q1, q3]", "B median", "[q1, q3]", "B vs A"
    );
    for w in registry::WORKLOADS.iter().map(|w| w.name) {
        for m in &registry::END_TO_END {
            let (name, bound, lower) = (m.name, m.bound, m.better != "higher");
            let side = |r: &Runs| {
                r.get(w)
                    .and_then(|x| x.get(name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (side(&ra), side(&rb));
            let verdict = judge(&va, &vb, lower, bound);
            any_worse |= verdict == Verdict::Worse;
            let show = |v: &[f64]| {
                if v.len() < 2 {
                    return (
                        format!("{:>11}", "-"),
                        format!("{:>23}", "(fewer than 2 runs)"),
                    );
                }
                let [q1, q2, q3] = quartiles(v);
                (
                    format!("{q2:>11.5e}"),
                    format!("[{q1:>10.4e}, {q3:>10.4e}]"),
                )
            };
            let ((ma, qa), (mb, qb)) = (show(&va), show(&vb));
            let delta = if va.len() >= 2 && vb.len() >= 2 {
                format!(
                    "{:>+6.1}%",
                    100.0 * (quartiles(&vb)[1] / quartiles(&va)[1] - 1.0)
                )
            } else {
                format!("{:>7}", "-")
            };
            println!(
                "{w:<13} {name:<8} {:>4}  {ma} {qa}  {mb} {qb}  {delta}  {} (bound {:.0}%)",
                format!("{}/{}", va.len(), vb.len()),
                verdict.name(),
                100.0 * bound
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Within the bound and tight: ok.
        assert_eq!(
            judge(&a, &[1.03, 1.02, 1.04, 1.03, 1.03], true, 0.05),
            Verdict::Ok
        );
        // Median 10 % up against a 5 % bound: worse.
        assert_eq!(
            judge(&a, &[1.10, 1.11, 1.09, 1.10, 1.12], true, 0.05),
            Verdict::Worse
        );
        // Same median, but B's own spread is wider than the bound.
        assert_eq!(
            judge(&a, &[0.80, 1.00, 1.20, 0.90, 1.10], true, 0.05),
            Verdict::Unresolved
        );
        // Wide, but every run of B beats every run of A.
        assert_eq!(
            judge(&a, &[0.50, 0.70, 0.90, 0.60, 0.80], true, 0.05),
            Verdict::Ok
        );
        // Higher is better: a 10 % drop is worse.
        assert_eq!(
            judge(&a, &[0.90, 0.91, 0.89, 0.90, 0.90], false, 0.05),
            Verdict::Worse
        );
        assert_eq!(judge(&a, &[1.0], true, 0.05), Verdict::Unresolved);
    }
}
