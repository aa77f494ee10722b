//! `e2ebench compare <parent-dir> [<change-dir>]`: median and quartiles
//! per metric × workload over sets of saved runs, with regressions
//! flagged against the bounds in `BENCHMARK.json`.
//!
//! A run directory holds one `.out` file per run, named after its
//! workload (`offline-check-7.out`, …) and holding the run's stdout;
//! the last line is the result object. With one directory the tool prints each
//! metric's spread (interquartile distance over median). With two it
//! also flags a metric whose change median is worse than the parent's
//! by more than its bound, and marks it "unresolved" when the parent's
//! own spread is wider than the bound, unless every change run beats
//! every parent run.

use crate::stats::{median, quartiles, relative_spread};
use crate::WORKLOADS;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

/// The metric specs under `key` (`end_to_end` or `per_layer`).
pub fn metric_specs(v: &Value, key: &str) -> Result<Vec<Spec>, String> {
    let Some(Value::Array(items)) = v.get(key) else {
        return Err(format!("BENCHMARK.json has no '{key}' list"));
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{key} entry without a string '{k}'")),
            };
            Ok(Spec {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: match m.get("bound") {
                    Some(Value::Float(f)) => Some(*f),
                    Some(Value::Int(i)) => Some(*i as f64),
                    _ => None,
                },
            })
        })
        .collect()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// workload → metric → values, plus runs that were not correct.
type RunSet = (BTreeMap<String, BTreeMap<String, Vec<f64>>>, Vec<String>);

fn load_runs(dir: &Path) -> Result<RunSet, String> {
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut incorrect = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let fname = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or_default()
            .to_string();
        let Some(workload) = WORKLOADS.iter().find(|w| fname.starts_with(*w)) else {
            continue;
        };
        if !fname.ends_with(".out") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{fname}: {e}"))?;
        let Some(line) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
            incorrect.push(format!("{fname}: empty"));
            continue;
        };
        let v = serde_json::parse_value(line).map_err(|e| format!("{fname}: {e}"))?;
        if !matches!(v.get("correct"), Some(Value::Bool(true))) {
            incorrect.push(fname.clone());
        }
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            return Err(format!("{fname}: no metrics object"));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(number) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok((set, incorrect))
}

fn summary(values: &[f64]) -> Option<(f64, f64, f64)> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values).unwrap_or((med, med));
    Some((med, q1, q3))
}

pub fn run(args: &[String]) -> Result<String, String> {
    let (parent_dir, change_dir) = match args {
        [p] => (p, None),
        [p, c] => (p, Some(c)),
        _ => return Err("usage: e2ebench compare <parent-dir> [<change-dir>]".into()),
    };
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut specs = metric_specs(&v, "end_to_end")?;
    specs.extend(metric_specs(&v, "per_layer")?);
    let (parent, mut bad) = load_runs(Path::new(parent_dir))?;
    let change = match change_dir {
        Some(c) => {
            let (set, b) = load_runs(Path::new(c))?;
            bad.extend(b);
            Some(set)
        }
        None => None,
    };
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "{:<15} {:<36} {:>6} {:>4} {:>14} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "unit", "n", "median", "q1", "q3", "spread", "bound"
    );
    for w in WORKLOADS {
        for spec in &specs {
            let Some(pv) = parent.get(w).and_then(|m| m.get(&spec.name)) else {
                continue;
            };
            let Some((pm, q1, q3)) = summary(pv) else {
                continue;
            };
            let spread = relative_spread(pv).unwrap_or(0.0);
            let bound = spec.bound.map_or("-".to_string(), |b| format!("{b:.3}"));
            let mut verdict = String::new();
            if let Some(b) = spec.bound {
                if change.is_none() && spread > b && spec.name != "setup_s" {
                    verdict = format!("UNSTEADY (spread > bound {b})");
                }
            }
            let _ = writeln!(
                out,
                "{w:<15} {:<36} {:>6} {:>4} {pm:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>8}  {verdict}",
                spec.name,
                spec.unit,
                pv.len()
            );
            let Some(cv) = change
                .as_ref()
                .and_then(|c| c.get(w))
                .and_then(|m| m.get(&spec.name))
            else {
                continue;
            };
            let Some((cm, c1, c3)) = summary(cv) else {
                continue;
            };
            let cspread = relative_spread(cv).unwrap_or(0.0);
            // Positive = the change is worse, as a share of the parent.
            let delta = if spec.lower_is_better {
                cm - pm
            } else {
                pm - cm
            } / pm.abs().max(1e-300);
            let all_better = if spec.lower_is_better {
                cv.iter().cloned().fold(f64::MIN, f64::max)
                    < pv.iter().cloned().fold(f64::MAX, f64::min)
            } else {
                cv.iter().cloned().fold(f64::MAX, f64::min)
                    > pv.iter().cloned().fold(f64::MIN, f64::max)
            };
            let verdict = match spec.bound {
                None => format!("{:+.2}% worse", delta * 100.0),
                Some(b) if spread > b && !all_better => {
                    format!("unresolved (parent spread {spread:.3} > bound {b})")
                }
                Some(b) if delta > b => {
                    worse += 1;
                    format!("WORSE by {:.2}% (bound {:.1}%)", delta * 100.0, b * 100.0)
                }
                Some(_) => format!("ok ({:+.2}% worse)", delta * 100.0),
            };
            let _ = writeln!(
                out,
                "{:<15} {:<36} {:>6} {:>4} {cm:>14.6} {c1:>14.6} {c3:>14.6} {cspread:>8.4} {:>8}  {verdict}",
                "  change",
                "",
                "",
                cv.len(),
                ""
            );
        }
    }
    for b in &bad {
        let _ = writeln!(out, "NOT CORRECT: {b}");
    }
    if change.is_some() {
        let _ = writeln!(out, "{worse} metric(s) worse than their bound");
    }
    Ok(out)
}
