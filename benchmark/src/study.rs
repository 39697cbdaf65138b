//! Rehearsing the acceptance check, and comparing two sets of runs.
//!
//! `--study N` runs every workload at seeds 1..=N, one child process per
//! run (fresh process state, a hard time limit), interleaved so that
//! every workload is sampled across the whole study, and reports for
//! each end-to-end metric the distance between the quartiles of its N
//! values as a share of their median — the spread the benchmark is
//! accepted on. `--compare A B` applies the bounds of `BENCHMARK.json`
//! to two such sets.

use crate::stats::{median, quartiles};
use crate::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The contract's limit on one run.
const CHILD_LIMIT: Duration = Duration::from_secs(180);

/// One declared end-to-end metric.
pub struct Metric {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
pub struct Declared {
    pub run_seconds: u64,
    pub end_to_end: Vec<Metric>,
}

pub fn text(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or(format!("BENCHMARK.json: missing `{key}`"))
}

pub fn list<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json: missing `{key}`"))
}

/// Reads `BENCHMARK.json` from the working directory (the repository
/// root, where the command runs) or, failing that, from beside this
/// package.
pub fn benchmark_json() -> Result<Value, String> {
    let beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let source = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(beside))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    serde_json::from_str(&source).map_err(|e| format!("BENCHMARK.json: {e}"))
}

impl Declared {
    /// The run length and the end-to-end metrics of [`benchmark_json`].
    pub fn load() -> Result<Declared, String> {
        let doc = benchmark_json()?;
        let direction = |m: &Value| match text(m, "better")?.as_str() {
            "higher" => Ok(true),
            "lower" => Ok(false),
            other => Err(format!("BENCHMARK.json: better `{other}`")),
        };
        Ok(Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            end_to_end: list(&doc, "end_to_end")?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text(m, "name")?,
                        higher_is_better: direction(m)?,
                        bound: m
                            .get("bound")
                            .and_then(Value::as_f64)
                            .ok_or("BENCHMARK.json: a metric without `bound`")?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// The metric values of one result line, after checking that it has the
/// contract's shape.
pub fn parse_result(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let keys: Vec<&str> = doc
        .as_object()
        .ok_or("not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("keys {keys:?}"));
    }
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err("not correct".to_owned());
    }
    if doc.get("attempted").and_then(Value::as_u64).unwrap_or(0) == 0 {
        return Err("nothing attempted".to_owned());
    }
    if doc.get("failed").and_then(Value::as_u64) != Some(0) {
        return Err("operations failed".to_owned());
    }
    doc.get("metrics")
        .and_then(Value::as_object)
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            match (value, m.get("unit").and_then(Value::as_str)) {
                (Some(v), Some(_)) if v.is_finite() => Ok((name.clone(), v)),
                _ => Err(format!("metric `{name}` without a finite value and a unit")),
            }
        })
        .collect()
}

/// Runs one child to its result line, killing it at the limit.
fn run_child(exe: &Path, workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_LIMIT => {
                // Kill and reap; the error to report is the timeout.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("no result within {CHILD_LIMIT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    // One short line: it fits the pipe, so reading after exit is safe.
    let output = child.wait_with_output().map_err(|e| format!("read: {e}"))?;
    if !status.success() {
        return Err(format!("exit {status}"));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .next_back()
        .map(str::to_owned)
        .ok_or("no output".to_owned())
}

/// `--study`: see the module text. Writes `<out>/<workload>.jsonl`.
pub fn study(runs: u64, seconds: Option<f64>, out: &Path) -> Result<ExitCode, String> {
    let declared = Declared::load()?;
    let seconds = seconds.unwrap_or(declared.run_seconds as f64);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut files = Vec::new();
    for workload in WORKLOADS {
        let path = out.join(format!("{workload}.jsonl"));
        files.push(std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    for seed in 1..=runs {
        for (workload, file) in WORKLOADS.iter().zip(&mut files) {
            let line = run_child(&exe, workload, seed, seconds)
                .and_then(|line| parse_result(&line).map(|_| line))
                .map_err(|e| format!("{workload} seed {seed}: {e}"))?;
            writeln!(file, "{line}").map_err(|e| format!("write: {e}"))?;
            eprintln!("study: {workload} seed {seed} done");
        }
    }
    drop(files);

    let set = load_set(out)?;
    let mut too_wide = false;
    println!(
        "{:<13} {:<17} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for workload in WORKLOADS {
        for metric in &declared.end_to_end {
            let values = &set[workload][&metric.name];
            let spread = spread(values);
            let verdict = if metric.name == "setup_s" {
                "exempt"
            } else if spread > metric.bound {
                too_wide = true;
                "TOO WIDE"
            } else if spread > metric.bound / 3.0 {
                "above a third of the bound"
            } else {
                "steady"
            };
            println!(
                "{workload:<13} {:<17} {:>14.4} {:>7.2}% {:>6.1}%  {verdict}",
                metric.name,
                median(values),
                spread * 100.0,
                metric.bound * 100.0
            );
        }
    }
    Ok(if too_wide {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Distance between the quartiles as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// workload → metric → one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    for workload in WORKLOADS {
        let path: PathBuf = dir.join(format!("{workload}.jsonl"));
        let lines =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = set.entry(workload.to_owned()).or_default();
        for line in lines.lines() {
            for (name, value) in
                parse_result(line).map_err(|e| format!("{}: {e}", path.display()))?
            {
                metrics.entry(name).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// How set B reads against set A on one metric.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Agree,
    /// The spread of a set is wider than the bound, and the runs overlap.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Differ,
}

/// The rule of the choosing-metrics guide: no worse by more than the
/// bound; unresolved where a set's spread exceeds the bound, unless every
/// run of B reads better than every run of A.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (median_a, median_b) = (median(a), median(b));
    let worse_by = if higher_is_better {
        (median_a - median_b) / median_a
    } else {
        (median_b - median_a) / median_a
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let every_b_better = if higher_is_better {
        min(b) > max(a)
    } else {
        max(b) < min(a)
    };
    let wide = a.len() >= 2 && b.len() >= 2 && spread(a).max(spread(b)) > bound;
    if wide && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Differ
    } else {
        Verdict::Agree
    }
}

/// `--compare A B`: one line per (workload, metric); fails on `differ`.
pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let declared = Declared::load()?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut differ = false;
    println!(
        "{:<13} {:<17} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "bound"
    );
    for workload in WORKLOADS {
        for metric in &declared.end_to_end {
            let values = |set: &Set| {
                set.get(workload)
                    .and_then(|m| m.get(&metric.name))
                    .filter(|v| !v.is_empty())
                    .cloned()
                    .ok_or(format!("{workload}: no `{}` in a set", metric.name))
            };
            let (va, vb) = (values(&set_a)?, values(&set_b)?);
            let verdict = verdict(&va, &vb, metric.higher_is_better, metric.bound);
            differ |= verdict == Verdict::Differ;
            println!(
                "{workload:<13} {:<17} {:>14.4} {:>14.4} {:>+7.2}% {:>6.1}%  {}",
                metric.name,
                median(&va),
                median(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                metric.bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(if differ {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // Lower is better, bound 8 %.
        assert_eq!(
            verdict(&steady, &[104.0, 105.0, 103.0, 104.0], false, 0.08),
            Verdict::Agree
        );
        assert_eq!(
            verdict(&steady, &[110.0, 111.0, 109.0, 110.0], false, 0.08),
            Verdict::Differ
        );
        assert_eq!(
            verdict(&steady, &[90.0, 91.0, 89.0, 90.0], false, 0.08),
            Verdict::Agree
        );
        // The same numbers as a throughput: lower is now worse.
        assert_eq!(
            verdict(&steady, &[90.0, 91.0, 89.0, 90.0], true, 0.08),
            Verdict::Differ
        );
        // A set wider than the bound decides nothing…
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(verdict(&steady, &noisy, false, 0.08), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(
            verdict(&steady, &[50.0, 60.0, 70.0, 80.0], false, 0.08),
            Verdict::Agree
        );
    }

    #[test]
    fn a_result_line_must_have_the_contract_shape() {
        let good = r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        assert_eq!(parse_result(good).expect("well formed")["setup_s"], 0.5);
        for bad in [
            r#"{"correct":false,"attempted":5,"failed":0,"metrics":{}}"#,
            r#"{"correct":true,"attempted":0,"failed":0,"metrics":{}}"#,
            r#"{"correct":true,"attempted":5,"failed":1,"metrics":{}}"#,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{},"extra":1}"#,
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"m":{"value":1.0}}}"#,
        ] {
            assert!(parse_result(bad).is_err(), "{bad}");
        }
    }
}
