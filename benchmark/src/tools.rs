//! Whole-benchmark tools built on single runs: `all` (every workload,
//! several seeds, one table and one result file), `repeat` (several
//! sets, and how far their medians disagree), `compare` (two result
//! files, one verdict per workload × metric) and `--smoke`.
//!
//! Every single run is a child process of this same executable, so
//! each pins itself afresh and its peak memory is its own.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use mo_core::certify::json::{self, Json};

use crate::spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{quartiles, Quartiles};
use crate::Flags;

/// One child run's parsed result line.
struct RunResult {
    workload: String,
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// A set: the runs of one `all` invocation.
struct Set {
    runs: Vec<RunResult>,
}

impl Set {
    /// Values of `metric` on `workload`, one per run.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    }

    fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                let metrics: Vec<String> =
                    r.metrics.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                format!(
                    "  {{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                    r.workload,
                    r.seed,
                    r.correct,
                    r.attempted,
                    r.failed,
                    metrics.join(", ")
                )
            })
            .collect();
        format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"))
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("no `runs` array")?
            .iter()
            .map(|r| {
                let field = |k: &str| r.get(k).ok_or(format!("a run lacks `{k}`"));
                let metrics = match field("metrics")? {
                    Json::Obj(fields) => fields
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect(),
                    _ => return Err("`metrics` is not an object".to_string()),
                };
                Ok(RunResult {
                    workload: field("workload")?.as_str().unwrap_or("").to_string(),
                    seed: field("seed")?.as_u64().unwrap_or(0),
                    correct: field("correct")?.as_bool().unwrap_or(false),
                    attempted: field("attempted")?.as_u64().unwrap_or(0),
                    failed: field("failed")?.as_u64().unwrap_or(0),
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Set { runs })
    }
}

/// Start one workload run as a child and parse its last output line.
fn child_run(workload: &str, seed: u64, extra: &[String]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            "0",
        ])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed} printed no result ({e}); exit {}",
            out.status
        )
    })?;
    let mut metrics: BTreeMap<String, f64> = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload}: result line has no metrics")),
    };
    // The wall-clock readings the run printed beside its metrics.
    let wall = stdout.lines().find_map(|l| l.strip_prefix("# wall "));
    if let Some(Ok(Json::Obj(fields))) = wall.map(json::parse) {
        metrics.extend(
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))),
        );
    }
    Ok(RunResult {
        workload: workload.to_string(),
        seed,
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && out.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// One set: `runs` runs of every workload, seeds `seed..seed + runs`,
/// workloads interleaved so that slow drift of the host spreads over
/// all of them.
fn run_set(runs: u64, seed: u64, extra: &[String]) -> Result<Set, String> {
    let mut set = Set { runs: Vec::new() };
    for r in 0..runs {
        for (w, _) in WORKLOADS {
            let res = child_run(w, seed + r, extra)?;
            eprintln!(
                "  {w} seed {}: {} ops/s, failed {} of {}",
                seed + r,
                res.metrics.get("throughput_ops_s").copied().unwrap_or(0.0),
                res.failed,
                res.attempted
            );
            set.runs.push(res);
        }
    }
    Ok(set)
}

fn print_set(set: &Set) -> bool {
    println!(
        "{:<18} {:<17} {:>12} {:>12} {:>12} {:>8}  unit",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for (w, _) in WORKLOADS {
        for (metric, unit, _, _) in END_TO_END {
            let v = set.values(w, metric);
            if v.is_empty() {
                continue;
            }
            let q = quartiles(&v);
            println!(
                "{w:<18} {metric:<17} {:>12.4} {:>12.4} {:>12.4} {:>7.2}%  {unit}",
                q.median,
                q.q1,
                q.q3,
                q.spread() * 100.0
            );
        }
    }
    println!("uncalibrated (wall-clock) readings of the same runs:");
    for (w, _) in WORKLOADS {
        for metric in ["wall.throughput_ops_s", "wall.setup_s", "host_factor"] {
            let v = set.values(w, metric);
            if v.is_empty() {
                continue;
            }
            let q = quartiles(&v);
            println!(
                "{w:<18} {metric:<22} {:>12.4} {:>12.4} {:>12.4} {:>7.2}%",
                q.median,
                q.q1,
                q.q3,
                q.spread() * 100.0
            );
        }
    }
    let (attempted, failed) = set
        .runs
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    let correct = set.runs.iter().all(|r| r.correct);
    println!(
        "{} runs, {attempted} operations attempted, failed = {failed}, every run correct: {correct}",
        set.runs.len()
    );
    correct && failed == 0
}

/// The flags `all` and `repeat` hand through to every run.
fn run_args(f: &mut Flags) -> Result<Vec<String>, String> {
    let seconds: f64 = f.parse("--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let mut args = vec!["--seconds".to_string(), seconds.to_string()];
    if f.flag("--no-pin") {
        args.push("--no-pin".to_string());
    }
    Ok(args)
}

/// `all`: every end-to-end metric by name and unit for all workloads.
pub fn all(mut f: Flags) -> Result<bool, String> {
    let runs = f.parse("--runs")?.unwrap_or(1);
    let seed = f.parse("--seed")?.unwrap_or(1);
    let out = f.take("--out")?;
    let extra = run_args(&mut f)?;
    f.finish()?;
    let set = run_set(runs, seed, &extra)?;
    if let Some(path) = out {
        std::fs::write(&path, set.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(print_set(&set))
}

/// `--smoke`: every workload once, briefly; the correctness gate and
/// the plumbing, not a measurement.
pub fn smoke(f: Flags) -> Result<bool, String> {
    f.finish()?;
    let extra: Vec<String> = [
        "--seconds",
        "0.5",
        "--setup-cycles",
        "2",
        "--min-rounds",
        "2",
    ]
    .map(String::from)
    .to_vec();
    Ok(print_set(&run_set(1, 1, &extra)?))
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// `b` is better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `repeat N`: N sets of the same code; per workload × metric, the
/// largest disagreement between two sets' medians against the bound.
pub fn repeat(mut f: Flags) -> Result<bool, String> {
    let n: u64 = f
        .positional()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .ok_or("repeat needs a number of sets, at least 2")?;
    let runs: u64 = f.parse("--runs")?.unwrap_or(5);
    let out = f.take("--out")?;
    let extra = run_args(&mut f)?;
    f.finish()?;
    let mut sets = Vec::new();
    for k in 0..n {
        eprintln!("set {} of {n}:", k + 1);
        let set = run_set(runs, 1 + k * runs, &extra)?;
        if let Some(prefix) = &out {
            let path = format!("{prefix}{}.json", k + 1);
            std::fs::write(&path, set.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        sets.push(set);
    }
    println!(
        "{:<18} {:<17} {:>8} {:>10} {:>8}  verdict ({n} sets x {runs} runs)",
        "workload", "metric", "bound", "disagree", "spread"
    );
    let mut ok = sets.iter().all(|s| s.runs.iter().all(|r| r.correct));
    for (w, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let per_set: Vec<Quartiles> = sets
                .iter()
                .map(|s| quartiles(&s.values(w, metric)))
                .collect();
            // Worst ordered pair: how much worse one set reads than another.
            let disagree = per_set
                .iter()
                .flat_map(|a| {
                    per_set
                        .iter()
                        .map(|b| worsening(better, a.median, b.median))
                })
                .fold(0.0, f64::max);
            let spread = per_set.iter().map(Quartiles::spread).fold(0.0, f64::max);
            let verdict = if disagree > bound {
                ok = false;
                "DISAGREE: beyond the bound"
            } else if disagree > bound / 2.0 {
                "agree, but by less than half the bound: add rounds or fix the estimator"
            } else {
                "agree"
            };
            println!(
                "{w:<18} {metric:<17} {:>7.1}% {:>9.2}% {:>7.2}%  {verdict}",
                bound * 100.0,
                disagree * 100.0,
                spread * 100.0
            );
        }
    }
    Ok(ok)
}

/// `compare A.json B.json`: A is the parent, B the change.
pub fn compare(mut f: Flags) -> Result<bool, String> {
    let mut load = |what: &str| -> Result<Set, String> {
        let path = f.positional().ok_or(format!("compare needs {what}"))?;
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        Set::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load("two result files")?, load("a second result file")?);
    f.finish()?;
    println!(
        "{:<18} {:<17} {:>30} {:>30} {:>7} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "worse by"
    );
    let mut regressed = false;
    for (w, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let (va, vb) = (a.values(w, metric), b.values(w, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let worse_by = worsening(better, qa.median, qb.median);
            // Every run of B reads better than every run of A?
            let clean_win = va
                .iter()
                .all(|&x| vb.iter().all(|&y| worsening(better, x, y) < 0.0));
            let verdict = if qa.spread().max(qb.spread()) > bound && !clean_win {
                "unresolved"
            } else if worse_by > bound {
                regressed = true;
                "worse"
            } else {
                "ok"
            };
            let cell = |q: Quartiles| format!("{:.4} [{:.4}, {:.4}]", q.median, q.q1, q.q3);
            println!(
                "{w:<18} {metric:<17} {:>30} {:>30} {:>6.1}% {:>+7.2}%  {verdict}",
                cell(qa),
                cell(qb),
                bound * 100.0,
                worse_by * 100.0
            );
        }
    }
    Ok(!regressed)
}
