//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! rdg_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rdg_benchmark run   [--seed <n>] [--seconds <s>] [--traced] [--quick]
//! rdg_benchmark check [--seed <n>] [--seconds <s>] [--quick]
//! ```
//!
//! The first form runs one workload in this process and prints its metrics,
//! the last line being one JSON object; it is what `BENCHMARK.json` names.
//! `run` and `check` run every workload, each in a fresh child process
//! (the program's path interner and spec tables are process-global, and
//! `peak_rss_mb` must be per workload).

mod api;
mod consts;
mod gen;
mod metrics;
mod stats;
mod trace;
mod workloads;

use consts::*;
use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use workloads::{Outcome, RunArgs, Workload};

const USAGE: &str = "usage:
  rdg_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  rdg_benchmark run   [--seed <n>] [--seconds <s>] [--traced] [--quick]
  rdg_benchmark check [--seed <n>] [--seconds <s>] [--quick]";

/// Command-line options of every form.
struct Cli {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    setup_only: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        quick: false,
        setup_only: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value ({what})"))
        };
        match arg.as_str() {
            "run" | "check" if cli.command.is_none() => cli.command = Some(arg.clone()),
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                cli.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            "--setup-only" => cli.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0 && cli.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            cli.seconds
        ));
    }
    if cli.quick && !seconds_given {
        cli.seconds = RUN_SECONDS / 20.0;
    }
    Ok(cli)
}

/// What the machine and the run were, echoed into every output.
fn fingerprint(seed: u64) -> String {
    let first_line = |cmd: &str, arg: &str| {
        Command::new(cmd)
            .arg(arg)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_owned)
            })
            .unwrap_or_else(|| "unknown".into())
    };
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".into(), |c| c.trim().to_owned());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "fingerprint: commit {commit}; {}; cpu {cpu}; nproc {nproc}; seed {seed}; \
         workers {WORKERS} + 1 generator; open-loop rates {OPEN_RATES:?} req/s; \
         latency limit {LATENCY_LIMIT_MS} ms",
        first_line("rustc", "--version")
    )
}

/// Set-up time of one fresh child process of this program.
fn child_setup_s(a: &RunArgs) -> Result<f64, String> {
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--workload", a.workload.name(), "--setup-only"])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .output()
        .map_err(|e| format!("spawning a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "set-up process printed no setup_s".into())
}

/// One workload in this process: the form `BENCHMARK.json` names.
fn run_one(cli: &Cli, workload: Workload) -> Result<ExitCode, String> {
    let a = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
    };
    if cli.setup_only {
        let ready = workloads::set_up(&a)?;
        let s = ready.setup_s;
        ready.shut_down();
        println!("setup_s {s}");
        return Ok(ExitCode::SUCCESS);
    }
    println!("{}", fingerprint(cli.seed));
    // Set-up is timed in fresh processes first and in this one last; the
    // traced run does not report it, so it sets up once.
    let reps = if cli.traced || cli.quick {
        1
    } else {
        SETUP_REPS
    };
    let mut setups = (1..reps)
        .map(|_| child_setup_s(&a))
        .collect::<Result<Vec<f64>, String>>()?;
    let ready = workloads::set_up(&a)?;
    setups.push(ready.setup_s);
    let outcome = workloads::measure(&a, ready, stats::median(&setups))?;
    print_outcome(&a, &outcome, &setups);
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_outcome(a: &RunArgs, o: &Outcome, setups: &[f64]) {
    let w = a.workload.name();
    println!(
        "workload {w}: {} ({} s, {})",
        a.workload.why(),
        a.seconds,
        if a.traced { "traced" } else { "untraced" }
    );
    for note in &o.notes {
        println!("{w}  {note}");
    }
    if !a.traced {
        println!("{w}  set-ups (s): {setups:?}");
    }
    let value = |name: &str| o.values.get(name).copied().unwrap_or(0.0);
    let shown: Vec<(&str, &str)> = if a.traced {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (name, unit) in &shown {
        println!("{w}  {name:<28} {:>16.6} {unit}", value(name));
    }
    let metrics: Vec<String> = shown
        .iter()
        .map(|(name, unit)| {
            let v = value(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}

/// The numbers of one child run, read back from its last line.
struct ChildResult {
    correct: bool,
    values: Vec<(String, f64)>,
}

impl ChildResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }
}

/// Reads `"name": {"value": x` pairs out of a result line this program
/// itself printed (not a general JSON parser).
fn parse_result_line(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_owned();
        rest = &rest[at + "\": {\"value\": ".len()..];
        let end = rest.find(',').unwrap_or(rest.len());
        if let Ok(v) = rest[..end].parse() {
            out.push((name, v));
        }
    }
    out
}

/// Runs one workload in a fresh child process, echoing its output.
fn run_child(cli: &Cli, w: Workload, traced: bool) -> Result<ChildResult, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or("");
    if !last.starts_with("{\"correct\": ") {
        return Err(format!("{} printed no result ({})", w.name(), out.status));
    }
    Ok(ChildResult {
        correct: last.starts_with("{\"correct\": true") && out.status.success(),
        values: parse_result_line(last),
    })
}

/// Every workload once (and once more traced, when asked).
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in Workload::ALL {
        let untraced = run_child(cli, w, false)?;
        ok &= untraced.correct;
        if cli.traced {
            let traced = run_child(cli, w, true)?;
            ok &= traced.correct;
            if let (Some(u), Some(t)) = (untraced.get("inst_per_s"), traced.get("trace.inst_per_s"))
            {
                println!(
                    "{}  trace_overhead_frac {:.4} (inst_per_s {u:.1} untraced, {t:.1} traced)",
                    w.name(),
                    1.0 - t / u
                );
            }
        }
    }
    println!("run: {}", if ok { "all correct" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The full untraced set twice; fails unless every end-to-end metric on
/// every workload agrees within its bound (with `--quick`: unless every
/// output is correct).
fn check(cli: &Cli) -> Result<ExitCode, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for _ in 0..2 {
        let set = Workload::ALL
            .into_iter()
            .map(|w| run_child(cli, w, false))
            .collect::<Result<Vec<_>, _>>()?;
        ok &= set.iter().all(|r| r.correct);
        sets.push(set);
    }
    for (i, w) in Workload::ALL.iter().enumerate() {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (sets[0][i].get(m.name), sets[1][i].get(m.name)) else {
                return Err(format!("{}: {} missing from a result", w.name(), m.name));
            };
            // Worse = the second set against the first, in the metric's
            // bad direction; the sets are symmetric, so take the larger.
            let worse = if m.better == "higher" {
                (a / b).max(b / a) - 1.0
            } else {
                (b / a).max(a / b) - 1.0
            };
            let within = worse <= m.bound;
            // Runs as short as --quick do not hold the bounds: there the
            // differences are shown and only correctness decides.
            ok &= within || cli.quick;
            rows.push(format!(
                "{:<20} {:<12} {a:>14.4} {b:>14.4} {:>8.2}% (bound {:>4.1}%) {}",
                w.name(),
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            ));
        }
    }
    println!("check: workload, metric, first set, second set, difference");
    rows.iter().for_each(|r| println!("{r}"));
    println!("check: {}", if ok { "passed" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The program is measured as shipped: no environment knob may be set.
    if let Some((k, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("RDG_"))
    {
        eprintln!(
            "refusing to run: {} is set; the benchmark measures the program's defaults",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let result = parse_cli(&args).and_then(|cli| match (cli.command.as_deref(), cli.workload) {
        (None, Some(w)) => run_one(&cli, w),
        (Some("run"), None) => {
            println!("{}", fingerprint(cli.seed));
            run_all(&cli)
        }
        (Some("check"), None) => {
            println!("{}", fingerprint(cli.seed));
            check(&cli)
        }
        _ => Err(USAGE.into()),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"inst_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
                    \"p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}}}";
        assert_eq!(
            parse_result_line(line),
            vec![
                ("inst_per_s".to_owned(), 1234.5),
                ("p50_ms".to_owned(), 0.25)
            ]
        );
    }

    #[test]
    fn cli_forms_parse() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let c = parse_cli(&args(
            "--workload infer.hot8 --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(c.workload, Some(Workload::InferHot8));
        assert_eq!((c.seed, c.seconds, c.traced), (7, 3.0, true));
        let c = parse_cli(&args("check --quick")).unwrap();
        assert_eq!(c.command.as_deref(), Some("check"));
        assert_eq!(c.seconds, RUN_SECONDS / 20.0);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
    }
}
