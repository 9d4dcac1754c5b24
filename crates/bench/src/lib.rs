//! Shared benchmark harness: timing, table printing, result recording.
//!
//! Every figure/table binary follows the same protocol:
//!
//! 1. Read [`BenchOpts`] from the environment (`RDG_QUICK=1` shrinks
//!    workloads for smoke runs, `RDG_THREADS=n` pins the worker count,
//!    `RDG_SECONDS=s` adjusts the measurement window).
//! 2. Measure throughput with [`throughput`] (timed window after a warm-up).
//! 3. Print a paper-format table with [`Table`] and append a
//!    machine-readable record under `results/`: the rendered text to
//!    `results/<name>.txt` and one JSON line per run to
//!    `results/<name>.json`, so benchmark trajectories across PRs can be
//!    diffed mechanically (see [`record_json`]).

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Benchmark options from the environment.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Shrink workloads (CI / smoke runs).
    pub quick: bool,
    /// Executor worker threads.
    pub threads: usize,
    /// Measurement window per cell, seconds.
    pub seconds: f64,
}

impl BenchOpts {
    /// Reads `RDG_QUICK`, `RDG_THREADS`, `RDG_SECONDS`.
    pub fn from_env() -> Self {
        let quick = std::env::var("RDG_QUICK")
            .map(|v| v != "0")
            .unwrap_or(false);
        let threads = std::env::var("RDG_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(2)
            });
        let seconds = std::env::var("RDG_SECONDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 0.8 } else { 3.0 });
        BenchOpts {
            quick,
            threads,
            seconds,
        }
    }
}

/// Runs `f` (which processes `batch` instances per call) repeatedly for the
/// measurement window after one warm-up call; returns instances/second.
pub fn throughput(batch: usize, window: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (also pays one-time planning costs outside the window)
    let t0 = Instant::now();
    let mut calls = 0usize;
    while t0.elapsed() < window {
        f();
        calls += 1;
    }
    (calls * batch) as f64 / t0.elapsed().as_secs_f64()
}

/// Times a single invocation of `f` in seconds.
pub fn time_once(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// A fixed-width text table in the paper's row/column format.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "== {} ==", self.title);
        let line = |s: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(c.len());
                let _ = write!(s, "{c:>w$}  ");
            }
            let _ = writeln!(s);
        };
        line(&mut s, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(s, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut s, row);
        }
        s
    }

    /// Prints to stdout and appends to `results/<name>.txt` (rendered text)
    /// and `results/<name>.json` (one structured record per run).
    pub fn emit(&self, name: &str) {
        let rendered = self.render();
        println!("{rendered}");
        record(name, &rendered);
        record_json(name, &self.title, &self.headers, &self.rows);
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
///
/// `shims/criterion` carries its own copy (`escape_json_label`) rather
/// than sharing this one: the shim must stay a drop-in for real criterion,
/// which exposes no such helper, so nothing outside the shim may depend on
/// it. A fix to either escaper should be mirrored in the other.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Resolves the `results/` directory records append to.
///
/// `RDG_RESULTS_DIR` wins when set. Otherwise the walk starts at the
/// process working directory and climbs until it finds an existing
/// `results/` or a `Cargo.lock` (the workspace root) — figure/table
/// binaries run from the repo root, but `cargo bench` runs bench
/// executables from their *package* directory (`crates/bench`), and both
/// must land records in the same place.
pub fn results_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("RDG_RESULTS_DIR") {
        if !dir.is_empty() {
            return dir.into();
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        if dir.join("results").is_dir() || dir.join("Cargo.lock").is_file() {
            return dir.join("results");
        }
        if !dir.pop() {
            return "results".into();
        }
    }
}

/// Appends one JSON line describing a table run to `results/<name>.json`:
/// `{"table":…,"headers":[…],"rows":[[…]],"isa":…,"unix_time":…}`.
///
/// The file is append-only JSON-lines, so successive runs (and successive
/// PRs) accumulate a trajectory that tooling can diff without parsing the
/// human-format text tables. `isa` is the matmul build that produced the
/// record (`rdg_tensor::ops::vector_isa`: `"avx2"` or `"baseline"`).
pub fn record_json(name: &str, title: &str, headers: &[String], rows: &[Vec<String>]) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let cells = |row: &[String]| -> String {
        let quoted: Vec<String> = row
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect();
        format!("[{}]", quoted.join(","))
    };
    let rows_json: Vec<String> = rows.iter().map(|r| cells(r)).collect();
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(
            f,
            "{{\"table\":\"{}\",\"headers\":{},\"rows\":[{}],\"isa\":\"{}\",\"unix_time\":{}}}",
            json_escape(title),
            cells(headers),
            rows_json.join(","),
            rdg_core::tensor::ops::vector_isa(),
            unix_time
        );
    }
}

/// Appends `content` (with a timestamp header) to `results/<name>.txt`.
pub fn record(name: &str, content: &str) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.txt"));
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(
            f,
            "# run at unix {}\n{content}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
        );
    }
}

/// A paper claim's verdict cell: `holds` or `fails`.
pub fn verdict(holds: bool) -> String {
    if holds { "holds" } else { "fails" }.to_string()
}

/// Formats a throughput value the way the paper annotates bars.
pub fn fmt_thr(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["model", "batch 1", "batch 10"]);
        t.row(&["treernn".into(), "46.6".into(), "125.2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("treernn"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn throughput_counts_instances() {
        let rate = throughput(10, Duration::from_millis(50), || {
            std::thread::sleep(Duration::from_millis(5));
        });
        // ~10 calls in 50 ms → ~2000 instances/s, very loose bounds.
        assert!(rate > 200.0 && rate < 20_000.0, "rate {rate}");
    }

    #[test]
    fn json_escape_neutralizes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c d");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn fmt_thr_scales_precision() {
        assert_eq!(fmt_thr(129.7), "130");
        assert_eq!(fmt_thr(46.64), "46.6");
        assert_eq!(fmt_thr(4.82), "4.82");
    }
}
