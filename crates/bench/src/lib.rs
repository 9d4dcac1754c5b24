//! Shared benchmark harness: timing, table printing, result recording.
//!
//! Every figure/table binary follows the same protocol:
//!
//! 1. Read [`BenchOpts`] from the environment (`RDG_QUICK=1` shrinks
//!    workloads for smoke runs, `RDG_THREADS=n` pins the worker count,
//!    `RDG_SECONDS=s` adjusts the measurement window).
//! 2. Measure throughput with [`throughput`] (timed window after a warm-up);
//!    a claim's ratio with [`interleaved`] ([`WINDOWS`] windows per arm,
//!    alternating arms, median with min–max) and its verdict with
//!    [`Spread`] (`holds` / `fails` only when every window agrees).
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
    /// Measurement window, seconds: per cell, or per window of an
    /// [`interleaved`] ratio.
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

/// Windows per arm in which [`interleaved`] measures a ratio. One window
/// cannot decide a ratio near 1 on a shared host (two back-to-back runs
/// read the same cell 0.90 and 1.32), so every decided claim gets this
/// many, in quick mode too: quick mode shrinks workloads, never `k`.
pub const WINDOWS: usize = 5;

/// The spread of a ratio measured in several windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median over the windows.
    pub median: f64,
    /// Smallest window.
    pub min: f64,
    /// Largest window.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples` (at least one).
    pub fn of(samples: &[f64]) -> Spread {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Spread {
            median,
            min: v[0],
            max: v[n - 1],
        }
    }

    /// The verdict on "this ratio is above 1": `holds` only when every
    /// window is (`min > 1`), `fails` only when none is (`max < 1`).
    pub fn above_one(&self) -> String {
        decide(self.min > 1.0, self.max < 1.0)
    }

    /// The verdict on "this ratio is below `prev`": `holds` when the two
    /// spreads do not overlap and this one is lower, `fails` when they do
    /// not overlap and this one is higher.
    pub fn below(&self, prev: &Spread) -> String {
        decide(self.max < prev.min, self.min > prev.max)
    }

    /// `median (min–max)`, two decimals.
    pub fn cell(&self) -> String {
        format!("{:.2} ({:.2}–{:.2})", self.median, self.min, self.max)
    }
}

/// Measures two arms that process `batch` instances per call, each in
/// [`WINDOWS`] windows of `window`, interleaved window by window (A B A B
/// …) so a slow spell of the host lands on both. Returns each arm's median
/// throughput and the spread of the per-window ratio A/B.
pub fn interleaved(
    batch: usize,
    window: Duration,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, Spread) {
    let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..WINDOWS {
        ta.push(throughput(batch, window, &mut a));
        tb.push(throughput(batch, window, &mut b));
        ratios.push(ta[ta.len() - 1] / tb[tb.len() - 1]);
    }
    (
        Spread::of(&ta).median,
        Spread::of(&tb).median,
        Spread::of(&ratios),
    )
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

/// A decided claim's verdict cell: `holds` or `fails` when the
/// measurement's spread settles it, `undecided` when it allows either.
pub fn decide(holds: bool, fails: bool) -> String {
    match (holds, fails) {
        (true, false) => "holds",
        (false, true) => "fails",
        _ => "undecided",
    }
    .to_string()
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
    fn spread_decides_only_what_every_window_agrees_on() {
        let s = Spread::of(&[1.3, 0.9, 1.1, 1.2, 1.0]);
        assert_eq!((s.median, s.min, s.max), (1.1, 0.9, 1.3));
        assert_eq!(s.above_one(), "undecided", "0.9 … 1.3 straddles 1");
        assert_eq!(Spread::of(&[1.1, 1.2]).above_one(), "holds");
        assert_eq!(Spread::of(&[0.8, 0.95]).above_one(), "fails");
        assert_eq!(Spread::of(&[1.0, 1.2]).median, 1.1);
        let (lo, hi) = (Spread::of(&[0.6, 0.7]), Spread::of(&[0.8, 0.9]));
        assert_eq!(lo.below(&hi), "holds");
        assert_eq!(hi.below(&lo), "fails");
        assert_eq!(lo.below(&Spread::of(&[0.65, 0.9])), "undecided");
        assert_eq!(s.cell(), "1.10 (0.90–1.30)");
    }

    #[test]
    fn interleaved_alternates_the_arms() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b, r) = interleaved(
            1,
            Duration::from_millis(2),
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert!(a > 0.0 && b > 0.0 && r.min <= r.median && r.median <= r.max);
        let mut runs = order.into_inner();
        runs.dedup();
        assert_eq!(runs.len(), 2 * WINDOWS, "A B A B …, one run per window");
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
