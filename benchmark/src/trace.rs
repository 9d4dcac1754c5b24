//! Spans recorded by the benchmark around its own calls into the program.
//!
//! Spans live in memory and are written out once, after measurement, as
//! one JSON object per line: `{id, parent, name, workload, req, start_ns,
//! end_ns}` (`parent` 0 = none; times are nanoseconds since the tracer was
//! created). A span's *self time* is its duration minus the part of its
//! interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval; `req` ties the spans of one request together.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Set-up spans are always recorded (a handful);
/// per-request spans only in a traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    per_request: bool,
}

impl Tracer {
    pub fn new(per_request: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            per_request,
        }
    }

    /// Whether per-request spans are wanted (the traced run).
    pub fn per_request(&self) -> bool {
        self.per_request
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = self.ns(Instant::now());
        self.add(name, parent, req, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`]; returns its seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let now = self.ns(Instant::now());
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Records a finished span from timestamps taken elsewhere.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, workload, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Total self time (ns) and span count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            // Union of the child intervals, clipped to the parent.
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns) - covered;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new(true);
        let req = t.add("request", 0, 7, 100, 1100);
        t.add("request/submit", req, 7, 150, 250);
        t.add("request/wait", req, 7, 250, 1100);
        let st = self_times(t.spans());
        // The request's own 50 ns is the gap before submit (lateness).
        assert_eq!(st["request"], (50, 1));
        assert_eq!(st["request/submit"], (100, 1));
        assert_eq!(st["request/wait"], (850, 1));
        // Self times of a request's spans sum to the request span.
        let total: u64 = st.values().map(|v| v.0).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let mut t = Tracer::new(true);
        let p = t.add("p", 0, 0, 0, 100);
        t.add("c", p, 0, 10, 60);
        t.add("c", p, 0, 40, 80); // overlaps the first by 20
        t.add("c", p, 0, 90, 150); // overhangs the parent by 50
        let st = self_times(t.spans());
        // Cover = [10,80) ∪ [90,100) = 80, so self = 20.
        assert_eq!(st["p"], (20, 1));
        assert_eq!(st["c"].1, 3);
    }

    #[test]
    fn begin_end_nest_and_measure() {
        let mut t = Tracer::new(false);
        let a = t.begin("setup", 0, 0);
        let b = t.begin("setup/data.gen", a, 0);
        assert!(t.end(b) >= 0.0);
        assert!(t.end(a) >= 0.0);
        let s = t.spans();
        assert_eq!(s[1].parent, s[0].id);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ns("setup").len(), 1);
    }
}
