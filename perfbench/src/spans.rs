//! The benchmark's own spans: one per call into a layer's public entry
//! point, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point, e.g. `placement.consolidate`.
    pub name: &'static str,
    /// Seconds from the tracer's epoch to the call.
    pub start_s: f64,
    /// Seconds from the tracer's epoch to the return.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to; all spans of one repetition share it.
    pub run: usize,
}

impl Span {
    /// Wall seconds between call and return.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder. When off, [`span`](Self::span) just calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the following calls.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the following spans with repetition `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    /// Runs `f` inside a span called `name`. `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Recorded spans, in call order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy seconds of `name` per repetition that recorded any span.
    pub fn busy_by_run(&self, name: &str) -> BTreeMap<usize, f64> {
        let mut runs: BTreeMap<usize, f64> = self.spans.iter().map(|s| (s.run, 0.0)).collect();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *runs.entry(s.run).or_default() += s.secs();
        }
        runs
    }

    /// Every duration recorded under `name`, in call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{},\"run\":{}}}",
                s.name, s.start_s, s.end_s, parent, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_run() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        t.span("outer", |t| t.span("inner", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_s >= s.start_s));
        assert!(spans[0].end_s >= spans[1].end_s);
        assert_eq!(t.busy_by_run("inner").len(), 1);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
        assert!(t.busy_by_run("x").is_empty());
    }
}
