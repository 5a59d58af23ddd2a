//! The benchmark's own spans: recorded around its calls into the program,
//! kept in memory, and written out as Chrome-trace JSON when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans of one name written to the trace file at most: a serving run
/// records one per request, far more than a trace viewer can use, and the
/// cap keeps them from crowding out the rarer layer spans.
pub const MAX_WRITTEN_PER_NAME: usize = 5_000;

struct Span {
    name: &'static str,
    label: String,
    start: Instant,
    end: Instant,
}

/// The span recorder. Off in untraced runs, where every call is a no-op.
pub struct Trace {
    on: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Suspends or resumes recording: a traced run interleaves untraced
    /// stretches of the same workload to measure the tracing overhead.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Records a span over `[start, end]`. Spans on the same thread nest
    /// by their time ranges in the viewer.
    pub fn span(&mut self, name: &'static str, label: &str, start: Instant, end: Instant) {
        if self.on && !self.paused {
            self.spans.push(Span {
                name,
                label: label.to_string(),
                start,
                end,
            });
        }
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto), the first [`MAX_WRITTEN_PER_NAME`] of each name.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        let mut per_name: HashMap<&str, usize> = HashMap::new();
        let mut line = String::new();
        let mut written = 0;
        for s in &self.spans {
            let n = per_name.entry(s.name).or_default();
            *n += 1;
            if *n > MAX_WRITTEN_PER_NAME {
                continue;
            }
            line.clear();
            if written > 0 {
                line.push_str(",\n");
            }
            let ts = s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
            let sep = if s.label.is_empty() { "" } else { " " };
            let _ = write!(
                line,
                "{{\"name\":\"{}{sep}{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3},\
                 \"dur\":{dur:.3}}}",
                s.name, s.label
            );
            w.write_all(line.as_bytes())?;
            written += 1;
        }
        writeln!(
            w,
            "\n],\"otherData\":{{\"spans\":{},\"written\":{written}}}}}",
            self.spans.len()
        )?;
        w.flush()
    }
}
