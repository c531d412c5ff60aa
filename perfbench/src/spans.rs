//! In-memory span recorder for the traced run. Spans are recorded around
//! the benchmark's own calls into the program and written out once, at the
//! end, as JSON lines.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one cell (or of set-up, or of the probes).
    pub trace: String,
    /// What was called.
    pub name: &'static str,
    /// Host ns since the recorder was created.
    pub start_ns: u64,
    /// Host ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Host duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; a disabled recorder records nothing and costs one branch.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Time `f` as span `name` under `parent` in trace `trace` and return
    /// `f`'s value. `f` receives the new span's id (0 when disabled) so
    /// nested calls can name it as their parent.
    pub fn span<T>(
        &mut self,
        trace: &str,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(&mut Self, u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, 0);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let value = f(self, id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            trace: trace.to_string(),
            name,
            start_ns,
            end_ns,
        });
        value
    }

    /// Every span recorded, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"trace\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.trace, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
