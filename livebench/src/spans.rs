//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer, and around each live op from submit to completion.
//! They are written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are ns since the recorder was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The op this span belongs to (0 for spans that are not one op's).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. When off, every call is a branch and nothing else.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: u64,
    kept: Vec<Span>,
    /// Kept spans that belong to one op.
    op_spans: usize,
    /// Op spans not kept because the cap was reached.
    pub dropped: u64,
}

/// Most op spans (one per live op, as many as the run completes) one run
/// keeps; later ones are counted in `dropped`. Every other span is kept:
/// the benchmark records a fixed number of them, and the per-layer
/// metrics are computed from them.
const CAP: usize = 200_000;

/// An open span: call [`Spans::close`] with it.
#[derive(Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// This span's id, to parent children under it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next_id: 1,
            kept: Vec::new(),
            op_spans: 0,
            dropped: 0,
        }
    }

    /// True if spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (an alternating A/B measures the
    /// recorder's own cost).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// ns since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: u64, op: u64) -> Open {
        let start_ns = if self.on { self.now_ns() } else { 0 };
        self.open_at(name, parent, op, start_ns)
    }

    /// Opens a span that started at `start_ns`.
    pub fn open_at(&mut self, name: &'static str, parent: u64, op: u64, start_ns: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            op,
            name,
            start_ns,
        }
    }

    /// Closes `open` now; returns its duration in ns (0 when off).
    pub fn close(&mut self, open: Open) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        self.close_at(open, end_ns)
    }

    /// Closes `open` at `end_ns`; returns its duration in ns.
    pub fn close_at(&mut self, open: Open, end_ns: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let duration = end_ns.saturating_sub(open.start_ns);
        if open.op != 0 {
            if self.op_spans == CAP {
                self.dropped += 1;
                return duration;
            }
            self.op_spans += 1;
        }
        self.kept.push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
        duration
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns (0 when off).
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.open(name, parent, 0);
        let r = f();
        let ns = self.close(open);
        (r, ns)
    }

    /// Every kept span.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Durations (ns) of every kept span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.kept
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_spans_stop_at_the_cap_and_the_rest_are_kept() {
        let mut spans = Spans::new(true);
        for op in 1..=CAP as u64 + 3 {
            let open = spans.open("live.op", 0, op);
            spans.close(open);
        }
        assert_eq!(spans.dropped, 3);
        let (_, _) = spans.time("layer", 0, || ());
        assert_eq!(spans.durations("live.op").len(), CAP);
        assert_eq!(spans.durations("layer").len(), 1);

        let mut off = Spans::new(false);
        let open = off.open("layer", 0, 0);
        assert_eq!(off.close(open), 0);
        assert!(off.kept().is_empty());
    }
}
