//! The benchmark's own call spans.
//!
//! Every call the benchmark makes into a layer of the stack can be
//! wrapped in a span: name, start, end, parent span and item id. Spans
//! live in memory for the whole run and are written out at exit. A
//! disabled recorder (the untraced runs) records nothing and costs one
//! branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `dream.checksum`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The item (frame index or stream id) the call served.
    pub item: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for a span opened with [`Spans::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// An in-memory span recorder.
pub struct Spans {
    on: bool,
    origin: Instant,
    recs: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, item: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.recs.len();
        self.recs.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            item,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        self.recs[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn call<T>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, item);
        let out = f();
        self.end(open);
        out
    }

    /// The closed spans recorded so far.
    #[cfg(test)]
    pub fn records(&self) -> &[Span] {
        &self.recs
    }

    /// Self time (duration minus the time child spans cover) and call
    /// count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for s in &self.recs {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.recs.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.duration_ns().saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Writes one JSON object per span, tagged with the pass it belongs
    /// to. Parents are indices within the same pass.
    pub fn write_jsonl(&self, pass: usize, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.recs.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"pass\":{pass},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer", 1);
        s.call("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.end(outer);
        let t = s.self_times();
        let inner = s.records()[1].duration_ns();
        let outer_total = s.records()[0].duration_ns();
        assert_eq!(t["inner"], (inner, 1));
        assert_eq!(t["outer"], (outer_total - inner, 1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let v = s.call("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(s.records().is_empty());
    }
}
