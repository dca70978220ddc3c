//! The benchmark's own spans: recorded from outside the program, around
//! the calls into each layer, kept in memory and written as Chrome
//! trace-event JSON when the run ends.

use crate::json::escape;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The module the timed call belongs to (`disk`, `refenc`, `nav`, …).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one probe, session or build share this id.
    pub probe: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, probe: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            probe,
        });
        id
    }

    /// Closes span `id` (and any span left open inside it) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end;
            if top == id {
                break;
            }
        }
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part its child
    /// spans cover, summed over the layer's spans.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.layer).or_default();
            e.calls += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Call count and total duration per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes every span as a complete (`"ph":"X"`) Chrome trace event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"probe\":{}}}}}",
                if id == 0 { "" } else { ",\n" },
                escape(s.name),
                escape(s.layer),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.probe,
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.begin("probe", "nav", 7);
        let a = t.begin("read_blob", "disk", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("parse", "refenc", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        let total = t.end(root);
        assert_eq!(t.spans()[a as usize].parent, Some(root));
        assert_eq!(t.spans()[root as usize].parent, None);
        let by = t.self_time_by_layer();
        let sum: u64 = by.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, total, "self times tile the root span");
        assert!(by["disk"].self_ns >= 2_000_000 && by["nav"].self_ns < total / 2);
        assert_eq!(by["refenc"].calls, 1);
    }
}
