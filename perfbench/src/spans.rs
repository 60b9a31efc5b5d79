//! The benchmark's own spans: one per public call it makes, kept in
//! memory and written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op`; returns its handle.
    pub fn open(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span; returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Share of root-span time that no child span covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            match s.parent {
                None => total += s.end_ns - s.start_ns,
                Some(_) => covered += s.end_ns - s.start_ns,
            }
        }
        if total == 0 {
            0.0
        } else {
            100.0 * total.saturating_sub(covered) as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_the_root() {
        let mut log = SpanLog::new();
        let root = log.open("op.read", 0, None);
        let child = log.open("client.translate", 0, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(5));
        log.close(child);
        log.close(root);
        let pct = log.unattributed_pct();
        assert!((0.0..50.0).contains(&pct), "{pct}");
    }
}
