//! In-memory spans around calls into each layer, and their self times.
//!
//! A traced run opens one root span per measured chunk (`bench.*`) and
//! records a child span around every call into a layer (`query.plan`,
//! `buffer.ingest`, `exec.run`, `net.send`, `net.recv`). A span's self
//! time is its duration minus the part of it that its children cover, so
//! the root's self time is the wall time no layer accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same thread's span list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span list. Disabled tracers record nothing and cost one
/// branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Per-name totals over several threads' spans: (self ns, span count).
pub fn totals_by_name(threads: &[&[Span]]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
    }
    out
}

/// Share of root-span wall time (spans without a parent) that no child
/// span covers.
pub fn unaccounted_share(threads: &[&[Span]]) -> f64 {
    let (mut own, mut wall) = (0u64, 0u64);
    for spans in threads {
        for (s, t) in spans.iter().zip(self_times(spans)) {
            if s.parent.is_none() {
                own += t;
                wall += s.end_ns - s.start_ns;
            }
        }
    }
    if wall == 0 {
        0.0
    } else {
        own as f64 / wall as f64
    }
}

/// Writes spans as CSV (`thread,index,parent,name,start_ns,end_ns`),
/// at most `cap` rows per thread; the header line records what was cut.
pub fn write_csv(path: &std::path::Path, threads: &[&[Span]], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let total: usize = threads.iter().map(|t| t.len()).sum();
    let kept: usize = threads.iter().map(|t| t.len().min(cap)).sum();
    writeln!(w, "# spans {total}, written {kept}")?;
    writeln!(w, "thread,index,parent,name,start_ns,end_ns")?;
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().take(cap).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{thread},{i},{parent},{},{},{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the overlap is covered once, not twice.
            span("b", Some(0), 20, 50),
            // Spills past the root's end: clipped.
            span("c", Some(0), 90, 120),
            span("inner", Some(1), 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
        let by_name = totals_by_name(&[&spans]);
        assert_eq!(by_name["root"], (50, 1));
        assert!((unaccounted_share(&[&spans]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let root = t.open("bench.chunk", None);
        assert_eq!(t.time("exec.run", root, || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let root = t.open("bench.chunk", None);
        t.time("exec.run", root, || ());
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
