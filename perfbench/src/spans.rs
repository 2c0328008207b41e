//! In-memory spans recorded around the benchmark's calls into the
//! program. Each span has a name, start and end (ns since the run's clock
//! origin), a parent (0 for a root) and a key: the query id for query
//! spans, the flush-batch index for push spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's span buffer.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start,
            end,
        });
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; finish it with [`close`](Self::close).
    pub fn open(&self) -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start,
            end,
        });
    }
}

/// Self time per span: its duration minus the time its children cover.
/// Children of one parent never overlap (they run on the parent's
/// thread, one after the other).
pub fn self_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.ns())).collect();
    for s in spans {
        if let Some(p) = out.get_mut(&s.parent) {
            *p = p.saturating_sub(s.ns());
        }
    }
    out
}

/// Writes spans as tab-separated lines: id, parent, name, key, start_ns,
/// end_ns, self_ns.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_ns(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tkey\tstart_ns\tend_ns\tself_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.key, s.start, s.end, selfs[&s.id]
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                name: "root",
                key: 0,
                start: 0,
                end: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "a",
                key: 0,
                start: 10,
                end: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "b",
                key: 0,
                start: 50,
                end: 70,
            },
        ];
        let s = self_ns(&spans);
        assert_eq!(s[&1], 50);
        assert_eq!(s[&2], 30);
        assert_eq!(s[&3], 20);
    }
}
