//! In-memory span trace of a `--trace 1` run. Spans are recorded from the
//! benchmark's own files, around the calls into each layer, kept in memory
//! and written to `benchmark/out/trace-<workload>.json` when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index in the trace).
pub type SpanId = u32;

/// One span: a named interval, the span that caused it, and the request
/// (repetition, scenario or served request) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// The span store. Times are seconds since the trace was created.
/// Recording takes a mutex: only the traced run pays it, and the traced
/// workloads record from one thread at a time.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the trace origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        start_s: f64,
        end_s: f64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("no recorder panics while locked");
        spans.push(Span {
            name,
            start_s,
            end_s,
            parent,
            request,
        });
        (spans.len() - 1) as SpanId
    }

    /// Opens a span now; [`Trace::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Ends a span opened with [`Trace::open`] and returns its duration.
    pub fn close(&self, id: SpanId) -> f64 {
        let now = self.now();
        let mut spans = self.spans.lock().expect("no recorder panics while locked");
        let span = &mut spans[id as usize];
        span.end_s = now;
        span.end_s - span.start_s
    }

    /// Runs `f` inside a span and returns its result and the duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = f(id);
        (out, self.close(id))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no recorder panics while locked")
            .clone()
    }

    /// Writes the trace as one JSON document (spans with their self time).
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let selves = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"s\",\"spans\":["
        )?;
        for (i, (s, own)) in spans.iter().zip(&selves).enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"self\":{:.9},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_s, s.end_s, own, s.request
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_s.max(parent.start_s);
            let hi = s.end_s.min(parent.end_s);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_s - s.start_s) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span("request", 0.0, 10.0, None),
            span("queue", 1.0, 4.0, Some(0)),
            span("solve", 3.0, 6.0, Some(0)), // overlaps queue by 1
            span("deposit", 8.0, 12.0, Some(0)), // clipped to the parent
            span("fsync", 8.5, 9.0, Some(3)),
        ];
        let own = self_times(&spans);
        // children cover [1,6] and [8,10] = 7 of 10
        assert!((own[0] - 3.0).abs() < 1e-12);
        assert!((own[1] - 3.0).abs() < 1e-12);
        assert!((own[3] - 3.5).abs() < 1e-12);
        assert!((own[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn open_close_and_totals() {
        let trace = Trace::new();
        let ((), outer) = trace.time("outer", None, 7, |id| {
            trace.time("inner", Some(id), 7, |_| ());
        });
        let spans = trace.spans();
        assert_eq!(spans[0].end_s - spans[0].start_s, outer);
        assert!(self_times(&spans)[0] <= outer);
        assert_eq!(trace.spans()[1].parent, Some(0));
        assert_eq!(trace.spans()[1].request, 7);
    }
}
