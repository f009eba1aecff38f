//! In-memory span recorder for the traced run. Spans are kept per job
//! and written out once, when the run ends, so recording costs one
//! clock read and one short lock per boundary.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, as used in the per-layer metric names.
    pub layer: &'static str,
    /// Job the span belongs to.
    pub job: usize,
    /// Index within the job's spans.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Small per-process thread number.
    pub thread: usize,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time in ms.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

fn thread_number() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// The spans of one job. `Sync`, so the variant tasks of one flow can
/// record into it from the pool's threads.
pub struct JobTrace {
    job: usize,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl JobTrace {
    /// An empty trace for `job`, timed against `epoch`.
    pub fn new(job: usize, epoch: Instant) -> JobTrace {
        JobTrace {
            job,
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span recorder panicked")
    }

    /// Run `f` inside a span of `layer` under `parent`; `f` receives the
    /// new span's id, for spans nested in it.
    pub fn span<R>(
        &self,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.lock();
            let id = spans.len();
            spans.push(Span {
                layer,
                job: self.job,
                id,
                parent,
                thread: thread_number(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        let out = f(id);
        let end = self.now_ns();
        self.lock()[id].end_ns = end;
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a span recorder panicked")
    }
}

/// Sum of the wall times of `layer`'s spans, in ms.
pub fn layer_ms(spans: &[Span], layer: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(Span::ms)
        .sum()
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its child spans cover (children of one parent may run
/// concurrently, so their union is taken, not their sum).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
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
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Write every span as one JSON line to `path`, with its self time.
///
/// # Errors
///
/// Filesystem failures.
pub fn write_spans(path: &std::path::Path, jobs: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for spans in jobs {
        for (s, own) in spans.iter().zip(self_ns(spans)) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"job\":{},\"span\":{},\"parent\":{parent},\"layer\":\"{}\",\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.job, s.id, s.layer, s.thread, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "x",
            job: 0,
            id,
            parent,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover 10..40 of the parent's 0..100.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            span(3, Some(2), 25, 35),
        ];
        assert_eq!(self_ns(&spans), vec![70, 20, 10, 10]);
    }

    #[test]
    fn nested_spans_record_parents() {
        let t = JobTrace::new(3, Instant::now());
        t.span("outer", None, |id| t.span("inner", Some(id), |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 3 && s.end_ns >= s.start_ns));
    }
}
