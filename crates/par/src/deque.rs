//! Chase–Lev work-stealing deque over raw job pointers.
//!
//! The classic algorithm (Chase & Lev, SPAA'05): the owner pushes and
//! pops at the *bottom* in LIFO order, thieves steal from the *top* with
//! a compare-and-swap on the top index. Every slot is an `AtomicPtr` to a
//! heap-allocated job, so the buffer itself never needs element-level
//! synchronization beyond the index protocol.
//!
//! Two deliberate simplifications keep the implementation small and
//! auditable:
//!
//! - all atomics use `SeqCst` — task granularity in this workspace is a
//!   whole benchmark flow or a full multi-lane simulation run, so index-
//!   protocol overhead is irrelevant next to correctness;
//! - grown-out buffers are *retired*, not freed: they stay allocated
//!   until the deque drops, so a thief holding a stale buffer pointer
//!   always reads valid memory (the standard leak-until-drop scheme that
//!   avoids an epoch reclamation system).

use std::sync::atomic::{AtomicIsize, AtomicPtr, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// A unit of pool work: a lifetime-erased closure. Scope bookkeeping
/// (pending counters, panic capture) is baked into the closure by the
/// spawn site, so the executor just calls it.
pub(crate) struct Job(pub(crate) Box<dyn FnOnce() + Send>);

/// Raw pointer under which jobs travel through the deque slots.
pub(crate) type JobPtr = *mut Job;

const MIN_CAP: usize = 64;

struct Buffer {
    /// Power-of-two slot array; logical index `i` lives at `i & (cap-1)`.
    slots: Box<[AtomicPtr<Job>]>,
}

impl Buffer {
    fn new(cap: usize) -> Box<Buffer> {
        debug_assert!(cap.is_power_of_two());
        let slots: Vec<AtomicPtr<Job>> = (0..cap)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        Box::new(Buffer {
            slots: slots.into_boxed_slice(),
        })
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    fn at(&self, i: isize) -> &AtomicPtr<Job> {
        &self.slots[(i as usize) & (self.cap() - 1)]
    }
}

struct Inner {
    /// Thieves' end; only ever incremented (by a successful steal or the
    /// owner's last-element pop).
    top: AtomicIsize,
    /// Owner's end.
    bottom: AtomicIsize,
    /// Current buffer; swapped by the owner on growth.
    buf: AtomicPtr<Buffer>,
    /// Grown-out buffers, kept alive until drop (see module docs).
    retired: Mutex<Vec<*mut Buffer>>,
}

// The raw buffer pointers are only dereferenced under the index protocol
// and freed single-threaded at drop.
unsafe impl Send for Inner {}
unsafe impl Sync for Inner {}

impl Drop for Inner {
    fn drop(&mut self) {
        // Sole owner at this point: drop leftover jobs, free all buffers.
        let top = self.top.load(SeqCst);
        let bottom = self.bottom.load(SeqCst);
        let buf = self.buf.load(SeqCst);
        unsafe {
            for i in top..bottom {
                let job = (*buf).at(i).load(SeqCst);
                if !job.is_null() {
                    drop(Box::from_raw(job));
                }
            }
            drop(Box::from_raw(buf));
            for old in self.retired.lock().unwrap().drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}

/// One worker's deque. [`Deque::push`]/[`Deque::pop`] must only be called
/// from the owning worker thread; [`Deque::steal`] is safe from any
/// thread. The pool upholds the owner discipline.
#[derive(Clone)]
pub(crate) struct Deque {
    inner: Arc<Inner>,
}

impl Deque {
    pub(crate) fn new() -> Deque {
        Deque {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buf: AtomicPtr::new(Box::into_raw(Buffer::new(MIN_CAP))),
                retired: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Owner-only: push a job at the bottom.
    pub(crate) fn push(&self, job: JobPtr) {
        let inner = &self.inner;
        let b = inner.bottom.load(SeqCst);
        let t = inner.top.load(SeqCst);
        let mut buf = unsafe { &*inner.buf.load(SeqCst) };
        if b - t >= buf.cap() as isize {
            self.grow(t, b);
            buf = unsafe { &*inner.buf.load(SeqCst) };
        }
        buf.at(b).store(job, SeqCst);
        inner.bottom.store(b + 1, SeqCst);
    }

    /// Owner-only: pop the most recently pushed job (LIFO).
    pub(crate) fn pop(&self) -> Option<JobPtr> {
        let inner = &self.inner;
        let b = inner.bottom.load(SeqCst) - 1;
        inner.bottom.store(b, SeqCst);
        let t = inner.top.load(SeqCst);
        if t > b {
            // Empty; restore.
            inner.bottom.store(b + 1, SeqCst);
            return None;
        }
        let buf = unsafe { &*inner.buf.load(SeqCst) };
        let job = buf.at(b).load(SeqCst);
        if t == b {
            // Last element: race the thieves for it via the top index.
            let won = inner.top.compare_exchange(t, t + 1, SeqCst, SeqCst).is_ok();
            inner.bottom.store(b + 1, SeqCst);
            return won.then_some(job);
        }
        Some(job)
    }

    /// Steal one job from the top. `None` means empty *or* a lost race —
    /// callers treat both as "try elsewhere, then retry".
    pub(crate) fn steal(&self) -> Option<JobPtr> {
        let inner = &self.inner;
        let t = inner.top.load(SeqCst);
        let b = inner.bottom.load(SeqCst);
        if t >= b {
            return None;
        }
        let buf = unsafe { &*inner.buf.load(SeqCst) };
        let job = buf.at(t).load(SeqCst);
        inner
            .top
            .compare_exchange(t, t + 1, SeqCst, SeqCst)
            .is_ok()
            .then_some(job)
    }

    /// `true` when no jobs are visible (racy, advisory only).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.inner.top.load(SeqCst) >= self.inner.bottom.load(SeqCst)
    }

    /// Owner-only: double the buffer, copying live entries; the old
    /// buffer is retired, not freed (thieves may still be reading it).
    fn grow(&self, t: isize, b: isize) {
        let inner = &self.inner;
        let old_ptr = inner.buf.load(SeqCst);
        let old = unsafe { &*old_ptr };
        let new = Buffer::new(old.cap() * 2);
        for i in t..b {
            new.at(i).store(old.at(i).load(SeqCst), SeqCst);
        }
        inner.buf.store(Box::into_raw(new), SeqCst);
        inner.retired.lock().unwrap().push(old_ptr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn job(counter: &Arc<AtomicUsize>) -> JobPtr {
        let c = Arc::clone(counter);
        Box::into_raw(Box::new(Job(Box::new(move || {
            c.fetch_add(1, SeqCst);
        }))))
    }

    fn run(ptr: JobPtr) {
        let job = unsafe { Box::from_raw(ptr) };
        (job.0)();
    }

    #[test]
    fn lifo_owner_fifo_thief() {
        let d = Deque::new();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            d.push(job(&hits));
        }
        // Owner pops newest; thief steals oldest.
        run(d.pop().unwrap());
        run(d.steal().unwrap());
        run(d.pop().unwrap());
        assert!(d.pop().is_none());
        assert!(d.steal().is_none());
        assert_eq!(hits.load(SeqCst), 3);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let d = Deque::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let n = MIN_CAP * 4 + 7;
        for _ in 0..n {
            d.push(job(&hits));
        }
        let mut got = 0;
        while let Some(p) = d.pop() {
            run(p);
            got += 1;
        }
        assert_eq!(got, n);
        assert_eq!(hits.load(SeqCst), n);
    }

    #[test]
    fn leftover_jobs_dropped_cleanly() {
        let d = Deque::new();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            d.push(job(&hits));
        }
        drop(d);
        // Jobs were dropped without running.
        assert_eq!(hits.load(SeqCst), 0);
    }

    #[test]
    fn concurrent_steals_take_each_job_once() {
        let d = Deque::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let n = 10_000;
        for _ in 0..n {
            d.push(job(&hits));
        }
        let taken = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let thief = d.clone();
                let taken = Arc::clone(&taken);
                s.spawn(move || {
                    while taken.load(SeqCst) < n {
                        if let Some(p) = thief.steal() {
                            run(p);
                            taken.fetch_add(1, SeqCst);
                        } else if thief.is_empty() {
                            break;
                        }
                    }
                });
            }
            // Owner pops concurrently.
            while let Some(p) = d.pop() {
                run(p);
                taken.fetch_add(1, SeqCst);
            }
        });
        assert_eq!(taken.load(SeqCst), n, "every job executed exactly once");
        assert_eq!(hits.load(SeqCst), n);
    }
}
