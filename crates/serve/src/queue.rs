//! Async job queue with admission control: submissions reserve a slot,
//! the worker pool pops.
//!
//! A FIFO under a mutex + condvar, bounded in **two dimensions**
//! ([`QueueLimits`]): queued-entry count and estimated queued bytes
//! (netlist snapshot size — the dominant memory cost of a parked job).
//! A submission past either bound is **shed** with a typed
//! [`AdmitError::Overloaded`] carrying a `retry_after_ms` hint derived
//! from the observed per-job service time, so a well-behaved client
//! backs off for roughly one queue-drain interval instead of hammering.
//!
//! Admission is **two-phase** to keep the durability ordering honest:
//! [`JobQueue::reserve`] claims capacity, the server journals the accept
//! (fsync) and sends the ack, and only then [`JobQueue::commit`] makes
//! the job poppable. A journal failure releases the reservation and the
//! job is shed — an acknowledged job is therefore always on disk.
//!
//! Every event the queue sends — a job's `queued` position at commit,
//! and the position updates as the queue drains — goes out under the
//! queue lock, so it always precedes the events a worker sends for a job
//! it pops.
//!
//! Workers block in [`JobQueue::pop`] until a job arrives or the queue
//! is stopped. [`JobQueue::stop`] is the *drain* mode (new reservations
//! refused; queued jobs and jobs already reserved — acknowledged — still
//! run); [`JobQueue::stop_discard`] is the *now* mode (queued jobs, and
//! reserved jobs at commit, are handed back to the caller, which leaves
//! them journaled as still-pending so a restart resumes them).
//!
//! Every lock acquisition recovers from poisoning explicitly
//! (`unwrap_or_else(into_inner)`): a worker panicking while holding the
//! lock must not wedge the daemon — the state itself is never left torn
//! because each critical section completes its mutation before any call
//! that could panic.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use triphase_core::FlowConfig;
use triphase_netlist::Netlist;

/// One unit of queued work: a parsed job plus the channel its progress
/// and completion events are streamed to (the submitting connection's
/// writer).
pub struct Job {
    /// Server-assigned id, unique per daemon lifetime.
    pub id: u64,
    /// Client-chosen display name.
    pub name: String,
    /// The design to convert.
    pub netlist: Netlist,
    /// Flow configuration.
    pub cfg: FlowConfig,
    /// Echo the final 3-phase snapshot in the `done` event.
    pub return_netlist: bool,
    /// Approximate memory this job occupies while queued (snapshot text
    /// length); charged against [`QueueLimits::bytes`].
    pub est_bytes: usize,
    /// Client-requested deadline, if any (already folded into
    /// `cfg.phase_cfg.time_limit`; kept for the cancellation token).
    pub deadline_ms: Option<u64>,
    /// Serialized event frames go here; a closed receiver (client went
    /// away) silently drops the job's remaining events.
    pub reply: Sender<String>,
}

/// Admission bounds for the queue.
#[derive(Debug, Clone, Copy)]
pub struct QueueLimits {
    /// Maximum queued jobs (excludes jobs already on a worker).
    pub depth: usize,
    /// Maximum estimated queued bytes.
    pub bytes: usize,
}

impl Default for QueueLimits {
    fn default() -> Self {
        QueueLimits {
            depth: 256,
            bytes: 256 << 20,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Queue at capacity; retry after the hinted backoff.
    Overloaded {
        /// Jobs queued (including reservations) at shed time.
        queued: usize,
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// The queue is stopping; no new work is accepted.
    Stopped,
}

struct State {
    jobs: VecDeque<Job>,
    /// Slots claimed by [`JobQueue::reserve`] but not yet committed.
    reserved: usize,
    reserved_bytes: usize,
    queued_bytes: usize,
    /// Set by both stop modes: no new reservations.
    stopped: bool,
    /// Set by the now mode: reserved jobs are refused at commit too.
    discarding: bool,
    /// EMA of per-job service time, feeding the retry hint.
    avg_job_ms: f64,
    jobs_timed: u64,
}

/// The shared bounded FIFO. Cheap to clone.
#[derive(Clone)]
pub struct JobQueue {
    state: Arc<(Mutex<State>, Condvar)>,
    limits: QueueLimits,
    workers: usize,
}

impl JobQueue {
    /// Create an empty queue with default limits and a single worker
    /// assumed for the retry hint.
    pub fn new() -> JobQueue {
        JobQueue::bounded(QueueLimits::default(), 1)
    }

    /// Create an empty queue bounded by `limits`; `workers` scales the
    /// shed-time retry hint (more workers drain the queue faster).
    pub fn bounded(limits: QueueLimits, workers: usize) -> JobQueue {
        JobQueue {
            state: Arc::new((
                Mutex::new(State {
                    jobs: VecDeque::new(),
                    reserved: 0,
                    reserved_bytes: 0,
                    queued_bytes: 0,
                    stopped: false,
                    discarding: false,
                    avg_job_ms: 0.0,
                    jobs_timed: 0,
                }),
                Condvar::new(),
            )),
            limits: QueueLimits {
                depth: limits.depth.max(1),
                bytes: limits.bytes.max(1),
            },
            workers: workers.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn hint_ms(&self, st: &State) -> u64 {
        // Roughly one drain interval: jobs ahead of the retry divided
        // across the pool, one service time each. Falls back to a
        // pessimistic constant before any job has been timed.
        let per_job = if st.jobs_timed == 0 {
            500.0
        } else {
            st.avg_job_ms
        };
        let ahead = st.jobs.len() + st.reserved;
        let ms = (ahead / self.workers + 1) as f64 * per_job;
        (ms as u64).clamp(25, 30_000)
    }

    /// Phase 1 of admission: claim a slot for a job of `est_bytes`.
    /// Follow with [`JobQueue::commit`] (after journaling + ack) or
    /// [`JobQueue::release`] (on journal failure).
    ///
    /// # Errors
    ///
    /// [`AdmitError::Overloaded`] past either bound (with the backoff
    /// hint), [`AdmitError::Stopped`] once stopping.
    pub fn reserve(&self, est_bytes: usize) -> Result<(), AdmitError> {
        let mut st = self.lock();
        if st.stopped {
            return Err(AdmitError::Stopped);
        }
        let queued = st.jobs.len() + st.reserved;
        let bytes = st.queued_bytes + st.reserved_bytes;
        if queued >= self.limits.depth || bytes.saturating_add(est_bytes) > self.limits.bytes {
            let retry_after_ms = self.hint_ms(&st);
            return Err(AdmitError::Overloaded {
                queued,
                retry_after_ms,
            });
        }
        st.reserved += 1;
        st.reserved_bytes += est_bytes;
        Ok(())
    }

    /// Abandon a reservation (journal write failed; the job is shed).
    pub fn release(&self, est_bytes: usize) {
        let mut st = self.lock();
        st.reserved = st.reserved.saturating_sub(1);
        st.reserved_bytes = st.reserved_bytes.saturating_sub(est_bytes);
        drop(st);
        // A draining worker may be waiting out this reservation.
        self.state.1.notify_all();
    }

    /// Phase 2 of admission: enqueue a reserved job and send it its
    /// `queued` event. Returns the number of jobs ahead of it (0 = next
    /// to run). A drain-mode stop still admits the job — it was
    /// acknowledged; after a now-mode stop the job is handed back so the
    /// caller can leave it pending.
    #[allow(clippy::result_large_err)] // Err hands the whole job back to stay pending
    pub fn commit(&self, job: Job) -> Result<usize, Job> {
        let mut st = self.lock();
        st.reserved = st.reserved.saturating_sub(1);
        st.reserved_bytes = st.reserved_bytes.saturating_sub(job.est_bytes);
        if st.discarding {
            return Err(job);
        }
        let position = st.jobs.len();
        let _ = job.reply.send(crate::proto::queued_event(job.id, position));
        st.queued_bytes += job.est_bytes;
        st.jobs.push_back(job);
        let draining = st.stopped;
        drop(st);
        if draining {
            // Idle draining workers exit once no reservation is left.
            self.state.1.notify_all();
        } else {
            self.state.1.notify_one();
        }
        Ok(position)
    }

    /// Enqueue bypassing admission — journal-replay resume only, where
    /// the job was already acknowledged in a previous daemon life and
    /// *must* run regardless of current pressure.
    pub fn force_push(&self, job: Job) -> bool {
        let mut st = self.lock();
        if st.stopped {
            return false;
        }
        st.queued_bytes += job.est_bytes;
        st.jobs.push_back(job);
        drop(st);
        self.state.1.notify_one();
        true
    }

    /// Block until a job is available; `None` once stopped and drained
    /// (a drain also waits out outstanding reservations). Remaining
    /// queued jobs get a fresh `queued` position event so waiting
    /// clients watch themselves advance.
    pub fn pop(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                st.queued_bytes = st.queued_bytes.saturating_sub(job.est_bytes);
                for (i, j) in st.jobs.iter().enumerate() {
                    let _ = j.reply.send(crate::proto::queued_event(j.id, i));
                }
                return Some(job);
            }
            if st.stopped && (st.discarding || st.reserved == 0) {
                return None;
            }
            st = self.state.1.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Remove a still-queued job by id (cancellation). `None` if it
    /// already started or never existed.
    pub fn remove(&self, id: u64) -> Option<Job> {
        let mut st = self.lock();
        let i = st.jobs.iter().position(|j| j.id == id)?;
        let job = st.jobs.remove(i)?;
        st.queued_bytes = st.queued_bytes.saturating_sub(job.est_bytes);
        Some(job)
    }

    /// Record one finished job's wall-clock service time; feeds the
    /// `retry_after_ms` hint via an exponential moving average.
    pub fn note_job_ms(&self, ms: f64) {
        let mut st = self.lock();
        st.avg_job_ms = if st.jobs_timed == 0 {
            ms
        } else {
            0.8 * st.avg_job_ms + 0.2 * ms
        };
        st.jobs_timed += 1;
    }

    /// Jobs currently waiting (excludes jobs already on a worker).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Estimated bytes currently parked in the queue.
    pub fn queued_bytes(&self) -> usize {
        self.lock().queued_bytes
    }

    /// Stop in **drain** mode: new reservations are refused, queued and
    /// already-reserved jobs still run, and blocked workers wake with
    /// `None` once the FIFO is empty and no reservation is outstanding.
    pub fn stop(&self) {
        self.lock().stopped = true;
        self.state.1.notify_all();
    }

    /// Stop in **now** mode: refuse new admissions and commits, and hand
    /// every still-queued job back to the caller (which leaves them
    /// journaled as pending, so the next daemon life resumes them).
    /// Running jobs are unaffected.
    pub fn stop_discard(&self) -> Vec<Job> {
        let mut st = self.lock();
        st.stopped = true;
        st.discarding = true;
        st.queued_bytes = 0;
        let jobs = std::mem::take(&mut st.jobs).into();
        drop(st);
        self.state.1.notify_all();
        jobs
    }
}

impl Default for JobQueue {
    fn default() -> Self {
        JobQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn job(id: u64, est_bytes: usize) -> (Job, std::sync::mpsc::Receiver<String>) {
        let (tx, rx) = channel();
        (
            Job {
                id,
                name: format!("j{id}"),
                netlist: Netlist::new("t"),
                cfg: FlowConfig::default(),
                return_netlist: false,
                est_bytes,
                deadline_ms: None,
                reply: tx,
            },
            rx,
        )
    }

    fn admit(q: &JobQueue, id: u64, est: usize) -> Result<usize, AdmitError> {
        q.reserve(est)?;
        let (j, rx) = job(id, est);
        std::mem::forget(rx); // keep the channel open for position events
        q.commit(j).map_err(|_| AdmitError::Stopped)
    }

    #[test]
    fn sheds_past_depth_with_retry_hint() {
        let q = JobQueue::bounded(
            QueueLimits {
                depth: 2,
                bytes: usize::MAX,
            },
            1,
        );
        assert_eq!(admit(&q, 1, 10), Ok(0));
        assert_eq!(admit(&q, 2, 10), Ok(1));
        match admit(&q, 3, 10) {
            Err(AdmitError::Overloaded {
                queued,
                retry_after_ms,
            }) => {
                assert_eq!(queued, 2);
                assert!((25..=30_000).contains(&retry_after_ms));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Draining one makes room again.
        assert!(q.pop().is_some());
        assert_eq!(admit(&q, 3, 10), Ok(1));
    }

    #[test]
    fn sheds_past_byte_budget_and_releases_on_failure() {
        let q = JobQueue::bounded(
            QueueLimits {
                depth: 64,
                bytes: 100,
            },
            1,
        );
        assert_eq!(admit(&q, 1, 60), Ok(0));
        assert!(matches!(q.reserve(60), Err(AdmitError::Overloaded { .. })));
        // A reservation that is released frees its bytes.
        assert!(q.reserve(30).is_ok());
        q.release(30);
        assert!(q.reserve(40).is_ok());
        q.release(40);
        assert_eq!(q.queued_bytes(), 60);
    }

    #[test]
    fn remove_cancels_only_queued_jobs() {
        let q = JobQueue::new();
        assert_eq!(admit(&q, 1, 5), Ok(0));
        assert_eq!(admit(&q, 2, 7), Ok(1));
        let removed = q.remove(2).expect("queued job removable");
        assert_eq!(removed.id, 2);
        assert!(q.remove(2).is_none(), "already gone");
        assert!(q.remove(99).is_none(), "never existed");
        assert_eq!(q.depth(), 1);
        assert_eq!(q.queued_bytes(), 5);
    }

    #[test]
    fn stop_discard_hands_back_queued_jobs() {
        let q = JobQueue::new();
        assert_eq!(admit(&q, 1, 5), Ok(0));
        assert_eq!(admit(&q, 2, 5), Ok(1));
        let orphans = q.stop_discard();
        assert_eq!(orphans.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(q.pop().is_none(), "stopped and empty");
        assert!(matches!(q.reserve(1), Err(AdmitError::Stopped)));
    }

    #[test]
    fn pop_streams_position_updates_to_waiting_jobs() {
        let q = JobQueue::new();
        let (j1, _rx1) = job(1, 1);
        let (j2, rx2) = job(2, 1);
        let (j3, rx3) = job(3, 1);
        for j in [j1, j2, j3] {
            assert!(q.reserve(1).is_ok());
            assert!(q.commit(j).is_ok());
        }
        // Commit sends each job its starting position.
        let e2 = rx2.try_recv().expect("job 2 queued at commit");
        let e3 = rx3.try_recv().expect("job 3 queued at commit");
        assert!(e2.contains("\"position\": 1"), "{e2}");
        assert!(e3.contains("\"position\": 2"), "{e3}");
        let popped = q.pop().expect("job 1");
        assert_eq!(popped.id, 1);
        let e2 = rx2.try_recv().expect("job 2 got a position update");
        let e3 = rx3.try_recv().expect("job 3 got a position update");
        assert!(e2.contains("\"position\": 0"), "{e2}");
        assert!(e3.contains("\"position\": 1"), "{e3}");
    }

    #[test]
    fn drain_runs_reserved_jobs_and_now_mode_hands_them_back() {
        // A drain still runs the job acknowledged before it.
        let q = JobQueue::new();
        assert!(q.reserve(1).is_ok());
        q.stop();
        assert!(matches!(q.reserve(1), Err(AdmitError::Stopped)));
        let (j, _rx) = job(7, 1);
        assert_eq!(q.commit(j).ok(), Some(0));
        assert_eq!(q.pop().map(|j| j.id), Some(7));
        assert!(q.pop().is_none(), "drained");

        let q = JobQueue::new();
        assert!(q.reserve(1).is_ok());
        assert!(q.stop_discard().is_empty());
        let (j, _rx) = job(8, 1);
        assert_eq!(q.commit(j).err().map(|j| j.id), Some(8));
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_survives_a_poisoned_lock() {
        let q = JobQueue::new();
        assert_eq!(admit(&q, 1, 5), Ok(0));
        // Poison the inner mutex: panic while holding the guard.
        let q2 = q.clone();
        let _ = std::thread::spawn(move || {
            let _guard = q2.state.0.lock().expect("clean lock");
            panic!("deliberate poison");
        })
        .join();
        assert!(q.state.0.lock().is_err(), "precondition: lock poisoned");
        // Every path still serves.
        assert_eq!(admit(&q, 2, 5), Ok(1));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop().map(|j| j.id), Some(1));
        assert_eq!(q.remove(2).map(|j| j.id), Some(2));
        q.stop();
        assert!(q.pop().is_none());
    }
}
