//! The job queue: one bounded FIFO between the connection threads and the
//! inference workers.
//!
//! Every detect/localize window and every status-series request becomes
//! one [`Job`]. An idle worker takes the oldest job at once and runs it;
//! nothing waits on a timer and nothing is grouped by plan. (Fusing
//! windows across requests bought no kernel time — per-window cost is
//! flat from batch 1 to 16 — and made every lone request wait out a
//! deadline.)
//!
//! Admission is bounded: `queue_depth` caps the queued jobs; past it,
//! submissions are rejected immediately and the HTTP layer answers 503.
//! That makes overload visible to clients instead of letting latency
//! collapse silently.

use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex, MutexGuard};

use ds_camal::CamalError;
use ds_timeseries::{Status, TimeSeries};

use crate::registry::{PlanError, PlanKey};

/// Everything a window job can come back with. Detect replies leave
/// `status`/`cam` empty; localize fills `status` and, on request, `cam`.
#[derive(Debug)]
pub(crate) struct WindowReply {
    pub probability: f32,
    pub detected: bool,
    /// (kernel size, member probability) per ensemble member.
    pub members: Vec<(usize, f32)>,
    pub status: Vec<u8>,
    pub cam: Vec<f32>,
}

/// What the worker should extract from the kernel call for this job.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind {
    Detect,
    Localize { include_cam: bool },
}

/// Why a queued job failed after admission.
#[derive(Debug, Clone)]
pub(crate) enum JobError {
    Camal(CamalError),
    Plan(PlanError),
}

pub(crate) type WindowResult = Result<WindowReply, JobError>;
pub(crate) type SeriesResult = Result<Vec<Status>, JobError>;

/// One detect/localize window.
pub(crate) struct WindowJob {
    pub key: PlanKey,
    pub window: Vec<f32>,
    pub kind: JobKind,
    pub tx: SyncSender<WindowResult>,
}

/// One status-series request (its cost scales with the series length).
pub(crate) struct SeriesJob {
    pub key: PlanKey,
    pub series: TimeSeries,
    pub window: usize,
    pub tx: SyncSender<SeriesResult>,
}

/// One unit of work, queued and run whole.
pub(crate) enum Job {
    Window(WindowJob),
    Series(SeriesJob),
}

/// Typed admission rejection → 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// `queue_depth` reached.
    QueueFull { depth: usize },
    /// Server is draining.
    ShuttingDown,
}

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

pub(crate) struct JobQueue {
    state: Mutex<State>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    pub fn new(queue_depth: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            depth: queue_depth.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no thread panics while holding the job queue lock")
    }

    /// Jobs currently queued (stats endpoint).
    pub fn queued(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Append `job`, or reject it when the queue is full or draining.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.jobs.len() >= self.depth {
            return Err(SubmitError::QueueFull { depth: self.depth });
        }
        state.jobs.push_back(job);
        ds_obs::gauge_set("serve.queue_depth", state.jobs.len() as f64);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the oldest job, blocking while the queue is empty. Returns
    /// `None` exactly when shutting down with nothing left; workers exit.
    pub fn next_work(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                ds_obs::gauge_set("serve.queue_depth", state.jobs.len() as f64);
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .expect("no thread panics while holding the job queue lock");
        }
    }

    /// Begin draining: further submissions are rejected, queued jobs still
    /// run, and workers exit once the queue is empty.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_camal::Precision;
    use std::sync::mpsc::sync_channel;

    fn key(window: usize) -> PlanKey {
        PlanKey {
            preset: "TEST".into(),
            appliance: "kettle".into(),
            window,
            backbone: ds_camal::Backbone::ResNet,
            precision: Precision::F32,
        }
    }

    fn window(window: usize) -> Job {
        let (tx, _) = sync_channel(1);
        Job::Window(WindowJob {
            key: key(window),
            window: vec![0.0; window],
            kind: JobKind::Detect,
            tx,
        })
    }

    fn series(window: usize) -> Job {
        let (tx, _) = sync_channel(1);
        Job::Series(SeriesJob {
            key: key(window),
            series: TimeSeries::from_values(0, 60, vec![0.0; 4 * window]),
            window,
            tx,
        })
    }

    /// `(is a series job, window length)` of the next job.
    fn next(queue: &JobQueue) -> (bool, usize) {
        match queue.next_work().expect("a queued job") {
            Job::Window(job) => (false, job.window.len()),
            Job::Series(job) => (true, job.window),
        }
    }

    #[test]
    fn jobs_come_out_one_at_a_time_in_arrival_order() {
        let queue = JobQueue::new(64);
        queue.submit(window(16)).unwrap();
        queue.submit(series(16)).unwrap();
        queue.submit(window(32)).unwrap();
        queue.submit(window(16)).unwrap();
        assert_eq!(queue.queued(), 4);
        // Every job is already queued, so none of these calls blocks.
        let order: Vec<_> = (0..4).map(|_| next(&queue)).collect();
        assert_eq!(order, [(false, 16), (true, 16), (false, 32), (false, 16)]);
        assert_eq!(queue.queued(), 0);
    }

    #[test]
    fn queue_bound_rejects_with_a_typed_error() {
        let queue = JobQueue::new(2);
        queue.submit(window(16)).unwrap();
        queue.submit(series(16)).unwrap();
        let err = queue.submit(window(16)).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { depth: 2 });
    }

    #[test]
    fn shutdown_flushes_then_ends() {
        let queue = JobQueue::new(64);
        queue.submit(window(16)).unwrap();
        queue.shutdown();
        assert!(matches!(queue.next_work(), Some(Job::Window(_))));
        assert!(queue.next_work().is_none());
        let err = queue.submit(window(16)).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }
}
