//! The drain thread of a recorded batch.
//!
//! When the caller's recorder has a sink, rendering the log lines, the
//! `-v` text and the log writes would otherwise run on the probing
//! threads, per event, under the sink's lock. Instead each worker
//! records into a [`SinkHandle::batching`] hand-off of its own, a
//! bounded queue carries its full batches, and one drain thread feeds
//! them to the caller's sink, taking its lock once per batch.
//!
//! - At one job the sink sees every event in the order a plain loop
//!   emits it; at more, each worker's events stay in order and the
//!   workers' batches interleave.
//! - At most `QUEUE_BATCHES` full batches wait in the queue, one more is
//!   being fed, and each worker fills one: `(QUEUE_BATCHES + 1 + jobs) ×
//!   EventBatch::CAPACITY` events in flight, at 64 bytes each plus a
//!   decision's evidence text. At two jobs that is 4 096 events,
//!   256 KiB.
//!   A fed batch goes back to its worker, whose hand-off drops the events
//!   when it reuses the buffer; until then it holds them, which at most
//!   doubles the bound.
//! - The drain thread ends when the last worker's hand-off is dropped,
//!   which ships its last batch, and the scope joins it before
//!   `run_batch` returns: every event has reached the sink by then.
//! - A sink that panics takes the drain thread down with the queue's
//!   receiving end, so a worker's hand-off fails at once instead of
//!   waiting on a full queue (its later events are dropped), and the
//!   scope re-raises the panic after the join.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::Scope;

use obs::{EventBatch, Recorder, SinkHandle};

/// Full batches the queue holds; a worker that finds it full waits.
/// One keeps the drain thread busy while the workers fill their next
/// batches. A deeper queue only holds more events: four added about
/// 0.5 MiB to the peak memory of a two-job recording of the 4-ISP
/// internet, at the same speed.
const QUEUE_BATCHES: usize = 1;

/// Hands out the recorder each worker of a batch records through.
pub(crate) struct Endpoints {
    recorder: Recorder,
    /// The queue's sending end, when a drain thread runs.
    queue: Option<SyncSender<EventBatch>>,
}

impl Endpoints {
    /// Spawns the drain thread in `scope` when `recorder` has a sink.
    pub(crate) fn open<'scope>(scope: &'scope Scope<'scope, '_>, recorder: &Recorder) -> Endpoints {
        let sink = recorder.sink();
        let queue = sink.is_enabled().then(|| {
            let (queue, batches) = sync_channel::<EventBatch>(QUEUE_BATCHES);
            let sink = sink.clone();
            scope.spawn(move || batches.into_iter().for_each(|batch| sink.feed(batch)));
            queue
        });
        Endpoints { recorder: recorder.clone(), queue }
    }

    /// The recorder one worker records through: the caller's, or, with a
    /// drain thread, a copy whose sink hands batches to the queue. Each
    /// worker takes its own.
    pub(crate) fn worker(&self) -> Recorder {
        let Some(queue) = &self.queue else { return self.recorder.clone() };
        self.recorder.clone().with_sink(SinkHandle::batching(queue.clone()))
    }
}
