//! The bounded per-client outbound queue.
//!
//! The scheduler thread is the single producer for every connection; a
//! per-connection writer thread is the single consumer. The contract
//! that keeps the scheduler honest under slow consumers:
//!
//! * **pushes never block** — stream records past the bound are dropped
//!   and counted, and the count is flushed as one coalesced
//!   `{"stream":"dropped","dropped":n}` marker the next time the queue
//!   accepts a line (or at close, so the count is never silently lost);
//! * **replies are exempt from the bound** — a request always gets its
//!   answer, however far behind the stream is;
//! * **close drains** — [`SubQueue::pop`] keeps returning buffered lines
//!   after [`SubQueue::close`] and only then reports the end, so a
//!   closing connection still flushes what it already queued.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::protocol;

/// A bounded single-producer/single-consumer line queue with drop
/// accounting. See the module docs for the contract.
#[derive(Debug)]
pub struct SubQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    /// Signalled once the consumer has written everything it popped.
    flushed: Condvar,
    pace_us: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    q: VecDeque<String>,
    dropped: u64,
    cap: usize,
    closed: bool,
    /// The consumer finished: every line it popped reached the socket
    /// (or the socket died).
    finished: bool,
}

impl SubQueue {
    /// A fresh queue bounded at `cap` stream lines.
    pub fn new(cap: usize) -> Arc<SubQueue> {
        Arc::new(SubQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                dropped: 0,
                cap: cap.max(1),
                closed: false,
                finished: false,
            }),
            ready: Condvar::new(),
            flushed: Condvar::new(),
            pace_us: AtomicU64::new(0),
        })
    }

    /// Re-bounds the stream queue (a `subscribe` request chooses its own
    /// depth). Already-queued lines are kept even if over the new bound.
    pub fn set_cap(&self, cap: usize) {
        self.inner.lock().expect("queue lock").cap = cap.max(1);
    }

    /// Sets the writer's artificial per-line delay in microseconds.
    pub fn set_pace_us(&self, pace_us: u64) {
        self.pace_us.store(pace_us, Ordering::Relaxed);
    }

    /// The writer's artificial per-line delay in microseconds.
    pub fn pace_us(&self) -> u64 {
        self.pace_us.load(Ordering::Relaxed)
    }

    fn flush_dropped(inner: &mut Inner) {
        if inner.dropped > 0 && inner.q.len() < inner.cap {
            let marker = protocol::dropped_line(inner.dropped);
            inner.q.push_back(marker);
            inner.dropped = 0;
        }
    }

    /// Enqueues a stream record, dropping (and counting) it when the
    /// queue is at its bound. Never blocks.
    pub fn push_stream(&self, line: String) {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return;
        }
        Self::flush_dropped(&mut inner);
        if inner.q.len() < inner.cap {
            inner.q.push_back(line);
        } else {
            inner.dropped += 1;
        }
        drop(inner);
        self.ready.notify_one();
    }

    /// Enqueues a reply. Exempt from the bound: a request always gets
    /// its answer. Never blocks.
    pub fn push_reply(&self, line: String) {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return;
        }
        Self::flush_dropped(&mut inner);
        inner.q.push_back(line);
        drop(inner);
        self.ready.notify_one();
    }

    /// Marks the queue closed. Pending drops are flushed as a final
    /// marker; buffered lines remain poppable.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        if !inner.closed && inner.dropped > 0 {
            let marker = protocol::dropped_line(inner.dropped);
            inner.q.push_back(marker);
            inner.dropped = 0;
        }
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Whether [`SubQueue::close`] was called (the consumer may still be
    /// draining).
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock").closed
    }

    /// Blocks for the next line; `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<String> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(line) = inner.q.pop_front() {
                return Some(line);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Called by the consumer when it stops: everything it popped has
    /// been written out, or the connection is gone.
    pub(crate) fn mark_finished(&self) {
        self.inner.lock().expect("queue lock").finished = true;
        self.flushed.notify_all();
    }

    /// Blocks until the consumer calls [`SubQueue::mark_finished`] or
    /// `timeout` passes.
    pub(crate) fn wait_finished(&self, timeout: std::time::Duration) {
        let inner = self.inner.lock().expect("queue lock");
        let waited = self
            .flushed
            .wait_timeout_while(inner, timeout, |i| !i.finished);
        drop(waited.expect("queue lock"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn drain(q: &SubQueue) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(line) = q.pop() {
            out.push(line);
        }
        out
    }

    #[test]
    fn overflow_coalesces_into_one_marker() {
        let q = SubQueue::new(2);
        for i in 0..7 {
            q.push_stream(format!("line{i}"));
        }
        q.close();
        let lines = drain(&q);
        // Two delivered, five coalesced into the close-time marker.
        assert_eq!(lines[0], "line0");
        assert_eq!(lines[1], "line1");
        assert_eq!(lines.len(), 3, "{lines:?}");
        let marker: Value = serde_json::from_str(&lines[2]).unwrap();
        assert_eq!(
            marker.get("stream").and_then(Value::as_str),
            Some("dropped")
        );
        assert_eq!(marker.get("dropped").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn marker_flushes_when_space_frees_and_replies_bypass_the_bound() {
        let q = SubQueue::new(1);
        q.push_stream("a".into());
        q.push_stream("b".into()); // dropped
        assert_eq!(q.pop().as_deref(), Some("a"));
        // The reply is exempt from the bound, but first flushes the
        // marker so drops are reported in stream order.
        q.push_reply("reply".into());
        q.close();
        let lines = drain(&q);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"dropped\":1"), "{}", lines[0]);
        assert_eq!(lines[1], "reply");
    }

    #[test]
    fn close_drains_buffered_lines_then_ends() {
        let q = SubQueue::new(4);
        q.push_stream("x".into());
        q.close();
        assert_eq!(q.pop().as_deref(), Some("x"));
        assert_eq!(q.pop(), None);
        // Pushes after close are discarded.
        q.push_reply("late".into());
        assert_eq!(q.pop(), None);
    }
}
