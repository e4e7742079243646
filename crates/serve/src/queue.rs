//! A bounded MPSC queue per shard: `Mutex<VecDeque>` + `Condvar`, with
//! non-blocking admission (`try_push`) and micro-batched consumption
//! (`pop_batch`). Admission failure is the backpressure signal — callers
//! translate a full queue into [`crate::response::Admission::Overloaded`]
//! instead of blocking the producer.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded queue. `try_push` never blocks; `pop_batch` blocks (with a
/// timeout) for the first item, then drains up to the batch limit without
/// further waiting — the micro-batch a shard worker processes per wakeup.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State { items: VecDeque::with_capacity(capacity), closed: false }),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item` unless the queue is full or closed; on rejection the
    /// item is handed back so the caller can fail it explicitly.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed || st.items.len() >= self.capacity {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Waits up to `timeout` for at least one item, then drains up to `max`
    /// items. An empty result means the wait timed out (or the queue is
    /// closed and drained — check [`BoundedQueue::is_closed`]).
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Vec<T> {
        let mut st = self.wait(timeout);
        let take = st.items.len().min(max.max(1));
        st.items.drain(..take).collect()
    }

    /// Waits up to `timeout` for the queue to hold an item, without taking
    /// it. `false` means the wait timed out (or the queue is closed and
    /// drained).
    pub fn wait_nonempty(&self, timeout: Duration) -> bool {
        !self.wait(timeout).items.is_empty()
    }

    /// Blocks until there is an item, the queue is closed, or `timeout`
    /// passes; returns the locked state.
    fn wait(&self, timeout: Duration) -> MutexGuard<'_, State<T>> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !st.items.is_empty() || st.closed {
            return st;
        }
        let (st, _) = self
            .nonempty
            .wait_timeout_while(st, timeout, |s| s.items.is_empty() && !s.closed)
            .unwrap_or_else(|e| e.into_inner());
        st
    }

    /// Current depth (racy by nature; used for watermarks and metrics).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: future pushes fail, blocked consumers wake. Items
    /// already queued remain poppable so shutdown can drain gracefully.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.nonempty.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_push(99), Err(99), "full queue rejects");
        assert_eq!(q.pop_batch(3, Duration::from_millis(1)), vec![0, 1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_batch_times_out_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert!(q.pop_batch(8, Duration::from_millis(5)).is_empty());
    }

    #[test]
    fn wait_nonempty_leaves_the_item() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert!(!q.wait_nonempty(Duration::from_millis(5)), "empty queue times out");
        q.try_push(7).unwrap();
        assert!(q.wait_nonempty(Duration::from_secs(1)));
        assert_eq!(q.len(), 1);
        q.close();
        assert!(q.wait_nonempty(Duration::from_secs(1)), "closed but not drained");
        assert_eq!(q.pop_batch(8, Duration::ZERO), vec![7]);
        assert!(!q.wait_nonempty(Duration::from_secs(1)), "closed and drained returns at once");
    }

    #[test]
    fn close_wakes_and_rejects() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(8));
        // Queued item still drains after close.
        assert_eq!(q.pop_batch(8, Duration::from_secs(1)), vec![7]);
        assert!(q.is_closed());
        assert!(q.pop_batch(8, Duration::from_secs(1)).is_empty());
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        use std::sync::Arc;
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop_batch(1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42).unwrap();
        assert_eq!(h.join().unwrap(), vec![42]);
    }
}
