//! Request admission and response plumbing: the `Enqueued`/`Overloaded`
//! admission verdict and a tiny one-shot channel (`Mutex` + `Condvar`) the
//! worker uses to deliver each request's outcome.

use rulekit_chimera::Decision;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A served classification, annotated with serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyOutcome {
    /// The pipeline's decision.
    pub decision: Decision,
    /// Rule candidates the executors considered for this request.
    pub candidates: usize,
    /// Whether the degraded (rules-only) path served this request.
    pub degraded: bool,
    /// Version of the snapshot that served the request.
    pub snapshot_version: u64,
    /// Admission to outcome: queue wait + classification time. The queue
    /// wait is zero when [`RuleService::classify`] ran the request on the
    /// caller's thread.
    ///
    /// [`RuleService::classify`]: crate::service::RuleService::classify
    pub latency: Duration,
}

/// Why a request did not produce a classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Refused at admission — [`Admission::Overloaded`] as the blocking
    /// [`RuleService::classify`] reports it. Nothing ran, nothing is queued.
    ///
    /// [`RuleService::classify`]: crate::service::RuleService::classify
    Overloaded,
    /// The request's deadline passed before a worker got to it; it was shed
    /// from the queue without being classified.
    DeadlineExceeded,
    /// The service shut down before the request was processed.
    ShuttingDown,
    /// The classifier panicked on this request; the panic was contained to
    /// the request (the shard worker keeps serving).
    ClassifierPanicked(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "overloaded"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            ServeError::ShuttingDown => write!(f, "service shutting down"),
            ServeError::ClassifierPanicked(msg) => write!(f, "classifier panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

type SlotResult = Result<ClassifyOutcome, ServeError>;

struct Shared {
    result: Mutex<Option<SlotResult>>,
    ready: Condvar,
}

/// Producer half of the one-shot response channel (held by the queue/worker).
///
/// Liveness guarantee: if the slot is dropped without being fulfilled (a
/// request discarded at shutdown, a queue dropped mid-flight, a worker path
/// that forgot to answer), `Drop` delivers [`ServeError::ShuttingDown`] —
/// a caller blocked on the handle can never hang forever.
pub(crate) struct ResponseSlot {
    shared: Arc<Shared>,
}

impl ResponseSlot {
    pub(crate) fn fulfill(self, result: SlotResult) {
        self.set(result);
    }

    /// First write wins; later writes (including the `Drop` fallback after
    /// a normal `fulfill`) are no-ops.
    fn set(&self, result: SlotResult) {
        let mut guard = self.shared.result.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some(result);
            drop(guard);
            self.shared.ready.notify_all();
        }
    }
}

impl Drop for ResponseSlot {
    fn drop(&mut self) {
        self.set(Err(ServeError::ShuttingDown));
    }
}

/// Consumer half: what the submitting client blocks on.
pub struct ResponseHandle {
    shared: Arc<Shared>,
}

impl ResponseHandle {
    /// Blocks until the worker delivers the outcome.
    pub fn wait(self) -> SlotResult {
        let mut guard = self.shared.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.shared.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Waits up to `timeout`; `None` means the result is not ready yet.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<SlotResult> {
        let guard = self.shared.result.lock().unwrap_or_else(|e| e.into_inner());
        let (mut guard, _) = self
            .shared
            .ready
            .wait_timeout_while(guard, timeout, |r| r.is_none())
            .unwrap_or_else(|e| e.into_inner());
        guard.take()
    }
}

pub(crate) fn response_channel() -> (ResponseSlot, ResponseHandle) {
    let shared = Arc::new(Shared { result: Mutex::new(None), ready: Condvar::new() });
    (ResponseSlot { shared: shared.clone() }, ResponseHandle { shared })
}

/// The service's answer to a submission attempt. `Overloaded` is the
/// backpressure signal: every shard queue the request was offered to was at
/// capacity (or the service is shutting down), and the caller should back
/// off or retry later.
pub enum Admission {
    /// Admitted; block on the handle for the outcome.
    Enqueued(ResponseHandle),
    /// Rejected at admission — nothing was queued.
    Overloaded,
}

impl Admission {
    /// Unwraps the handle, panicking on `Overloaded` (test convenience).
    pub fn expect_enqueued(self) -> ResponseHandle {
        match self {
            Admission::Enqueued(h) => h,
            Admission::Overloaded => panic!("request rejected: overloaded"),
        }
    }

    pub fn is_overloaded(&self) -> bool {
        matches!(self, Admission::Overloaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_delivers_across_threads() {
        let (slot, handle) = response_channel();
        let h = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(10));
        slot.fulfill(Err(ServeError::ShuttingDown));
        assert_eq!(h.join().unwrap(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn dropped_slot_resolves_waiters_with_shutdown() {
        let (slot, handle) = response_channel();
        let h = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(10));
        drop(slot); // never fulfilled — e.g. discarded during shutdown
        assert_eq!(h.join().unwrap(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn fulfill_wins_over_drop_fallback() {
        let (slot, handle) = response_channel();
        slot.fulfill(Err(ServeError::DeadlineExceeded));
        // Drop ran right after fulfill; the first write must stand.
        assert_eq!(handle.wait(), Err(ServeError::DeadlineExceeded));
    }

    #[test]
    fn wait_timeout_reports_not_ready() {
        let (slot, handle) = response_channel();
        assert!(handle.wait_timeout(Duration::from_millis(5)).is_none());
        slot.fulfill(Err(ServeError::DeadlineExceeded));
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(100)),
            Some(Err(ServeError::DeadlineExceeded))
        );
    }
}
