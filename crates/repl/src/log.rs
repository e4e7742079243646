//! The leader's in-memory shipping log: a bounded ring of recently
//! acknowledged WAL records, fed by the store's record sink (under the
//! store's mutation lock, so in exact log order) and drained by one session
//! thread per follower.
//!
//! The ring is deliberately *not* the durability story — the WAL is. It
//! only exists so tailing followers read from memory instead of re-reading
//! the leader's log file. When a follower's cursor falls off the ring's
//! tail (it was partitioned longer than the ring remembers), the session
//! answers with a fresh checkpoint snapshot instead — [`Coverage::Gap`].

use rulekit_store::WalRecord;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// What the ring can offer a follower whose log ends at some cursor.
#[derive(Debug)]
pub enum Coverage {
    /// The cursor is the head of the log — nothing to ship.
    UpToDate,
    /// Every record after the cursor, in order.
    Records(Vec<WalRecord>),
    /// The ring no longer holds (or never held) `cursor + 1`, or the
    /// cursor is *ahead* of this leader (a restarted leader that lost an
    /// unsynced tail). Either way: ship a snapshot.
    Gap,
}

struct Inner {
    entries: VecDeque<WalRecord>,
    /// Highest revision published (the leader's sequence number).
    leader_seq: u64,
    closed: bool,
}

/// Bounded, thread-safe record ring with a change signal.
pub struct ReplLog {
    inner: Mutex<Inner>,
    newer: Condvar,
    capacity: usize,
}

impl ReplLog {
    /// An empty ring whose head starts at `initial_seq` (the repository
    /// revision when the leader started).
    pub fn new(capacity: usize, initial_seq: u64) -> ReplLog {
        ReplLog {
            inner: Mutex::new(Inner {
                entries: VecDeque::with_capacity(capacity.min(1024)),
                leader_seq: initial_seq,
                closed: false,
            }),
            newer: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes one acknowledged record and wakes every waiting session.
    /// Called from the store's record sink.
    pub fn publish(&self, record: WalRecord) {
        let mut inner = self.lock();
        inner.leader_seq = inner.leader_seq.max(record.revision);
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
        }
        inner.entries.push_back(record);
        drop(inner);
        self.newer.notify_all();
    }

    /// The highest published revision.
    pub fn leader_seq(&self) -> u64 {
        self.lock().leader_seq
    }

    /// Raises the head to at least `seq` without publishing a record, waking
    /// waiters if it moved. Lets a leader install its record sink *first*
    /// and then fold in the store revision — any mutation racing the hookup
    /// either published through the sink (same seq, idempotent) or is
    /// covered by this call; neither window strands a follower at a stale
    /// head.
    pub fn advance_to(&self, seq: u64) {
        let mut inner = self.lock();
        if seq > inner.leader_seq {
            inner.leader_seq = seq;
            drop(inner);
            self.newer.notify_all();
        }
    }

    /// Everything after `cursor`, or why that's not possible.
    pub fn after(&self, cursor: u64) -> Coverage {
        let inner = self.lock();
        if cursor > inner.leader_seq {
            return Coverage::Gap;
        }
        if cursor == inner.leader_seq {
            return Coverage::UpToDate;
        }
        // The ring covers (cursor, leader_seq] only if its oldest entry is
        // at or below cursor + 1.
        match inner.entries.front() {
            Some(front) if front.revision <= cursor + 1 => Coverage::Records(
                inner.entries.iter().filter(|r| r.revision > cursor).cloned().collect(),
            ),
            _ => Coverage::Gap,
        }
    }

    /// Blocks until a revision newer than `cursor` is published, the log
    /// closes, or `timeout` passes. Returns `true` when something newer is
    /// available.
    pub fn wait_newer(&self, cursor: u64, timeout: Duration) -> bool {
        let mut inner = self.lock();
        let deadline = std::time::Instant::now() + timeout;
        while inner.leader_seq <= cursor && !inner.closed {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) =
                self.newer.wait_timeout(inner, deadline - now).unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
        inner.leader_seq > cursor
    }

    /// Wakes every waiter permanently (leader shutdown).
    pub fn close(&self) {
        self.lock().closed = true;
        self.newer.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_store::WalOp;

    fn rec(revision: u64) -> WalRecord {
        WalRecord { revision, op: WalOp::Enable { id: 1 } }
    }

    #[test]
    fn covers_tail_and_reports_gaps() {
        let log = ReplLog::new(4, 0);
        assert!(matches!(log.after(0), Coverage::UpToDate));
        for r in 1..=6 {
            log.publish(rec(r));
        }
        // Capacity 4: ring holds 3..=6; cursor 2 is coverable, cursor 1 not.
        match log.after(2) {
            Coverage::Records(rs) => {
                assert_eq!(rs.iter().map(|r| r.revision).collect::<Vec<_>>(), vec![3, 4, 5, 6]);
            }
            other => panic!("expected records, got {other:?}"),
        }
        assert!(matches!(log.after(1), Coverage::Gap));
        assert!(matches!(log.after(6), Coverage::UpToDate));
        assert!(matches!(log.after(9), Coverage::Gap), "cursor ahead of leader = gap");
    }

    #[test]
    fn advance_to_raises_head_and_gaps_missed_records() {
        let log = ReplLog::new(4, 0);
        log.advance_to(3);
        assert_eq!(log.leader_seq(), 3);
        // Revisions 1..=3 were never published (pre-sink mutations): a
        // follower behind the head must get a snapshot, not UpToDate.
        assert!(matches!(log.after(1), Coverage::Gap));
        assert!(matches!(log.after(3), Coverage::UpToDate));
        // Never moves backwards, and a racing publish is idempotent.
        log.advance_to(2);
        assert_eq!(log.leader_seq(), 3);
        log.publish(rec(4));
        log.advance_to(4);
        assert_eq!(log.leader_seq(), 4);
        match log.after(3) {
            Coverage::Records(rs) => assert_eq!(rs.len(), 1),
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn wait_newer_wakes_on_publish_and_close() {
        let log = std::sync::Arc::new(ReplLog::new(8, 0));
        assert!(!log.wait_newer(0, Duration::from_millis(10)), "times out while idle");
        let publisher = {
            let log = log.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                log.publish(rec(1));
            })
        };
        assert!(log.wait_newer(0, Duration::from_secs(5)), "publish wakes the waiter");
        publisher.join().unwrap();
        let closer = {
            let log = log.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                log.close();
            })
        };
        assert!(!log.wait_newer(1, Duration::from_secs(5)), "close wakes without data");
        closer.join().unwrap();
    }
}
