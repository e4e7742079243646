//! The thread group's stop protocol: the flag goes up before the wake-ups
//! run, the wake-ups run in the order they were added, the stop joins every
//! thread, including one an accept loop starts while the stop is running,
//! and only the first stop does anything.

use rulekit_core::Threads;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[test]
fn wakes_run_after_the_flag_is_raised_in_the_order_they_were_added() {
    let mut threads = Threads::default();
    let handle = threads.handle();
    let seen = Arc::new(Mutex::new(Vec::new()));
    // A thread blocked until the second wake-up: the stop can only join it
    // after running the wake-ups.
    let (wake_tx, wake_rx) = mpsc::channel::<()>();
    {
        let (seen, waiter) = (seen.clone(), handle.clone());
        handle.spawn("test-waiter", move || {
            let _ = wake_rx.recv();
            seen.lock().unwrap().push(("waiter", waiter.stopping()));
        });
    }
    for name in ["first", "second"] {
        let (seen, handle, wake_tx) = (seen.clone(), handle.clone(), wake_tx.clone());
        threads.on_stop(move || {
            seen.lock().unwrap().push((name, handle.stopping()));
            if name == "second" {
                let _ = wake_tx.send(());
            }
        });
    }
    assert!(!handle.stopping());
    assert!(seen.lock().unwrap().is_empty(), "a wake-up ran before the stop");
    threads.stop();
    assert!(handle.stopping());
    assert_eq!(*seen.lock().unwrap(), [("first", true), ("second", true), ("waiter", true)]);
}

#[test]
fn stop_joins_the_threads_an_accept_loop_started_also_while_stopping() {
    let mut threads = Threads::default();
    let group = threads.handle();
    let ended = Arc::new(AtomicUsize::new(0));
    // The first wake-up tells the second connection's handler that the
    // stop has begun, so its session starts while the stop runs.
    let (stopping_tx, stopping_rx) = mpsc::channel::<()>();
    threads.on_stop(move || {
        let _ = stopping_tx.send(());
    });
    let (entered_tx, entered_rx) = mpsc::channel::<usize>();
    let mut conns = 0;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let sessions_ended = ended.clone();
    let addr = threads
        .accept("test-accept", listener, move |stream| {
            conns += 1;
            let ended = sessions_ended.clone();
            let until_stop = group.clone();
            if conns == 1 {
                group.spawn("test-session-early", move || {
                    while !until_stop.stopping() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    drop(stream);
                    ended.fetch_add(1, Ordering::SeqCst);
                });
                let _ = entered_tx.send(conns);
            } else {
                let _ = entered_tx.send(conns);
                let _ = stopping_rx.recv();
                assert!(until_stop.stopping());
                // Late enough that the stop is already joining the threads
                // it found (a slower run only makes this session an early
                // one), and slow to end, so a stop that returned without
                // joining it would see it unfinished.
                std::thread::sleep(Duration::from_millis(50));
                group.spawn("test-session-late", move || {
                    std::thread::sleep(Duration::from_millis(50));
                    drop(stream);
                    ended.fetch_add(1, Ordering::SeqCst);
                });
            }
        })
        .expect("accept loop");

    let _first = TcpStream::connect(addr).expect("connect");
    assert_eq!(entered_rx.recv_timeout(Duration::from_secs(10)), Ok(1));
    let _second = TcpStream::connect(addr).expect("connect");
    assert_eq!(entered_rx.recv_timeout(Duration::from_secs(10)), Ok(2));
    threads.stop();
    assert_eq!(ended.load(Ordering::SeqCst), 2, "stop returned before every session ended");
}

#[test]
fn a_second_stop_and_the_drop_after_it_do_nothing() {
    let mut threads = Threads::default();
    let runs = Arc::new(AtomicUsize::new(0));
    let counted = runs.clone();
    threads.on_stop(move || {
        counted.fetch_add(1, Ordering::SeqCst);
    });
    threads.handle().spawn("test-once", || {});
    threads.stop();
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    threads.stop();
    drop(threads);
    assert_eq!(runs.load(Ordering::SeqCst), 1);
}
