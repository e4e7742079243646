//! The one lifecycle for the serving stack's long-lived threads: named
//! threads sharing a stop flag, stopped by raising it, running wake-ups and
//! joining every thread.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Default)]
struct Group {
    stop: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A handle on a [`Threads`] group for its threads: reads the stop flag and
/// starts more threads in the group.
#[derive(Clone)]
pub struct ThreadsHandle(Arc<Group>);

impl ThreadsHandle {
    /// Whether the group has been told to stop.
    pub fn stopping(&self) -> bool {
        // Pairs with the `Release` swap in `Threads::stop`.
        self.0.stop.load(Ordering::Acquire)
    }

    /// Starts `body` on a thread called `name`, which the stop joins.
    /// Panics if the OS cannot start a thread.
    pub fn spawn(&self, name: impl Into<String>, body: impl FnOnce() + Send + 'static) {
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(body)
            .expect("the OS starts a thread");
        // The list is only pushed to and taken whole, so it stays valid
        // across a poisoned lock. Ended threads leave nothing to join: a
        // churn of short-lived ones (follower sessions) keeps no handles.
        let mut handles = self.0.handles.lock().unwrap_or_else(|e| e.into_inner());
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }
}

/// A group of named threads with one stop flag. [`Threads::stop`], or the
/// drop, raises the flag, runs the [`Threads::on_stop`] wake-ups in the
/// order they were added, then joins every thread in the group, also those
/// started while it runs. `Threads::default()` is an empty group.
pub struct Threads {
    handle: ThreadsHandle,
    wakes: Vec<Box<dyn FnOnce() + Send + Sync>>,
}

impl Default for Threads {
    fn default() -> Self {
        Threads { handle: ThreadsHandle(Arc::default()), wakes: Vec::new() }
    }
}

impl Threads {
    /// A handle for the group's threads, which also starts them.
    pub fn handle(&self) -> ThreadsHandle {
        self.handle.clone()
    }

    /// Adds a wake-up that ends a wait the threads block in (closes a
    /// queue, signals a condvar).
    pub fn on_stop(&mut self, wake: impl FnOnce() + Send + Sync + 'static) {
        self.wakes.push(Box::new(wake));
    }

    /// Starts an accept loop on a thread called `name`, handing each
    /// connection to `on_conn`; the stop wakes its blocked `accept` with a
    /// throwaway connection. Returns the bound address.
    pub fn accept(
        &mut self,
        name: impl Into<String>,
        listener: TcpListener,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<SocketAddr> {
        let addr = listener.local_addr()?;
        let handle = self.handle();
        self.handle.spawn(name, move || loop {
            let conn = listener.accept();
            if handle.stopping() {
                return;
            }
            match conn {
                Ok((stream, _peer)) => on_conn(stream),
                // Transient failure (e.g. fd exhaustion): back off.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        });
        self.on_stop(move || drop(TcpStream::connect(addr)));
        Ok(addr)
    }

    /// Stops the group (see [`Threads`]). Only the first call does anything.
    pub fn stop(&mut self) {
        if self.handle.0.stop.swap(true, Ordering::Release) {
            return;
        }
        self.wakes.drain(..).for_each(|wake| wake());
        // A joined thread may have started another: repeat until none is
        // left. A panicked thread has ended too; its result is dropped.
        let handles = &self.handle.0.handles;
        loop {
            let started = std::mem::take(&mut *handles.lock().unwrap_or_else(|e| e.into_inner()));
            if started.is_empty() {
                return;
            }
            started.into_iter().for_each(|h| drop(h.join()));
        }
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        self.stop();
    }
}
