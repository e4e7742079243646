//! The counting allocator the integration tests' memory and work guards
//! share. A test binary includes it with
//! `#[path = "<relative path to this file>"] mod counting_alloc;`, runs on
//! it, and [`tally`] reports what one closure allocated and freed on the
//! calling thread.

// Each guard reads the fields it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated and freed while counting was armed.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    /// Calls that obtained or moved a heap block.
    pub allocs: u64,
    /// Calls that freed a heap block.
    pub frees: u64,
    /// Bytes allocated minus bytes freed.
    pub live_bytes: i64,
    /// Heap blocks obtained minus heap blocks freed.
    pub live_blocks: i64,
}

thread_local! {
    /// `Some` while counting on this thread; thread-local so the test
    /// harness's own allocations never pollute the count.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn record(allocs: u64, frees: u64, bytes: i64, blocks: i64) {
    TALLY.with(|c| {
        if let Some(t) = c.get() {
            c.set(Some(Tally {
                allocs: t.allocs + allocs,
                frees: t.frees + frees,
                live_bytes: t.live_bytes + bytes,
                live_blocks: t.live_blocks + blocks,
            }));
        }
    });
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, 0, layout.size() as i64, 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 1, -(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, 0, new_size as i64 - layout.size() as i64, 0);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, 0, layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with counting enabled and returns what it allocated and freed
/// on this thread (and whatever `f` built, so its heap stays live while
/// counted).
pub fn tally<T>(f: impl FnOnce() -> T) -> (Tally, T) {
    TALLY.with(|c| c.set(Some(Tally::default())));
    let out = f();
    (TALLY.with(|c| c.replace(None)).expect("counter armed"), out)
}
