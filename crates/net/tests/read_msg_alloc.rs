//! `read_msg` allocates for the bytes that arrive, not for the length a
//! header claims. Its own test binary, because the counting allocator is
//! process-wide: nothing else may allocate while it measures.
//!
//! A `#[global_allocator]` cannot be written without `unsafe impl
//! GlobalAlloc`, so this file is on `shiftex-lint`'s unsafe allowlist next
//! to `crates/tensor/src/simd.rs`; no library crate gains unsafe code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use shiftex_net::frame::{read_msg, write_msg, MsgKind, MAX_FRAME_LEN};

/// The system allocator, counting the bytes and the calls that allocate.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics that publish nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the trait's own contract; the body only forwards it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the trait's own contract; the body only forwards it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the trait's own contract; the body only forwards it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `GlobalAlloc::realloc` contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(bytes, calls)` allocated while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
    let (bytes, calls) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let out = f();
    let spent = (
        BYTES.load(Ordering::Relaxed) - bytes,
        CALLS.load(Ordering::Relaxed) - calls,
    );
    (spent, out)
}

/// One test, so no second test thread allocates during a measurement.
#[test]
fn read_msg_allocates_for_bytes_received_not_bytes_claimed() {
    // A header claiming the largest legal payload, then EOF.
    let mut liar = vec![MsgKind::Upload as u8];
    liar.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
    let ((bytes, _), read) = allocated_by(|| read_msg(&mut liar.as_slice()));
    assert!(read.is_err(), "a frame cut off after its header must fail");
    assert!(
        bytes < 1 << 20,
        "{bytes} bytes allocated for a {MAX_FRAME_LEN}-byte claim with no payload"
    );

    // A netfed_tcp-sized upload frame (~43 KB) still takes one allocation
    // of exactly its payload.
    let payload: Vec<u8> = (0..43_000u32).map(|i| i as u8).collect();
    let mut wire = Vec::new();
    write_msg(&mut wire, MsgKind::Upload, &payload).expect("write to a Vec");
    let ((bytes, calls), read) = allocated_by(|| read_msg(&mut wire.as_slice()));
    let (kind, got) = read.expect("a whole frame reads");
    assert_eq!((kind, got == payload), (MsgKind::Upload, true));
    assert_eq!((bytes, calls), (payload.len(), 1));
}
