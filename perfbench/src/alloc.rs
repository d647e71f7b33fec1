//! A counting global allocator: the source of the `<layer>.allocs_per_op`
//! metrics. Counting is off unless the traced run switches it on, so the
//! untraced end-to-end run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
#[cfg(all(target_os = "linux", target_env = "gnu"))]
use std::ffi::c_int;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Counter shards, one cache line each, so worker threads allocating at
/// once do not contend on one line.
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard(AtomicU64);

/// Allocation events (alloc, alloc_zeroed, realloc), sharded by thread.
static ALLOCS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
/// Next shard to hand to a thread.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
/// Whether events are counted. All these atomics are statistics that
/// publish no other data, so `Relaxed` suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// This thread's shard; `usize::MAX` until its first counted event.
    /// Const-initialized and without a destructor, so using it inside the
    /// allocator never allocates.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator plus an event counter.
pub struct Counting;

impl Counting {
    fn note() {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        // A thread being torn down has no thread-locals left; its events
        // go to shard 0.
        let ix = SHARD
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
                }
                s.get()
            })
            .unwrap_or(0);
        ALLOCS[ix].0.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocated
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` was returned by `System` for `layout`; the caller
        // guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation events counted so far.
pub fn count() -> u64 {
    ALLOCS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Makes the C allocator keep the memory the process frees rather than
/// hand it back to the kernel, so that an op does not page-fault afresh on
/// memory an earlier op released: a serving run faults about 200 000 times
/// with the allocator's defaults and 20 000 times with memory kept. What
/// such faults cost depends on the host's load more than on the program;
/// on a 2-vCPU shared host, four runs of one seed of a two-deployment
/// serving tick spread 17 % (IQR of op p50) with the defaults and 14 %
/// with memory kept, and their set-up 28 % and 7 %.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    // glibc's `mallopt` parameters (malloc.h).
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` only sets allocator parameters; it is called before
    // the program starts any thread. 32 MiB is the largest mmap threshold
    // glibc accepts on 64-bit targets.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}
