//! Allocation regression gate for the index probe paths.
//!
//! The SoA page layout removed the per-probe key materialization (the old
//! AoS path collected probe keys into transient `Vec<u8>`s); this test
//! pins that property with a counting global allocator so a future change
//! cannot quietly reintroduce per-probe heap traffic.
//!
//! Kept to a single `#[test]` on purpose: the libtest harness runs tests
//! in one process, and a sibling test allocating concurrently would make
//! the counter racy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dr_binindex::{BinIndex, BinIndexConfig, ChunkRef, ProbeKind};
use dr_hashes::{sha1_digest, ChunkDigest};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_probes_do_not_allocate() {
    let mut index = BinIndex::new(BinIndexConfig::default());
    let digests: Vec<ChunkDigest> = (0..10_000u64)
        .map(|i| sha1_digest(&i.to_le_bytes()))
        .collect();
    for (i, d) in digests.iter().enumerate() {
        index.insert(*d, ChunkRef::new(i as u64 * 4096, 4096));
    }
    // Misses interleaved with hits, so both probe outcomes are measured.
    let absent: Vec<ChunkDigest> = (20_000..21_000u64)
        .map(|i| sha1_digest(&i.to_le_bytes()))
        .collect();

    // Warm-up pass settles any lazy one-time allocations.
    for d in digests.iter().chain(&absent) {
        std::hint::black_box(index.lookup(d));
    }

    let before = allocations();
    let mut hits = 0u64;
    for d in digests.iter().chain(&absent) {
        if index.lookup(d).is_some() {
            hits += 1;
        }
    }
    let after = allocations();
    assert!(hits >= 9_000, "expected mostly hits, got {hits}");
    assert_eq!(
        after - before,
        0,
        "serial probes must not touch the allocator"
    );

    // A batched probe may allocate its result vector (one allocation per
    // *batch*), but nothing per probe.
    let queries: Vec<(ChunkDigest, ProbeKind)> = digests
        .iter()
        .take(1_000)
        .map(|d| (*d, ProbeKind::Full))
        .collect();
    std::hint::black_box(index.probe_batch(&queries)); // warm up
    let before = allocations();
    let out = index.probe_batch(&queries);
    let after = allocations();
    assert_eq!(out.iter().filter(|r| r.is_some()).count(), 1_000);
    drop(out);
    assert!(
        after - before <= 4,
        "batched probe allocated {} times for 1000 probes — per-probe \
         allocation has crept back in",
        after - before
    );
}
