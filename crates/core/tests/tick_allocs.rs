//! The steady-state coordination tick allocates nothing: once warm, a
//! root election round over the candidates plus a health scan into the
//! caller's reused [`ScanReport`] make no heap allocation. A counting
//! global allocator checks it; the count depends only on the code, not
//! on the host.

use gemini_core::agents::{RootAgent, ScanReport, WorkerAgent};
use gemini_core::GeminiConfig;
use gemini_kvstore::KvStore;
use gemini_sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations made on the current thread while armed, so the
/// test harness's own threads do not disturb the count.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

#[test]
fn a_steady_state_election_and_scan_allocate_nothing() {
    const N: usize = 16;
    let cfg = GeminiConfig::default();
    let mut kv = KvStore::new();
    let mut workers: Vec<WorkerAgent> =
        (0..N).map(|r| WorkerAgent::new(r, r as u64, cfg)).collect();
    let mut roots: Vec<RootAgent> = (0..N)
        .map(|r| RootAgent::new(&format!("machine-{r}"), &cfg))
        .collect();
    let mut report = ScanReport::default();
    let mut now = SimTime::ZERO;
    for w in &mut workers {
        w.register(&mut kv, now).unwrap();
    }
    // The warm-up round claims the election key and sizes the report.
    assert_eq!(
        RootAgent::elect(&mut roots, &mut kv, now, |_| true),
        Some(0)
    );
    roots[0].scan(&mut kv, now, N, &mut report);
    assert_eq!(report.alive.len(), N);

    // One tick a simulated second; the workers beat every heartbeat
    // period, outside the counted tick.
    let tick = SimDuration::from_secs(1);
    let ticks_per_beat = cfg.heartbeat_period.as_nanos() / tick.as_nanos();
    let mut allocs = 0;
    for round in 1..=1_000u64 {
        now += tick;
        if round % ticks_per_beat == 0 {
            for w in &mut workers {
                w.heartbeat(&mut kv, now).unwrap();
            }
        }
        let mut holder = None;
        allocs += allocs_in(|| {
            holder = RootAgent::elect(&mut roots, &mut kv, now, |_| true);
            roots[0].scan(&mut kv, now, N, &mut report);
        });
        assert_eq!(holder, Some(0), "round {round}: the holder lost the key");
        assert_eq!(
            report.alive.len(),
            N,
            "round {round}: a live worker is missing"
        );
    }
    assert_eq!(
        allocs, 0,
        "1 000 steady-state ticks allocated {allocs} times"
    );
}

#[test]
fn the_counter_sees_an_allocation() {
    // Guards the gate above: an armed counter must notice a real one.
    let n = allocs_in(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert_eq!(n, 1);
}
