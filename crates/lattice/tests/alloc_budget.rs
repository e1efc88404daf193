//! Allocation budget of frontier expansion: in two-level mode a lattice
//! node must cost bytes in the level arena, not heap allocations. A
//! counting global allocator (this test binary's own) counts every
//! allocation and reallocation the analyzing thread makes while the
//! analyzer expands a wide hypercube lattice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use jmpax_core::{Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId};
use jmpax_lattice::StreamingAnalyzer;
use jmpax_spec::{parse, ProgramState};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// A hypercube computation: `threads` threads each writing their private
/// variable `rounds` times, with no cross-thread causality, so its
/// lattice has `(rounds + 1)^threads` nodes.
fn hypercube(threads: usize, rounds: usize) -> (Vec<Message>, ProgramState) {
    let mut instr = MvcInstrumentor::new(threads, Relevance::AllWrites);
    let mut msgs = Vec::new();
    for round in 0..rounds {
        for t in 0..threads {
            let e = Event::write(
                ThreadId(t as u32),
                VarId(t as u32),
                (round * threads + t + 1) as i64,
            );
            msgs.extend(instr.process(&e));
        }
    }
    let mut initial = ProgramState::new();
    for v in 0..threads {
        initial.set(VarId(v as u32), 0i64);
    }
    (msgs, initial)
}

#[test]
fn two_level_expansion_allocates_at_most_a_tenth_per_node() {
    const THREADS: usize = 8;
    let (msgs, initial) = hypercube(THREADS, 3);
    let mut syms = SymbolTable::new();
    for t in 0..THREADS {
        syms.intern(&format!("v{t}"));
    }
    let monitor = parse("start(v1 > 0) -> [v0 >= 0, v1 < 0)", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();

    // Every message delivered, no stream ended: the frontier stalls at
    // level 3, before the wide middle of the lattice.
    let mut analyzer = StreamingAnalyzer::new(monitor, &initial, THREADS);
    analyzer.push_all(msgs);
    assert_eq!(analyzer.levels_built(), 3);
    let (report, allocations) = allocations_in(|| analyzer.finish());

    assert!(report.completed);
    assert!(report.satisfied());
    assert_eq!(report.states_explored, 65_536);
    assert_eq!(report.peak_frontier, 8_092);
    // Nodes created after the stall: everything above level 3.
    let expanded = 65_536 - (1 + 8 + 36 + 120);
    let per_node = allocations as f64 / expanded as f64;
    assert!(
        per_node <= 0.1,
        "{allocations} allocations for {expanded} nodes ({per_node:.3} per node)"
    );
}
