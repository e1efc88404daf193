//! Allocation budgets of the observer's hot paths. A counting global
//! allocator (this test binary's own) counts every allocation and
//! reallocation the measuring thread makes.
//!
//! * Frontier expansion: in two-level mode a lattice node must cost bytes
//!   in the level arena, not heap allocations.
//! * The wire-to-verdict path after decode: reassembly plus the race and
//!   atomicity suite over a 16-thread chaos stream must not allocate per
//!   message.
//! * Causal delivery of an in-order stream must not allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use jmpax_core::{
    AnalysisKind, CausalBuffer, Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId,
    VarId,
};
use jmpax_lattice::{Reassembler, StreamingAnalyzer, SuiteBuilder};
use jmpax_spec::{parse, ProgramState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

const LOCKS: [VarId; 2] = [VarId(0), VarId(1)];

/// Algorithm A's messages (every access relevant) for `threads` threads
/// on a seeded schedule, each iteration `lock mL; cL = cL + 1; unlock mL`
/// under one of two locks, then an unprotected write of `u`.
fn locked_counters(threads: usize, iterations: usize, seed: u64) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (counters, unprotected) = ([VarId(2), VarId(3)], VarId(4));
    let mut step = vec![0usize; threads];
    let mut done = vec![0usize; threads];
    let mut lock: Vec<usize> = (0..threads).map(|_| rng.gen_range(0..2)).collect();
    let mut owner: [Option<usize>; 2] = [None; 2];
    let mut value = [0i64; 2];
    let mut instr = MvcInstrumentor::new(threads, Relevance::Everything);
    let mut messages = Vec::new();
    loop {
        let runnable: Vec<usize> = (0..threads)
            .filter(|&t| done[t] < iterations && (step[t] != 0 || owner[lock[t]].is_none()))
            .collect();
        let Some(&t) = runnable.get(rng.gen_range(0..runnable.len().max(1))) else {
            break;
        };
        let (l, me) = (lock[t], ThreadId(t as u32));
        let event = match step[t] {
            0 => {
                owner[l] = Some(t);
                Event::write(me, LOCKS[l], 1)
            }
            1 => Event::read(me, counters[l]),
            2 => {
                value[l] += 1;
                Event::write(me, counters[l], value[l])
            }
            3 => {
                owner[l] = None;
                Event::write(me, LOCKS[l], 0)
            }
            _ => Event::write(me, unprotected, done[t] as i64 + 1),
        };
        messages.extend(instr.process(&event));
        step[t] = (step[t] + 1) % 5;
        if step[t] == 0 {
            done[t] += 1;
            lock[t] = rng.gen_range(0..2);
        }
    }
    messages
}

/// 2 % duplicates and a seeded reordering window of 8, nothing lost.
fn chaos(messages: &[Message], seed: u64) -> Vec<Message> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(messages.len() * 2);
    let mut window: Vec<Message> = Vec::new();
    for m in messages {
        window.push(m.clone());
        if rng.gen_bool(0.02) {
            window.push(m.clone());
        }
        while window.len() >= 8 {
            out.push(window.swap_remove(rng.gen_range(0..window.len())));
        }
    }
    while !window.is_empty() {
        out.push(window.swap_remove(rng.gen_range(0..window.len())));
    }
    out
}

#[test]
fn reassembly_and_suite_allocate_at_most_a_twentieth_per_message() {
    const THREADS: usize = 16;
    let arrivals = chaos(&locked_counters(THREADS, 250, 301), 7);
    let received = arrivals.len() as u64;
    let kinds = [AnalysisKind::Race, AnalysisKind::Atomicity];

    let ((findings, reordered), allocations) = allocations_in(|| {
        let mut reassembler = Reassembler::new();
        reassembler.push_all(arrivals);
        let (messages, report) = reassembler.finish();
        let mut suite = SuiteBuilder::new(&kinds, THREADS)
            .sync_vars(LOCKS)
            .build(None);
        suite.push_all(messages);
        let suite = suite.finish(report.exactness());
        (suite.findings(), report.reordered)
    });

    // The stream is reordered and its races are found: the work was done.
    assert!(reordered > 0 && findings > 0, "{reordered} {findings}");
    let per_message = allocations as f64 / received as f64;
    assert!(
        per_message <= 0.05,
        "{allocations} allocations for {received} messages ({per_message:.4} per message)"
    );
}

#[test]
fn causal_delivery_of_an_in_order_stream_never_allocates() {
    const THREADS: usize = 16;
    let messages = locked_counters(THREADS, 100, 5);
    let mut buffer = CausalBuffer::new();
    let mut delivered = 0usize;
    // The prefix up to every thread's first message sizes the per-thread
    // counters.
    let warm = messages
        .iter()
        .position(|m| m.thread() == ThreadId(THREADS as u32 - 1) && m.seq() == 1)
        .expect("every thread sends")
        + 1;
    let mut rest = messages;
    let first: Vec<Message> = rest.drain(..warm).collect();
    buffer.push_all(first, |_| delivered += 1);
    assert_eq!(delivered, warm);

    let pushes = rest.len();
    let ((), allocations) = allocations_in(|| {
        for m in rest {
            buffer.push(m, |_| delivered += 1);
        }
    });
    assert_eq!(delivered, warm + pushes);
    assert!(buffer.is_drained());
    assert_eq!(
        allocations, 0,
        "{allocations} allocations in {pushes} pushes"
    );
}
