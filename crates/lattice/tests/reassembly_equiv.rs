//! Property: the [`Reassembler`] is transparent for complete streams.
//!
//! Any permutation plus any duplication of the messages of a generated
//! execution, pushed through the reassembler, must yield a valid
//! [`LatticeInput`] whose full predictive analysis — verdict, run counts,
//! state counts — is identical to analyzing the original in-order stream,
//! and the result must be marked [`Exact`](jmpax_lattice::Exactness):
//! reordering and duplication alone lose nothing.

use jmpax_core::{Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId};
use jmpax_lattice::analysis::{analyze_lattice, LatticeAnalysis};
use jmpax_lattice::{Lattice, LatticeInput, Reassembler};
use jmpax_spec::{parse, Monitor, ProgramState};
use proptest::prelude::*;

/// A random write-heavy event trace over `threads` threads and `vars`
/// variables (small enough that full lattice analysis stays cheap).
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    (2..4u32, 1..4u32).prop_flat_map(|(threads, vars)| {
        prop::collection::vec(
            (0..threads, 0..vars, 0..10i64, 0..4u8).prop_map(|(t, v, val, kind)| {
                let thread = ThreadId(t);
                let var = VarId(v);
                match kind {
                    0 => Event::read(thread, var),
                    _ => Event::write(thread, var, val),
                }
            }),
            0..24,
        )
    })
}

fn monitor_and_initial(vars: usize) -> (Monitor, ProgramState, SymbolTable) {
    let mut syms = SymbolTable::new();
    let a = syms.intern("a");
    let b = syms.intern("b");
    let c = syms.intern("c");
    // A past-time property that random value streams sometimes violate.
    let monitor = parse("(a > 5) -> [b = 0, b > c)", &mut syms)
        .unwrap()
        .monitor()
        .unwrap();
    let mut initial = ProgramState::new();
    for var in [a, b, c].into_iter().take(vars.max(1)) {
        initial.set(var, 0);
    }
    (monitor, initial, syms)
}

fn analyze(messages: Vec<Message>, initial: ProgramState, monitor: &Monitor) -> LatticeAnalysis {
    let input = LatticeInput::from_messages(messages, initial).expect("valid input");
    let lattice = Lattice::build(input);
    analyze_lattice(&lattice, monitor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Permute + duplicate, reassemble, analyze: same verdict as in-order.
    #[test]
    fn scrambled_stream_reaches_the_same_verdict(
        events in arb_events(),
        shuffle_seed in any::<u64>(),
        dup_seed in any::<u64>(),
    ) {
        let vars = events.iter().filter_map(|e| e.var().map(|v| v.index() + 1)).max().unwrap_or(1);
        let (monitor, initial, _syms) = monitor_and_initial(vars);

        let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
        let msgs: Vec<Message> = events.iter().filter_map(|e| instr.process(e)).collect();

        let baseline = analyze(msgs.clone(), initial.clone(), &monitor);

        // Duplicate a pseudo-random subset, then Fisher-Yates shuffle.
        let mut scrambled = msgs.clone();
        let mut dups = 0u64;
        let mut state = dup_seed | 1;
        for m in &msgs {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state >> 63 == 1 {
                scrambled.push(m.clone());
                dups += 1;
            }
        }
        let mut state = shuffle_seed | 1;
        for i in (1..scrambled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            scrambled.swap(i, j);
        }

        // A complete stream must never need gap skipping: an effectively
        // unbounded stall budget makes any premature skip a test failure.
        let mut r = Reassembler::with_stall_budget(u64::MAX);
        r.push_all(scrambled);
        let (delivered, report) = r.finish();

        prop_assert!(report.exactness().is_exact(), "lost data: {report:?}");
        prop_assert_eq!(report.duplicates, dups);
        prop_assert_eq!(report.delivered, msgs.len() as u64);
        prop_assert!(report.gaps.is_empty());

        let scrambled_analysis = analyze(delivered, initial, &monitor);
        prop_assert_eq!(scrambled_analysis.satisfied(), baseline.satisfied());
        prop_assert_eq!(scrambled_analysis.total_runs, baseline.total_runs);
        prop_assert_eq!(scrambled_analysis.violating_runs, baseline.violating_runs);
        prop_assert_eq!(scrambled_analysis.states, baseline.states);
        prop_assert_eq!(scrambled_analysis.levels, baseline.levels);
        prop_assert_eq!(scrambled_analysis.violations.len(), baseline.violations.len());
    }
}
