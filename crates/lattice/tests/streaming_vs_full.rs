//! Equivalence of the streaming analyzer with the full lattice analysis:
//! same states, levels and level width, same total and violating run
//! counts, the same set of `(cut, memory)` violation points, every
//! violation's run a valid violating run, and every trail state — of full
//! and of truncated trails — the full lattice's state at that cut — on
//! random computations and properties, regardless of delivery order.

use std::collections::HashSet;

use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{Relevance, SymbolTable, VarId};
use jmpax_lattice::analysis::analyze_lattice;
use jmpax_lattice::{Cut, Lattice, LatticeInput, StreamingAnalyzer, Violation};
use jmpax_spec::{parse, Monitor, MonitorState, ProgramState};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

const SPECS: &[&str] = &[
    "v0 <= v1 \\/ v2 < 3",
    "[*] v0 >= 0",
    "start(v1 > 2) -> v2 != 0",
    "[v0 = 1, v1 > v2)",
    "v0 = 0 S v1 = 0",
];

/// Asserts that `v.trail` is a whole run from `initial` that violates the
/// property exactly at its last step: consecutive cuts differ by one
/// thread, replaying each step's write reproduces its state, and the
/// monitor fails at the last step and nowhere before.
fn assert_valid_run(v: &Violation, monitor: &Monitor, initial: &ProgramState, what: &str) {
    assert!(v.is_full_run(), "{what}: not a full run");
    let first = &v.trail[0];
    assert_eq!(first.cut.level(), 0, "{what}: run starts above the bottom");
    assert_eq!(&first.state, initial, "{what}");
    let (mut mem, mut ok) = monitor.initial(&first.state);
    for w in v.trail.windows(2) {
        assert!(ok, "{what}: the monitor failed before the last step");
        let (prev, step) = (&w[0], &w[1]);
        let thread = prev.cut.advancing_thread(&step.cut);
        assert!(
            thread.is_some(),
            "{what}: {} -> {} is not one step",
            prev.cut,
            step.cut
        );
        assert_eq!(step.thread, thread, "{what}");
        let msg = step.message.as_ref().expect("a step consumes a message");
        assert_eq!(Some(msg.thread()), thread, "{what}");
        let (var, value) = msg.var().zip(msg.written_value()).expect("a write");
        assert_eq!(step.state, prev.state.updated(var, value), "{what}: state");
        (mem, ok) = monitor.step(mem, &step.state);
    }
    assert!(!ok, "{what}: the monitor does not fail at the last step");
    assert_eq!(mem, v.memory, "{what}");
    let last = v.trail.last().expect("non-empty trail");
    assert_eq!((&last.cut, &last.state), (&v.cut, &v.state), "{what}");
}

#[test]
fn streaming_matches_full_on_random_computations_and_specs() {
    let mut shuffler = StdRng::seed_from_u64(0xFEED);
    let mut truncated_shuffler = StdRng::seed_from_u64(0xBEEF);
    for seed in 0..12 {
        let ex = random_execution(RandomExecutionConfig {
            threads: 3,
            vars: 3,
            events: 16,
            write_ratio: 0.7,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::writes_of([VarId(0), VarId(1), VarId(2)]));
        let initial = ProgramState::new();

        for spec in SPECS {
            let mut syms = SymbolTable::new();
            for n in ["v0", "v1", "v2"] {
                syms.intern(n);
            }
            let monitor = parse(spec, &mut syms).unwrap().monitor().unwrap();

            let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
            let lattice = Lattice::build(input);
            let full = analyze_lattice(&lattice, &monitor);
            let full_points: HashSet<(Cut, MonitorState)> = full
                .violations
                .iter()
                .map(|v| (v.cut.clone(), v.memory))
                .collect();

            // Streaming, with a shuffled delivery order.
            let mut shuffled = msgs.clone();
            shuffled.shuffle(&mut shuffler);
            let mut s =
                StreamingAnalyzer::new(monitor.clone(), &initial, 3).with_history(usize::MAX);
            s.push_all(shuffled);
            let report = s.finish();
            assert!(report.completed, "seed {seed} spec `{spec}`");
            assert_eq!(
                report.states_explored as usize, full.states,
                "seed {seed} spec `{spec}`: states"
            );
            assert_eq!(
                (report.levels(), report.peak_frontier),
                (full.levels, full.max_level_width),
                "seed {seed} spec `{spec}`: levels"
            );
            assert_eq!(
                (report.total_runs, report.violating_runs),
                (full.total_runs, full.violating_runs),
                "seed {seed} spec `{spec}`: run counts"
            );
            for (engine, violations) in [
                ("streaming", &report.violations),
                ("full", &full.violations),
            ] {
                for v in violations {
                    assert_valid_run(
                        v,
                        &monitor,
                        &initial,
                        &format!("seed {seed} spec `{spec}` {engine}"),
                    );
                }
            }
            let stream_points: HashSet<(Cut, MonitorState)> = report
                .violations
                .iter()
                .map(|v| (v.cut.clone(), v.memory))
                .collect();
            assert_eq!(
                stream_points, full_points,
                "seed {seed} spec `{spec}`: violation points diverged"
            );
            assert_states_match_lattice(&report.violations, &lattice, &format!("seed {seed}"));

            // Truncated trails — two-level, and one retired level: the
            // same violation points, trails as long as the history
            // allows, and every trail state the full lattice's.
            for history in [0usize, 1] {
                let what = format!("seed {seed} spec `{spec}` history {history}");
                let mut shuffled = msgs.clone();
                shuffled.shuffle(&mut truncated_shuffler);
                let mut s =
                    StreamingAnalyzer::new(monitor.clone(), &initial, 3).with_history(history);
                s.push_all(shuffled);
                let report = s.finish();
                assert!(report.completed, "{what}");
                let points: HashSet<(Cut, MonitorState)> = report
                    .violations
                    .iter()
                    .map(|v| (v.cut.clone(), v.memory))
                    .collect();
                assert_eq!(points, full_points, "{what}: violation points");
                for v in &report.violations {
                    let len = (v.cut.level() as usize + 1).min(2 + history);
                    assert_eq!(v.trail.len(), len, "{what}: trail length");
                }
                assert_states_match_lattice(&report.violations, &lattice, &what);
            }
        }
    }
}

/// Asserts that every step of every trail carries the state of the full
/// lattice's node at its cut, and that consecutive steps are one event
/// apart, naming the thread and the message that moved.
fn assert_states_match_lattice(violations: &[Violation], lattice: &Lattice, what: &str) {
    for v in violations {
        let node = |cut: &Cut| {
            let id = lattice
                .node_by_cut(cut)
                .unwrap_or_else(|| panic!("{what}: {cut} is not a lattice node"));
            &lattice.nodes()[id].state
        };
        assert_eq!(
            &v.state,
            node(&v.cut),
            "{what}: violation state at {}",
            v.cut
        );
        for step in &v.trail {
            assert_eq!(
                &step.state,
                node(&step.cut),
                "{what}: trail state at {}",
                step.cut
            );
        }
        for w in v.trail.windows(2) {
            let thread = w[0].cut.advancing_thread(&w[1].cut);
            assert!(thread.is_some(), "{what}: {} -> {}", w[0].cut, w[1].cut);
            assert_eq!(w[1].thread, thread, "{what}");
            assert_eq!(w[1].message.as_ref().map(|m| m.thread()), thread, "{what}");
        }
        let first = &v.trail[0];
        assert_eq!(
            first.thread.is_none(),
            first.cut.level() == 0,
            "{what}: only the initial state has no arriving thread"
        );
    }
}

/// A property with more than 64 atoms: its valuation does not fit the
/// step cache's packed key, so every monitor step evaluates the formula
/// over the node's slots. The streaming verdict must still match the
/// full lattice's.
#[test]
fn wide_formulas_bypass_the_step_cache_and_still_match() {
    let clauses: Vec<String> = (1..=33)
        .map(|k| format!("(v0 != {k} \\/ v1 < v2 + {k})"))
        .collect();
    let spec = format!("[*]({})", clauses.join(" /\\ "));
    let mut syms = SymbolTable::new();
    for n in ["v0", "v1", "v2"] {
        syms.intern(n);
    }
    let monitor = parse(&spec, &mut syms).unwrap().monitor().unwrap();
    assert!(
        monitor.valuation(&ProgramState::new()).is_none(),
        "66 atoms must not pack into one valuation"
    );
    let mut violated = 0;
    for seed in 0..12 {
        let ex = random_execution(RandomExecutionConfig {
            threads: 3,
            vars: 3,
            events: 14,
            write_ratio: 0.8,
            internal_ratio: 0.0,
            seed,
        });
        let msgs = ex.instrument(Relevance::writes_of([VarId(0), VarId(1), VarId(2)]));
        let initial = ProgramState::new();
        let input = LatticeInput::from_messages(msgs.clone(), initial.clone()).unwrap();
        let lattice = Lattice::build(input);
        let full = analyze_lattice(&lattice, &monitor);
        let mut s = StreamingAnalyzer::new(monitor.clone(), &initial, 3).with_history(usize::MAX);
        s.push_all(msgs);
        let report = s.finish();
        let what = format!("seed {seed}");
        assert!(report.completed, "{what}");
        assert_eq!(
            report.states_explored as usize, full.states,
            "{what}: states"
        );
        assert_eq!(
            (report.total_runs, report.violating_runs),
            (full.total_runs, full.violating_runs),
            "{what}: run counts"
        );
        let points = |vs: &[Violation]| -> HashSet<(Cut, MonitorState)> {
            vs.iter().map(|v| (v.cut.clone(), v.memory)).collect()
        };
        assert_eq!(
            points(&report.violations),
            points(&full.violations),
            "{what}: violation points"
        );
        for v in &report.violations {
            assert_valid_run(v, &monitor, &initial, &what);
        }
        violated += usize::from(!report.violations.is_empty());
    }
    assert!(
        violated > 0,
        "some seed must violate, or the check is vacuous: {violated}"
    );
    assert!(
        violated < 12,
        "some seed must hold, or the check is vacuous: {violated}"
    );
}
