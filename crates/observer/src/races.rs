//! Predictive data-race detection, end to end through the observer.
//!
//! The paper's introduction names data races as the canonical bug class
//! that single-trace testing misses ("like in the case of data-races, the
//! chance of detecting this safety violation by monitoring only the actual
//! run is very low"). Race detection is the analysis suite's
//! [`jmpax_lattice::RaceAnalysis`]; these tests drive it the way
//! `jmpax check --analysis race` does — every access instrumented, the
//! messages run through [`crate::Pipeline::check_stream_suite`] — and
//! compare it with an exhaustive happens-before oracle.

mod tests {
    use std::collections::BTreeSet;

    use jmpax_core::{
        AnalysisKind, Event, EventKind, Message, MvcInstrumentor, Relevance, ThreadId, VarId,
    };
    use jmpax_lattice::analyses::RaceFinding;
    use jmpax_lattice::{Analysis, AnalysisSuite, Exactness, RaceAnalysis};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use crate::pipeline::{Pipeline, PipelineConfig};

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);
    const X: VarId = VarId(0);
    const L: VarId = VarId(9);

    /// A race's identity: variable, then thread and kind (`true` = write) of
    /// the earlier and the later access.
    type RaceKey = (VarId, ThreadId, bool, ThreadId, bool);

    fn key(f: &RaceFinding) -> RaceKey {
        (
            f.var,
            f.first.thread,
            f.first.is_write,
            f.second.thread,
            f.second.is_write,
        )
    }

    /// The races the pipeline's suite finds in `messages`, `sync` being the
    /// lock variables.
    fn suite_races(messages: Vec<Message>, sync: &[VarId]) -> Vec<RaceFinding> {
        let threads = messages
            .iter()
            .map(|m| m.thread().index() + 1)
            .max()
            .unwrap_or(1);
        let pipeline = Pipeline::new(PipelineConfig::new().sync_vars(sync.iter().copied()));
        let suite = pipeline.check_stream_suite(
            &[AnalysisKind::Race],
            None,
            threads,
            Exactness::Exact,
            messages,
        );
        let race = suite.reports[0].as_race().expect("a race report");
        assert_eq!(race.races_found, race.findings.len() as u64);
        race.findings.clone()
    }

    /// Instruments every access of `events` and runs the suite over them.
    fn run(events: &[Event], sync: &[VarId]) -> Vec<RaceFinding> {
        let mut instr = MvcInstrumentor::with_relevance(Relevance::Everything);
        suite_races(
            events.iter().filter_map(|e| instr.process(e)).collect(),
            sync,
        )
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let races = run(&[Event::write(T1, X, 1), Event::write(T2, X, 2)], &[]);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].var, X);
        assert!(races[0].first.is_write && races[0].second.is_write);
    }

    #[test]
    fn read_write_and_write_read_race() {
        let races = run(&[Event::read(T1, X), Event::write(T2, X, 1)], &[]);
        assert_eq!(races.len(), 1);
        assert!(!races[0].first.is_write);
        let races = run(&[Event::write(T1, X, 1), Event::read(T2, X)], &[]);
        assert_eq!(races.len(), 1);
        assert!(races[0].first.is_write && !races[0].second.is_write);
    }

    #[test]
    fn read_read_never_races() {
        let races = run(&[Event::read(T1, X), Event::read(T2, X)], &[]);
        assert!(races.is_empty());
    }

    #[test]
    fn same_thread_never_races() {
        let races = run(
            &[
                Event::write(T1, X, 1),
                Event::read(T1, X),
                Event::write(T1, X, 2),
            ],
            &[],
        );
        assert!(races.is_empty());
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        // T1: acq L, write x, rel L; T2: acq L, write x, rel L.
        let races = run(
            &[
                Event::write(T1, L, 1),
                Event::write(T1, X, 1),
                Event::write(T1, L, 0),
                Event::write(T2, L, 1),
                Event::write(T2, X, 2),
                Event::write(T2, L, 0),
            ],
            &[L],
        );
        assert!(
            races.is_empty(),
            "lock transfer orders the accesses: {races:?}"
        );
    }

    #[test]
    fn race_is_predicted_even_when_far_apart_in_the_trace() {
        // The racing accesses are separated by lots of unrelated activity —
        // a single-trace "overlap" detector would see nothing suspicious.
        let y = VarId(1);
        let mut events = vec![Event::write(T1, X, 1)];
        for i in 0..50 {
            events.push(Event::write(T1, y, i));
            events.push(Event::read(T2, y));
        }
        events.push(Event::write(T2, X, 2));
        let races = run(&events, &[]);
        // x races (y-traffic is unsynchronized and races too, but x's race
        // must be among them).
        assert!(races.iter().any(|r| r.var == X));
    }

    #[test]
    fn partial_locking_still_races() {
        // T1 holds the lock, T2 does not.
        let races = run(
            &[
                Event::write(T1, L, 1),
                Event::write(T1, X, 1),
                Event::write(T1, L, 0),
                Event::write(T2, X, 2),
            ],
            &[L],
        );
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn dedup_by_thread_pair_and_kinds() {
        let races = run(
            &[
                Event::write(T1, X, 1),
                Event::write(T2, X, 2),
                Event::write(T1, X, 3),
                Event::write(T2, X, 4),
            ],
            &[],
        );
        // Many racing pairs, one per (var, threads, kinds) after dedup —
        // both directions count separately.
        assert_eq!(races.len(), 2, "{races:?}");
    }

    #[test]
    fn races_detected_over_the_wire_in_any_delivery_order() {
        // Instrument the racy pair with reads+writes relevant and ship the
        // messages reversed; the suite's causal buffer restores an order and
        // the race is found.
        let events = [
            Event::write(T1, X, 1),
            Event::read(T1, X),
            Event::read(T2, X),
            Event::write(T2, X, 2),
        ];
        let mut instr = MvcInstrumentor::with_relevance(Relevance::accesses_of([X]));
        let mut msgs: Vec<_> = events.iter().filter_map(|e| instr.process(e)).collect();
        let in_order = suite_races(msgs.clone(), &[]);
        msgs.reverse();
        let races = suite_races(msgs, &[]);
        assert!(!races.is_empty());
        assert!(races.iter().all(|r| r.var == X));
        assert_eq!(races, in_order);
    }

    #[test]
    fn locked_accesses_over_the_wire_are_clean() {
        use jmpax_core::Value;
        // acquire/release pseudo-writes interleave with data accesses.
        let events = [
            Event::write(T1, L, Value::Int(1)),
            Event::write(T1, X, 1),
            Event::write(T1, L, Value::Int(0)),
            Event::write(T2, L, Value::Int(1)),
            Event::write(T2, X, 2),
            Event::write(T2, L, Value::Int(0)),
        ];
        let mut instr = MvcInstrumentor::with_relevance(Relevance::AllWrites);
        let msgs: Vec<_> = events.iter().filter_map(|e| instr.process(e)).collect();
        assert!(suite_races(msgs, &[L]).is_empty());
    }

    #[test]
    fn detect_races_on_sched_programs() {
        use jmpax_sched::{run_round_robin, Expr, LockId, Program, Stmt};
        // Unsynchronized increment by two threads.
        let inc = vec![Stmt::assign(X, Expr::var(X).add(Expr::val(1)))];
        let p = Program::new()
            .with_thread(inc.clone())
            .with_thread(inc)
            .with_initial(X, 0);
        let out = run_round_robin(&p, 100);
        let races = run(&out.execution.events, &[]);
        assert!(!races.is_empty(), "the classic lost-update race");

        // The same program with a lock is clean.
        let l = LockId(0);
        let locked = vec![
            Stmt::Lock(l),
            Stmt::assign(X, Expr::var(X).add(Expr::val(1))),
            Stmt::Unlock(l),
        ];
        let p = Program::new()
            .with_thread(locked.clone())
            .with_thread(locked)
            .with_initial(X, 0)
            .with_locks(1);
        let out = run_round_robin(&p, 100);
        let races = run(&out.execution.events, &[p.lock_var(l)]);
        assert!(races.is_empty(), "{races:?}");
    }

    /// A random execution over data variables `x`, `y` and lock `L`: each
    /// thread runs a few data accesses, some of them inside `L`-protected
    /// sections (acquire and release are writes of `L`), interleaved at
    /// random with the other threads but never inside another thread's
    /// section.
    fn random_locked_execution(rng: &mut StdRng) -> Vec<Event> {
        // Up to 14 threads: past `CountVec`'s 12 inline clock slots.
        let threads = rng.gen_range(2..=14u32);
        let mut scripts: Vec<Vec<Event>> = Vec::new();
        for t in 0..threads {
            let t = ThreadId(t);
            let mut script = Vec::new();
            for _ in 0..rng.gen_range(1..=3) {
                let locked = rng.gen_bool(0.5);
                if locked {
                    script.push(Event::write(t, L, 1));
                }
                for _ in 0..rng.gen_range(1..=2) {
                    let var = VarId(rng.gen_range(0..2u32));
                    script.push(if rng.gen_bool(0.5) {
                        Event::write(t, var, rng.gen_range(0..5i64))
                    } else {
                        Event::read(t, var)
                    });
                }
                if locked {
                    script.push(Event::write(t, L, 0));
                }
            }
            scripts.push(script);
        }
        let mut next = vec![0usize; scripts.len()];
        let mut holder: Option<usize> = None;
        let mut events = Vec::new();
        loop {
            let ready: Vec<usize> = (0..scripts.len())
                .filter(|&t| next[t] < scripts[t].len() && holder.is_none_or(|h| h == t))
                .collect();
            let Some(&t) = ready.get(rng.gen_range(0..ready.len().max(1))) else {
                break;
            };
            let e = scripts[t][next[t]];
            next[t] += 1;
            if let EventKind::Write { var: L, value } = e.kind {
                holder = (value == 1.into()).then_some(t);
            }
            events.push(e);
        }
        events
    }

    /// The oracle: every conflicting pair `i < j` (same data variable, one a
    /// write, different threads) not ordered by the transitive closure of
    /// program order and the order of `L`'s writes.
    fn oracle_races(events: &[Event]) -> BTreeSet<RaceKey> {
        let n = events.len();
        let mut hb = vec![vec![false; n]; n];
        for j in 0..n {
            for i in 0..j {
                let same_thread = events[i].thread == events[j].thread;
                let both_lock = events[i].var() == Some(L)
                    && events[j].var() == Some(L)
                    && events[i].kind.is_write()
                    && events[j].kind.is_write();
                hb[i][j] = same_thread || both_lock;
            }
        }
        for k in 0..n {
            let through_k = hb[k].clone();
            for row in &mut hb {
                if row[k] {
                    for (cell, &via) in row.iter_mut().zip(&through_k) {
                        *cell |= via;
                    }
                }
            }
        }
        let mut races = BTreeSet::new();
        for j in 0..n {
            for i in 0..j {
                let (a, b) = (&events[i], &events[j]);
                let (Some(va), Some(vb)) = (a.var(), b.var()) else {
                    continue;
                };
                if va == vb
                    && va != L
                    && a.thread != b.thread
                    && (a.kind.is_write() || b.kind.is_write())
                    && !hb[i][j]
                {
                    races.insert((va, a.thread, a.kind.is_write(), b.thread, b.kind.is_write()));
                }
            }
        }
        races
    }

    #[test]
    fn race_sets_match_the_happens_before_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..300 {
            let events = random_locked_execution(&mut rng);
            let mut instr = MvcInstrumentor::with_relevance(Relevance::Everything);
            let msgs: Vec<Message> = events.iter().filter_map(|e| instr.process(e)).collect();
            // No findings budget: every race class must be listed.
            let threads = events
                .iter()
                .map(|e| e.thread.index() + 1)
                .max()
                .unwrap_or(1);
            let detector =
                RaceAnalysis::new(threads, [L].into_iter().collect()).with_max_findings(usize::MAX);
            let mut suite = AnalysisSuite::new(vec![Box::new(detector) as Box<dyn Analysis>]);
            suite.push_all(msgs);
            let report = suite.finish(Exactness::Exact);
            let race = report.reports[0].as_race().expect("a race report");
            let found: BTreeSet<RaceKey> = race.findings.iter().map(key).collect();
            assert_eq!(found.len() as u64, race.races_found, "case {case}");
            assert_eq!(found, oracle_races(&events), "case {case}: {events:?}");
        }
    }
}
