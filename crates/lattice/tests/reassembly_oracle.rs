//! The arena [`Reassembler`] against the reassembler it replaced.
//!
//! `OracleReassembler` below is the earlier implementation, kept as a
//! test oracle: every message in a per-thread `BTreeMap` keyed by
//! sequence number, tagged with its arrival index, gap ages rescanned on
//! every arrival, a retained-sequence list per thread, clocks rebuilt
//! through `partition_point` into fresh vectors, the survivors sorted by
//! arrival and put through a causal-delivery scan. On every input the
//! production reassembler must return the same messages, in the same
//! order, with the same clocks, and the same [`ReassemblyReport`].

use std::collections::BTreeMap;

use jmpax_core::{Event, Message, MvcInstrumentor, Relevance, ThreadId, VarId, VectorClock};
use jmpax_lattice::{GapRecord, Reassembler, ReassemblyReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Default)]
struct OracleThread {
    emitted: Vec<(u64, Message)>,
    retained: Vec<u32>,
    pending: BTreeMap<u32, (u64, Message)>,
    committed: u32,
    max_seen: u32,
    gap_age: Option<u64>,
}

impl OracleThread {
    fn drain_contiguous(&mut self) {
        while let Some(entry) = self.pending.remove(&(self.committed + 1)) {
            self.committed += 1;
            self.retained.push(self.committed);
            self.emitted.push(entry);
        }
        if self.pending.is_empty() {
            self.gap_age = None;
        }
    }

    fn blocked(&self) -> bool {
        self.pending
            .keys()
            .next()
            .is_some_and(|&s| s > self.committed + 1)
    }
}

struct OracleReassembler {
    threads: Vec<OracleThread>,
    stall_budget: u64,
    arrivals: u64,
    report: ReassemblyReport,
}

impl OracleReassembler {
    fn new(stall_budget: u64) -> Self {
        Self {
            threads: Vec::new(),
            stall_budget,
            arrivals: 0,
            report: ReassemblyReport::default(),
        }
    }

    fn push(&mut self, message: Message) {
        self.report.received += 1;
        self.arrivals += 1;
        let arrival = self.arrivals;
        let t = message.thread();
        let seq = message.seq();
        if seq == 0 {
            self.report.late_dropped += 1;
        } else {
            if self.threads.len() <= t.index() {
                self.threads
                    .resize_with(t.index() + 1, OracleThread::default);
            }
            let state = &mut self.threads[t.index()];
            if seq < state.max_seen {
                self.report.reordered += 1;
            }
            state.max_seen = state.max_seen.max(seq);
            if seq <= state.committed {
                if state.retained.binary_search(&seq).is_ok() {
                    self.report.duplicates += 1;
                } else {
                    self.report.late_dropped += 1;
                }
            } else if let std::collections::btree_map::Entry::Vacant(slot) =
                state.pending.entry(seq)
            {
                slot.insert((arrival, message));
                state.drain_contiguous();
                if state.blocked() && state.gap_age.is_none() {
                    state.gap_age = Some(arrival);
                }
            } else {
                self.report.duplicates += 1;
            }
        }
        let now = self.arrivals;
        for t in 0..self.threads.len() {
            let state = &self.threads[t];
            if state.blocked()
                && state
                    .gap_age
                    .is_some_and(|since| now - since > self.stall_budget)
            {
                self.skip_gap(t);
            }
        }
    }

    fn skip_gap(&mut self, t: usize) {
        let state = &mut self.threads[t];
        let Some(&next) = state.pending.keys().next() else {
            return;
        };
        self.report.gaps.push(GapRecord {
            thread: ThreadId(t as u32),
            from: state.committed + 1,
            to: next - 1,
        });
        state.committed = next - 1;
        state.gap_age = None;
        state.drain_contiguous();
        if state.blocked() {
            state.gap_age = Some(self.arrivals);
        }
    }

    fn finish(mut self) -> (Vec<Message>, ReassemblyReport) {
        for t in 0..self.threads.len() {
            while self.threads[t].blocked() {
                self.skip_gap(t);
            }
        }
        let lossless = self.report.gaps.is_empty();
        if !lossless {
            let retained: Vec<Vec<u32>> = self.threads.iter().map(|s| s.retained.clone()).collect();
            let threads = self.threads.len();
            for state in &mut self.threads {
                for (_, m) in &mut state.emitted {
                    let components: Vec<u32> = (0..threads)
                        .map(|j| {
                            let v = m.clock.get(ThreadId(j as u32));
                            retained[j].partition_point(|&s| s <= v) as u32
                        })
                        .collect();
                    m.clock = VectorClock::from_components(components);
                }
            }
        }
        let mut tagged: Vec<(u64, Message)> =
            self.threads.into_iter().flat_map(|s| s.emitted).collect();
        tagged.sort_by_key(|&(arrival, _)| arrival);
        self.report.delivered = tagged.len() as u64;
        let messages: Vec<Message> = tagged.into_iter().map(|(_, m)| m).collect();
        if lossless && self.report.reordered == 0 {
            return (messages, self.report);
        }
        (causal_order(messages), self.report)
    }
}

/// Causal delivery by repeated scanning: after each arrival, deliver the
/// first deliverable pending message until none is left; whatever never
/// becomes deliverable follows in `(thread, seq)` order.
fn causal_order(messages: Vec<Message>) -> Vec<Message> {
    let mut delivered: Vec<u32> = Vec::new();
    let count = |d: &[u32], t: usize| d.get(t).copied().unwrap_or(0);
    let mut pending: Vec<Message> = Vec::new();
    let mut out = Vec::new();
    for m in messages {
        pending.push(m);
        while let Some(pos) = pending.iter().position(|m| {
            let t = m.thread();
            m.seq() == count(&delivered, t.index()) + 1
                && m.clock
                    .iter()
                    .all(|(j, v)| j == t || count(&delivered, j.index()) >= v)
        }) {
            let m = pending.swap_remove(pos);
            let t = m.thread().index();
            if delivered.len() <= t {
                delivered.resize(t + 1, 0);
            }
            delivered[t] += 1;
            out.push(m);
        }
    }
    pending.sort_by_key(|m| (m.thread(), m.seq()));
    out.extend(pending);
    out
}

/// Algorithm A's messages for a random program over `threads` threads:
/// reads and writes of a few shared variables, every write relevant.
fn program(rng: &mut StdRng, threads: u32, events: usize) -> Vec<Message> {
    let mut instr = MvcInstrumentor::new(threads as usize, Relevance::AllWrites);
    (0..events)
        .filter_map(|_| {
            let t = ThreadId(rng.gen_range(0..threads));
            let var = VarId(rng.gen_range(0..4));
            if rng.gen_bool(0.3) {
                instr.process(&Event::read(t, var));
                None
            } else {
                instr.process(&Event::write(t, var, rng.gen_range(0..9i64)))
            }
        })
        .collect()
}

/// Drops, duplicates and reorders `messages` within a window.
fn chaos(
    rng: &mut StdRng,
    messages: &[Message],
    drop: f64,
    dup: f64,
    window: usize,
) -> Vec<Message> {
    let mut out: Vec<Message> = Vec::new();
    for m in messages {
        if rng.gen_bool(drop) {
            continue;
        }
        out.push(m.clone());
        if rng.gen_bool(dup) {
            out.push(m.clone());
        }
    }
    if window > 1 {
        for i in 0..out.len() {
            let j = (i + rng.gen_range(0..window)).min(out.len() - 1);
            out.swap(i, j);
        }
    }
    out
}

/// Clocks a hostile sender could produce: CRC-valid, with a nonzero own
/// component, but with components that go backwards along a thread's
/// sequence, point past what the thread ever sent, or name threads that
/// never speak.
fn hostile(rng: &mut StdRng, threads: u32, count: usize) -> Vec<Message> {
    let mut seqs = vec![0u32; threads as usize];
    (0..count)
        .map(|_| {
            let t = rng.gen_range(0..threads);
            seqs[t as usize] += 1;
            let width = rng.gen_range(t as usize + 1..=threads as usize + 2);
            let mut clock: Vec<u32> = (0..width).map(|_| rng.gen_range(0..count as u32)).collect();
            clock[t as usize] = if rng.gen_bool(0.1) {
                rng.gen_range(1..=seqs[t as usize] + 3)
            } else {
                seqs[t as usize]
            };
            Message {
                event: Event::write(ThreadId(t), VarId(0), 1i64),
                clock: VectorClock::from_components(clock),
            }
        })
        .collect()
}

/// Checks one input against the oracle and returns the report.
fn assert_matches_oracle(input: &[Message], budget: u64, what: &str) -> ReassemblyReport {
    let mut oracle = OracleReassembler::new(budget);
    let mut production = Reassembler::with_stall_budget(budget);
    for m in input {
        oracle.push(m.clone());
        production.push(m.clone());
    }
    let (want, want_report) = oracle.finish();
    let (got, got_report) = production.finish();
    assert_eq!(got_report, want_report, "{what}: report");
    assert_eq!(got.len(), want.len(), "{what}: message count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.event, w.event, "{what}: message {i}");
        assert_eq!(g.clock.as_slice(), w.clock.as_slice(), "{what}: clock {i}");
    }
    got_report
}

/// Totals over many reports, to show the inputs reach every path.
#[derive(Default)]
struct Exercised {
    gaps: u64,
    late: u64,
    duplicates: u64,
    reordered: u64,
}

impl Exercised {
    fn add(&mut self, r: &ReassemblyReport) {
        self.gaps += r.skipped_gaps();
        self.late += r.late_dropped;
        self.duplicates += r.duplicates;
        self.reordered += r.reordered;
    }

    fn assert_all(&self) {
        assert!(
            self.gaps > 0 && self.late > 0 && self.duplicates > 0 && self.reordered > 0,
            "gaps {} late {} duplicates {} reordered {}",
            self.gaps,
            self.late,
            self.duplicates,
            self.reordered
        );
    }
}

#[test]
fn chaos_streams_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0a5e);
    let mut seen = Exercised::default();
    for case in 0..240 {
        let threads = rng.gen_range(2..=20u32);
        let events = rng.gen_range(0..400);
        let messages = program(&mut rng, threads, events);
        let drop = [0.0, 0.02, 0.1][case % 3];
        let dup = [0.0, 0.05][case % 2];
        let window = [1, 4, 16][(case / 3) % 3];
        let input = chaos(&mut rng, &messages, drop, dup, window);
        for budget in [0, 4, 64] {
            let what = format!("case {case} ({threads} threads, budget {budget})");
            seen.add(&assert_matches_oracle(&input, budget, &what));
        }
    }
    seen.assert_all();
}

#[test]
fn hostile_clocks_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xbad);
    let mut seen = Exercised::default();
    for case in 0..200 {
        let threads = rng.gen_range(2..=20u32);
        let count = rng.gen_range(1..200);
        let messages = hostile(&mut rng, threads, count);
        let input = chaos(&mut rng, &messages, 0.1, 0.05, 8);
        for budget in [0, 4, 64] {
            let what = format!("hostile case {case} ({threads} threads, budget {budget})");
            seen.add(&assert_matches_oracle(&input, budget, &what));
        }
    }
    seen.assert_all();
}
