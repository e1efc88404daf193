//! Fault-tolerant message reassembly: Theorem 3 against an imperfect wire.
//!
//! Theorem 3 guarantees the observer can reconstruct the causal partial
//! order from messages "delivered in any order" — its invariant that
//! `V_i[i]` is thread `i`'s per-message sequence number is what makes that
//! possible. The [`Reassembler`] pushes the same invariant further, against
//! a transport that not only permutes but also *duplicates and loses*
//! messages:
//!
//! * **reordering** — messages are keyed by `(thread, V_i[i])` and released
//!   in causal order, exactly as Theorem 3 intends;
//! * **duplication** — a second message with an already-seen sequence
//!   number is provably a duplicate and is dropped;
//! * **loss** — a hole in a thread's sequence range is a *gap*. The
//!   reassembler waits while the gap might still be in flight; once the
//!   stall budget (messages received since the gap appeared) is exhausted
//!   it commits the gap as lost and **skips** it, renumbering the surviving
//!   messages so downstream lattice construction still sees contiguous
//!   per-thread sequences — at the cost of weakened causal constraints,
//!   which is reported as a [`Exactness::Degraded`] verdict rather than
//!   hidden.
//!
//! The skip step rewrites clocks with the monotone per-thread map
//! `V'[j] = |{retained seq s of thread j : s ≤ V[j]}|`, computed from the
//! thread's few committed gaps rather than from a list of every retained
//! seq. Retained messages count themselves, so every strict inequality of
//! Theorem 3 between two *surviving* messages is preserved: the causal
//! order among what was actually received is exact, and only orderings
//! through lost messages are forgotten.

use std::collections::BTreeSet;

use jmpax_core::{CausalBuffer, Message, ThreadId};
use jmpax_telemetry::Registry;
use jmpax_trace::{TraceKind, TraceRing, Tracer};

/// How much an analysis result can be trusted after transport faults and
/// resource caps have taken their toll.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Exactness {
    /// Every message arrived and every consistent cut was explored: the
    /// verdict is exact.
    #[default]
    Exact,
    /// Some information was lost; verdicts are best-effort over what
    /// survived.
    Degraded {
        /// Consistent cuts pruned by a frontier cap (runs not explored).
        dropped_cuts: u64,
        /// Sequence gaps skipped by the [`Reassembler`] (messages lost in
        /// transit whose causal constraints were forgotten).
        skipped_gaps: u64,
    },
}

impl Exactness {
    /// Builds the appropriate variant, normalizing "nothing lost" to
    /// [`Exactness::Exact`].
    #[must_use]
    pub fn degraded(dropped_cuts: u64, skipped_gaps: u64) -> Self {
        if dropped_cuts == 0 && skipped_gaps == 0 {
            Exactness::Exact
        } else {
            Exactness::Degraded {
                dropped_cuts,
                skipped_gaps,
            }
        }
    }

    /// True when no information was lost.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, Exactness::Exact)
    }

    /// Merges degradation from two pipeline stages (sums the losses).
    #[must_use]
    pub fn combine(self, other: Exactness) -> Exactness {
        let (a_cuts, a_gaps) = self.losses();
        let (b_cuts, b_gaps) = other.losses();
        Exactness::degraded(a_cuts + b_cuts, a_gaps + b_gaps)
    }

    /// `(dropped_cuts, skipped_gaps)`, zero for [`Exactness::Exact`].
    #[must_use]
    pub fn losses(&self) -> (u64, u64) {
        match *self {
            Exactness::Exact => (0, 0),
            Exactness::Degraded {
                dropped_cuts,
                skipped_gaps,
            } => (dropped_cuts, skipped_gaps),
        }
    }
}

impl std::fmt::Display for Exactness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Exactness::Exact => write!(f, "Exact"),
            Exactness::Degraded {
                dropped_cuts,
                skipped_gaps,
            } => write!(
                f,
                "Degraded ({dropped_cuts} cuts dropped, {skipped_gaps} gaps skipped)"
            ),
        }
    }
}

/// One committed sequence gap: thread `thread` never delivered sequence
/// numbers `from..=to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GapRecord {
    /// The thread with the hole.
    pub thread: ThreadId,
    /// First missing sequence number.
    pub from: u32,
    /// Last missing sequence number.
    pub to: u32,
}

impl GapRecord {
    /// Number of messages lost in this gap.
    #[must_use]
    pub fn width(&self) -> u64 {
        u64::from(self.to - self.from) + 1
    }
}

/// What the [`Reassembler`] did to the stream.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReassemblyReport {
    /// Messages offered.
    pub received: u64,
    /// Messages released downstream (deduplicated, reordered, renumbered).
    pub delivered: u64,
    /// Messages that arrived after a later same-thread message (repaired).
    pub reordered: u64,
    /// Exact duplicates dropped (same thread and sequence number).
    pub duplicates: u64,
    /// Messages that arrived after their gap had already been committed as
    /// lost — too late to use, dropped.
    pub late_dropped: u64,
    /// Every committed gap, in commit order.
    pub gaps: Vec<GapRecord>,
}

impl ReassemblyReport {
    /// Number of gaps committed as lost.
    #[must_use]
    pub fn skipped_gaps(&self) -> u64 {
        self.gaps.len() as u64
    }

    /// Total messages known to be lost inside committed gaps.
    #[must_use]
    pub fn messages_lost(&self) -> u64 {
        self.gaps.iter().map(GapRecord::width).sum()
    }

    /// Threads with at least one committed gap (deduplicated, sorted) —
    /// the threads whose causal constraints the verdict can no longer
    /// fully trust.
    #[must_use]
    pub fn affected_threads(&self) -> Vec<ThreadId> {
        let mut out: Vec<ThreadId> = self.gaps.iter().map(|g| g.thread).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The confidence level this reassembly pass contributes.
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        Exactness::degraded(0, self.skipped_gaps())
    }

    /// Publishes `resilience.msgs_reordered`, `resilience.msgs_duplicate`
    /// and `resilience.gaps_skipped` into `registry`.
    pub fn record(&self, registry: &Registry) {
        registry
            .counter("resilience.msgs_reordered")
            .add(self.reordered);
        registry
            .counter("resilience.msgs_duplicate")
            .add(self.duplicates + self.late_dropped);
        registry
            .counter("resilience.gaps_skipped")
            .add(self.skipped_gaps());
    }
}

/// Per-thread reassembly state. The messages themselves live in the
/// [`Reassembler`]'s arena; a thread keeps only sequence numbers.
#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Sequence numbers of out-of-order arrivals waiting for their
    /// predecessors (their messages are already in the arena).
    pending: BTreeSet<u32>,
    /// This thread's committed gaps in ascending order, as `(from, to,
    /// seqs lost before from)`. Every seq up to `committed` is either in
    /// one of them or was delivered.
    gaps: Vec<(u32, u32, u32)>,
    /// Highest sequence number committed (delivered or skipped).
    committed: u32,
    /// Highest sequence number ever seen from this thread.
    max_seen: u32,
    /// Messages received (stream-wide) since this thread became blocked on
    /// a gap; `None` while not blocked.
    gap_age: Option<u64>,
}

impl ThreadState {
    /// Commits every now-contiguous pending sequence number.
    fn drain_contiguous(&mut self) {
        while self.pending.remove(&(self.committed + 1)) {
            self.committed += 1;
        }
        if self.pending.is_empty() {
            self.gap_age = None;
        }
    }

    /// True when the next expected sequence number is missing while later
    /// ones wait.
    fn blocked(&self) -> bool {
        self.pending
            .first()
            .is_some_and(|&s| s > self.committed + 1)
    }

    /// The committed gap holding `seq`, with the seqs lost before it.
    fn gap_at(&self, seq: u32) -> Option<(u32, u32, u32)> {
        let i = self.gaps.partition_point(|&(from, _, _)| from <= seq);
        i.checked_sub(1)
            .map(|i| self.gaps[i])
            .filter(|&(_, to, _)| seq <= to)
    }

    /// The renumbering map: how many delivered seqs of this thread are
    /// `≤ v`, i.e. `v` (capped at `committed`) less the lost seqs up to
    /// it.
    fn renumber(&self, v: u32) -> u32 {
        let v = v.min(self.committed);
        let i = self.gaps.partition_point(|&(from, _, _)| from <= v);
        let lost = i.checked_sub(1).map_or(0, |i| {
            let (from, to, before) = self.gaps[i];
            before + v.min(to) - from + 1
        });
        v - lost
    }
}

/// Reassembles a faulty message stream into valid lattice input.
///
/// Push every received message (any order, duplicates welcome), then call
/// [`Reassembler::finish`]; the result is a deduplicated, causally ordered
/// message sequence with contiguous per-thread sequence numbers — exactly
/// what [`crate::LatticeInput::from_messages`] requires — plus a
/// [`ReassemblyReport`] accounting for everything the transport did.
///
/// Every message kept is stored once, in an arena in arrival order; the
/// per-thread state holds only sequence numbers. An arrival that extends
/// its thread's committed prefix with nothing pending commits without
/// touching the pending set, and gap ageing scans the threads only once
/// the oldest open gap can have expired.
#[derive(Clone, Debug)]
pub struct Reassembler {
    threads: Vec<ThreadState>,
    /// Every message kept (neither a duplicate nor late), in arrival
    /// order.
    arena: Vec<Message>,
    stall_budget: u64,
    arrivals: u64,
    /// No gap opened before this arrival is still open (`u64::MAX` when
    /// none is).
    oldest_gap: u64,
    report: ReassemblyReport,
    /// Trace ring (lane `"resilience"`) for committed gaps; disabled
    /// (free) by default.
    trace_ring: TraceRing,
}

/// Default stall budget: a gap survives this many subsequent arrivals
/// before being committed as lost.
pub const DEFAULT_STALL_BUDGET: u64 = 64;

impl Default for Reassembler {
    fn default() -> Self {
        Self::new()
    }
}

impl Reassembler {
    /// A reassembler with the default stall budget.
    #[must_use]
    pub fn new() -> Self {
        Self::with_stall_budget(DEFAULT_STALL_BUDGET)
    }

    /// A reassembler committing gaps after `stall_budget` stream-wide
    /// arrivals fail to fill them. A budget of `0` skips gaps eagerly (no
    /// tolerance for reordering across a gap); large budgets trade memory
    /// and latency for a better chance of late fills.
    #[must_use]
    pub fn with_stall_budget(stall_budget: u64) -> Self {
        Self {
            threads: Vec::new(),
            arena: Vec::new(),
            stall_budget,
            arrivals: 0,
            oldest_gap: u64::MAX,
            report: ReassemblyReport::default(),
            trace_ring: TraceRing::disabled(),
        }
    }

    /// Attaches a trace ring (lane `"resilience"`) recording one
    /// [`TraceKind::GapSkipped`] instant per committed gap. With a
    /// disabled tracer this is free.
    #[must_use]
    pub fn with_trace(mut self, tracer: &Tracer) -> Self {
        self.trace_ring = tracer.ring("resilience");
        self
    }

    /// Offers one received message.
    pub fn push(&mut self, message: Message) {
        self.report.received += 1;
        self.arrivals += 1;
        let t = message.thread();
        let seq = message.seq();
        if seq == 0 {
            // Algorithm A numbers messages from 1; a zero sequence is not
            // attributable to any position and can never be delivered.
            self.report.late_dropped += 1;
        } else {
            if self.threads.len() <= t.index() {
                self.threads
                    .resize_with(t.index() + 1, ThreadState::default);
            }
            let state = &mut self.threads[t.index()];
            if seq < state.max_seen {
                self.report.reordered += 1;
            }
            state.max_seen = state.max_seen.max(seq);
            if seq <= state.committed {
                // Either already delivered (duplicate) or inside a gap we
                // gave up on (late arrival).
                if state.gap_at(seq).is_some() {
                    self.report.late_dropped += 1;
                } else {
                    self.report.duplicates += 1;
                }
            } else if seq == state.committed + 1 && state.pending.is_empty() {
                state.committed = seq;
                self.arena.push(message);
            } else if state.pending.insert(seq) {
                self.arena.push(message);
                state.drain_contiguous();
                if state.blocked() && state.gap_age.is_none() {
                    state.gap_age = Some(self.arrivals);
                    self.oldest_gap = self.oldest_gap.min(self.arrivals);
                }
            } else {
                self.report.duplicates += 1;
            }
        }
        self.age_gaps();
    }

    /// Offers many messages in arrival order.
    pub fn push_all(&mut self, messages: impl IntoIterator<Item = Message>) {
        for m in messages {
            self.push(m);
        }
    }

    /// Commits every gap whose stall budget is exhausted.
    fn age_gaps(&mut self) {
        let now = self.arrivals;
        let budget = self.stall_budget;
        if now.saturating_sub(self.oldest_gap) <= budget {
            return;
        }
        for t in 0..self.threads.len() {
            let state = &self.threads[t];
            let expired =
                state.blocked() && state.gap_age.is_some_and(|since| now - since > budget);
            if expired {
                self.skip_gap(ThreadId(t as u32));
            }
        }
        self.oldest_gap = self
            .threads
            .iter()
            .filter_map(|s| s.gap_age)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Commits thread `t`'s first gap as lost and drains what it unblocks.
    fn skip_gap(&mut self, t: ThreadId) {
        let state = &mut self.threads[t.index()];
        let Some(&next) = state.pending.first() else {
            return;
        };
        debug_assert!(next > state.committed + 1);
        let (from, to) = (state.committed + 1, next - 1);
        self.report.gaps.push(GapRecord {
            thread: t,
            from,
            to,
        });
        self.trace_ring.record(TraceKind::GapSkipped {
            thread: t.0,
            from,
            to,
        });
        let before = state
            .gaps
            .last()
            .map_or(0, |&(from, to, before)| before + to - from + 1);
        state.gaps.push((from, to, before));
        state.committed = to;
        state.gap_age = None;
        state.drain_contiguous();
        if state.blocked() {
            // Another gap right behind the first: restart its clock now.
            state.gap_age = Some(self.arrivals);
        }
    }

    /// Ends the stream: commits every remaining gap, renumbers survivors if
    /// anything was lost, and returns the messages in a causally consistent
    /// delivery order together with the fault accounting.
    ///
    /// When nothing was lost the messages come back in their original
    /// arrival order with clocks untouched — a clean stream passes through
    /// byte-identical.
    #[must_use]
    pub fn finish(mut self) -> (Vec<Message>, ReassemblyReport) {
        for t in 0..self.threads.len() {
            while self.threads[t].blocked() {
                self.skip_gap(ThreadId(t as u32));
            }
        }
        let lossless = self.report.gaps.is_empty();
        if !lossless {
            self.remap_clocks();
        }
        self.report.delivered = self.arena.len() as u64;
        if lossless && self.report.reordered == 0 {
            // Fast path: a clean in-order stream must pass through
            // unchanged, bit for bit.
            return (self.arena, self.report);
        }
        // Causally order the arrival-ordered survivors, so downstream
        // consumers (including the JPaX observed-run monitor) see a valid
        // linearization.
        let mut messages = Vec::with_capacity(self.arena.len());
        let mut buffer = CausalBuffer::new();
        buffer.push_all(self.arena, |m| messages.push(m));
        // The remap guarantees drainability; this is a belt-and-braces
        // recovery so a latent inconsistency degrades instead of losing
        // messages.
        messages.extend(buffer.force_drain());
        (messages, self.report)
    }

    /// Renumbers surviving messages so per-thread sequences are contiguous
    /// again, rewriting every clock in place with the monotone map
    /// `V'[j] = |{delivered seq of thread j ≤ V[j]}|` over exactly one
    /// component per thread.
    fn remap_clocks(&mut self) {
        for m in &mut self.arena {
            m.clock.resize(self.threads.len());
            for (c, state) in m.clock.as_mut_slice().iter_mut().zip(&self.threads) {
                *c = state.renumber(*c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, VarId};

    const X: VarId = VarId(0);

    /// A causally chained stream: each write of `x` reads the previous one.
    fn chained(n: usize, threads: u32) -> Vec<Message> {
        let mut a = MvcInstrumentor::new(threads as usize, Relevance::AllWrites);
        (0..n)
            .map(|i| {
                let t = ThreadId(i as u32 % threads);
                a.process(&Event::read(t, X));
                a.process(&Event::write(t, X, i as i64)).unwrap()
            })
            .collect()
    }

    #[test]
    fn clean_stream_passes_through_unchanged() {
        let msgs = chained(12, 3);
        let mut r = Reassembler::new();
        r.push_all(msgs.clone());
        let (out, report) = r.finish();
        assert_eq!(out, msgs);
        assert_eq!(report.received, 12);
        assert_eq!(report.delivered, 12);
        assert_eq!(report.exactness(), Exactness::Exact);
        assert!(report.gaps.is_empty());
        assert_eq!(
            report.reordered + report.duplicates + report.late_dropped,
            0
        );
    }

    #[test]
    fn reordering_is_repaired() {
        let msgs = chained(10, 2);
        let mut shuffled = msgs.clone();
        shuffled.reverse();
        let mut r = Reassembler::new();
        r.push_all(shuffled);
        let (out, report) = r.finish();
        assert_eq!(report.reordered, 8, "per-thread inversions counted");
        assert_eq!(report.exactness(), Exactness::Exact);
        assert_eq!(out.len(), msgs.len());
        // Causal delivery: no message before its cause.
        for i in 0..out.len() {
            for j in (i + 1)..out.len() {
                assert!(!out[j].causally_precedes(&out[i]));
            }
        }
    }

    #[test]
    fn duplicates_are_dropped() {
        let msgs = chained(6, 2);
        let mut r = Reassembler::new();
        r.push_all(msgs.clone());
        r.push_all(msgs.iter().take(3).cloned());
        let (out, report) = r.finish();
        assert_eq!(out, msgs);
        assert_eq!(report.duplicates, 3);
        assert_eq!(report.exactness(), Exactness::Exact);
    }

    #[test]
    fn gap_is_skipped_after_stall_budget() {
        let msgs = chained(20, 2);
        // Lose T1's second message (seq 2).
        let lossy: Vec<Message> = msgs
            .iter()
            .filter(|m| !(m.thread() == ThreadId(0) && m.seq() == 2))
            .cloned()
            .collect();
        let mut r = Reassembler::with_stall_budget(4);
        r.push_all(lossy);
        let (out, report) = r.finish();
        assert_eq!(
            report.gaps,
            vec![GapRecord {
                thread: ThreadId(0),
                from: 2,
                to: 2
            }]
        );
        assert_eq!(report.exactness(), Exactness::degraded(0, 1));
        assert_eq!(report.affected_threads(), vec![ThreadId(0)]);
        assert_eq!(out.len(), 19);
        // Survivors renumber contiguously: valid lattice input.
        let input =
            crate::LatticeInput::from_messages(out.clone(), jmpax_spec::ProgramState::new());
        assert!(input.is_ok(), "renumbered stream must validate: {input:?}");
        // And the causal order among survivors is preserved.
        for i in 0..out.len() {
            for j in (i + 1)..out.len() {
                assert!(!out[j].causally_precedes(&out[i]));
            }
        }
    }

    #[test]
    fn gap_fill_within_budget_is_lossless() {
        let msgs = chained(10, 2);
        // Deliver T1 seq 2 late, but within the budget.
        let mut delayed = msgs.clone();
        let pos = delayed
            .iter()
            .position(|m| m.thread() == ThreadId(0) && m.seq() == 2)
            .unwrap();
        let held = delayed.remove(pos);
        delayed.push(held);
        let mut r = Reassembler::with_stall_budget(64);
        r.push_all(delayed);
        let (out, report) = r.finish();
        assert!(report.gaps.is_empty());
        assert_eq!(report.exactness(), Exactness::Exact);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn late_arrival_after_skip_is_dropped() {
        let msgs = chained(20, 2);
        let pos = msgs
            .iter()
            .position(|m| m.thread() == ThreadId(0) && m.seq() == 2)
            .unwrap();
        let mut lossy = msgs.clone();
        let held = lossy.remove(pos);
        lossy.push(held); // arrives after ~18 later messages
        let mut r = Reassembler::with_stall_budget(2);
        r.push_all(lossy);
        let (out, report) = r.finish();
        assert_eq!(report.late_dropped, 1);
        assert_eq!(report.skipped_gaps(), 1);
        assert_eq!(out.len(), 19);
    }

    #[test]
    fn zero_seq_is_rejected() {
        let mut r = Reassembler::new();
        r.push(Message {
            event: Event::write(ThreadId(0), X, 1i64),
            clock: jmpax_core::VectorClock::new(),
        });
        let (out, report) = r.finish();
        assert!(out.is_empty());
        assert_eq!(report.late_dropped, 1);
    }

    #[test]
    fn exactness_combines_and_normalizes() {
        assert_eq!(Exactness::degraded(0, 0), Exactness::Exact);
        assert!(Exactness::Exact.is_exact());
        let d = Exactness::degraded(3, 0).combine(Exactness::degraded(0, 2));
        assert_eq!(
            d,
            Exactness::Degraded {
                dropped_cuts: 3,
                skipped_gaps: 2
            }
        );
        assert_eq!(d.to_string(), "Degraded (3 cuts dropped, 2 gaps skipped)");
        assert_eq!(Exactness::Exact.combine(Exactness::Exact), Exactness::Exact);
    }

    #[test]
    fn telemetry_counters_are_published() {
        let registry = Registry::enabled();
        let report = ReassemblyReport {
            received: 10,
            delivered: 7,
            reordered: 2,
            duplicates: 1,
            late_dropped: 1,
            gaps: vec![GapRecord {
                thread: ThreadId(1),
                from: 3,
                to: 4,
            }],
        };
        report.record(&registry);
        let text = registry.snapshot().to_text();
        assert!(text.contains("resilience.msgs_reordered"), "{text}");
        assert!(text.contains("resilience.msgs_duplicate"), "{text}");
        assert!(text.contains("resilience.gaps_skipped"), "{text}");
    }
}
