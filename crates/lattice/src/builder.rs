//! Online, level-by-level predictive analysis with two-level storage.
//!
//! Section 4: "since events are received incrementally from the instrumented
//! program, one can buffer them at the observer's side and then build the
//! lattice on a level-by-level basis in a top-down manner, as the events
//! become available … only one cut in the computation lattice is needed at
//! any time, in particular one level, which significantly reduces the space
//! required by the proposed predictive analysis algorithm."
//!
//! [`StreamingAnalyzer`] accepts messages in **any** delivery order (it
//! embeds a [`CausalBuffer`]), advances the lattice frontier one level at a
//! time whenever every frontier cut has all the messages it needs, and
//! retains only the current frontier plus per-thread queues of undelivered
//! messages. Every frontier memory carries the number of run prefixes that
//! reach it, so the report counts total and violating runs exactly.
//! Violations carry a trail through the retained history
//! ([`AnalysisConfig::history`]): with every level retained, a trail is a
//! full counterexample run.

use std::sync::Arc;

use jmpax_core::{CausalBuffer, Message, ThreadId};
use jmpax_spec::{Monitor, MonitorState, ProgramState, StepCache};
use jmpax_telemetry::{Counter, Gauge, Histogram, Registry};
use jmpax_trace::{TraceKind, TraceRing, Tracer};

use crate::config::{AnalysisConfig, DEFAULT_SHARD_GRANULARITY};
use crate::cut::Cut;
use crate::frontier::{self, Expand, Level, Scratch, Seed, Stats, NONE};
use crate::parallel::{ExpansionPool, LevelShared};
use crate::reassemble::Exactness;

/// One step of a violating run: the cut and global state reached, and the
/// thread and message that reached it. The initial state of a run has no
/// thread or message.
#[derive(Clone, Debug)]
pub struct RunStep {
    /// The cut reached.
    pub cut: Cut,
    /// The advancing thread (`None` for the initial state).
    pub thread: Option<ThreadId>,
    /// The relevant message consumed (`None` for the initial state).
    pub message: Option<Message>,
    /// The global state after the step.
    pub state: ProgramState,
}

/// A predicted violation: the property evaluated to false at `cut`.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The cut at which the property failed.
    pub cut: Cut,
    /// The global state at that cut.
    pub state: ProgramState,
    /// The monitor memory after the failing step (identifies the history
    /// class of the runs that fail here).
    pub memory: MonitorState,
    /// A violating run ending at `(cut, state)`, oldest step first. It is
    /// the whole run from the initial state when the retained history
    /// reaches back that far ([`AnalysisConfig::history`]), and only its
    /// last steps otherwise — the paper's "garbage-collected" middle
    /// ground between two-level streaming and full counterexamples.
    /// Always contains at least the violating state itself.
    pub trail: Vec<RunStep>,
}

impl Violation {
    /// True when the trail starts at the initial state: a full
    /// counterexample run.
    #[must_use]
    pub fn is_full_run(&self) -> bool {
        self.trail.first().is_some_and(|s| s.thread.is_none())
    }

    /// Events on the trail (its steps that advance a thread).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.trail.iter().filter(|s| s.thread.is_some()).count()
    }
}

/// Summary statistics of a completed streaming analysis.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// All violations found, in discovery order.
    pub violations: Vec<Violation>,
    /// Total lattice nodes explored (states analyzed).
    pub states_explored: u64,
    /// Number of frontier advances performed (the lattice has one more
    /// level than this).
    pub levels_built: u32,
    /// Peak width of the frontier — the paper's "only two consecutive
    /// levels" memory bound in action.
    pub peak_frontier: usize,
    /// Multithreaded runs through the final frontier — every consistent
    /// run once the analysis completed. Saturates at `u128::MAX`.
    pub total_runs: u128,
    /// Those of `total_runs` that violate the property at some state,
    /// counted directly (never as a difference). Saturates at `u128::MAX`.
    pub violating_runs: u128,
    /// True when the analysis consumed every message (the frontier reached
    /// the top cut).
    pub completed: bool,
    /// Whether the verdict covers every consistent run, or a frontier cap
    /// pruned some cuts ([`StreamingAnalyzer::with_frontier_cap`]).
    pub exactness: Exactness,
    /// Relevant non-write messages encountered during expansion (exotic
    /// relevance policies); each was treated as a stutter step instead of
    /// aborting the analysis.
    pub non_writes_skipped: u64,
}

impl StreamReport {
    /// No violation was found on any run.
    #[must_use]
    pub fn satisfied(&self) -> bool {
        self.violations.is_empty()
    }

    /// Lattice levels: one more than the frontier advances.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels_built as usize + 1
    }

    /// Publishes this report's statistics into `registry` under the same
    /// metric names a live [`StreamingAnalyzer::with_telemetry`] run uses.
    /// Use this when the analysis ran *without* an attached registry; a
    /// telemetered analyzer has already reported these incrementally.
    pub fn record(&self, registry: &Registry) {
        registry
            .counter("lattice.states_explored")
            .add(self.states_explored);
        registry
            .counter("lattice.levels_built")
            .add(u64::from(self.levels_built));
        registry
            .gauge("lattice.peak_frontier")
            .set(self.peak_frontier as u64);
        registry
            .counter("lattice.violations")
            .add(self.violations.len() as u64);
        registry
            .counter("lattice.frontier_pruned")
            .add(self.exactness.losses().0);
        registry
            .counter("lattice.non_writes_skipped")
            .add(self.non_writes_skipped);
        self.record_analysis(registry);
    }

    /// Publishes the uniform `analysis.ltl.*` metric family every
    /// pluggable analysis exposes (`crate::analyses`), plus the run
    /// counts `lattice.total_runs` / `lattice.violating_runs`, which only
    /// exist once the analysis finished. Run counts saturate at
    /// `u64::MAX`.
    pub fn record_analysis(&self, registry: &Registry) {
        registry
            .counter("analysis.ltl.violations")
            .add(self.violations.len() as u64);
        registry
            .counter("analysis.ltl.states_explored")
            .add(self.states_explored);
        registry
            .counter("analysis.ltl.levels_built")
            .add(u64::from(self.levels_built));
        let (pruned, gaps) = self.exactness.losses();
        registry.counter("analysis.ltl.frontier_pruned").add(pruned);
        registry.counter("analysis.ltl.gaps_skipped").add(gaps);
        registry
            .counter("lattice.total_runs")
            .add(u64::try_from(self.total_runs).unwrap_or(u64::MAX));
        registry
            .counter("lattice.violating_runs")
            .add(u64::try_from(self.violating_runs).unwrap_or(u64::MAX));
    }
}

/// Online predictive analyzer with two-level storage.
///
/// ```
/// use jmpax_core::{Event, MvcInstrumentor, Relevance, SymbolTable, ThreadId, VarId};
/// use jmpax_lattice::StreamingAnalyzer;
/// use jmpax_spec::{parse, ProgramState};
///
/// // Property: x never decreases below zero.
/// let mut syms = SymbolTable::new();
/// let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
///
/// let mut instr = MvcInstrumentor::new(1, Relevance::AllWrites);
/// let mut analyzer = StreamingAnalyzer::new(monitor, &ProgramState::new(), 1);
/// for value in [1i64, 2, -1] {
///     let msg = instr.process(&Event::write(ThreadId(0), VarId(0), value)).unwrap();
///     analyzer.push(msg);
/// }
/// let report = analyzer.finish();
/// assert_eq!(report.violations.len(), 1); // the write of -1
/// ```
#[derive(Debug)]
pub struct StreamingAnalyzer {
    monitor: Arc<Monitor>,
    /// The initial global state, for rebuilding reported states.
    initial: ProgramState,
    threads: usize,
    /// Slot of each variable id the monitor reads ([`frontier::NONE`]
    /// for the others).
    slot_of: Arc<[u32]>,
    /// The formula's atoms fit one packed `u64` valuation, so monitor
    /// steps can go through the step cache.
    packed: bool,
    buffer: CausalBuffer,
    /// Causally delivered messages per thread (contiguous prefixes).
    /// Behind an `Arc` so parallel levels share it with the pool without
    /// copying; between levels the analyzer is the only holder, so
    /// `Arc::make_mut` appends in place.
    delivered: Arc<Vec<Vec<Message>>>,
    /// Threads whose streams are complete.
    ended: Vec<bool>,
    frontier: Level,
    /// The buffer the next level is built in, swapped with `frontier` at
    /// every seal, so the steady state allocates nothing.
    spare: Level,
    /// Successor index and in-edge table, reused level to level.
    scratch: Scratch,
    /// Violation seeds of the level being sealed (reused buffer).
    seeds: Vec<Seed>,
    /// Retired levels, newest last, bounded by `history`.
    past: std::collections::VecDeque<Level>,
    /// How many retired levels to keep for violation trails.
    history: usize,
    violations: Vec<Violation>,
    states_explored: u64,
    levels_built: u32,
    peak_frontier: usize,
    /// Beam width limit for the frontier; `None` explores exhaustively.
    frontier_cap: Option<usize>,
    /// Cuts pruned by the cap (runs the verdict no longer covers).
    dropped_cuts: u64,
    /// Relevant non-writes stepped over instead of panicking.
    non_writes_skipped: u64,
    /// Upper bound on frontier-expansion workers; `1` is sequential.
    parallelism: usize,
    /// Minimum cuts per worker before a level engages the pool.
    shard_granularity: usize,
    /// Memoize monitor steps within each level (both expansion paths).
    eval_cache: bool,
    /// The sequential path's per-level step memo, cleared at every seal.
    step_cache: StepCache,
    /// The persistent worker pool; lazily created at the first parallel
    /// level, or injected ([`StreamingAnalyzer::with_pool`]) to share one
    /// pool across analyzers.
    pool: Option<Arc<ExpansionPool>>,
    /// `lattice.*` metrics; no-ops unless built via
    /// [`StreamingAnalyzer::with_telemetry`].
    tel_states: Counter,
    tel_deduped: Counter,
    tel_levels: Counter,
    tel_violations: Counter,
    tel_width: Histogram,
    tel_peak: Gauge,
    tel_bytes: Gauge,
    tel_pruned: Counter,
    tel_non_writes: Counter,
    /// Per-level stage latencies: frontier expansion
    /// (`lattice.stage.expand_ns`) and the post-expansion seal — violation
    /// trails, pruning, retiring the level (`lattice.stage.seal_ns`).
    tel_expand: Histogram,
    tel_seal: Histogram,
    /// `lattice.parallel.*` metrics, recorded only on levels the worker
    /// pool actually expanded.
    tel_shard_width: Histogram,
    tel_merge: Histogram,
    tel_imbalance: Gauge,
    tel_parallel_levels: Counter,
    tel_workers: Gauge,
    tel_steals: Counter,
    tel_park: Histogram,
    /// `spec.eval_cache_hits`, cloned into every step cache this analyzer
    /// creates (sequential and per-shard alike).
    tel_cache_hits: Counter,
    /// Trace ring (lane `"lattice"`) for ingested messages, level seals,
    /// prunes and property evaluations; disabled (free) by default.
    trace_ring: TraceRing,
    /// The tracer behind `trace_ring`, kept to open per-shard lanes
    /// (`lattice.shard<N>`) when the pool engages; disabled by default.
    tracer: Tracer,
}

impl StreamingAnalyzer {
    /// Creates an analyzer for `threads` threads starting from `initial`.
    #[must_use]
    pub fn new(monitor: Monitor, initial: &ProgramState, threads: usize) -> Self {
        Self::build(monitor, initial, threads, &Registry::disabled())
    }

    /// Like [`StreamingAnalyzer::new`], but reporting live metrics into
    /// `registry`: `lattice.states_explored` (lattice nodes created,
    /// including the initial cut), `lattice.cuts_deduped` (successor cuts
    /// merged into an already-created node of the next level),
    /// `lattice.levels_built`, `lattice.violations`,
    /// `lattice.frontier_width` (histogram, one sample per completed
    /// level), `lattice.peak_frontier` (gauge),
    /// `lattice.frontier_bytes` (gauge, [`StreamingAnalyzer::frontier_bytes`]
    /// at each seal), and per-level stage latency histograms
    /// `lattice.stage.expand_ns` / `lattice.stage.seal_ns`.
    #[must_use]
    pub fn with_telemetry(
        monitor: Monitor,
        initial: &ProgramState,
        threads: usize,
        registry: &Registry,
    ) -> Self {
        Self::build(monitor, initial, threads, registry)
    }

    fn build(
        monitor: Monitor,
        initial: &ProgramState,
        threads: usize,
        registry: &Registry,
    ) -> Self {
        let (mem0, ok0) = monitor.initial(initial);
        let bottom = Cut::bottom(threads);
        let mut violations = Vec::new();
        if !ok0 {
            violations.push(Violation {
                cut: bottom.clone(),
                state: initial.clone(),
                memory: mem0,
                trail: vec![RunStep {
                    cut: bottom,
                    thread: None,
                    message: None,
                    state: initial.clone(),
                }],
            });
        }
        let vars = monitor.variables();
        let mut slot_of = vec![NONE; vars.last().map_or(0, |v| v.index() + 1)];
        for (slot, v) in vars.iter().enumerate() {
            slot_of[v.index()] = slot as u32;
        }
        let slots = monitor.slots(initial);
        let valuation = monitor.slot_valuation(&slots);
        let frontier = Level::bottom(threads, &slots, valuation.unwrap_or(0), mem0, ok0);
        let tel_states = registry.counter("lattice.states_explored");
        tel_states.inc(); // the initial cut is a lattice node
        let tel_peak = registry.gauge("lattice.peak_frontier");
        tel_peak.set(1);
        let tel_bytes = registry.gauge("lattice.frontier_bytes");
        tel_bytes.set(frontier.bytes());
        let tel_violations = registry.counter("lattice.violations");
        tel_violations.add(violations.len() as u64);
        let tel_cache_hits = registry.counter("spec.eval_cache_hits");
        Self {
            monitor: Arc::new(monitor),
            initial: initial.clone(),
            threads,
            slot_of: slot_of.into(),
            packed: valuation.is_some(),
            buffer: CausalBuffer::new(),
            delivered: Arc::new(vec![Vec::new(); threads]),
            ended: vec![false; threads],
            spare: Level::new(threads, slots.len()),
            frontier,
            scratch: Scratch::default(),
            seeds: Vec::new(),
            past: std::collections::VecDeque::new(),
            history: 0,
            violations,
            states_explored: 1,
            levels_built: 0,
            peak_frontier: 1,
            frontier_cap: None,
            dropped_cuts: 0,
            non_writes_skipped: 0,
            parallelism: 1,
            shard_granularity: DEFAULT_SHARD_GRANULARITY,
            eval_cache: true,
            step_cache: StepCache::with_counter(tel_cache_hits.clone()),
            pool: None,
            tel_states,
            tel_deduped: registry.counter("lattice.cuts_deduped"),
            tel_levels: registry.counter("lattice.levels_built"),
            tel_violations,
            tel_width: registry.histogram("lattice.frontier_width"),
            tel_peak,
            tel_bytes,
            tel_pruned: registry.counter("lattice.frontier_pruned"),
            tel_non_writes: registry.counter("lattice.non_writes_skipped"),
            tel_expand: registry.histogram("lattice.stage.expand_ns"),
            tel_seal: registry.histogram("lattice.stage.seal_ns"),
            tel_shard_width: registry.histogram("lattice.parallel.shard_width"),
            tel_merge: registry.histogram("lattice.parallel.merge_ns"),
            tel_imbalance: registry.gauge("lattice.parallel.imbalance_pct"),
            tel_parallel_levels: registry.counter("lattice.parallel.levels"),
            tel_workers: registry.gauge("lattice.parallel.workers"),
            tel_steals: registry.counter("lattice.parallel.steals"),
            tel_park: registry.histogram("lattice.parallel.park_ns"),
            tel_cache_hits,
            trace_ring: TraceRing::disabled(),
            tracer: Tracer::default(),
        }
    }

    /// Attaches a trace ring (lane `"lattice"`) recording one
    /// [`TraceKind::Ingested`] instant per causally delivered message, one
    /// [`TraceKind::LevelSealed`] span per frontier advance, plus
    /// [`TraceKind::CutPruned`] / [`TraceKind::PropertyEvaluated`]
    /// instants. With a disabled tracer this is free.
    #[must_use]
    pub fn with_trace(mut self, tracer: &Tracer) -> Self {
        self.trace_ring = tracer.ring("lattice");
        self.tracer = tracer.clone();
        self
    }

    /// Expands wide frontier levels across up to `workers` threads
    /// (`0`/`1` = sequential). Sharding is by cut hash with a
    /// deterministic merge, so every observable output — verdicts,
    /// violation order, trails, telemetry counts, the final
    /// [`StreamReport`] — is bit-identical to the sequential path; the
    /// only evidence the pool ran is the `lattice.parallel.*` metric
    /// family and the `lattice.shard<N>` trace lanes. Levels narrower
    /// than the shard granularity (default
    /// [`crate::config::DEFAULT_SHARD_GRANULARITY`] cuts per worker)
    /// expand inline.
    #[must_use]
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Lowers (or raises) the engagement threshold: a level engages the
    /// worker pool only when it holds at least `cuts_per_shard` cuts per
    /// worker. Equivalence tests use it to force narrow levels through
    /// the sharded path; the default
    /// ([`crate::config::DEFAULT_SHARD_GRANULARITY`]) keeps coordination
    /// overhead away from levels too narrow to profit. Also settable via
    /// [`AnalysisConfig::with_shard_granularity`].
    #[must_use]
    pub fn with_shard_granularity(mut self, cuts_per_shard: usize) -> Self {
        self.shard_granularity = cuts_per_shard.max(1);
        self
    }

    /// Enables or disables the per-level monitor step cache (default on).
    /// Purely physical: verdicts, trails, traces and all logical counters
    /// are bit-identical either way.
    #[must_use]
    pub fn with_eval_cache(mut self, enabled: bool) -> Self {
        self.eval_cache = enabled;
        self
    }

    /// Shares a persistent [`ExpansionPool`] with this analyzer instead of
    /// letting it lazily spawn its own at the first parallel level. The
    /// observer pipeline uses this to spawn one pool per `Pipeline` and
    /// reuse it across every analysis it runs. The effective worker count
    /// is capped by the pool's size.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<ExpansionPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Applies every knob of an [`AnalysisConfig`] at once: history (when
    /// set), frontier cap, parallelism, shard granularity, and the step
    /// cache.
    #[must_use]
    pub fn with_config(mut self, config: &AnalysisConfig) -> Self {
        if let Some(levels) = config.history {
            self.history = levels;
        }
        self.frontier_cap = (config.frontier_cap > 0).then_some(config.frontier_cap);
        self.parallelism = config.workers();
        self.shard_granularity = if config.shard_granularity == 0 {
            DEFAULT_SHARD_GRANULARITY
        } else {
            config.shard_granularity
        };
        self.eval_cache = config.eval_cache;
        self
    }

    /// Retains up to `levels` retired lattice levels so that violations
    /// carry a trail of that length. `0` (the default) is the paper's pure
    /// two-level mode; larger values trade memory for diagnostics, with the
    /// older levels garbage-collected exactly as Section 4 suggests
    /// ("parts of the lattice which become non-relevant … can be
    /// garbage-collected while the analysis process continues").
    /// `usize::MAX` keeps every level: every trail is a full run.
    #[must_use]
    pub fn with_history(mut self, levels: usize) -> Self {
        self.history = levels;
        self
    }

    /// Bounds the frontier to at most `cap` cuts per level. When a level
    /// exceeds the cap it is pruned to a *deterministic beam* — the `cap`
    /// smallest cuts in [`Cut`]'s lexicographic order — instead of
    /// exhausting memory on pathological computations (the width of a level
    /// is exponential in the thread count in the worst case). Every pruned
    /// cut is counted and surfaces as [`Exactness::Degraded`] in the final
    /// report: the verdict then covers *some*, not all, consistent runs.
    /// A cap of `0` is treated as unbounded.
    #[must_use]
    pub fn with_frontier_cap(mut self, cap: usize) -> Self {
        self.frontier_cap = (cap > 0).then_some(cap);
        self
    }

    /// The global state at `cut`: the initial state plus every write the
    /// cut consumed, replayed in a linear extension of the causal order
    /// (writes of one variable are causally ordered, so any linear
    /// extension yields the same state).
    fn state_at(&self, cut: &[u32]) -> ProgramState {
        let mut state = self.initial.clone();
        let mut at = vec![0u32; cut.len()];
        let mut moved = true;
        while moved {
            moved = false;
            for t in 0..cut.len() {
                while at[t] < cut[t] {
                    let Some(m) = frontier::enabled(&self.delivered, &at, t) else {
                        break;
                    };
                    if let Some((var, value)) = m.var().zip(m.written_value()) {
                        state.set(var, value);
                    }
                    at[t] += 1;
                    moved = true;
                }
            }
        }
        debug_assert_eq!(at, cut, "a frontier cut is consistent");
        state
    }

    /// Completes `seed` (a row of `next`) with its trail: its violating
    /// step, preceded by the predecessor in the frontier and its
    /// ancestors in the retained history, as far back as that reaches.
    /// States are rebuilt from the delivered writes.
    fn violation_for(&self, next: &Level, seed: Seed) -> Violation {
        let mut rev = vec![next.cut(seed.row as usize).to_vec()];
        // The arrival thread of the oldest step kept so far.
        let mut arrival = None;
        let mut cursor = Some(seed.pred);
        for level in std::iter::once(&self.frontier).chain(self.past.iter().rev()) {
            let Some((row, memory)) = cursor else {
                break;
            };
            rev.push(level.cut(row as usize).to_vec());
            (arrival, cursor) = level.arrival(row as usize, memory);
        }
        let mut trail: Vec<RunStep> = Vec::with_capacity(rev.len());
        for counts in rev.into_iter().rev() {
            let cut = Cut::from_counts(counts);
            let thread = match trail.last() {
                Some(prev) => prev.cut.advancing_thread(&cut),
                None => arrival.map(ThreadId),
            };
            let message = thread.and_then(|t| {
                self.delivered[t.index()]
                    .get(cut.get(t) as usize - 1)
                    .cloned()
            });
            let state = match trail.last() {
                Some(prev) => {
                    let mut state = prev.state.clone();
                    if let Some((var, value)) = message
                        .as_ref()
                        .and_then(|m| m.var().zip(m.written_value()))
                    {
                        state.set(var, value);
                    }
                    state
                }
                None => self.state_at(cut.as_slice()),
            };
            trail.push(RunStep {
                cut,
                thread,
                message,
                state,
            });
        }
        let last = trail.last().expect("a trail holds the violating step");
        Violation {
            cut: last.cut.clone(),
            state: last.state.clone(),
            memory: seed.memory,
            trail,
        }
    }

    /// Offers one message (any delivery order) and advances the frontier as
    /// far as currently possible.
    pub fn push(&mut self, message: Message) {
        self.buffer.push(message, |m| {
            let t = m.thread().index();
            if self.delivered.len() <= t {
                // A thread beyond the declared count: grow conservatively.
                Arc::make_mut(&mut self.delivered).resize_with(t + 1, Vec::new);
                self.ended.resize(t + 1, false);
                self.threads = t + 1;
                self.frontier.widen(t + 1);
                for level in &mut self.past {
                    level.widen(t + 1);
                }
            }
            if self.trace_ring.is_enabled() {
                self.trace_ring.record(TraceKind::Ingested(m.trace_ref()));
            }
            // Between levels no worker holds the Arc, so this appends in
            // place without cloning the delivered prefixes.
            Arc::make_mut(&mut self.delivered)[t].push(m);
        });
        self.advance();
    }

    /// Offers many messages.
    pub fn push_all(&mut self, messages: impl IntoIterator<Item = Message>) {
        for m in messages {
            self.push(m);
        }
    }

    /// Marks thread `t`'s stream as complete (no further messages).
    pub fn end_thread(&mut self, t: ThreadId) {
        if t.index() < self.ended.len() {
            self.ended[t.index()] = true;
        }
        self.advance();
    }

    /// Marks every stream complete, drains the analysis, and reports.
    #[must_use]
    pub fn finish(mut self) -> StreamReport {
        for e in &mut self.ended {
            *e = true;
        }
        self.advance();
        let completed = self.buffer.is_drained()
            && self.frontier.len() == 1
            && self.is_top(self.frontier.cut(0));
        let (total_runs, violating_runs) = self.frontier.run_counts();
        StreamReport {
            violations: self.violations,
            states_explored: self.states_explored,
            levels_built: self.levels_built,
            peak_frontier: self.peak_frontier,
            total_runs,
            violating_runs,
            completed,
            exactness: Exactness::degraded(self.dropped_cuts, 0),
            non_writes_skipped: self.non_writes_skipped,
        }
    }

    /// Violations found so far (available mid-stream — the analysis is
    /// online).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The current frontier width.
    #[must_use]
    pub fn frontier_width(&self) -> usize {
        self.frontier.len()
    }

    /// Bytes the frontier arena and the retained history hold — the
    /// `lattice.frontier_bytes` gauge. Each lattice node costs
    /// `4·threads + 8·slots + 32` bytes (cut, slot values, valuation,
    /// violated-run count, range ends), plus 32 per alive monitor memory
    /// (48 with history, which keeps a parent per memory) and 8 per dead
    /// memory; `slots` is the number of variables the monitor reads.
    #[must_use]
    pub fn frontier_bytes(&self) -> u64 {
        self.frontier.bytes() + self.past.iter().map(Level::bytes).sum::<u64>()
    }

    /// Lattice levels sealed (frontier advances performed) so far. The
    /// analysis-suite driver polls this to fan `on_level_sealed`
    /// notifications out to co-running analyses.
    #[must_use]
    pub fn levels_built(&self) -> u32 {
        self.levels_built
    }

    fn is_top(&self, cut: &[u32]) -> bool {
        (0..self.threads)
            .all(|t| cut.get(t).copied().unwrap_or(0) as usize == self.delivered[t].len())
            && self.ended.iter().all(|&e| e)
    }

    /// True when every frontier cut can be fully expanded with the
    /// messages currently delivered: for each thread either the next
    /// message of every cut is available or the thread has ended.
    fn expandable(&self) -> bool {
        let max = self.frontier.max_counts();
        (0..self.threads).all(|t| {
            let consumed = max.get(t).copied().unwrap_or(0) as usize;
            consumed < self.delivered[t].len() || self.ended[t]
        })
    }

    /// The worker count for a level of `width` cuts: sequential below the
    /// engagement threshold, at most `parallelism` (and the injected
    /// pool's size, when one was provided) above it.
    fn level_workers(&self, width: usize) -> usize {
        if self.parallelism <= 1 {
            return 1;
        }
        let cap = self
            .pool
            .as_ref()
            .map_or(self.parallelism, |p| p.size().min(self.parallelism));
        (width / self.shard_granularity).clamp(1, cap)
    }

    /// Expands the frontier into `self.spare` on the calling thread,
    /// leaving the seeds in `self.seeds`.
    fn expand_sequential(&mut self, level_index: u64) -> Stats {
        let expand = Expand {
            delivered: &self.delivered,
            monitor: &self.monitor,
            slot_of: &self.slot_of,
            cached: self.packed && self.eval_cache,
            keep_parents: self.history > 0,
            level: level_index,
        };
        let (src, next, scratch) = (&self.frontier, &mut self.spare, &mut self.scratch);
        let mut stats = Stats::default();
        scratch.reset(src.len());
        for row in 0..src.len() {
            let cut = src.cut(row);
            for t in 0..self.threads {
                if frontier::enabled(&self.delivered, cut, t).is_some() {
                    expand.discover(src, row as u32, t, next, scratch, &mut stats);
                }
            }
        }
        expand.absorb(
            src,
            next,
            scratch,
            Some(&mut self.step_cache),
            &mut self.trace_ring,
            &mut self.seeds,
            &mut stats,
        );
        stats
    }

    /// Expands the frontier on the persistent worker pool (lazily
    /// spawning it on first use) and appends the disjoint shard levels
    /// into `self.spare`, seeds into `self.seeds`. The frontier travels to
    /// the pool inside an `Arc` and comes back once every shard reports.
    /// Records the `lattice.parallel.*` metric family. Every
    /// analysis-visible output is bit-identical to
    /// [`StreamingAnalyzer::expand_sequential`].
    fn expand_parallel(&mut self, level_index: u64, workers: usize) -> Stats {
        let rings: Vec<TraceRing> = if self.tracer.is_enabled() {
            (0..workers)
                .map(|w| self.tracer.ring(&format!("lattice.shard{w}")))
                .collect()
        } else {
            (0..workers).map(|_| TraceRing::disabled()).collect()
        };
        let sources = std::mem::take(&mut self.frontier);
        let shared = Arc::new(LevelShared::new(
            sources,
            Arc::clone(&self.delivered),
            Arc::clone(&self.monitor),
            Arc::clone(&self.slot_of),
            self.threads,
            self.slot_count(),
            workers,
            level_index,
            self.packed && self.eval_cache,
            self.history > 0,
            self.tel_cache_hits.clone(),
        ));
        let pool = Arc::clone(
            self.pool
                .get_or_insert_with(|| Arc::new(ExpansionPool::new(self.parallelism))),
        );
        let reports = pool.expand(&shared, rings);
        // Every worker dropped its clone before reporting, so the level
        // comes back without copying. The fallback clone is unreachable
        // in practice.
        self.frontier =
            Arc::try_unwrap(shared).map_or_else(|arc| arc.sources.clone(), |s| s.sources);
        self.tel_parallel_levels.inc();
        self.tel_workers.set(workers as u64);
        let max_assigned = reports.iter().map(|r| r.assigned).max().unwrap_or(0);
        let min_assigned = reports.iter().map(|r| r.assigned).min().unwrap_or(0);
        if let Some(spread) = ((max_assigned - min_assigned) * 100).checked_div(max_assigned) {
            self.tel_imbalance.set(spread);
        }
        let mut stats = Stats::default();
        for r in reports {
            self.tel_shard_width.record(r.assigned);
            self.tel_merge.record(r.merge_ns);
            self.tel_steals.add(r.steals);
            self.tel_park.record(r.park_ns);
            stats.add(r.stats);
            // Shards own disjoint slices of the successor space, so the
            // appended rows never collide.
            let base = self.spare.append(&r.next);
            self.seeds.extend(r.seeds.into_iter().map(|s| Seed {
                row: s.row + base,
                ..s
            }));
        }
        stats
    }

    /// Slots per row: the variables the monitor reads.
    fn slot_count(&self) -> usize {
        self.monitor.variables().len()
    }

    /// Advances the frontier level by level while every frontier cut is
    /// expandable.
    fn advance(&mut self) {
        loop {
            if self.frontier.is_empty() {
                return;
            }
            // The frontier only advances when it can advance *completely*:
            // expanding a partial level would lose cuts whose successors
            // depend on undelivered messages. This guard runs before the
            // sequential/parallel dispatch below, so a level is always
            // sealed — every cut expandable — before any worker sees it;
            // sharding never observes a partial level.
            if !self.expandable() {
                return;
            }
            // Terminal frontier: single top cut with nothing enabled.
            let any_successor = (0..self.frontier.len()).any(|row| {
                let cut = self.frontier.cut(row);
                (0..self.threads).any(|t| frontier::enabled(&self.delivered, cut, t).is_some())
            });
            if !any_successor {
                return;
            }

            let level_start = self.trace_ring.span_start();
            let level_index = u64::from(self.levels_built) + 1;
            let mut level_pruned = 0u64;
            let workers = self.level_workers(self.frontier.len());
            let width = self.slot_count();
            self.spare.reset(self.threads, width);
            self.seeds.clear();
            let expand_span = self.tel_expand.start_span();
            let stats = if workers > 1 {
                self.expand_parallel(level_index, workers)
            } else {
                self.expand_sequential(level_index)
            };
            expand_span.finish();
            // The memo is level-scoped: transitions rarely recur across
            // seals, so clearing keeps the table at working-set size.
            self.step_cache.clear();
            let seal_span = self.tel_seal.start_span();
            self.states_explored += stats.new_states;
            self.tel_states.add(stats.new_states);
            self.tel_deduped.add(stats.deduped);
            self.non_writes_skipped += stats.non_writes;
            self.tel_non_writes.add(stats.non_writes);
            // Violations surface in (cut, memory) order, so reports are
            // identical for every worker count and row order.
            let mut seeds = std::mem::take(&mut self.seeds);
            let next = &self.spare;
            seeds.sort_unstable_by(|a, b| {
                next.cut(a.row as usize)
                    .cmp(next.cut(b.row as usize))
                    .then_with(|| a.memory.cmp(&b.memory))
            });
            let level_violations = seeds.len() as u64;
            self.tel_violations.add(level_violations);
            for &seed in &seeds {
                let violation = self.violation_for(&self.spare, seed);
                self.violations.push(violation);
            }
            self.seeds = seeds;
            // Cuts that had no successor (only possible mid-stream for the
            // top-so-far cut when some threads ended) are retained if they
            // are the overall top; otherwise they are dead ends that cannot
            // occur for validated complete inputs.
            if self.spare.is_empty() {
                return;
            }
            // Degrade instead of OOM: prune the level to a deterministic
            // beam (the cap smallest cuts in lexicographic order) and
            // account every dropped cut toward the report's exactness.
            if let Some(cap) = self.frontier_cap {
                if self.spare.len() > cap {
                    let next = &self.spare;
                    let mut order: Vec<usize> = (0..next.len()).collect();
                    order.sort_unstable_by(|&a, &b| next.cut(a).cmp(next.cut(b)));
                    let mut keep = vec![false; next.len()];
                    for &row in &order[..cap] {
                        keep[row] = true;
                    }
                    let excess = (next.len() - cap) as u64;
                    self.spare.retain(&keep);
                    self.dropped_cuts += excess;
                    self.tel_pruned.add(excess);
                    level_pruned = excess;
                    if self.trace_ring.is_enabled() {
                        self.trace_ring.record(TraceKind::CutPruned {
                            level: level_index,
                            count: excess,
                        });
                    }
                }
            }
            // Retire the expanded level into the bounded history, or keep
            // its buffer for the level after next.
            let retired = std::mem::replace(&mut self.frontier, std::mem::take(&mut self.spare));
            if self.history > 0 {
                self.past.push_back(retired);
                if self.past.len() > self.history {
                    self.spare = self.past.pop_front().unwrap_or_default();
                }
            } else {
                self.spare = retired;
            }
            let width = self.frontier.len();
            self.levels_built += 1;
            self.peak_frontier = self.peak_frontier.max(width);
            self.tel_levels.inc();
            self.tel_width.record(width as u64);
            self.tel_peak.set(width as u64);
            self.tel_bytes.set(self.frontier_bytes());
            if self.trace_ring.is_enabled() {
                self.trace_ring.record_span(
                    TraceKind::LevelSealed {
                        level: level_index,
                        width: width as u64,
                        states: stats.new_states,
                        pruned: level_pruned,
                        evals: stats.evals,
                        violations: level_violations,
                    },
                    level_start,
                );
            }
            seal_span.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, MvcInstrumentor, Relevance, SymbolTable, VarId};
    use jmpax_spec::parse;

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    fn fig6_setup() -> (Vec<Message>, Monitor, ProgramState) {
        let mut syms = SymbolTable::new();
        let monitor = parse("(x > 0) -> [y = 0, y > z)", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let x = syms.lookup("x").unwrap();
        let y = syms.lookup("y").unwrap();
        let z = syms.lookup("z").unwrap();
        let mut a = MvcInstrumentor::new(2, Relevance::writes_of([x, y, z]));
        let mut msgs = Vec::new();
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, x, 0)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, z, 1)));
        a.process(&Event::read(T1, x));
        msgs.extend(a.process(&Event::write(T1, y, 1)));
        a.process(&Event::read(T2, x));
        msgs.extend(a.process(&Event::write(T2, x, 1)));
        let mut init = ProgramState::new();
        init.set(x, -1);
        init.set(y, 0);
        init.set(z, 0);
        (msgs, monitor, init)
    }

    #[test]
    fn streaming_fig6_finds_the_violation() {
        let (msgs, monitor, init) = fig6_setup();
        let mut s = StreamingAnalyzer::new(monitor, &init, 2);
        s.push_all(msgs);
        let report = s.finish();
        assert!(!report.satisfied());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.states_explored, 7);
        assert_eq!(report.levels_built, 4);
        assert_eq!((report.total_runs, report.violating_runs), (3, 1));
        assert!(report.completed);
        assert!(report.peak_frontier <= 2);
    }

    #[test]
    fn streaming_handles_reversed_delivery() {
        let (mut msgs, monitor, init) = fig6_setup();
        msgs.reverse();
        let mut s = StreamingAnalyzer::new(monitor, &init, 2);
        s.push_all(msgs);
        let report = s.finish();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.states_explored, 7);
        assert!(report.completed);
    }

    #[test]
    fn violations_surface_once_streams_end() {
        let (msgs, monitor, init) = fig6_setup();
        let mut s = StreamingAnalyzer::new(monitor, &init, 2);
        s.push_all(msgs);
        // With all messages delivered but streams still open, the frontier
        // must stall *before* the top: a future message could still create
        // successors, so expanding early would be unsound.
        assert!(s.violations().is_empty());
        s.end_thread(T1);
        s.end_thread(T2);
        // Now the violation at the top is visible without finish().
        assert_eq!(s.violations().len(), 1);
    }

    #[test]
    fn frontier_waits_for_missing_messages() {
        let (msgs, monitor, init) = fig6_setup();
        let mut s = StreamingAnalyzer::new(monitor, &init, 2);
        // Deliver only T1's first message. Expanding S0,0 would need to
        // know whether T2 contributes a successor, but T2 has delivered
        // nothing and has not ended — the cut is not expandable, so the
        // frontier must hold at S0,0 instead of sealing level 1 early.
        let e1 = msgs[0].clone();
        s.push(e1);
        assert_eq!(s.frontier_width(), 1);
        // After ending T2's stream prematurely the frontier can advance
        // using only T1's messages.
        s.push(msgs[2].clone()); // e3 (T1's second message)
        s.end_thread(T2);
        let report = s.finish();
        // Only the single run S00 → S10 → S20 exists; y=1,z=0 never sees
        // x>0 so the property holds on that prefix.
        assert!(report.satisfied());
        assert_eq!(report.states_explored, 3);
    }

    #[test]
    fn history_trails_reconstruct_violating_suffix() {
        let (msgs, monitor, init) = fig6_setup();
        // Retain enough history for the whole run.
        let mut s = StreamingAnalyzer::new(monitor, &init, 2).with_history(8);
        s.push_all(msgs.clone());
        let report = s.finish();
        assert_eq!(report.violations.len(), 1);
        let trail = &report.violations[0].trail;
        // Full trail: S0,0 S1,0 S2,0 S2,1 S2,2 (the violating run).
        assert_eq!(trail.len(), 5, "{trail:?}");
        assert!(report.violations[0].is_full_run());
        assert_eq!(trail[0].cut, Cut::bottom(2));
        assert_eq!(trail[4].cut, Cut::from_counts(vec![2, 2]));
        // The y=1-while-z=0 state is on the trail.
        assert!(trail.iter().any(|s| s.cut == Cut::from_counts(vec![2, 0])));
        // Each step names the thread and the write that reached it.
        for w in trail.windows(2) {
            let t = w[0].cut.advancing_thread(&w[1].cut).unwrap();
            assert_eq!(w[1].thread, Some(t));
            assert_eq!(w[1].message.as_ref().map(Message::thread), Some(t));
        }

        // Without history the trail is just the step into the violation.
        let (msgs2, monitor2, init2) = fig6_setup();
        let mut s = StreamingAnalyzer::new(monitor2, &init2, 2);
        s.push_all(msgs2);
        let _ = msgs;
        let report = s.finish();
        let trail = &report.violations[0].trail;
        assert_eq!(trail.len(), 2, "{trail:?}");
        assert_eq!(trail[1].cut, Cut::from_counts(vec![2, 2]));
        // A truncated trail still says how its first state was reached.
        assert!(!report.violations[0].is_full_run());
        assert_eq!(report.violations[0].event_count(), 2);
    }

    #[test]
    fn bounded_history_truncates_trails() {
        let (msgs, monitor, init) = fig6_setup();
        let mut s = StreamingAnalyzer::new(monitor, &init, 2).with_history(1);
        s.push_all(msgs);
        let report = s.finish();
        let trail = &report.violations[0].trail;
        // violating state + predecessor + one retired level = 3.
        assert_eq!(trail.len(), 3, "{trail:?}");
    }

    #[test]
    fn initial_state_violation_detected() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x > 0", &mut syms).unwrap().monitor().unwrap();
        let s = StreamingAnalyzer::new(monitor, &ProgramState::new(), 1);
        let report = s.finish();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].cut, Cut::bottom(1));
        assert!(report.violations[0].is_full_run());
        assert_eq!((report.total_runs, report.violating_runs), (1, 1));
    }

    #[test]
    fn uncapped_report_is_exact() {
        let (msgs, monitor, init) = fig6_setup();
        let mut s = StreamingAnalyzer::new(monitor, &init, 2);
        s.push_all(msgs);
        let report = s.finish();
        assert!(report.exactness.is_exact());
        assert_eq!(report.non_writes_skipped, 0);
    }

    #[test]
    fn frontier_cap_degrades_instead_of_exploring_everything() {
        use jmpax_core::gen::{random_execution, RandomExecutionConfig};

        let mut syms = SymbolTable::new();
        let monitor = parse("v0 <= v1 \\/ v2 < 3", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let ex = random_execution(RandomExecutionConfig {
            threads: 4,
            vars: 3,
            events: 40,
            write_ratio: 0.8,
            internal_ratio: 0.0,
            seed: 5,
        });
        let msgs = ex.instrument(Relevance::writes_of([VarId(0), VarId(1), VarId(2)]));
        let init = ProgramState::new();

        let mut exhaustive = StreamingAnalyzer::new(monitor.clone(), &init, 4);
        exhaustive.push_all(msgs.clone());
        let full = exhaustive.finish();
        assert!(full.peak_frontier > 2, "need a wide lattice for this test");

        let mut capped = StreamingAnalyzer::new(monitor, &init, 4).with_frontier_cap(2);
        capped.push_all(msgs);
        let beam = capped.finish();
        assert!(beam.completed, "the beam still reaches the top cut");
        assert!(beam.peak_frontier <= 2);
        assert!(beam.states_explored < full.states_explored);
        let (dropped, gaps) = beam.exactness.losses();
        assert!(dropped > 0, "pruning must be visible in the report");
        assert_eq!(gaps, 0);
        assert!(!beam.exactness.is_exact());
    }

    #[test]
    fn non_write_messages_stutter_instead_of_panicking() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        // An exotic relevance policy: *accesses* of x are relevant, so the
        // observer also receives read messages, which cannot update state.
        let mut a = MvcInstrumentor::new(1, Relevance::accesses_of([x]));
        let mut msgs = Vec::new();
        msgs.extend(a.process(&Event::write(T1, x, 1)));
        msgs.extend(a.process(&Event::read(T1, x)));
        msgs.extend(a.process(&Event::write(T1, x, 2)));
        assert_eq!(msgs.len(), 3);
        let mut s = StreamingAnalyzer::new(monitor, &ProgramState::new(), 1);
        s.push_all(msgs);
        let report = s.finish();
        assert!(report.completed);
        assert!(report.satisfied());
        assert_eq!(report.non_writes_skipped, 1);
        assert!(report.exactness.is_exact(), "stutters do not degrade");
    }

    #[test]
    fn frontier_bytes_stay_within_the_documented_bound() {
        const THREADS: usize = 4;
        let mut syms = SymbolTable::new();
        let monitor = parse("v0 >= 0", &mut syms).unwrap().monitor().unwrap();
        let mut instr = MvcInstrumentor::new(THREADS, Relevance::AllWrites);
        let mut msgs = Vec::new();
        for round in 0..3 {
            for t in 0..THREADS {
                let value = (round * THREADS + t) as i64;
                msgs.extend(instr.process(&Event::write(
                    ThreadId(t as u32),
                    VarId(t as u32),
                    value,
                )));
            }
        }
        let registry = Registry::enabled();
        let mut s =
            StreamingAnalyzer::with_telemetry(monitor, &ProgramState::new(), THREADS, &registry);
        s.push_all(msgs);
        // Streams open: the frontier stalls at level 3 of the hypercube,
        // the cuts of 3 events over 4 threads.
        assert_eq!(s.levels_built(), 3);
        let width = s.frontier_width() as u64;
        assert_eq!(width, 20);
        let bytes = s.frontier_bytes();
        // The documented cost of a node: 4·threads + 8·slots + 32, plus
        // 32 per alive and 8 per dead memory; a formula without temporal
        // operators has a single memory.
        let per_node = 4 * THREADS as u64 + 8 + 32 + 32 + 8;
        assert!(
            bytes > 0 && bytes <= width * per_node,
            "{bytes} bytes for {width} nodes"
        );
        let gauge = registry.snapshot().gauge("lattice.frontier_bytes");
        assert_eq!(gauge.map(|(value, _)| value), Some(bytes));
    }

    #[test]
    fn agrees_with_full_analysis_on_random_computations() {
        use crate::analysis::analyze;
        use crate::input::LatticeInput;
        use jmpax_core::gen::{random_execution, RandomExecutionConfig};

        let mut syms = SymbolTable::new();
        // A property over the generator's dense var ids.
        let monitor = parse("v0 <= v1 \\/ v2 < 3", &mut syms).unwrap();
        // Re-map: parser interned v0,v1,v2 as fresh names; instead build a
        // formula directly over VarId(0..3) by reusing the interned ids in
        // order (v0→0, v1→1, v2→2 because the table was empty).
        let monitor = monitor.monitor().unwrap();

        for seed in 0..20 {
            let ex = random_execution(RandomExecutionConfig {
                threads: 3,
                vars: 3,
                events: 14,
                write_ratio: 0.7,
                internal_ratio: 0.0,
                seed,
            });
            let msgs = ex.instrument(Relevance::writes_of([VarId(0), VarId(1), VarId(2)]));
            let init = ProgramState::new();
            let input = LatticeInput::from_messages(msgs.clone(), init.clone()).unwrap();
            let full = analyze(input, &monitor);

            let mut s = StreamingAnalyzer::new(monitor.clone(), &init, 3);
            s.push_all(msgs);
            let report = s.finish();
            assert!(report.completed, "seed {seed}: streaming did not finish");
            assert_eq!(
                report.states_explored as usize, full.states,
                "seed {seed}: state count mismatch"
            );
            assert_eq!(
                report.satisfied(),
                full.satisfied(),
                "seed {seed}: verdict mismatch"
            );
            assert_eq!(
                (report.total_runs, report.violating_runs),
                (full.total_runs, full.violating_runs),
                "seed {seed}: run count mismatch"
            );
        }
    }
}
