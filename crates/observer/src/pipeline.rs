//! One-call end-to-end analyses (the whole Fig. 4 architecture).
//!
//! The instrumentation module "parses the user specification, extracts the
//! set of shared variables it refers to, i.e., the relevant variables, and
//! then instruments the multithreaded program" — [`Pipeline`] does exactly
//! this for a recorded execution: parse the property, derive the relevance
//! policy from its variables, run Algorithm A, ship the messages to the
//! observer, and return both the predictive verdict and the JPaX-style
//! observed-run verdict.
//!
//! Every entry point runs the one analysis engine: the streaming
//! [`jmpax_lattice::AnalysisSuite`] behind [`Pipeline::check_stream_suite`].
//! [`Pipeline::new`]`(`[`PipelineConfig`]`)` configures it once; the
//! config carries the optional telemetry [`Registry`], the optional
//! [`Tracer`], and the [`AnalysisConfig`] knobs (parallelism, frontier
//! cap, history). When parallelism is enabled, the pipeline owns one
//! persistent [`ExpansionPool`] shared by every analysis it runs — workers
//! are spawned on first use and parked between levels and between calls,
//! so repeated checks (e.g. `jmpax serve` tenant sessions) never pay
//! thread-spawn cost again.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use jmpax_core::{AnalysisKind, Execution, Message, Relevance, SymbolTable, VarId};
use jmpax_instrument::{ResilientDecode, ResilientFrameDecoder};
use jmpax_lattice::{
    AnalysisConfig, AnalysisReport, Exactness, ExpansionPool, StreamReport, SuiteBuilder,
    SuiteReport,
};
use jmpax_spec::{parse, Monitor, ParseError, ProgramState};
use jmpax_telemetry::Registry;
use jmpax_trace::{TraceKind, TraceRing, Tracer};

use crate::observer::{conclude, PipelineReport};

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The specification did not parse.
    Spec(ParseError),
    /// The monitor could not be synthesized (too many temporal operators).
    Monitor(jmpax_spec::monitor::MonitorError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Spec(e) => write!(f, "specification error: {e}"),
            PipelineError::Monitor(e) => write!(f, "monitor synthesis error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Spec(e)
    }
}
impl From<jmpax_spec::monitor::MonitorError> for PipelineError {
    fn from(e: jmpax_spec::monitor::MonitorError) -> Self {
        PipelineError::Monitor(e)
    }
}

/// Configuration for [`Pipeline`]: observability sinks plus every analysis
/// knob, in one place. The default is the plain, sequential, untelemetered
/// pipeline.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    telemetry: Registry,
    tracer: Option<Tracer>,
    analysis: AnalysisConfig,
    analyses: Vec<AnalysisKind>,
    sync_vars: BTreeSet<VarId>,
}

impl PipelineConfig {
    /// Starts from the defaults (disabled telemetry, no tracer, sequential
    /// exact analysis).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports pipeline telemetry into `registry`: per-stage wall-clock
    /// histograms (`observer.stage.*_ns`), verdict counters
    /// (`observer.verdict.*`), and every metric the instrumentor, monitor
    /// and lattice analysis publish — including `lattice.parallel.*` when
    /// parallelism is enabled. A disabled registry is free.
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = registry.clone();
        self
    }

    /// Records structured traces into `tracer`: pipeline stages as
    /// [`TraceKind::Stage`] spans on the `observer` lane, Algorithm A on
    /// the `core` lane, and the level-by-level analysis on the `lattice`
    /// lane (plus `lattice.shard<N>` lanes when the parallel pool
    /// engages).
    #[must_use]
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Worker threads for lattice frontier expansion (`0`/`1` =
    /// sequential). Verdicts are bit-identical for every value.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.analysis.parallelism = workers;
        self
    }

    /// Beam cap for the streaming frontier (`0` = unbounded); exceeding it
    /// degrades [`jmpax_lattice::Exactness`] exactly as
    /// `StreamingAnalyzer::with_frontier_cap` does.
    #[must_use]
    pub fn frontier_cap(mut self, cap: usize) -> Self {
        self.analysis.frontier_cap = cap;
        self
    }

    /// Replaces the full [`AnalysisConfig`] (parallelism, frontier cap,
    /// trail history) at once.
    #[must_use]
    pub fn analysis(mut self, config: AnalysisConfig) -> Self {
        self.analysis = config;
        self
    }

    /// Selects which analyses [`Pipeline::check_stream_suite`] runs over
    /// the one shared delivery pass, in order. Empty (the default) means
    /// `[ltl]` — the paper's predictive lattice checker only.
    #[must_use]
    pub fn analyses(mut self, kinds: &[AnalysisKind]) -> Self {
        self.analyses = kinds.to_vec();
        self
    }

    /// Declares the synchronization (lock) variables whose writes carry
    /// happens-before for the race and atomicity analyses (the
    /// Section 3.1 lock pseudo-variables, or any variable used as a
    /// flag/mutex).
    #[must_use]
    pub fn sync_vars(mut self, vars: impl IntoIterator<Item = VarId>) -> Self {
        self.sync_vars = vars.into_iter().collect();
        self
    }

    /// The configured analysis selection (empty = default `[ltl]`).
    #[must_use]
    pub fn configured_analyses(&self) -> &[AnalysisKind] {
        &self.analyses
    }
}

/// The one full-pipeline entrypoint: spec → relevance → Algorithm A →
/// observer → verdict, configured once via [`PipelineConfig`].
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    config: PipelineConfig,
    /// The persistent expansion pool, created lazily on the first parallel
    /// analysis and shared (via `Arc`) by every subsequent one — including
    /// clones of this pipeline, which reuse the same workers.
    pool: OnceLock<Arc<ExpansionPool>>,
}

impl Pipeline {
    /// Creates a pipeline with `config`.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            pool: OnceLock::new(),
        }
    }

    /// The shared worker pool when parallelism is configured (`None` for
    /// sequential configs). First call spawns the workers; they park on an
    /// empty channel until a level is dispatched.
    fn shared_pool(&self) -> Option<Arc<ExpansionPool>> {
        let workers = self.config.analysis.workers();
        (workers > 1).then(|| {
            Arc::clone(
                self.pool
                    .get_or_init(|| Arc::new(ExpansionPool::new(workers))),
            )
        })
    }

    /// The configured telemetry registry.
    pub(crate) fn registry(&self) -> &Registry {
        &self.config.telemetry
    }

    /// Runs the full pipeline over a recorded multithreaded execution, in
    /// one analysis pass.
    ///
    /// `spec_src` is parsed against `symbols` (which must already map the
    /// execution's variable names, e.g. the table used to build the
    /// program). The execution is finite, so unless the config bounds the
    /// history every level is retained and each violation carries a full
    /// counterexample run.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] / [`PipelineError::Monitor`] for an invalid
    /// specification.
    pub fn check_execution(
        &self,
        execution: &Execution,
        spec_src: &str,
        symbols: &mut SymbolTable,
    ) -> Result<PipelineReport, PipelineError> {
        let registry = &self.config.telemetry;
        let mut ring = self
            .config
            .tracer
            .as_ref()
            .map_or_else(TraceRing::disabled, |t| t.ring("observer"));

        let spec_start = ring.span_start();
        let formula = parse(spec_src, symbols)?;
        let monitor = formula.monitor()?.with_telemetry(registry);
        ring.record_span(TraceKind::Stage { name: "spec" }, spec_start);

        let relevance = Relevance::WritesOf(formula.variables().into_iter().collect());
        let instrument_start = ring.span_start();
        let messages = {
            let _span = registry
                .histogram("observer.stage.instrument_ns")
                .start_span();
            match &self.config.tracer {
                Some(tracer) => {
                    execution.instrument_with_observability(relevance.clone(), registry, tracer)
                }
                None => execution.instrument_with_telemetry(relevance.clone(), registry),
            }
        };
        ring.record_span(TraceKind::Stage { name: "instrument" }, instrument_start);

        let initial = ProgramState::from_map(execution.initial.clone());
        Ok(conclude(
            self,
            monitor,
            initial,
            messages,
            relevance,
            Exactness::Exact,
            &mut ring,
        ))
    }

    /// Checks a finite recorded message stream, in any order — e.g. what
    /// an instrumented [`jmpax_instrument::Session`] drained — exactly as
    /// [`Pipeline::check_execution`] checks the messages it instruments:
    /// one analysis pass with full counterexample runs, plus the observed
    /// run (the messages' order) for the JPaX-style verdict.
    pub fn check_messages(
        &self,
        monitor: Monitor,
        initial: ProgramState,
        messages: Vec<Message>,
    ) -> PipelineReport {
        let mut ring = self
            .config
            .tracer
            .as_ref()
            .map_or_else(TraceRing::disabled, |t| t.ring("observer"));
        conclude(
            self,
            monitor,
            initial,
            messages,
            Relevance::AllWrites,
            Exactness::Exact,
            &mut ring,
        )
    }

    /// Runs the constant-memory streaming analysis over already-decoded
    /// messages — the observer half only, for callers that received the
    /// stream over a transport (e.g. a `jmpax serve` tenant session)
    /// rather than instrumenting an [`Execution`] themselves.
    ///
    /// `threads` is the clock width of the stream (the tenant declares it
    /// in its handshake); the configured [`AnalysisConfig`] — parallelism,
    /// frontier cap, history — and telemetry registry apply as in
    /// [`Pipeline::check_execution`]. The report's
    /// [`jmpax_lattice::Exactness`] reflects frontier-cap pruning and
    /// causally undeliverable (stranded) messages; transport-level losses
    /// are the caller's to [`jmpax_lattice::Exactness::combine`] in — or
    /// use [`Pipeline::check_stream_suite`], which folds them in.
    pub fn check_stream(
        &self,
        monitor: Monitor,
        initial: &ProgramState,
        threads: usize,
        messages: impl IntoIterator<Item = Message>,
    ) -> StreamReport {
        self.ltl_pass(
            monitor,
            initial,
            threads,
            Exactness::Exact,
            messages,
            &self.config.analysis,
        )
    }

    /// Runs an ordered *suite* of analyses — ptLTL, race detection,
    /// atomicity checking — over one shared causal delivery pass of an
    /// already-decoded message stream. This is the multi-analysis
    /// generalization of [`Pipeline::check_stream`]: N analyses cost one
    /// decode→reassemble→deliver pass, not N.
    ///
    /// `kinds` selects and orders the analyses; empty falls back to the
    /// config's [`PipelineConfig::analyses`] selection (itself defaulting
    /// to `[ltl]`). `ltl` supplies the monitor and initial state, required
    /// iff the selection includes [`AnalysisKind::Ltl`]. `transport`
    /// carries upstream losses (frame corruption, reassembly gaps) to fold
    /// into every report's exactness; messages whose causal predecessors
    /// never arrive are added on top as skipped gaps.
    ///
    /// # Panics
    ///
    /// Panics when the selection includes LTL but `ltl` is `None` —
    /// validate selections (e.g. with [`AnalysisKind::parse_list`])
    /// before calling.
    pub fn check_stream_suite(
        &self,
        kinds: &[AnalysisKind],
        ltl: Option<(Monitor, &ProgramState)>,
        threads: usize,
        transport: jmpax_lattice::Exactness,
        messages: impl IntoIterator<Item = Message>,
    ) -> SuiteReport {
        let kinds = if kinds.is_empty() {
            &self.config.analyses
        } else {
            kinds
        };
        self.suite_pass(
            kinds,
            ltl,
            threads,
            transport,
            messages,
            &self.config.analysis,
        )
    }

    /// The analysis config for a finite recorded execution: every level
    /// is retained unless the config bounds the history.
    pub(crate) fn recorded_config(&self) -> AnalysisConfig {
        let history = self.config.analysis.history.unwrap_or(usize::MAX);
        self.config.analysis.with_history(history)
    }

    /// One LTL-only suite pass under `config`.
    pub(crate) fn ltl_pass(
        &self,
        monitor: Monitor,
        initial: &ProgramState,
        threads: usize,
        transport: Exactness,
        messages: impl IntoIterator<Item = Message>,
        config: &AnalysisConfig,
    ) -> StreamReport {
        let mut suite = self.suite_pass(
            &[AnalysisKind::Ltl],
            Some((monitor, initial)),
            threads,
            transport,
            messages,
            config,
        );
        match suite.reports.pop() {
            Some(AnalysisReport::Ltl(report)) => report,
            other => unreachable!("LTL-only suite produced {other:?}"),
        }
    }

    fn suite_pass(
        &self,
        kinds: &[AnalysisKind],
        ltl: Option<(Monitor, &ProgramState)>,
        threads: usize,
        transport: Exactness,
        messages: impl IntoIterator<Item = Message>,
        config: &AnalysisConfig,
    ) -> SuiteReport {
        let registry = &self.config.telemetry;
        let mut builder = SuiteBuilder::new(kinds, threads.max(1))
            .sync_vars(self.config.sync_vars.iter().copied())
            .config(config)
            .telemetry(registry);
        if let Some(tracer) = &self.config.tracer {
            builder = builder.tracer(tracer);
        }
        if let Some(pool) = self.shared_pool() {
            builder = builder.pool(pool);
        }
        let mut suite = builder.build(ltl);
        suite.push_all(messages);
        let report = suite.finish(transport);
        if report.satisfied() {
            registry.counter("observer.verdict.satisfied").inc();
        } else {
            registry.counter("observer.verdict.predicted").inc();
        }
        report
    }
}

/// Transport-fault accounting for one decoded and reassembled frame
/// stream: what the frame decoder recovered from and what the reassembler
/// had to give up on.
#[derive(Clone, Debug, Default)]
pub struct ResilienceSummary {
    /// The frame decoder's counters: frames ok, corrupt and resynced,
    /// bytes skipped, truncation.
    pub decode: ResilientDecode,
    /// What the causal reassembler saw: reorders, duplicates, skipped gaps.
    pub reassembly: jmpax_lattice::ReassemblyReport,
}

impl ResilienceSummary {
    /// The transport-loss rule: how far any verdict over this stream can
    /// be trusted. The reassembler's skipped gaps count, and so does every
    /// frame lost to corruption, a resync or truncation that reassembly
    /// could not see — a damaged frame at the end of a thread's stream
    /// leaves no later message to reveal the gap. A damaged stream
    /// therefore never yields [`Exactness::Exact`].
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        let d = &self.decode;
        let transport_lost = d.frames_corrupt + d.frames_resynced + u64::from(d.truncated);
        let unaccounted = transport_lost.saturating_sub(self.reassembly.messages_lost());
        self.reassembly
            .exactness()
            .combine(Exactness::degraded(0, unaccounted))
    }

    /// True when nothing was lost anywhere: the verdict is exact.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.exactness().is_exact()
    }
}

/// Runs the observer side over an encoded frame stream (the bytes a
/// [`jmpax_instrument::FrameSink`] or a live socket produced). Frames may
/// be reordered, duplicated, bit-flipped or missing: this decodes what
/// survives (CRC-validated frames, resynchronizing past garbage),
/// reassembles per-thread sequences (skipping gaps after `stall_budget`
/// subsequent arrivals), and analyzes the result in one pass like
/// [`Pipeline::check_execution`], full counterexample runs included. The
/// report's exactness folds in [`ResilienceSummary::exactness`]: an
/// undamaged stream yields an [`Exactness::Exact`] verdict. Pass a
/// `stall_budget` of at least the message count when delivery may be
/// arbitrarily shuffled, so no gap is given up while it can still fill.
///
/// Telemetry (when `registry` is enabled): `resilience.frames_corrupt`,
/// `resilience.frames_resynced`, `resilience.msgs_reordered`,
/// `resilience.msgs_duplicate`, `resilience.gaps_skipped`, stage latency
/// histograms `observer.stage.decode_ns` / `observer.stage.reassemble_ns`,
/// plus everything the monitor and analysis publish.
pub fn check_frames(
    frames: &bytes::Bytes,
    monitor: Monitor,
    initial: ProgramState,
    stall_budget: u64,
    registry: &Registry,
) -> (PipelineReport, ResilienceSummary) {
    let decode_span = registry.histogram("observer.stage.decode_ns").start_span();
    let mut decoder = ResilientFrameDecoder::new();
    let decoded = decoder.push(frames);
    let decode = decoder.finish();
    decode_span.finish();
    registry
        .counter("resilience.frames_corrupt")
        .add(decode.frames_corrupt);
    registry
        .counter("resilience.frames_resynced")
        .add(decode.frames_resynced);

    let reassemble_span = registry
        .histogram("observer.stage.reassemble_ns")
        .start_span();
    let mut reassembler = jmpax_lattice::Reassembler::with_stall_budget(stall_budget);
    reassembler.push_all(decoded);
    let (messages, reassembly) = reassembler.finish();
    reassemble_span.finish();
    reassembly.record(registry);
    let summary = ResilienceSummary { decode, reassembly };

    let report = conclude(
        &Pipeline::new(PipelineConfig::new().telemetry(registry)),
        monitor,
        initial,
        messages,
        Relevance::AllWrites,
        summary.exactness(),
        &mut TraceRing::disabled(),
    );
    (report, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::ThreadId;

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    /// Example 2 of the paper as a recorded execution.
    fn example2(symbols: &mut SymbolTable) -> Execution {
        let x = symbols.intern("x");
        let y = symbols.intern("y");
        let z = symbols.intern("z");
        let mut ex = Execution::new()
            .with_initial(x, -1)
            .with_initial(y, 0)
            .with_initial(z, 0);
        // Observed interleaving: x++ (T1); z=x+1 (T2); y=x+1 (T1); x++ (T2).
        ex.read(T1, x);
        ex.write(T1, x, 0);
        ex.read(T2, x);
        ex.write(T2, z, 1);
        ex.read(T1, x);
        ex.write(T1, y, 1);
        ex.read(T2, x);
        ex.write(T2, x, 1);
        ex
    }

    #[test]
    fn full_pipeline_on_example2() {
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let report = Pipeline::new(PipelineConfig::new())
            .check_execution(&ex, "(x > 0) -> [y = 0, y > z)", &mut syms)
            .unwrap();
        assert!(report.predicted());
        assert!(!report.observed(), "observed run is successful");
        assert!(report.is_prediction());
        assert_eq!(report.analysis.total_runs, 3);
        assert_eq!(report.analysis.violating_runs, 1);
        assert!(report.analysis.violations[0].is_full_run());
        assert_eq!(report.messages.len(), 4);
        // Relevance was derived from the formula: writes of x, y, z.
        assert!(matches!(report.relevance, Relevance::WritesOf(ref s) if s.len() == 3));
    }

    #[test]
    fn observability_pipeline_records_all_lanes() {
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let tracer = jmpax_trace::Tracer::enabled();
        let registry = Registry::enabled();
        let report = Pipeline::new(PipelineConfig::new().telemetry(&registry).tracer(&tracer))
            .check_execution(&ex, "(x > 0) -> [y = 0, y > z)", &mut syms)
            .unwrap();
        assert!(report.predicted());
        assert!(report.analysis.completed);
        assert_eq!(report.analysis.violations.len(), 1);
        // One analysis pass: the lattice is counted once.
        let json = registry.snapshot().to_json();
        assert!(
            json.contains("\"lattice.states_explored\":{\"type\":\"counter\",\"value\":7}"),
            "{json}"
        );

        let data = tracer.collect();
        let lanes: Vec<&str> = data.lanes.iter().map(|l| l.lane.as_str()).collect();
        for lane in ["observer", "core", "lattice"] {
            assert!(lanes.contains(&lane), "missing lane {lane}: {lanes:?}");
        }
        let stages: Vec<&str> = data
            .lanes
            .iter()
            .filter(|l| l.lane == "observer")
            .flat_map(|l| &l.events)
            .filter_map(|r| match r.kind {
                jmpax_trace::TraceKind::Stage { name } => Some(name),
                _ => None,
            })
            .collect();
        for stage in ["spec", "instrument", "jpax", "analysis"] {
            assert!(stages.contains(&stage), "missing stage {stage}: {stages:?}");
        }
        // The lattice lane must carry sealed levels: one per write message.
        let sealed = data
            .lanes
            .iter()
            .filter(|l| l.lane == "lattice")
            .flat_map(|l| &l.events)
            .filter(|r| matches!(r.kind, jmpax_trace::TraceKind::LevelSealed { .. }))
            .count();
        assert_eq!(sealed, 4);
        // And the causal DAG over traced messages obeys Theorem 3.
        let msgs = data.causal_messages();
        for e in jmpax_trace::causal_edges(&msgs) {
            let from = msgs
                .iter()
                .find(|m| (m.thread, m.seq) == (e.from.0, e.from.1))
                .unwrap();
            let to = msgs
                .iter()
                .find(|m| (m.thread, m.seq) == (e.to.0, e.to.1))
                .unwrap();
            assert!(from.causally_precedes(to));
        }
    }

    #[test]
    fn spec_errors_are_reported() {
        let mut syms = SymbolTable::new();
        let ex = Execution::new();
        assert!(matches!(
            Pipeline::new(PipelineConfig::new()).check_execution(&ex, "x >", &mut syms),
            Err(PipelineError::Spec(_))
        ));
    }

    #[test]
    fn parallel_pipeline_matches_sequential_bit_for_bit() {
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let spec = "(x > 0) -> [y = 0, y > z)";
        let seq = Pipeline::new(PipelineConfig::new())
            .check_execution(&ex, spec, &mut syms)
            .unwrap();
        let mut syms2 = SymbolTable::new();
        let ex2 = example2(&mut syms2);
        let par = Pipeline::new(
            PipelineConfig::new().analysis(
                AnalysisConfig::default()
                    .with_parallelism(8)
                    .with_shard_granularity(1),
            ),
        )
        .check_execution(&ex2, spec, &mut syms2)
        .unwrap();
        assert_eq!(format!("{:?}", seq.analysis), format!("{:?}", par.analysis));
        assert_eq!(seq.messages, par.messages);
        assert_eq!(seq.observed_violation, par.observed_violation);
    }

    #[test]
    fn parallel_pipeline_reuses_one_pool_across_calls() {
        // A parallel pipeline spawns its expansion pool lazily and keeps it
        // across check_execution calls; every call must produce the same
        // verdict.
        let tracer = jmpax_trace::Tracer::enabled();
        let pipeline = Pipeline::new(
            PipelineConfig::new()
                .tracer(&tracer)
                .analysis(AnalysisConfig::default().with_parallelism(4).with_shard_granularity(1)),
        );
        let spec = "(x > 0) -> [y = 0, y > z)";
        for _ in 0..3 {
            let mut syms = SymbolTable::new();
            let ex = example2(&mut syms);
            let report = pipeline.check_execution(&ex, spec, &mut syms).unwrap();
            assert!(report.predicted());
            assert!(report.analysis.completed);
            assert_eq!(report.analysis.violations.len(), 1);
        }
    }

    /// Example 2's messages and the checker for its property.
    fn example2_messages() -> (Vec<Message>, Monitor, ProgramState) {
        let mut syms = SymbolTable::new();
        let ex = example2(&mut syms);
        let monitor = parse("(x > 0) -> [y = 0, y > z)", &mut syms)
            .unwrap()
            .monitor()
            .unwrap();
        let vars: Vec<_> = ["x", "y", "z"]
            .iter()
            .map(|n| syms.lookup(n).unwrap())
            .collect();
        let messages = ex.instrument(Relevance::writes_of(vars));
        (
            messages,
            monitor,
            ProgramState::from_map(ex.initial.clone()),
        )
    }

    /// Encodes `messages` and returns the stream with each frame's offset.
    fn frames(messages: &[Message]) -> (bytes::BytesMut, Vec<usize>) {
        let mut buf = bytes::BytesMut::new();
        let mut offsets = Vec::new();
        for m in messages {
            offsets.push(buf.len());
            jmpax_instrument::encode_frame_v2(m, &mut buf);
        }
        (buf, offsets)
    }

    #[test]
    fn frame_sink_stream_is_exact_and_predicts() {
        use jmpax_instrument::{EventSink, FrameSink};

        let (messages, monitor, initial) = example2_messages();
        let sink = FrameSink::new();
        let mut w = sink.clone();
        for m in &messages {
            w.emit(m);
        }
        let (report, summary) = check_frames(
            &sink.take_bytes(),
            monitor,
            initial,
            8,
            &Registry::disabled(),
        );
        assert!(summary.is_clean());
        assert_eq!(summary.decode.frames_ok, messages.len() as u64);
        assert!(report.exactness().is_exact());
        assert!(report.predicted());
        assert_eq!(report.analysis.total_runs, 3);
        assert_eq!(report.analysis.violating_runs, 1);
        assert_eq!(report.messages, messages);
    }

    #[test]
    fn resilient_survives_a_corrupt_frame_and_reports_degraded() {
        let (messages, monitor, initial) = example2_messages();
        let (mut buf, offsets) = frames(&messages);
        // Flip a payload bit in the second frame: its CRC fails, the frame
        // is dropped, and the reassembler must skip the resulting gap.
        buf[offsets[1] + 12] ^= 0x01;
        let registry = Registry::enabled();
        let (report, summary) = check_frames(&buf.freeze(), monitor, initial, 2, &registry);
        assert!(!summary.is_clean());
        assert_eq!(summary.decode.frames_corrupt, 1);
        assert_eq!(summary.decode.frames_ok as usize, messages.len() - 1);
        assert_eq!(summary.reassembly.skipped_gaps(), 1);
        assert!(!report.exactness().is_exact());
        assert_eq!(report.messages.len(), messages.len() - 1);
        let json = registry.snapshot().to_json();
        assert!(
            json.contains("\"resilience.frames_corrupt\":{\"type\":\"counter\",\"value\":1}"),
            "{json}"
        );
        assert!(
            json.contains("\"resilience.gaps_skipped\":{\"type\":\"counter\",\"value\":1}"),
            "{json}"
        );
    }

    #[test]
    fn tail_losses_degrade_the_verdict() {
        // The last frame is thread 2's last message: losing it leaves no
        // later message to reveal a gap, so only the transport-loss rule
        // stands between the damage and an Exact verdict.
        let (messages, monitor, initial) = example2_messages();
        let (clean, offsets) = frames(&messages);
        let last = offsets[offsets.len() - 1];
        let corrupt_payload = {
            let mut b = clean.to_vec();
            b[last + 12] ^= 0x01;
            b
        };
        let damaged_header = {
            let mut b = clean.to_vec();
            b[last] ^= 0x01;
            b
        };
        let cut_mid_frame = clean[..clean.len() - 3].to_vec();
        for (name, stream) in [
            ("corrupt last frame", corrupt_payload),
            ("last header damaged", damaged_header),
            ("cut mid-frame", cut_mid_frame),
        ] {
            let (report, summary) = check_frames(
                &bytes::Bytes::from(stream),
                monitor.clone(),
                initial.clone(),
                8,
                &Registry::disabled(),
            );
            assert_eq!(summary.reassembly.skipped_gaps(), 0, "{name}");
            assert_eq!(summary.exactness(), Exactness::degraded(0, 1), "{name}");
            assert_eq!(report.exactness(), Exactness::degraded(0, 1), "{name}");
            assert_eq!(report.messages.len(), messages.len() - 1, "{name}");
        }
    }

    #[test]
    fn an_unplaceable_frame_degrades_the_verdict() {
        use jmpax_core::{Event, VectorClock};

        let mut syms = SymbolTable::new();
        let x = syms.intern("x");
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let mut initial = ProgramState::new();
        initial.set(x, 0);
        // A CRC-valid frame carrying thread 1's write x = -1 with clock
        // [1]: thread 1's own component is 0, so the message has no place
        // in its sequence and must not vanish under an Exact verdict.
        let mut buf = bytes::BytesMut::new();
        jmpax_instrument::encode_frame_v2(
            &Message {
                event: Event::write(T2, x, -1i64),
                clock: VectorClock::from_components(vec![1]),
            },
            &mut buf,
        );
        let (report, summary) =
            check_frames(&buf.freeze(), monitor, initial, 8, &Registry::disabled());
        assert_eq!(summary.decode.frames_corrupt, 1);
        assert!(!summary.is_clean());
        assert!(!report.exactness().is_exact());
    }

    #[test]
    fn garbage_is_degraded_not_an_error() {
        let mut syms = SymbolTable::new();
        let monitor = parse("true", &mut syms).unwrap().monitor().unwrap();
        let bytes = bytes::Bytes::from_static(&[1, 2, 3]);
        let (report, summary) = check_frames(
            &bytes,
            monitor,
            ProgramState::new(),
            8,
            &Registry::disabled(),
        );
        assert_eq!(summary.decode.bytes_skipped, 3);
        assert!(report.messages.is_empty());
        assert!(!report.exactness().is_exact());
    }
}
