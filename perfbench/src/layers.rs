//! Calls into each layer, timed from the benchmark: the observer's
//! decode → reassemble → pipeline sequence (as the `serve` worker runs
//! it), and the per-layer probes of the traced run.

use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;
use jmpax_core::{AnalysisKind, Event, EventKind, Message, MvcInstrumentor, Relevance, VarId};
use jmpax_instrument::{encode_frame_v2, EventSink, ResilientFrameDecoder, Session, Shared};
use jmpax_lattice::{Exactness, Reassembler, ReassemblyReport, SuiteReport};
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_spec::{Monitor, ProgramState};

use crate::spans::{Spans, PROBE};
use crate::util::ns_since;

/// Bytes per socket read in the daemon's reader loop; the observer is fed
/// in chunks of this size.
pub const CHUNK: usize = 8192;

/// What the observer is asked to check.
#[derive(Clone)]
pub struct Check {
    pub threads: usize,
    pub kinds: Vec<AnalysisKind>,
    pub ltl: Option<(Monitor, ProgramState)>,
    pub sync_vars: Vec<VarId>,
    /// Frontier cap of the lattice (`0` = explore every cut).
    pub frontier_cap: usize,
}

impl Check {
    pub fn pipeline(&self, workers: usize) -> Pipeline {
        Pipeline::new(
            PipelineConfig::new()
                .sync_vars(self.sync_vars.iter().copied())
                .parallelism(workers)
                .frontier_cap(self.frontier_cap),
        )
    }

    pub fn run(
        &self,
        pipeline: &Pipeline,
        transport: Exactness,
        messages: Vec<Message>,
    ) -> SuiteReport {
        pipeline.check_stream_suite(
            &self.kinds,
            self.ltl.as_ref().map(|(m, s)| (m.clone(), s)),
            self.threads,
            transport,
            messages,
        )
    }
}

/// A verdict's comparable content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub satisfied: bool,
    /// `(analysis, satisfied, findings)` in selection order.
    pub per_analysis: Vec<(AnalysisKind, bool, u64)>,
    pub findings: u64,
    pub messages: u64,
}

impl Answer {
    pub fn of(suite: &SuiteReport, messages: u64) -> Self {
        Self {
            satisfied: suite.satisfied(),
            per_analysis: suite
                .reports
                .iter()
                .map(|r| (r.kind(), r.satisfied(), r.findings()))
                .collect(),
            findings: suite.findings(),
            messages,
        }
    }
}

/// How one session ended, judged against the workload's reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Exact,
    Degraded,
    Failed,
}

/// Judges an exact-or-not answer: an Exact answer must equal the reference.
pub fn judge(exact: bool, answer: &Answer, reference: &Answer) -> Outcome {
    match (exact, answer == reference) {
        (true, true) => Outcome::Exact,
        (true, false) => Outcome::Failed,
        (false, _) => Outcome::Degraded,
    }
}

/// One pass of the observer over a session's wire bytes.
pub struct Observed {
    pub exact: bool,
    pub answer: Answer,
    pub frames_ok: u64,
    pub frames_corrupt: u64,
    pub frames_resynced: u64,
    pub reassembly: ReassemblyReport,
    pub decode_ns: f64,
    pub reassemble_ns: f64,
    pub pipeline_ns: f64,
    /// Span-clock time at which the last byte was pushed.
    pub last_push_ns: u64,
}

/// Runs the `serve` worker's sequence in-process: resilient incremental
/// decode in [`CHUNK`]-byte pushes, Theorem-3 reassembly, then the
/// pipeline's analysis suite, folding transport losses into exactness
/// exactly as the daemon does. Records `decode`, `reassemble` and
/// `pipeline` spans under `parent`; the chunked stages get one span each
/// whose duration is the sum of their chunk calls.
pub fn observe(
    bytes: &[u8],
    check: &Check,
    pipeline: &Pipeline,
    pipeline_layer: &'static str,
    spans: &mut Spans,
    parent: Option<usize>,
    session: u64,
) -> Observed {
    let start = spans.now();
    let mut decoder = ResilientFrameDecoder::new();
    let mut reassembler = Reassembler::new();
    let (mut decode_ns, mut reassemble_ns) = (0.0, 0.0);
    for chunk in bytes.chunks(CHUNK) {
        let t = Instant::now();
        let messages = decoder.push(chunk);
        decode_ns += ns_since(t);
        let t = Instant::now();
        reassembler.push_all(messages);
        reassemble_ns += ns_since(t);
    }
    let last_push_ns = spans.now();
    let t = Instant::now();
    let decoded = decoder.finish();
    decode_ns += ns_since(t);
    let t = Instant::now();
    let (messages, reassembly) = reassembler.finish();
    reassemble_ns += ns_since(t);
    let transport_lost =
        decoded.frames_corrupt + decoded.frames_resynced + u64::from(decoded.truncated);
    let unaccounted = transport_lost.saturating_sub(reassembly.messages_lost());
    let transport = reassembly
        .exactness()
        .combine(Exactness::degraded(0, unaccounted));
    let count = messages.len() as u64;
    let t = Instant::now();
    let pipe_start = spans.now();
    let suite = check.run(pipeline, transport, messages);
    let pipeline_ns = ns_since(t);
    spans.push(
        "decode",
        "codec",
        start,
        start + decode_ns as u64,
        parent,
        session,
    );
    spans.push(
        "reassemble",
        "reassemble",
        start,
        start + reassemble_ns as u64,
        parent,
        session,
    );
    spans.close("pipeline", pipeline_layer, pipe_start, parent, session);
    Observed {
        exact: suite.exactness().is_exact(),
        answer: Answer::of(&suite, count),
        frames_ok: decoded.frames_ok,
        frames_corrupt: decoded.frames_corrupt,
        frames_resynced: decoded.frames_resynced,
        reassembly,
        decode_ns,
        reassemble_ns,
        pipeline_ns,
        last_push_ns,
    }
}

/// v2 frames of `messages`, in order.
pub fn encode(messages: &[Message]) -> Vec<u8> {
    let mut out = BytesMut::new();
    for m in messages {
        encode_frame_v2(m, &mut out);
    }
    out[..].to_vec()
}

/// Sums of what the observer passes of a traced run saw.
#[derive(Default)]
pub struct ObserveTotals {
    pub sessions: u64,
    pub frames: u64,
    pub frames_corrupt: u64,
    pub frames_resynced: u64,
    pub received: u64,
    pub reordered: u64,
    pub duplicates: u64,
    pub gaps_skipped: u64,
    pub late_dropped: u64,
    pub decode_ns: f64,
    pub reassemble_ns: f64,
    pub pipeline_ns: f64,
    /// Findings per analysis, summed over sessions.
    pub findings: Vec<(AnalysisKind, u64)>,
}

impl ObserveTotals {
    pub fn add(&mut self, o: &Observed) {
        self.sessions += 1;
        self.frames += o.frames_ok;
        self.frames_corrupt += o.frames_corrupt;
        self.frames_resynced += o.frames_resynced;
        self.received += o.reassembly.received;
        self.reordered += o.reassembly.reordered;
        self.duplicates += o.reassembly.duplicates;
        self.gaps_skipped += o.reassembly.skipped_gaps();
        self.late_dropped += o.reassembly.late_dropped;
        self.decode_ns += o.decode_ns;
        self.reassemble_ns += o.reassemble_ns;
        self.pipeline_ns += o.pipeline_ns;
        for &(kind, _, n) in &o.answer.per_analysis {
            match self.findings.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, total)) => *total += n,
                None => self.findings.push((kind, n)),
            }
        }
    }

    /// Per-session mean of a summed count.
    pub fn per_session(&self, total: u64) -> f64 {
        total as f64 / self.sessions.max(1) as f64
    }
}

/// Repeats `f` until at least `min_ns` have passed (and at least once),
/// returning `(total ns, repetitions)`.
pub fn repeat_for(min_ns: f64, mut f: impl FnMut()) -> (f64, u64) {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        f();
        reps += 1;
        let ns = ns_since(start);
        if ns >= min_ns {
            return (ns, reps);
        }
    }
}

/// Algorithm A over `events`: `(ns per event, share of events relevant)`.
pub fn probe_core(
    events: &[Event],
    threads: usize,
    relevance: &Relevance,
    spans: &mut Spans,
) -> (f64, f64) {
    let start = spans.now();
    let mut relevant = 0u64;
    let (ns, reps) = repeat_for(50e6, || {
        let mut instr = MvcInstrumentor::new(threads, relevance.clone());
        relevant = 0;
        for e in events {
            if let Some(m) = instr.process(e) {
                relevant += 1;
                black_box(m);
            }
        }
    });
    spans.close("algorithm_a", "core", start, None, PROBE);
    let n = events.len().max(1) as f64;
    (ns / (reps as f64 * n), relevant as f64 / n)
}

/// A sink that discards messages, so a probe times instrumentation only.
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, message: &Message) {
        black_box(message);
    }
}

/// The instrumentation library over `events` replayed on one OS thread:
/// each event becomes a [`Shared`] read or write by its thread's context.
/// Returns `(instrumented ns per op, ns per op on std::sync::Mutex)`.
pub fn probe_instrument(
    events: &[Event],
    threads: usize,
    relevance: &Relevance,
    spans: &mut Spans,
) -> (f64, f64) {
    let vars = events
        .iter()
        .filter_map(|e| e.var())
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    let start = spans.now();
    let (ns, reps) = repeat_for(50e6, || {
        let session = Session::with_sink(relevance.clone(), Box::new(NullSink));
        let shared: Vec<Shared<i64>> = (0..vars)
            .map(|v| session.shared(&format!("v{v}"), 0))
            .collect();
        let mut ctxs: Vec<_> = (0..threads).map(|_| session.register_thread()).collect();
        for e in events {
            let ctx = &mut ctxs[e.thread.index()];
            match e.kind {
                EventKind::Read { var } => {
                    black_box(shared[var.index()].read(ctx));
                }
                EventKind::Write { var, value } => shared[var.index()].write(ctx, value.as_int()),
                EventKind::Internal => ctx.internal_event(),
            }
        }
    });
    spans.close("shared_access", "instrument", start, None, PROBE);
    let per_op = ns / (reps as f64 * events.len().max(1) as f64);
    let raw = probe_raw(events, vars);
    (per_op, raw)
}

/// The same replay on plain `std::sync::Mutex<i64>` cells: the base the
/// instrumentation overhead is measured against.
fn probe_raw(events: &[Event], vars: usize) -> f64 {
    let (ns, reps) = repeat_for(20e6, || {
        let cells: Vec<std::sync::Mutex<i64>> =
            (0..vars).map(|_| std::sync::Mutex::new(0)).collect();
        for e in events {
            match e.kind {
                EventKind::Read { var } => {
                    black_box(*cells[var.index()].lock().expect("unpoisoned"));
                }
                EventKind::Write { var, value } => {
                    *cells[var.index()].lock().expect("unpoisoned") = value.as_int();
                }
                EventKind::Internal => {}
            }
        }
    });
    ns / (reps as f64 * events.len().max(1) as f64)
}

/// `encode_frame_v2` over `messages`: `(ns per frame, bytes per frame)`.
pub fn probe_encode(messages: &[Message], spans: &mut Spans) -> (f64, f64) {
    let start = spans.now();
    let mut bytes = 0;
    let (ns, reps) = repeat_for(30e6, || {
        let mut out = BytesMut::new();
        for m in messages {
            encode_frame_v2(m, &mut out);
        }
        bytes = out.len();
        black_box(out);
    });
    spans.close("encode", "codec", start, None, PROBE);
    let n = messages.len().max(1) as f64;
    (ns / (reps as f64 * n), bytes as f64 / n)
}

/// `Monitor::step` over the observed run's states (the in-order prefix
/// states of `messages`): ns per step.
pub fn probe_spec(
    monitor: &Monitor,
    initial: &ProgramState,
    messages: &[Message],
    spans: &mut Spans,
) -> f64 {
    let mut states = Vec::with_capacity(messages.len());
    let mut state = initial.clone();
    for m in messages {
        if let (Some(var), Some(value)) = (m.var(), m.written_value()) {
            state.set(var, value);
            states.push(state.clone());
        }
    }
    let start = spans.now();
    let (ns, reps) = repeat_for(30e6, || {
        let (mut memory, _) = monitor.initial(initial);
        for s in &states {
            let (next, ok) = monitor.step(memory, s);
            memory = next;
            black_box(ok);
        }
    });
    spans.close("monitor_step", "spec", start, None, PROBE);
    ns / (reps as f64 * states.len().max(1) as f64)
}

/// Race and atomicity checking over `messages`, alone and as a suite.
pub struct AnalysesProbe {
    pub race_ns_per_access: f64,
    pub atomicity_ns_per_access: f64,
    pub suite_ns_per_message: f64,
    pub races_found: u64,
    pub atomicity_found: u64,
    pub transactions: u64,
    pub sync_transfers: u64,
}

pub fn probe_analyses(
    messages: &[Message],
    threads: usize,
    sync_vars: &[VarId],
    spans: &mut Spans,
) -> AnalysesProbe {
    let check = |kinds: &[AnalysisKind]| Check {
        threads,
        kinds: kinds.to_vec(),
        ltl: None,
        sync_vars: sync_vars.to_vec(),
        frontier_cap: 0,
    };
    let time = |check: &Check, spans: &mut Spans, name: &'static str| {
        let pipeline = check.pipeline(1);
        let start = spans.now();
        let mut report = None;
        let (ns, reps) = repeat_for(20e6, || {
            report = Some(check.run(&pipeline, Exactness::Exact, messages.to_vec()));
        });
        spans.close(name, "analyses", start, None, PROBE);
        (ns / reps as f64, report.expect("ran at least once"))
    };
    let (race_ns, race) = time(&check(&[AnalysisKind::Race]), spans, "race");
    let (atom_ns, atom) = time(&check(&[AnalysisKind::Atomicity]), spans, "atomicity");
    let (suite_ns, _) = time(
        &check(&[AnalysisKind::Race, AnalysisKind::Atomicity]),
        spans,
        "race+atomicity",
    );
    let race = race.reports[0].as_race().expect("race report").clone();
    let atom = atom.reports[0]
        .as_atomicity()
        .expect("atomicity report")
        .clone();
    AnalysesProbe {
        race_ns_per_access: race_ns / race.accesses_checked.max(1) as f64,
        atomicity_ns_per_access: atom_ns / atom.accesses_checked.max(1) as f64,
        suite_ns_per_message: suite_ns / messages.len().max(1) as f64,
        races_found: race.races_found,
        atomicity_found: atom.violations_found,
        transactions: atom.transactions,
        sync_transfers: race.sync_transfers,
    }
}

/// The LTL lattice over `messages` with `workers` expansion threads:
/// `(ns per lattice node, report of the last pass)`.
pub fn probe_lattice(
    check: &Check,
    messages: &[Message],
    workers: usize,
    spans: &mut Spans,
) -> (f64, jmpax_lattice::StreamReport) {
    let check = Check {
        kinds: vec![AnalysisKind::Ltl],
        ..check.clone()
    };
    let pipeline = check.pipeline(workers);
    let start = spans.now();
    let mut report = None;
    let (ns, reps) = repeat_for(200e6, || {
        let mut suite = check.run(&pipeline, Exactness::Exact, messages.to_vec());
        report = suite.reports.pop();
    });
    spans.close(
        if workers > 1 {
            "expand_w2"
        } else {
            "expand_w1"
        },
        "lattice",
        start,
        None,
        PROBE,
    );
    let report = report
        .and_then(|r| r.as_ltl().cloned())
        .expect("an LTL report");
    let per_node = ns / (reps as f64 * report.states_explored.max(1) as f64);
    (per_node, report)
}

/// The layer probes every workload shares, on its own in-order messages.
pub struct Probe<'a> {
    pub events: &'a [Event],
    pub threads: usize,
    pub relevance: &'a Relevance,
    pub messages: &'a [Message],
    pub sync_vars: &'a [VarId],
    /// The LTL check whose lattice and monitor are probed.
    pub ltl: &'a Check,
    /// The messages the lattice probe explores.
    pub lattice_messages: &'a [Message],
}

/// Puts the core, codec-encode, spec, analyses and lattice probe metrics;
/// returns Algorithm A's ns per event.
pub fn probe_layers(m: &mut crate::harness::Metrics, spans: &mut Spans, p: &Probe) -> f64 {
    let (core_ns, relevant) = probe_core(p.events, p.threads, p.relevance, spans);
    m.put("core.ns_per_event", core_ns, "ns");
    m.put("core.relevant_share", relevant, "share");
    let (encode_ns, bytes) = probe_encode(p.messages, spans);
    m.put("codec.encode_ns_per_frame", encode_ns, "ns");
    m.put("codec.bytes_per_frame", bytes, "B");
    let (monitor, initial) = p.ltl.ltl.as_ref().expect("an LTL check");
    m.put(
        "spec.ns_per_step",
        probe_spec(monitor, initial, p.lattice_messages, spans),
        "ns",
    );
    let a = probe_analyses(p.messages, p.threads, p.sync_vars, spans);
    m.put("analyses.race_ns_per_access", a.race_ns_per_access, "ns");
    m.put(
        "analyses.atomicity_ns_per_access",
        a.atomicity_ns_per_access,
        "ns",
    );
    m.put(
        "analyses.suite_ns_per_message",
        a.suite_ns_per_message,
        "ns",
    );
    m.put("analyses.races_found", a.races_found as f64, "count");
    m.put(
        "analyses.atomicity_found",
        a.atomicity_found as f64,
        "count",
    );
    m.put("analyses.transactions", a.transactions as f64, "count");
    m.put("analyses.sync_transfers", a.sync_transfers as f64, "count");
    let (w1, report) = probe_lattice(p.ltl, p.lattice_messages, 1, spans);
    let (w2, _) = probe_lattice(p.ltl, p.lattice_messages, 2, spans);
    m.put("lattice.ns_per_node", w1, "ns");
    m.put("lattice.ns_per_node_w2", w2, "ns");
    m.put("lattice.states", report.states_explored as f64, "count");
    m.put("lattice.levels", f64::from(report.levels_built), "count");
    m.put(
        "lattice.peak_frontier",
        report.peak_frontier as f64,
        "count",
    );
    core_ns
}
