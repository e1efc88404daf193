//! `wide-ltl`: a banded hypercube (8 threads × 3 rounds, no barriers)
//! sent as v2 frames, in a seeded order, to an in-process `serve` daemon
//! over one client connection at a time. Frontier expansion and the
//! monitor step dominate.

use std::net::SocketAddr;
use std::time::Instant;

use jmpax_bench::{banded_computation, BandedConfig};
use jmpax_core::{AnalysisKind, Event, Message, Relevance, SymbolTable, Value};
use jmpax_instrument::{EventSink, SessionHello, TcpFrameSink};
use jmpax_observer::ServerHandle;
use jmpax_spec::parse;

use crate::harness::{judge_line, observe_metrics, run_loops, spawn_daemon, Metrics, Sample};
use crate::layers::{
    encode, observe, probe_instrument, probe_layers, Answer, Check, ObserveTotals, Observed,
    Outcome, Probe,
};
use crate::spans::Spans;
use crate::util::{median, ns_since, Rng};
use crate::{setup_s, timed_setup, trace_metrics, RunOut};

pub const THREADS: usize = 8;
pub const ROUNDS: usize = 3;
/// Past-time, temporal, over two variables, and true on every
/// interleaving — so the whole lattice is explored.
pub const SPEC: &str = "start(v1 > 0) -> [v0 >= 0, v1 < 0)";

pub struct Inputs {
    pub seed: u64,
    /// The program's events, and Algorithm A's messages, in program order.
    pub events: Vec<Event>,
    pub messages: Vec<Message>,
    pub check: Check,
    pub reference: Answer,
    pub hello: SessionHello,
}

/// The banded hypercube: round `r` of thread `t` writes `v{t}`, values
/// counting up in program order, no barriers.
const CONFIG: BandedConfig = BandedConfig {
    threads: THREADS,
    rounds: ROUNDS,
    period: 0,
};

pub fn inputs(seed: u64) -> Inputs {
    let (messages, initial) = banded_computation(CONFIG);
    let events = messages.iter().map(|m| m.event).collect();

    // `v{THREADS}` is the generator's barrier variable, unused without
    // barriers but part of its initial state.
    let names: Vec<String> = (0..=THREADS).map(|t| format!("v{t}")).collect();
    let mut symbols = SymbolTable::new();
    for n in &names {
        symbols.intern(n);
    }
    let monitor = parse(SPEC, &mut symbols)
        .expect("spec parses")
        .monitor()
        .expect("spec compiles");
    let check = Check {
        threads: THREADS,
        kinds: vec![AnalysisKind::Ltl],
        ltl: Some((monitor, initial)),
        sync_vars: Vec::new(),
        frontier_cap: 0,
    };
    let suite = check.run(
        &check.pipeline(1),
        jmpax_lattice::Exactness::Exact,
        messages.clone(),
    );
    assert!(
        suite.exactness().is_exact(),
        "clean in-order input is exact"
    );
    let reference = Answer::of(&suite, messages.len() as u64);
    let hello = SessionHello {
        tenant: "wide-ltl".to_string(),
        threads: THREADS as u32,
        frontier_cap: 0,
        analyses: Vec::new(),
        vars: names.into_iter().map(|n| (n, Value::Int(0))).collect(),
    };
    Inputs {
        seed,
        events,
        messages,
        check,
        reference,
        hello,
    }
}

/// Passes of the 24-event program per session, so that its time is far
/// above the timer's resolution.
const PROGRAM_PASSES: usize = 64;

/// Runs the program offline — the banded computation through Algorithm A
/// — returning the messages and the ns per event.
pub fn program() -> (Vec<Message>, f64) {
    let start = Instant::now();
    let mut messages = Vec::new();
    for _ in 0..PROGRAM_PASSES {
        messages = banded_computation(CONFIG).0;
    }
    let ns = ns_since(start) / (PROGRAM_PASSES * messages.len()) as f64;
    (messages, ns)
}

/// The frame order of session `session`: a seeded permutation.
pub fn frame_order(seed: u64, session: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::derive(seed, session).shuffle(&mut order);
    order
}

/// The wire bytes (after the hello) of session `session`.
pub fn session_bytes(inputs: &Inputs, session: u64) -> Vec<u8> {
    let order = frame_order(inputs.seed, session, inputs.messages.len());
    let permuted: Vec<Message> = order.iter().map(|&i| inputs.messages[i].clone()).collect();
    encode(&permuted)
}

/// Runs one daemon session: the program (untimed by the session) produces
/// the messages; then connect, stream the frames in the session's order
/// through a [`TcpFrameSink`], wait for the verdict. When traced, replays
/// the same bytes in-process under the wait span.
pub fn session(
    inputs: &Inputs,
    addr: SocketAddr,
    session: u64,
    spans: &mut Spans,
) -> (Sample, Option<Observed>) {
    let (messages, program_ns) = program();
    let order = frame_order(inputs.seed, session, messages.len());
    let t0 = Instant::now();
    let root = spans.push("session", "client", spans.now(), 0, None, session);
    let start = spans.now();
    let failed = |t0: Instant| Sample {
        outcome: Outcome::Failed,
        session_ms: t0.elapsed().as_secs_f64() * 1e3,
        lag_ms: 0.0,
        messages: 0,
        program_ns_per_op: None,
    };
    let Ok(mut sink) = TcpFrameSink::connect(addr, &inputs.hello) else {
        spans.end(root);
        return (failed(t0), None);
    };
    spans.close("connect", "serve", start, root, session);
    let start = spans.now();
    for &i in &order {
        sink.emit(&messages[i]);
    }
    spans.close("send", "instrument", start, root, session);
    let last_frame = Instant::now();
    let start = spans.now();
    let verdict = sink.finish();
    let wait = spans.close("wait", "serve", start, root, session);
    let end = Instant::now();
    spans.end(root);
    let Ok(line) = verdict else {
        return (failed(t0), None);
    };
    let outcome = if messages == inputs.messages {
        judge_line(&line, &inputs.reference)
    } else {
        Outcome::Failed
    };
    let sample = Sample {
        outcome,
        session_ms: (end - t0).as_secs_f64() * 1e3,
        lag_ms: (end - last_frame).as_secs_f64() * 1e3,
        messages: messages.len() as u64,
        program_ns_per_op: Some(program_ns),
    };
    let replay = spans.enabled().then(|| {
        let bytes = session_bytes(inputs, session);
        observe(
            &bytes,
            &inputs.check,
            &inputs.check.pipeline(1),
            "lattice",
            spans,
            wait,
            session,
        )
    });
    (sample, replay)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> RunOut {
    let mut setup = || (inputs(seed), spawn_daemon(SPEC));
    let mut discard = |(_, server): (Inputs, ServerHandle)| drop(server.stop());
    let ((inputs, server), before) = timed_setup(&mut setup, &mut discard);
    let addr = server.addr();
    let epoch = Instant::now();
    let mut totals = ObserveTotals::default();
    let one = |s: u64, spans: &mut Spans| {
        let (sample, replay) = session(&inputs, addr, s, spans);
        if let Some(o) = replay {
            totals.add(&o);
        }
        sample
    };
    let loops = run_loops(seconds, traced, epoch, one);
    drop(server.stop());
    let Some(untraced) = loops.untraced_half else {
        let setup_s = setup_s(before, &mut setup, &mut discard);
        return RunOut::untraced(&loops.timed, setup_s);
    };
    let mut result = loops.timed;
    let mut m = Metrics::default();
    let detail = trace_metrics(&mut m, &untraced, &result);
    observe_metrics(&mut m, &totals);
    m.put(
        "serve.connect_ms",
        median(&result.spans.durations_ms("connect")),
        "ms",
    );
    m.put("serve.overhead_ms", result.spans.overhead_ms(), "ms");
    let frames = totals.frames.max(1) as f64;
    let sink_ns = result.spans.total_ns("send") / frames;
    let mut probes = Spans::new(epoch, true);
    let (instr_ns, raw_ns) =
        probe_instrument(&inputs.events, THREADS, &Relevance::AllWrites, &mut probes);
    let core_ns = probe_layers(
        &mut m,
        &mut probes,
        &Probe {
            events: &inputs.events,
            threads: THREADS,
            relevance: &Relevance::AllWrites,
            messages: &inputs.messages,
            sync_vars: &[],
            ltl: &inputs.check,
            lattice_messages: &inputs.messages,
        },
    );
    m.put("instrument.ns_per_op", instr_ns, "ns");
    m.put("instrument.raw_ns_per_op", raw_ns, "ns");
    m.put("instrument.sink_ns_per_frame", sink_ns, "ns");
    m.put(
        "instrument.sink_share",
        sink_ns / (sink_ns + core_ns),
        "share",
    );
    result.spans.merge(probes);
    RunOut::traced(&untraced, result, m, detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::probe_lattice;

    #[test]
    fn one_seed_one_input_and_every_seed_one_shape() {
        let a = inputs(11);
        let b = inputs(11);
        let c = inputs(12);
        for s in 0..4 {
            assert_eq!(session_bytes(&a, s), session_bytes(&b, s));
        }
        assert_ne!(session_bytes(&a, 0), session_bytes(&c, 0));
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.reference, c.reference);
        assert_eq!(a.messages.len(), THREADS * ROUNDS);
        assert!(a.reference.satisfied);
    }

    #[test]
    fn permuted_bytes_reassemble_to_the_reference() {
        let a = inputs(3);
        let check = &a.check;
        let mut spans = Spans::new(Instant::now(), false);
        let o = observe(
            &session_bytes(&a, 5),
            check,
            &check.pipeline(1),
            "lattice",
            &mut spans,
            None,
            5,
        );
        assert!(o.exact);
        assert_eq!(o.answer, a.reference);
        let (_, lattice) = probe_lattice(check, &a.messages, 1, &mut spans);
        assert_eq!(
            (lattice.states_explored, lattice.peak_frontier),
            (1 << 16, 8092)
        );
    }
}
