//! `stream-suite`: 16 logical threads on a seeded schedule, each
//! iteration a lock-protected read-modify-write under one of two locks
//! plus one unprotected write. Algorithm A runs offline with every access
//! relevant; the frames pass a seeded `ChaosSink` (2 % duplicates, reorder
//! window 8, no loss or corruption); each session then runs the `serve`
//! worker's sequence in-process — decode, reassembly, race + atomicity
//! suite with the lock variables as sync vars. The lattice does no work.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use jmpax_core::{
    AnalysisKind, Event, Message, MvcInstrumentor, Relevance, SymbolTable, Value, VarId,
};
use jmpax_instrument::{ChaosConfig, ChaosSink, EventSink, SessionHello};
use jmpax_spec::{parse, ProgramState};

use crate::harness::{observe_metrics, parse_verdict, run_loops, spawn_daemon, Metrics, Sample};
use crate::layers::{
    judge, observe, probe_instrument, probe_layers, Answer, Check, ObserveTotals, Outcome, Probe,
};
use crate::schedule::{interleave, Op};
use crate::spans::Spans;
use crate::util::{median, ns_since, Rng};
use crate::{setup_s, timed_setup, trace_metrics, RunOut};

pub const THREADS: usize = 16;
/// Iterations per thread: 16 × 750 × 5 operations = 60 000 messages.
pub const ITERATIONS: usize = 750;
/// Distinct chaos streams; session `s` replays stream `s % VARIANTS`.
pub const VARIANTS: u64 = 4;
pub const NAMES: [&str; 5] = ["m0", "m1", "c0", "c1", "u"];
const LOCKS: [VarId; 2] = [VarId(0), VarId(1)];
const COUNTERS: [VarId; 2] = [VarId(2), VarId(3)];
const UNPROTECTED: VarId = VarId(4);

/// The chaos the frames pass through: duplicates and bounded reordering,
/// nothing lost or damaged.
pub fn chaos(seed: u64, variant: u64) -> ChaosConfig {
    ChaosConfig {
        seed: Rng::derive(seed, 1000 + variant).next_u64(),
        dup_rate: 0.02,
        reorder_window: 8,
        ..ChaosConfig::default()
    }
}

pub struct Inputs {
    pub events: Vec<Event>,
    /// Algorithm A's messages in execution order (the clean stream).
    pub messages: Vec<Message>,
    /// Wire bytes of each chaos variant.
    pub variants: Vec<Vec<u8>>,
    pub check: Check,
    /// The answer on the clean stream, which an Exact session must give.
    pub reference: Answer,
    /// Exactness and answer of the observer on each chaos variant. The
    /// bytes and their reassembly are deterministic, so every session on
    /// a variant must give its reference, Degraded or not.
    pub variant_refs: Vec<(bool, Answer)>,
}

pub fn events(seed: u64, threads: usize, iterations: usize) -> Vec<Event> {
    interleave(
        &mut Rng::derive(seed, 0),
        threads,
        iterations,
        &LOCKS,
        |_, l| {
            vec![
                Op::Acquire(l),
                Op::Read(COUNTERS[l]),
                Op::Increment(COUNTERS[l]),
                Op::Release(l),
                Op::Write(UNPROTECTED),
            ]
        },
    )
}

pub fn check() -> Check {
    Check {
        threads: THREADS,
        kinds: vec![AnalysisKind::Race, AnalysisKind::Atomicity],
        ltl: None,
        sync_vars: LOCKS.to_vec(),
        frontier_cap: 0,
    }
}

pub fn inputs(seed: u64, iterations: usize) -> Inputs {
    let events = events(seed, THREADS, iterations);
    let (messages, _) = program(&events);
    let variants: Vec<Vec<u8>> = (0..VARIANTS)
        .map(|v| {
            let mut sink = ChaosSink::new(chaos(seed, v));
            for m in &messages {
                sink.emit(m);
            }
            sink.take_bytes().to_vec()
        })
        .collect();
    let check = check();
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
    let pipeline = check.pipeline(1);
    let mut spans = Spans::new(Instant::now(), false);
    let variant_refs = variants
        .iter()
        .map(|bytes| {
            let o = observe(bytes, &check, &pipeline, "analyses", &mut spans, None, 0);
            (o.exact, o.answer)
        })
        .collect();
    Inputs {
        events,
        messages,
        variants,
        check,
        reference,
        variant_refs,
    }
}

/// Runs the program offline — Algorithm A over its events, every access
/// relevant — returning the messages and the ns per event of the median
/// 8 192-event block, which a preempted block does not skew.
pub fn program(events: &[Event]) -> (Vec<Message>, f64) {
    let mut instr = MvcInstrumentor::new(THREADS, Relevance::Everything);
    let mut messages = Vec::with_capacity(events.len());
    let blocks: Vec<f64> = events
        .chunks(8192)
        .map(|block| {
            let start = Instant::now();
            messages.extend(block.iter().filter_map(|e| instr.process(e)));
            ns_since(start) / block.len() as f64
        })
        .collect();
    (messages, median(&blocks))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> RunOut {
    let mut setup = || inputs(seed, ITERATIONS);
    let (inputs, before) = timed_setup(&mut setup, &mut drop);
    let epoch = Instant::now();
    let mut totals = ObserveTotals::default();
    let one = |s: u64, spans: &mut Spans| {
        // The program runs before the session clock starts; its messages
        // must be the ones the chaos streams were made from.
        let (messages, program_ns) = program(&inputs.events);
        let same_program = messages == inputs.messages;
        drop(messages);
        let variant = (s % VARIANTS) as usize;
        let bytes = &inputs.variants[variant];
        let pipeline = inputs.check.pipeline(1);
        let t0 = Instant::now();
        let root = spans.push("session", "client", spans.now(), 0, None, s);
        let o = observe(bytes, &inputs.check, &pipeline, "analyses", spans, root, s);
        let end_ns = spans.now();
        let session_ms = t0.elapsed().as_secs_f64() * 1e3;
        spans.end(root);
        if spans.enabled() {
            totals.add(&o);
        }
        let (ref_exact, ref_answer) = &inputs.variant_refs[variant];
        let outcome = if same_program && o.exact == *ref_exact && o.answer == *ref_answer {
            judge(o.exact, &o.answer, &inputs.reference)
        } else {
            Outcome::Failed
        };
        Sample {
            outcome,
            session_ms,
            lag_ms: end_ns.saturating_sub(o.last_push_ns) as f64 / 1e6,
            messages: o.answer.messages,
            program_ns_per_op: Some(program_ns),
        }
    };
    let loops = run_loops(seconds, traced, epoch, one);
    let Some(untraced) = loops.untraced_half else {
        let setup_s = setup_s(before, &mut setup, &mut drop);
        return RunOut::untraced(&loops.timed, setup_s);
    };
    let mut result = loops.timed;
    let mut m = Metrics::default();
    let trace_detail = trace_metrics(&mut m, &untraced, &result);
    observe_metrics(&mut m, &totals);

    let mut probes = Spans::new(epoch, true);
    let daemon = serve_probe(&inputs, &mut probes);
    m.put("serve.connect_ms", daemon.connect_ms, "ms");
    m.put("serve.overhead_ms", daemon.overhead_ms, "ms");

    let relevance = Relevance::Everything;
    let (instr_ns, raw_ns) = probe_instrument(&inputs.events, THREADS, &relevance, &mut probes);
    let start = Instant::now();
    let mut sink = ChaosSink::new(chaos(seed, 0));
    for msg in &inputs.messages {
        sink.emit(msg);
    }
    let sink_ns = ns_since(start) / inputs.messages.len() as f64;
    let lattice_check = lattice_probe_check();
    let prefix = &inputs.messages[..LATTICE_PREFIX.min(inputs.messages.len())];
    let core_ns = probe_layers(
        &mut m,
        &mut probes,
        &Probe {
            events: &inputs.events,
            threads: THREADS,
            relevance: &relevance,
            messages: &inputs.messages,
            sync_vars: &LOCKS,
            ltl: &lattice_check,
            lattice_messages: prefix,
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
    let findings = |per: &mut dyn Iterator<Item = (AnalysisKind, f64)>| {
        per.map(|(k, n)| format!("\"{}\":{n}", k.name()))
            .collect::<Vec<_>>()
            .join(",")
    };
    let detail = format!(
        "{{\"trace\":{trace_detail},\"findings_per_session\":{{{}}},\"reference_findings\":{{{}}},\"daemon_without_locks\":{{\"verdict\":\"{}\",\"findings\":{}}}}}",
        findings(&mut totals.findings.iter().map(|&(k, n)| (k, totals.per_session(n)))),
        findings(&mut inputs.reference.per_analysis.iter().map(|&(k, _, n)| (k, n as f64))),
        daemon.verdict,
        daemon.findings,
    );
    RunOut::traced(&untraced, result, m, detail)
}

/// Messages of the clean stream the lattice probe explores, and its
/// frontier cap: the full 16-thread lattice is far beyond reach, so the
/// probe measures the engine on a capped prefix of this workload's shape.
pub const LATTICE_PREFIX: usize = 2000;
pub const LATTICE_CAP: usize = 64;

fn lattice_probe_check() -> Check {
    let mut symbols = SymbolTable::new();
    for n in NAMES {
        symbols.intern(n);
    }
    let monitor = parse("c0 >= 0", &mut symbols)
        .expect("spec parses")
        .monitor()
        .expect("spec compiles");
    let initial = ProgramState::from_map(
        NAMES
            .iter()
            .enumerate()
            .map(|(i, _)| (VarId(i as u32), Value::Int(0)))
            .collect(),
    );
    Check {
        threads: THREADS,
        kinds: vec![AnalysisKind::Ltl],
        ltl: Some((monitor, initial)),
        sync_vars: Vec::new(),
        frontier_cap: LATTICE_CAP,
    }
}

/// Session numbers of the daemon probe, apart from the timed ones.
const PROBE_SESSIONS: u64 = 1 << 41;

struct DaemonProbe {
    connect_ms: f64,
    overhead_ms: f64,
    verdict: String,
    findings: u64,
}

/// Sends chaos stream 0 through a real daemon a few times, requesting
/// race + atomicity. The handshake cannot carry lock variables, so the
/// daemon checks without them; the in-process replay under each wait span
/// runs the same lock-free check, and the difference is the serve path's
/// own cost.
fn serve_probe(inputs: &Inputs, spans: &mut Spans) -> DaemonProbe {
    let server = spawn_daemon("c0 >= 0");
    let addr = server.addr();
    let hello = SessionHello {
        tenant: "stream-suite".to_string(),
        threads: THREADS as u32,
        frontier_cap: 0,
        analyses: vec![AnalysisKind::Race.code(), AnalysisKind::Atomicity.code()],
        vars: NAMES
            .iter()
            .map(|n| (n.to_string(), Value::Int(0)))
            .collect(),
    };
    let lockless = Check {
        sync_vars: Vec::new(),
        ..inputs.check.clone()
    };
    let bytes = &inputs.variants[0];
    let mut local = Spans::new(Instant::now(), true);
    let mut verdict = String::new();
    for s in 0..3 {
        verdict = raw_session(
            addr,
            &hello,
            bytes,
            &lockless,
            &mut local,
            PROBE_SESSIONS + s,
        )
        .unwrap_or_default();
    }
    drop(server.stop());
    let (verdict, findings) = parse_verdict(&verdict)
        .map_or(("Error".to_string(), 0), |(label, answer)| {
            (label, answer.findings)
        });
    let probe = DaemonProbe {
        connect_ms: median(&local.durations_ms("connect")),
        overhead_ms: local.overhead_ms(),
        verdict,
        findings,
    };
    spans.merge(local);
    probe
}

fn raw_session(
    addr: SocketAddr,
    hello: &SessionHello,
    body: &[u8],
    check: &Check,
    spans: &mut Spans,
    session: u64,
) -> std::io::Result<String> {
    let root = spans.push("session", "client", spans.now(), 0, None, session);
    let start = spans.now();
    let mut stream = TcpStream::connect(addr)?;
    spans.close("connect", "serve", start, root, session);
    let start = spans.now();
    stream.write_all(&hello.encode())?;
    stream.write_all(body)?;
    spans.close("send", "serve", start, root, session);
    let start = spans.now();
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    let wait = spans.close("wait", "serve", start, root, session);
    spans.end(root);
    observe(
        body,
        check,
        &check.pipeline(1),
        "analyses",
        spans,
        wait,
        session,
    );
    Ok(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_input_and_every_seed_one_shape() {
        let a = inputs(5, 40);
        let b = inputs(5, 40);
        let c = inputs(6, 40);
        assert_eq!(a.variants, b.variants);
        assert_eq!(a.reference, b.reference);
        assert_eq!(a.variant_refs, b.variant_refs);
        assert_ne!(a.variants, c.variants);
        assert_eq!(a.messages.len(), THREADS * 40 * 5);
        assert_eq!(c.messages.len(), a.messages.len());
        assert_eq!(a.reference.per_analysis.len(), 2);
    }

    #[test]
    fn chaos_keeps_every_frame() {
        let a = inputs(5, 40);
        let check = &a.check;
        let mut spans = Spans::new(Instant::now(), false);
        let o = observe(
            &a.variants[0],
            check,
            &check.pipeline(1),
            "analyses",
            &mut spans,
            None,
            0,
        );
        assert!(o.reassembly.duplicates > 0);
        assert_eq!(o.frames_corrupt, 0);
        assert_eq!(o.reassembly.received, o.frames_ok);
    }
}
