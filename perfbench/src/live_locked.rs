//! `live-locked`: a live program of two `std` threads on an instrumented
//! `Session`. Each iteration writes a private `Shared` (irrelevant), then
//! `lock m; x = x + 1; unlock`. Writes of `x` are relevant and stream as
//! they are emitted through a `TcpFrameSink` on one connection to an
//! in-process daemon; sessions run back to back. Algorithm A runs inline
//! on every access and the lattice is a chain.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jmpax_core::{
    AnalysisKind, Event, Message, MvcInstrumentor, Relevance, SymbolTable, Value, VarId,
};
use jmpax_instrument::{EventSink, Session, SessionHello, Shared, TcpFrameSink};
use jmpax_observer::ServerHandle;
use jmpax_spec::{parse, ProgramState};

use crate::harness::{judge_line, observe_metrics, run_loops, spawn_daemon, Metrics, Sample};
use crate::layers::{encode, observe, probe_layers, Answer, Check, ObserveTotals, Outcome, Probe};
use crate::schedule::{interleave, Op};
use crate::spans::{Spans, PROBE};
use crate::util::{median, Rng};
use crate::{setup_s, timed_setup, trace_metrics, RunOut};

/// Program threads, as many as the host's two cores.
pub const PROGRAM_THREADS: usize = 2;
/// Loop iterations per thread and session.
pub const ITERATIONS: usize = 8000;
/// Instrumented operations per iteration: private write, lock, read,
/// write, unlock.
pub const OPS_PER_ITERATION: usize = 5;
/// Instrumented operations of one program run.
const OPS: usize = PROGRAM_THREADS * ITERATIONS * OPS_PER_ITERATION;
pub const SPEC: &str = "x >= 0";
/// Variables in `VarId` order: the counter, the lock, the privates.
pub const NAMES: [&str; 4] = ["x", "m", "p0", "p1"];
const X: VarId = VarId(0);
const M: VarId = VarId(1);

fn relevance() -> Relevance {
    Relevance::writes_of([X])
}

/// Where the program's frames go: the daemon connection, shared so the
/// client can take it back to finish the session. When traced, the time
/// spent in the sink and a copy of every message are kept.
#[derive(Clone)]
struct ToDaemon {
    sink: Arc<Mutex<Option<TcpFrameSink>>>,
    traced: bool,
    sink_ns: Arc<AtomicU64>,
    copy: Arc<Mutex<Vec<Message>>>,
}

impl EventSink for ToDaemon {
    fn emit(&mut self, message: &Message) {
        let start = self.traced.then(Instant::now);
        if let Some(sink) = self.sink.lock().expect("unpoisoned").as_mut() {
            sink.emit(message);
        }
        if let Some(start) = start {
            self.sink_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.copy.lock().expect("unpoisoned").push(message.clone());
        }
    }
}

/// Private-write values of thread `t`: a seeded base plus the iteration.
fn private_base(seed: u64, t: usize) -> i64 {
    (Rng::derive(seed, 7 + t as u64).next_u64() % 1_000_000) as i64
}

/// Runs the program once on `session`; returns the final `x` and the
/// program's wall time in ns.
fn program(seed: u64, session: &Session) -> (i64, f64) {
    let x = session.shared(NAMES[0], 0i64);
    let m = session.mutex(NAMES[1], ());
    let privates: Vec<Shared<i64>> = (0..PROGRAM_THREADS)
        .map(|t| session.shared(NAMES[2 + t], 0i64))
        .collect();
    let start = Instant::now();
    let handles: Vec<_> = privates
        .into_iter()
        .enumerate()
        .map(|(t, p)| {
            let (x, m) = (x.clone(), m.clone());
            let base = private_base(seed, t);
            session.spawn(move |ctx| {
                for i in 0..ITERATIONS as i64 {
                    p.write(ctx, base + i);
                    let mut guard = m.lock(ctx);
                    let v = x.read(guard.ctx());
                    x.write(guard.ctx(), v + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("program thread panicked");
    }
    let ns = start.elapsed().as_nanos() as f64;
    (x.peek(), ns)
}

pub struct Inputs {
    pub seed: u64,
    pub check: Check,
    pub reference: Answer,
    pub hello: SessionHello,
    /// The loop's events on a seeded interleaving, and Algorithm A's
    /// messages of them, in execution order.
    pub events: Vec<Event>,
    pub messages: Vec<Message>,
}

fn monitor_and_initial() -> (jmpax_spec::Monitor, ProgramState) {
    let mut symbols = SymbolTable::new();
    for n in NAMES {
        symbols.intern(n);
    }
    let monitor = parse(SPEC, &mut symbols)
        .expect("spec parses")
        .monitor()
        .expect("spec compiles");
    let initial = ProgramState::from_map(
        (0..NAMES.len())
            .map(|i| (VarId(i as u32), Value::Int(0)))
            .collect(),
    );
    (monitor, initial)
}

/// The reference comes from a seeded interleaving of the same loop, run
/// offline through Algorithm A rather than live: the lock orders the
/// writes of `x` the same way on every interleaving, so the answer is
/// every live run's, and set-up does not wait on the OS scheduler.
pub fn inputs(seed: u64) -> Inputs {
    let events = events(seed);
    let mut instr = MvcInstrumentor::new(PROGRAM_THREADS, relevance());
    let messages: Vec<Message> = events.iter().filter_map(|e| instr.process(e)).collect();
    assert_eq!(
        messages.last().and_then(Message::written_value),
        Some(Value::Int((PROGRAM_THREADS * ITERATIONS) as i64)),
        "no lost update"
    );
    let check = Check {
        threads: PROGRAM_THREADS,
        kinds: vec![AnalysisKind::Ltl],
        ltl: Some(monitor_and_initial()),
        sync_vars: vec![M],
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
        tenant: "live-locked".to_string(),
        threads: PROGRAM_THREADS as u32,
        frontier_cap: 0,
        analyses: Vec::new(),
        vars: NAMES
            .iter()
            .map(|n| (n.to_string(), Value::Int(0)))
            .collect(),
    };
    Inputs {
        seed,
        check,
        reference,
        hello,
        events,
        messages,
    }
}

/// One session as its client saw it, plus what the traced run needs.
pub struct Live {
    pub sample: Sample,
    pub sink_ns: f64,
    pub frames: u64,
}

/// Connects, runs the program streaming to the daemon, waits for the
/// verdict; checks `x == 2K` as well as the verdict.
fn session(
    inputs: &Inputs,
    addr: SocketAddr,
    s: u64,
    spans: &mut Spans,
    totals: &mut ObserveTotals,
) -> Live {
    let t0 = Instant::now();
    let root = spans.push("session", "client", spans.now(), 0, None, s);
    let failed = |t0: Instant| Live {
        sample: Sample {
            outcome: Outcome::Failed,
            session_ms: t0.elapsed().as_secs_f64() * 1e3,
            lag_ms: 0.0,
            messages: 0,
            program_ns_per_op: None,
        },
        sink_ns: 0.0,
        frames: 0,
    };
    let start = spans.now();
    let Ok(sink) = TcpFrameSink::connect(addr, &inputs.hello) else {
        spans.end(root);
        return failed(t0);
    };
    spans.close("connect", "serve", start, root, s);
    let to_daemon = ToDaemon {
        sink: Arc::new(Mutex::new(Some(sink))),
        traced: spans.enabled(),
        sink_ns: Arc::new(AtomicU64::new(0)),
        copy: Arc::new(Mutex::new(Vec::new())),
    };
    let start = spans.now();
    let session = Session::with_sink(relevance(), Box::new(to_daemon.clone()));
    let (x, program_ns) = program(inputs.seed.wrapping_add(s), &session);
    let program_span = spans.close("program", "instrument", start, root, s);
    let program_end = Instant::now();
    let sink = to_daemon.sink.lock().expect("unpoisoned").take();
    let start = spans.now();
    let verdict = sink.map(TcpFrameSink::finish);
    let wait = spans.close("wait", "serve", start, root, s);
    let end = Instant::now();
    spans.end(root);
    let Some(Ok(line)) = verdict else {
        return failed(t0);
    };
    let mut outcome = judge_line(&line, &inputs.reference);
    if x != (PROGRAM_THREADS * ITERATIONS) as i64 {
        outcome = Outcome::Failed;
    }
    let copy = std::mem::take(&mut *to_daemon.copy.lock().expect("unpoisoned"));
    let frames = copy.len() as u64;
    let sink_ns = to_daemon.sink_ns.load(Ordering::Relaxed) as f64;
    if spans.enabled() {
        let sink_start = spans.spans[program_span.expect("traced")].start_ns;
        spans.push(
            "sink",
            "instrument",
            sink_start,
            sink_start + sink_ns as u64,
            program_span,
            s,
        );
        let bytes = encode(&copy);
        let o = observe(
            &bytes,
            &inputs.check,
            &inputs.check.pipeline(1),
            "lattice",
            spans,
            wait,
            s,
        );
        totals.add(&o);
    }
    Live {
        sample: Sample {
            outcome,
            session_ms: (end - t0).as_secs_f64() * 1e3,
            lag_ms: (end - program_end).as_secs_f64() * 1e3,
            messages: inputs.reference.messages,
            program_ns_per_op: Some(program_ns / OPS as f64),
        },
        sink_ns,
        frames,
    }
}

/// The same loop on `std::sync::Mutex` and plain cells: ns per operation.
fn raw_program(seed: u64) -> f64 {
    let x = Arc::new(std::sync::Mutex::new(0i64));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..PROGRAM_THREADS {
            let x = Arc::clone(&x);
            let base = private_base(seed, t);
            scope.spawn(move || {
                let mut private = 0i64;
                for i in 0..ITERATIONS as i64 {
                    private = std::hint::black_box(base + i);
                    let mut guard = x.lock().expect("unpoisoned");
                    *guard = std::hint::black_box(*guard) + 1;
                }
                std::hint::black_box(private);
            });
        }
    });
    start.elapsed().as_nanos() as f64 / OPS as f64
}

/// The loop's events on a seeded interleaving, for the offline probes.
fn events(seed: u64) -> Vec<Event> {
    interleave(
        &mut Rng::derive(seed, 3),
        PROGRAM_THREADS,
        ITERATIONS,
        &[M],
        |t, _| {
            vec![
                Op::Write(VarId(2 + t as u32)),
                Op::Acquire(0),
                Op::Read(X),
                Op::Increment(X),
                Op::Release(0),
            ]
        },
    )
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> RunOut {
    let mut setup = || (inputs(seed), spawn_daemon(SPEC));
    let mut discard = |(_, server): (Inputs, ServerHandle)| drop(server.stop());
    let ((inputs, server), before) = timed_setup(&mut setup, &mut discard);
    let addr = server.addr();
    let epoch = Instant::now();
    let mut totals = ObserveTotals::default();
    let mut sink_totals = (0.0, 0u64);
    let one = |s: u64, spans: &mut Spans| {
        let live = session(&inputs, addr, s, spans, &mut totals);
        if spans.enabled() {
            sink_totals.0 += live.sink_ns;
            sink_totals.1 += live.frames;
        }
        live.sample
    };
    let loops = run_loops(seconds, traced, epoch, one);
    drop(server.stop());
    let Some(untraced) = loops.untraced_half else {
        let setup_s = setup_s(before, &mut setup, &mut discard);
        return RunOut::untraced(&loops.timed, setup_s);
    };
    let mut result = loops.timed;
    let per_op = result.program_ns_per_op();
    let mut m = Metrics::default();
    let detail = trace_metrics(&mut m, &untraced, &result);
    observe_metrics(&mut m, &totals);
    m.put(
        "serve.connect_ms",
        median(&result.spans.durations_ms("connect")),
        "ms",
    );
    m.put("serve.overhead_ms", result.spans.overhead_ms(), "ms");
    let (sink_ns, frames) = sink_totals;
    let program_ns = result.spans.total_ns("program");
    m.put("instrument.ns_per_op", per_op, "ns");
    m.put(
        "instrument.sink_ns_per_frame",
        sink_ns / frames.max(1) as f64,
        "ns",
    );
    m.put(
        "instrument.sink_share",
        sink_ns / program_ns.max(1.0),
        "share",
    );
    let mut probes = Spans::new(epoch, true);
    let start = probes.now();
    let raw: Vec<f64> = (0..5).map(|_| raw_program(seed)).collect();
    probes.close("std_mutex_loop", "instrument", start, None, PROBE);
    m.put("instrument.raw_ns_per_op", median(&raw), "ns");
    probe_layers(
        &mut m,
        &mut probes,
        &Probe {
            events: &inputs.events,
            threads: PROGRAM_THREADS,
            relevance: &relevance(),
            messages: &inputs.messages,
            sync_vars: &[M],
            ltl: &inputs.check,
            lattice_messages: &inputs.messages,
        },
    );
    result.spans.merge(probes);
    RunOut::traced(&untraced, result, m, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_a_chain_of_every_increment() {
        let a = inputs(9);
        assert_eq!(a.reference.messages, (PROGRAM_THREADS * ITERATIONS) as u64);
        assert!(a.reference.satisfied);
        let b = inputs(9);
        assert_eq!((&a.events, &a.messages), (&b.events, &b.messages));
        let c = inputs(10);
        assert_ne!(a.events, c.events);
        assert_eq!(a.reference, c.reference);
        assert_eq!(
            events(9).len(),
            PROGRAM_THREADS * ITERATIONS * OPS_PER_ITERATION
        );
    }
}
