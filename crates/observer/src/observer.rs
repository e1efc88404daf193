//! The observer's conclusion over a finite recorded message stream.
//!
//! Every recorded-execution entry point —
//! [`crate::Pipeline::check_execution`], [`crate::Pipeline::check_messages`]
//! and [`crate::check_frames`] — ends here: one streaming pass of the
//! analysis suite over the messages (in any order; the suite's causal
//! buffer repairs it), with every lattice level retained so violations
//! carry full counterexample runs, plus the JPaX-style check of the
//! observed run that tells a *predicted* violation from an observed one.

use jmpax_core::{Message, Relevance};
use jmpax_lattice::{Exactness, StreamReport};
use jmpax_spec::{Monitor, ProgramState};
use jmpax_trace::{TraceKind, TraceRing};

use crate::pipeline::Pipeline;

/// The end-to-end result of checking a recorded execution.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// The predictive analysis over every consistent run: run counts,
    /// violations and their counterexample runs, exactness.
    pub analysis: StreamReport,
    /// Index of the first violating state on the *observed* run (what a
    /// JPaX-style single-trace monitor reports), if any.
    pub observed_violation: Option<usize>,
    /// Messages emitted by the instrumentation (for further analysis).
    pub messages: Vec<Message>,
    /// The relevance policy derived from the specification.
    pub relevance: Relevance,
}

impl PipelineReport {
    /// Shorthand: predictive analysis found violating runs.
    #[must_use]
    pub fn predicted(&self) -> bool {
        !self.analysis.satisfied()
    }

    /// Shorthand: the observed run itself violated.
    #[must_use]
    pub fn observed(&self) -> bool {
        self.observed_violation.is_some()
    }

    /// True when the violation was predicted from a successful observed
    /// run — the paper's headline capability.
    #[must_use]
    pub fn is_prediction(&self) -> bool {
        self.predicted() && !self.observed()
    }

    /// How much the verdict can be trusted: [`Exactness::Exact`] when every
    /// message arrived and every run was explored, degraded otherwise.
    #[must_use]
    pub fn exactness(&self) -> Exactness {
        self.analysis.exactness
    }
}

/// Checks `monitor` against every run of the recorded `messages` and
/// against the observed run (the messages' order), folding `transport`
/// losses into the verdict. Records the `jpax` and `analysis` stages on
/// `ring` and in the pipeline's registry.
pub(crate) fn conclude(
    pipeline: &Pipeline,
    monitor: Monitor,
    initial: ProgramState,
    messages: Vec<Message>,
    relevance: Relevance,
    transport: Exactness,
    ring: &mut TraceRing,
) -> PipelineReport {
    let registry = pipeline.registry();
    let jpax_start = ring.span_start();
    let observed_violation = {
        let _span = registry.histogram("observer.stage.jpax_ns").start_span();
        crate::jpax::observed_violation(&monitor, &initial, &messages)
    };
    ring.record_span(TraceKind::Stage { name: "jpax" }, jpax_start);

    let analysis_start = ring.span_start();
    let threads = messages
        .iter()
        .map(|m| m.thread().index() + 1)
        .max()
        .unwrap_or(1);
    let analysis = {
        let _span = registry
            .histogram("observer.stage.analysis_ns")
            .start_span();
        pipeline.ltl_pass(
            monitor,
            &initial,
            threads,
            transport,
            messages.iter().cloned(),
            &pipeline.recorded_config(),
        )
    };
    ring.record_span(TraceKind::Stage { name: "analysis" }, analysis_start);

    if observed_violation.is_some() {
        registry.counter("observer.verdict.observed").inc();
    }
    PipelineReport {
        analysis,
        observed_violation,
        messages,
        relevance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmpax_core::{Event, MvcInstrumentor, SymbolTable, ThreadId};
    use jmpax_spec::parse;

    const T1: ThreadId = ThreadId(0);
    const T2: ThreadId = ThreadId(1);

    fn fig6() -> (Vec<Message>, Monitor, ProgramState) {
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

    fn check(msgs: Vec<Message>, monitor: Monitor, init: ProgramState) -> PipelineReport {
        Pipeline::default().check_messages(monitor, init, msgs)
    }

    #[test]
    fn predicts_from_successful_observed_run() {
        let (msgs, monitor, init) = fig6();
        let report = check(msgs, monitor, init);
        assert!(report.predicted());
        assert!(report.is_prediction(), "observed run was successful");
        assert_eq!(report.analysis.violating_runs, 1);
        assert_eq!(report.analysis.total_runs, 3);
        // A recorded execution keeps every level: the run is complete.
        let v = &report.analysis.violations[0];
        assert!(v.is_full_run());
        assert_eq!(v.event_count(), 4);
    }

    #[test]
    fn out_of_order_delivery_same_verdict() {
        let (mut msgs, monitor, init) = fig6();
        msgs.reverse();
        let report = check(msgs, monitor, init);
        assert_eq!(report.analysis.violating_runs, 1);
        assert!(report.exactness().is_exact());
    }

    #[test]
    fn gaps_are_visible() {
        let (msgs, monitor, init) = fig6();
        // Deliver only the causally-last message: it can never be placed,
        // so the empty computation is analyzed — one trivial run — and the
        // verdict says a message was lost.
        let report = check(vec![msgs[3].clone()], monitor, init);
        assert!(!report.predicted());
        assert_eq!(report.analysis.total_runs, 1);
        assert_eq!(report.exactness().losses(), (0, 1));
    }

    #[test]
    fn satisfied_verdict() {
        let mut syms = SymbolTable::new();
        let monitor = parse("x >= 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(1, Relevance::writes_of([x]));
        let m = a.process(&Event::write(T1, x, 5)).unwrap();
        let report = check(vec![m], monitor, ProgramState::new());
        assert!(!report.predicted());
        assert!(!report.is_prediction());
    }

    #[test]
    fn observed_violation_is_not_a_prediction() {
        // Property x = 0 violated by the observed write itself.
        let mut syms = SymbolTable::new();
        let monitor = parse("x = 0", &mut syms).unwrap().monitor().unwrap();
        let x = syms.lookup("x").unwrap();
        let mut a = MvcInstrumentor::new(1, Relevance::writes_of([x]));
        let m = a.process(&Event::write(T1, x, 5)).unwrap();
        let report = check(vec![m], monitor, ProgramState::new());
        assert!(report.predicted());
        assert!(report.observed());
        assert!(!report.is_prediction());
    }
}
