//! The closed loop, the daemon verdict check, and the metric sets every
//! workload reports.

use std::fmt::Write as _;
use std::time::Instant;

use jmpax_observer::{ServeConfig, Server, ServerHandle};

use crate::layers::{Answer, ObserveTotals, Outcome};
use crate::spans::Spans;
use crate::util::{calibration_ms, median, peak_rss_mb, percentile, tail};

/// Seconds of untimed sessions before the timed window, so the heap,
/// the daemon's threads and the caches are warm when timing starts.
pub const WARMUP_S: f64 = 3.0;

/// Session numbers of the warm-up and of the traced half, apart from the
/// untraced ones.
const WARMUP_SESSIONS: u64 = 1 << 40;
const TRACED_SESSIONS: u64 = 1 << 32;

/// One finished session as its client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub outcome: Outcome,
    pub session_ms: f64,
    /// From the last frame handed to the transport to the verdict.
    pub lag_ms: f64,
    /// Messages the verdict covers.
    pub messages: u64,
    /// Wall time per instrumented operation of the program run that
    /// produced the session's events (`None` when the session failed first).
    pub program_ns_per_op: Option<f64>,
}

/// The calibration kernel's time, in ms, on the host the bounds were set
/// on. End-to-end times are reported at this host speed: each measured
/// time is scaled by `CAL_REF_MS` over the kernel's time around it.
pub const CAL_REF_MS: f64 = 26.0;

/// Seconds of sessions between two runs of the calibration kernel.
pub const CAL_EVERY_S: f64 = 0.25;

/// Runs of the calibration kernel, as `(seconds since the loop started
/// at its midpoint, ms)`.
#[derive(Default)]
pub struct Calibrations(Vec<(f64, f64)>);

impl Calibrations {
    pub fn take(&mut self, start: Instant) {
        let t = start.elapsed().as_secs_f64();
        let ms = calibration_ms();
        self.0.push((t + ms / 2e3, ms));
    }

    fn last_end(&self) -> f64 {
        self.0
            .last()
            .map_or(f64::NEG_INFINITY, |&(t, ms)| t + ms / 2e3)
    }

    /// The factor that brings a time measured between `begin` and `end`
    /// to the reference host speed: [`CAL_REF_MS`] over the mean of the
    /// kernel runs just before and just after it.
    pub fn factor(&self, begin: f64, end: f64) -> f64 {
        let before = self
            .0
            .iter()
            .rev()
            .find(|c| c.0 <= begin)
            .or(self.0.first());
        let after = self.0.iter().find(|c| c.0 >= end).or(self.0.last());
        match (before, after) {
            (Some(b), Some(a)) => CAL_REF_MS / ((b.1 + a.1) / 2.0),
            _ => 1.0,
        }
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.0.iter().map(|c| c.1).collect::<Vec<_>>())
    }
}

/// Runs one closed-loop client for `seconds`: it starts its next session
/// only when the previous one has its verdict, numbering sessions from
/// `first_session` so that session inputs do not depend on timing. The
/// calibration kernel runs before the first session, between sessions
/// every [`CAL_EVERY_S`], and after the last.
fn closed_loop(
    seconds: f64,
    first_session: u64,
    epoch: Instant,
    traced: bool,
    run: &mut impl FnMut(u64, &mut Spans) -> Sample,
) -> LoopResult {
    let start = Instant::now();
    let mut spans = Spans::new(epoch, traced);
    let mut samples = Vec::new();
    let mut windows = Vec::new();
    let mut calibrations = Calibrations::default();
    calibrations.take(start);
    let mut session = first_session;
    while start.elapsed().as_secs_f64() < seconds {
        let begin = start.elapsed().as_secs_f64();
        samples.push(run(session, &mut spans));
        let end = start.elapsed().as_secs_f64();
        windows.push((begin, end));
        if end - calibrations.last_end() >= CAL_EVERY_S {
            calibrations.take(start);
        }
        session += 1;
    }
    if windows
        .last()
        .is_some_and(|w| w.1 > calibrations.last_end())
    {
        calibrations.take(start);
    }
    LoopResult {
        samples,
        windows,
        calibrations,
        spans,
    }
}

/// A run's loops after an untimed warm-up: one timed window with tracing
/// off, or (traced runs) an untraced half followed by a traced half, so
/// the two halves give the tracing overhead.
pub struct Loops {
    pub timed: LoopResult,
    pub untraced_half: Option<LoopResult>,
}

pub fn run_loops(
    seconds: f64,
    traced: bool,
    epoch: Instant,
    mut one: impl FnMut(u64, &mut Spans) -> Sample,
) -> Loops {
    let mut loop_for = |secs, first, traced| closed_loop(secs, first, epoch, traced, &mut one);
    drop(loop_for(WARMUP_S, WARMUP_SESSIONS, false));
    if !traced {
        return Loops {
            timed: loop_for(seconds, 0, false),
            untraced_half: None,
        };
    }
    let untraced = loop_for(seconds / 2.0, 0, false);
    Loops {
        timed: loop_for(seconds / 2.0, TRACED_SESSIONS, true),
        untraced_half: Some(untraced),
    }
}

/// Starts an in-process `serve` daemon on an ephemeral port.
pub fn spawn_daemon(spec: &str) -> ServerHandle {
    Server::bind(0, ServeConfig::new(spec))
        .expect("bind an ephemeral port")
        .spawn()
}

/// Reads the fields the benchmark checks from a daemon verdict line.
pub fn parse_verdict(line: &str) -> Option<(String, Answer)> {
    let label = field(line, "\"verdict\":\"")?
        .split('"')
        .next()?
        .to_string();
    let number = |key: &str| -> Option<u64> {
        field(line, key)?
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let satisfied = field(line, "\"satisfied\":")?.starts_with("true");
    let violations = number("\"violations\":")?;
    let messages = number("\"messages\":")?;
    Some((
        label,
        Answer {
            satisfied,
            per_analysis: Vec::new(),
            findings: violations,
            messages,
        },
    ))
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|i| &line[i + key.len()..])
}

/// Judges a daemon verdict line against the reference (per-analysis detail
/// is not on the LTL-only verdict line, so only the totals are compared).
pub fn judge_line(line: &str, reference: &Answer) -> Outcome {
    match parse_verdict(line) {
        Some((label, answer)) => {
            let same = answer.satisfied == reference.satisfied
                && answer.findings == reference.findings
                && answer.messages == reference.messages;
            match (label.as_str(), same) {
                ("Exact", true) => Outcome::Exact,
                ("Degraded", _) => Outcome::Degraded,
                _ => Outcome::Failed,
            }
        }
        None => Outcome::Failed,
    }
}

/// A named, unit-tagged measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push('}');
        out
    }
}

/// What one timed loop measured.
pub struct LoopResult {
    pub samples: Vec<Sample>,
    /// When each session ran, in seconds since the loop started.
    pub windows: Vec<(f64, f64)>,
    pub calibrations: Calibrations,
    pub spans: Spans,
}

impl LoopResult {
    pub fn count(&self, outcome: Outcome) -> usize {
        self.samples.iter().filter(|s| s.outcome == outcome).count()
    }

    /// Median session time as measured, before scaling.
    pub fn session_p50(&self) -> f64 {
        median(
            &self
                .samples
                .iter()
                .map(|s| s.session_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over sessions of the program's ns per operation.
    pub fn program_ns_per_op(&self) -> f64 {
        let v: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.program_ns_per_op)
            .collect();
        median(&v)
    }

    /// Each session's factor to the reference host speed.
    pub fn factors(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|&(begin, end)| self.calibrations.factor(begin, end))
            .collect()
    }

    /// The end-to-end metrics, plus a JSON object of what they rest on
    /// (tail percentiles, sample counts, verdict shares, the calibration
    /// and the same metrics as measured, before scaling). Every time is
    /// scaled to the reference host speed by its session's factor, and
    /// the rates are counted over the scaled session time.
    pub fn end_to_end(&self, setup_s: f64, raw_setup_s: f64) -> (Metrics, String) {
        let n = self.samples.len();
        let factors = self.factors();
        let scaled = |f: &dyn Fn(&Sample) -> Option<f64>| -> (Vec<f64>, Vec<f64>) {
            self.samples
                .iter()
                .zip(&factors)
                .filter_map(|(s, k)| f(s).map(|v| (v * k, v)))
                .unzip()
        };
        let (session, raw_session) = scaled(&|s| Some(s.session_ms));
        let (lag, raw_lag) = scaled(&|s| Some(s.lag_ms));
        let (program, raw_program) = scaled(&|s| s.program_ns_per_op);
        let busy: Vec<f64> = self.windows.iter().map(|w| w.1 - w.0).collect();
        let busy_s: f64 = busy.iter().zip(&factors).map(|(b, k)| b * k).sum();
        let raw_busy_s: f64 = busy.iter().sum();
        let messages = self.samples.iter().map(|s| s.messages).sum::<u64>() as f64;
        let metrics = |setup_s: f64, busy_s: f64, session: &[f64], lag: &[f64], program: &[f64]| {
            let mut m = Metrics::default();
            m.put("setup_s", setup_s, "s");
            m.put("sessions_per_s", n as f64 / busy_s, "1/s");
            m.put("events_per_s", messages / busy_s, "1/s");
            m.put("session_ms_p50", median(session), "ms");
            m.put("session_ms_tail", tail(session, 90.0).2, "ms");
            m.put("verdict_lag_ms_p50", median(lag), "ms");
            m.put("verdict_lag_ms_tail", tail(lag, 75.0).2, "ms");
            m.put("program_ns_per_op", median(program), "ns");
            m
        };
        let raw = metrics(
            raw_setup_s,
            raw_busy_s,
            &raw_session,
            &raw_lag,
            &raw_program,
        );
        let (sp, sbeyond, _) = tail(&session, 90.0);
        let (lp, lbeyond, _) = tail(&lag, 75.0);
        let share = |o| self.count(o) as f64 / n.max(1) as f64;
        let detail = format!(
            "{{\"sessions\":{n},\"peak_rss_mb\":{},\"session_ms_tail\":{{\"percentile\":{sp},\"samples_beyond\":{sbeyond}}},\"verdict_lag_ms_tail\":{{\"percentile\":{lp},\"samples_beyond\":{lbeyond}}},\"session_ms_p90\":{},\"degraded_share\":{},\"failed_share\":{},\"calibration\":{{\"ref_ms\":{CAL_REF_MS},\"runs\":{},\"median_ms\":{}}},\"as_measured\":{}}}",
            peak_rss_mb(),
            percentile(&session, 90.0),
            share(Outcome::Degraded),
            share(Outcome::Failed),
            self.calibrations.0.len(),
            self.calibrations.median_ms(),
            raw.to_json(),
        );
        (metrics(setup_s, busy_s, &session, &lag, &program), detail)
    }
}

/// Per-layer metrics that come from the observer passes of a traced run.
pub fn observe_metrics(m: &mut Metrics, t: &ObserveTotals) {
    let frames = t.frames.max(1) as f64;
    m.put("codec.decode_ns_per_frame", t.decode_ns / frames, "ns");
    m.put(
        "codec.frames_corrupt",
        t.per_session(t.frames_corrupt),
        "count",
    );
    m.put(
        "codec.frames_resynced",
        t.per_session(t.frames_resynced),
        "count",
    );
    m.put(
        "reassemble.ns_per_message",
        t.reassemble_ns / t.received.max(1) as f64,
        "ns",
    );
    m.put("reassemble.reordered", t.per_session(t.reordered), "count");
    m.put(
        "reassemble.duplicates",
        t.per_session(t.duplicates),
        "count",
    );
    m.put(
        "reassemble.gaps_skipped",
        t.per_session(t.gaps_skipped),
        "count",
    );
    m.put(
        "reassemble.late_dropped",
        t.per_session(t.late_dropped),
        "count",
    );
    m.put(
        "observer.pipeline_ms",
        t.pipeline_ns / 1e6 / t.sessions.max(1) as f64,
        "ms",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_is_scaled_by_the_kernel_runs_around_it() {
        let c = Calibrations(vec![(0.0, 20.0), (1.0, 30.0), (2.0, 52.0)]);
        assert_eq!(c.factor(0.1, 0.9), CAL_REF_MS / 25.0);
        assert_eq!(c.factor(1.2, 1.8), CAL_REF_MS / 41.0);
        assert_eq!(c.factor(0.5, 1.5), CAL_REF_MS / 36.0);
    }

    #[test]
    fn verdict_line_is_parsed() {
        let line = "{\"tenant\":\"t\",\"session\":3,\"verdict\":\"Exact\",\"satisfied\":true,\"violations\":0,\"frames_ok\":24,\"messages\":24}";
        let (label, answer) = parse_verdict(line).expect("parses");
        assert_eq!(label, "Exact");
        assert!(answer.satisfied);
        assert_eq!((answer.findings, answer.messages), (0, 24));
        assert_eq!(judge_line(line, &answer), Outcome::Exact);
        let wrong = Answer {
            messages: 23,
            ..answer
        };
        assert_eq!(judge_line(line, &wrong), Outcome::Failed);
        assert_eq!(
            judge_line("{\"verdict\":\"Error\"}", &wrong),
            Outcome::Failed
        );
    }
}
