//! End-to-end and per-layer benchmark of jmpax.
//!
//! ```text
//! jmpax-perfbench --workload <wide-ltl|stream-suite|live-locked> --seed N
//!                 --seconds S --trace <0|1> [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line before
//! it carries the host fingerprint and what the metrics rest on. A traced
//! run also writes its spans to `DIR/spans-<workload>-<seed>.json`.
//! See `NOTES.md` for the workloads and what each metric should move.

mod harness;
mod layers;
mod live_locked;
mod schedule;
mod spans;
mod stream_suite;
mod util;
mod wide_ltl;

use std::process::ExitCode;
use std::time::Instant;

use harness::{Calibrations, LoopResult, Metrics};
use layers::Outcome;
use spans::Spans;
use util::{median, Fingerprint};

/// What one run of a workload produced.
pub struct RunOut {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// JSON object of what the metrics rest on.
    pub detail: String,
    pub spans: Option<Spans>,
}

impl RunOut {
    /// A `--trace 0` run: the end-to-end metrics of the timed window.
    pub fn untraced(result: &LoopResult, (setup_s, raw_setup_s): (f64, f64)) -> Self {
        let (metrics, detail) = result.end_to_end(setup_s, raw_setup_s);
        Self {
            attempted: result.samples.len(),
            failed: result.count(Outcome::Failed),
            metrics,
            detail,
            spans: None,
        }
    }

    /// A `--trace 1` run: the per-layer metrics, with the sessions of both
    /// halves judged.
    pub fn traced(
        untraced: &LoopResult,
        result: LoopResult,
        metrics: Metrics,
        detail: String,
    ) -> Self {
        Self {
            attempted: untraced.samples.len() + result.samples.len(),
            failed: untraced.count(Outcome::Failed) + result.count(Outcome::Failed),
            metrics,
            detail,
            spans: Some(result.spans),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Set-ups per batch: at least [`MIN_SETUPS`], and more, up to
/// [`MAX_SETUPS`], while the batch has taken under [`SETUP_BUDGET_S`], so
/// that a quick set-up's median rests on many samples. A run sets up in a
/// batch before its timed window and (untraced runs) in another after it,
/// sampling the host's speed at both ends of the run; `setup_s` is the
/// median of all of these set-up times, each scaled to the reference host
/// speed by the calibration kernel run just before and just after it.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_BUDGET_S: f64 = 1.5;

/// Set-up times in seconds: scaled to the reference host speed, and as
/// measured.
#[derive(Default)]
pub struct SetupTimes {
    scaled: Vec<f64>,
    raw: Vec<f64>,
}

/// Sets up one batch, keeping the last set-up: returns it with each
/// set-up's time.
pub fn timed_setup<T>(setup: &mut dyn FnMut() -> T, discard: &mut dyn FnMut(T)) -> (T, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut last = None;
    let begin = Instant::now();
    let mut calibrations = Calibrations::default();
    calibrations.take(begin);
    while times.raw.len() < MIN_SETUPS
        || (times.raw.len() < MAX_SETUPS && begin.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        if let Some(old) = last.take() {
            discard(old);
        }
        let start = begin.elapsed().as_secs_f64();
        last = Some(setup());
        let end = begin.elapsed().as_secs_f64();
        calibrations.take(begin);
        times.raw.push(end - start);
        times
            .scaled
            .push((end - start) * calibrations.factor(start, end));
    }
    (last.expect("set up at least once"), times)
}

/// `setup_s` of an untraced run, scaled and as measured: sets up one more
/// batch after the timed window, discarding it, and returns the medians
/// of its set-up times and the `before` batch's.
pub fn setup_s<T>(
    mut before: SetupTimes,
    setup: &mut dyn FnMut() -> T,
    discard: &mut dyn FnMut(T),
) -> (f64, f64) {
    let (last, after) = timed_setup(setup, discard);
    discard(last);
    before.scaled.extend(after.scaled);
    before.raw.extend(after.raw);
    (median(&before.scaled), median(&before.raw))
}

/// The traced run's overhead metrics: traced vs untraced session p50,
/// and the part of the traced p50 no layer's self time accounts for.
pub fn trace_metrics(m: &mut Metrics, untraced: &LoopResult, traced: &LoopResult) -> String {
    let (u, t) = (untraced.session_p50(), traced.session_p50());
    m.put("trace.session_ms_p50", t, "ms");
    m.put("trace.overhead_share", t / u - 1.0, "share");
    let by_layer = traced.spans.self_ms_by_layer();
    let unaccounted = by_layer.get("client").copied().unwrap_or(0.0);
    let accounted: f64 = by_layer
        .iter()
        .filter(|(layer, _)| **layer != "client")
        .map(|(_, ms)| ms)
        .sum();
    m.put("trace.unaccounted_ms", t - accounted, "ms");
    let mut detail = format!(
        "{{\"untraced_session_ms_p50\":{u},\"traced_session_ms_p50\":{t},\"client_self_ms\":{unaccounted},\"self_ms\":{{"
    );
    for (i, (layer, ms)) in by_layer.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        detail.push_str(&format!("\"{layer}\":{ms}"));
    }
    detail.push_str("}}");
    let share = |o| traced.count(o) as f64 / traced.samples.len().max(1) as f64;
    m.put("observer.degraded_share", share(Outcome::Degraded), "share");
    m.put("observer.failed_share", share(Outcome::Failed), "share");
    detail
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jmpax-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::measure();
    let run = match args.workload.as_str() {
        "wide-ltl" => wide_ltl::run(args.seed, args.seconds, args.trace),
        "stream-suite" => stream_suite::run(args.seed, args.seconds, args.trace),
        "live-locked" => live_locked::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("jmpax-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = &run.spans {
        let path = format!("{}/spans-{}-{}.json", args.out, args.workload, args.seed);
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, spans.to_json()));
        if let Err(e) = written {
            eprintln!("jmpax-perfbench: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"detail\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fingerprint.to_json(),
        run.detail
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        run.metrics.to_json()
    );
    ExitCode::SUCCESS
}
