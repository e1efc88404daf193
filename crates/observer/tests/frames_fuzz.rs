//! Deterministic fuzzing of `check_frames`: Algorithm A's frames for small
//! random executions, delivered out of order with drops, garbage, bit
//! flips and truncation, with fixed seeds.
//!
//! The property is the soundness of `Exact`: a verdict over a stream in
//! which any delivered byte was damaged, or a message was lost where a
//! message that causally follows it arrived (a later message of its
//! thread, or of a thread that read what it wrote), is never `Exact`; a
//! stream with neither is `Exact` and agrees with the in-order analysis of
//! the same messages. (A message lost with nothing after it, cleanly on a
//! frame boundary, leaves nothing on the wire to detect.)
//!
//! `cargo test -p jmpax-observer --test frames_fuzz` runs 1 000 cases;
//! add `-- --ignored` for 10^5.

use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{Message, Relevance, SymbolTable};
use jmpax_observer::{check_frames, PipelineReport, ResilienceSummary};
use jmpax_spec::{parse, Monitor, ProgramState};
use jmpax_telemetry::Registry;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

struct Case {
    bytes: Vec<u8>,
    /// A byte that survived the cut was damaged, or the cut fell inside a
    /// frame or garbage run.
    damaged: bool,
    /// A message that did not arrive intact causally precedes one that
    /// did.
    lost: bool,
    /// Messages whose frames arrived intact, in execution order.
    intact: Vec<Message>,
    initial: ProgramState,
}

fn case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let ex = random_execution(RandomExecutionConfig {
        threads: rng.gen_range(1..=3),
        vars: 2,
        events: rng.gen_range(0..16),
        write_ratio: 0.7,
        internal_ratio: 0.0,
        seed: rng.next_u64(),
    });
    let messages = ex.instrument(Relevance::AllWrites);

    // Delivery order: drop a few messages, displace the rest by up to 3.
    let mut order: Vec<usize> = (0..messages.len())
        .filter(|_| !rng.gen_bool(0.05))
        .collect();
    for i in 0..order.len() {
        let j = (i + rng.gen_range(0..4)).min(order.len() - 1);
        order.swap(i, j);
    }

    // The wire: (end offset, damaged, message index) per frame or garbage
    // run.
    let mut bytes = Vec::new();
    let mut pieces = Vec::new();
    for &i in &order {
        if rng.gen_bool(0.05) {
            for _ in 0..rng.gen_range(1..16) {
                bytes.push(rng.next_u64() as u8);
            }
            pieces.push((bytes.len(), true, None));
        }
        let start = bytes.len();
        let mut frame = bytes::BytesMut::new();
        jmpax_instrument::encode_frame_v2(&messages[i], &mut frame);
        bytes.extend_from_slice(&frame);
        let flip = rng.gen_bool(0.05);
        if flip {
            let bit = rng.gen_range(0..frame.len() * 8);
            bytes[start + bit / 8] ^= 1 << (bit % 8);
        }
        pieces.push((bytes.len(), flip, Some(i)));
    }
    let cut = if rng.gen_bool(0.1) {
        rng.gen_range(0..=bytes.len())
    } else {
        bytes.len()
    };
    bytes.truncate(cut);

    let mut damaged = false;
    let mut arrived = vec![false; messages.len()];
    let mut start = 0;
    for &(end, piece_damaged, message) in &pieces {
        if start >= cut {
            break;
        }
        damaged |= piece_damaged || end > cut;
        if let (false, Some(i)) = (piece_damaged || end > cut, message) {
            arrived[i] = true;
        }
        start = end;
    }
    let lost = messages.iter().enumerate().any(|(i, m)| {
        !arrived[i]
            && messages
                .iter()
                .zip(&arrived)
                .any(|(n, &a)| a && m.causally_precedes(n))
    });
    let intact = messages
        .iter()
        .zip(&arrived)
        .filter(|&(_, &a)| a)
        .map(|(m, _)| m.clone())
        .collect();
    Case {
        bytes,
        damaged,
        lost,
        intact,
        initial: ProgramState::from_map(ex.initial.clone()),
    }
}

fn monitor() -> Monitor {
    let mut symbols = SymbolTable::new();
    symbols.intern("v0");
    symbols.intern("v1");
    parse("v0 <= v1", &mut symbols).unwrap().monitor().unwrap()
}

fn check(bytes: Vec<u8>, initial: &ProgramState) -> (PipelineReport, ResilienceSummary) {
    // No gap is given up while reordered frames may still fill it.
    check_frames(
        &bytes::Bytes::from(bytes),
        monitor(),
        initial.clone(),
        u64::MAX,
        &Registry::disabled(),
    )
}

fn run(seeds: std::ops::Range<u64>) {
    let (mut faulty, mut total) = (0u64, 0u64);
    for seed in seeds {
        let c = case(seed);
        let (report, summary) = check(c.bytes, &c.initial);
        let exact = report.exactness().is_exact();
        assert!(
            summary.is_clean() || !exact,
            "seed {seed}: transport loss under an Exact verdict"
        );
        total += 1;
        if c.damaged || c.lost {
            faulty += 1;
            assert!(!exact, "seed {seed}: damage or loss under an Exact verdict");
            continue;
        }
        assert!(
            exact,
            "seed {seed}: nothing detectable was lost: {summary:?}"
        );
        let mut in_order = bytes::BytesMut::new();
        for m in &c.intact {
            jmpax_instrument::encode_frame_v2(m, &mut in_order);
        }
        let (reference, _) = check(in_order.to_vec(), &c.initial);
        let (a, r) = (&report.analysis, &reference.analysis);
        assert_eq!(
            (a.states_explored, a.total_runs, a.violating_runs),
            (r.states_explored, r.total_runs, r.violating_runs),
            "seed {seed}: delivery order changed the verdict"
        );
    }
    // Both sides of the property must actually be exercised.
    assert!(faulty > 0 && faulty < total, "{faulty} of {total} faulty");
}

#[test]
fn check_frames_fuzz_1k() {
    run(0..1_000);
}

#[test]
#[ignore = "10^5 cases; run with --ignored"]
fn check_frames_fuzz_100k() {
    run(0..100_000);
}
