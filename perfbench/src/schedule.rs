//! A seeded scheduler for offline programs of lock-protected loops: at
//! each step one runnable thread (not waiting for a held lock) advances
//! by one operation. The resulting events are what Algorithm A sees.
//! Locks are writes of `1` and `0` to their variables, as in `jmpax_sched`,
//! whose `run_random` is quadratic on unrolled programs of this size (see
//! `NOTES.md`).

use jmpax_core::{Event, ThreadId, Value, VarId};

use crate::util::Rng;

/// One operation of a loop iteration.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Writes the iteration's number (from 1) to a variable.
    Write(VarId),
    /// Acquires lock `i` of the lock list (writes `1` to its variable).
    Acquire(usize),
    /// Releases lock `i` (writes `0`).
    Release(usize),
    Read(VarId),
    /// Writes one more than the variable's current value.
    Increment(VarId),
}

/// Interleaves `threads` threads, each running `iterations` iterations of
/// `body(thread, lock)`, where `lock` is drawn per iteration from
/// `0..locks.len()`. Returns the events in execution order.
pub fn interleave(
    rng: &mut Rng,
    threads: usize,
    iterations: usize,
    locks: &[VarId],
    body: impl Fn(usize, usize) -> Vec<Op>,
) -> Vec<Event> {
    struct Thread {
        ops: Vec<Op>,
        pc: usize,
        done: usize,
    }
    let mut state: Vec<Thread> = (0..threads)
        .map(|t| Thread {
            ops: body(t, rng.below(locks.len())),
            pc: 0,
            done: 0,
        })
        .collect();
    let mut owner: Vec<Option<usize>> = vec![None; locks.len()];
    let mut values: std::collections::HashMap<VarId, i64> = std::collections::HashMap::new();
    let mut events = Vec::new();
    let mut runnable = Vec::with_capacity(threads);
    loop {
        runnable.clear();
        for (t, th) in state.iter().enumerate() {
            if th.done == iterations {
                continue;
            }
            if let Op::Acquire(l) = th.ops[th.pc] {
                if owner[l].is_some() {
                    continue;
                }
            }
            runnable.push(t);
        }
        if runnable.is_empty() {
            return events;
        }
        let t = runnable[rng.below(runnable.len())];
        let th = &mut state[t];
        let id = ThreadId(t as u32);
        let event = match th.ops[th.pc] {
            Op::Write(var) => Event::write(id, var, th.done as i64 + 1),
            Op::Acquire(l) => {
                owner[l] = Some(t);
                Event::write(id, locks[l], 1i64)
            }
            Op::Release(l) => {
                owner[l] = None;
                Event::write(id, locks[l], 0i64)
            }
            Op::Read(var) => Event::read(id, var),
            Op::Increment(var) => {
                let v = values.entry(var).or_insert(0);
                *v += 1;
                Event::write(id, var, Value::Int(*v))
            }
        };
        events.push(event);
        th.pc += 1;
        if th.pc == th.ops.len() {
            th.pc = 0;
            th.done += 1;
            if th.done < iterations {
                th.ops = body(t, rng.below(locks.len()));
            }
        }
    }
}
