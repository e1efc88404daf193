//! The epoch-based race and atomicity analyses against full-clock
//! oracles.
//!
//! `OracleRace` and `OracleAtomicity` below are the earlier
//! implementations, kept as test oracles: every access keeps a clone of
//! its thread's whole sync-only clock, in per-variable `BTreeMap`s keyed
//! by thread, and happens-before is the full component-wise `≤`. The
//! production analyses keep one component per access (its epoch). On
//! random lock programs over 2–40 threads both must produce identical
//! reports: findings lists, counts, accesses checked, transactions and
//! lock transfers.

use std::collections::{BTreeMap, BTreeSet};

use jmpax_core::{Event, EventKind, ThreadId, VarId, VectorClock};
use jmpax_lattice::analyses::{AtomicityFinding, RaceAccess, RaceFinding};
use jmpax_lattice::{
    Analysis, AnalysisReport, AtomicityAnalysis, AtomicityReport, Exactness, RaceAnalysis,
    RaceReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sync-only happens-before with whole clocks handed out per event.
struct OracleClocks {
    sync: BTreeSet<VarId>,
    clocks: Vec<VectorClock>,
    vars: BTreeMap<VarId, VectorClock>,
    transfers: u64,
}

impl OracleClocks {
    fn new(threads: usize, sync: BTreeSet<VarId>) -> Self {
        Self {
            sync,
            clocks: vec![VectorClock::with_threads(threads); threads.max(1)],
            vars: BTreeMap::new(),
            transfers: 0,
        }
    }

    fn observe(&mut self, event: &Event) -> VectorClock {
        let t = event.thread;
        if self.clocks.len() <= t.index() {
            self.clocks
                .resize(t.index() + 1, VectorClock::with_threads(self.clocks.len()));
        }
        self.clocks[t.index()].tick(t);
        if let EventKind::Write { var, .. } = event.kind {
            if self.sync.contains(&var) {
                let slot = self.vars.entry(var).or_default();
                self.clocks[t.index()].join(slot);
                *slot = self.clocks[t.index()].clone();
                self.transfers += 1;
            }
        }
        self.clocks[t.index()].clone()
    }
}

/// Keeps the first `max` findings of each distinct key, counting keys.
struct OracleFindings<F, K> {
    list: Vec<F>,
    seen: BTreeSet<K>,
    found: u64,
    max: usize,
}

impl<F, K: Ord> OracleFindings<F, K> {
    fn new(max: usize) -> Self {
        Self {
            list: Vec::new(),
            seen: BTreeSet::new(),
            found: 0,
            max,
        }
    }

    fn report(&mut self, key: K, finding: F) {
        if self.seen.insert(key) {
            self.found += 1;
            if self.list.len() < self.max {
                self.list.push(finding);
            }
        }
    }
}

type ClockTable<A> = BTreeMap<ThreadId, (A, VectorClock)>;

struct OracleRace {
    hb: OracleClocks,
    vars: BTreeMap<VarId, (ClockTable<RaceAccess>, ClockTable<RaceAccess>)>,
    indices: Vec<u64>,
    findings: OracleFindings<RaceFinding, (VarId, ThreadId, bool, ThreadId, bool)>,
    accesses_checked: u64,
}

impl OracleRace {
    fn new(threads: usize, sync: BTreeSet<VarId>, max: usize) -> Self {
        Self {
            hb: OracleClocks::new(threads, sync),
            vars: BTreeMap::new(),
            indices: vec![0; threads.max(1)],
            findings: OracleFindings::new(max),
            accesses_checked: 0,
        }
    }

    fn on_event(&mut self, event: &Event) {
        let t = event.thread;
        let me = self.hb.observe(event);
        let (var, is_write) = match event.kind {
            EventKind::Read { var } => (var, false),
            EventKind::Write { var, .. } => (var, true),
            EventKind::Internal => return,
        };
        if self.hb.sync.contains(&var) {
            return;
        }
        if self.indices.len() <= t.index() {
            self.indices.resize(t.index() + 1, 0);
        }
        self.indices[t.index()] += 1;
        self.accesses_checked += 1;
        let access = RaceAccess {
            thread: t,
            index: self.indices[t.index()],
            is_write,
        };
        let (reads, writes) = self.vars.entry(var).or_default();
        let mut races = Vec::new();
        for (&u, (prev, clock)) in writes.iter() {
            if u != t && !clock.le(&me) {
                races.push(*prev);
            }
        }
        if is_write {
            for (&u, (prev, clock)) in reads.iter() {
                if u != t && !clock.le(&me) {
                    races.push(*prev);
                }
            }
        }
        let table = if is_write { writes } else { reads };
        table.insert(t, (access, me));
        for first in races {
            let key = (var, first.thread, first.is_write, t, is_write);
            self.findings.report(
                key,
                RaceFinding {
                    var,
                    first,
                    second: access,
                },
            );
        }
    }

    fn finish(self) -> RaceReport {
        RaceReport {
            findings: self.findings.list,
            races_found: self.findings.found,
            accesses_checked: self.accesses_checked,
            sync_transfers: self.hb.transfers,
            exactness: Exactness::Exact,
        }
    }
}

#[derive(Clone, Copy, Default)]
struct FirstAccess {
    read: Option<u64>,
    write: Option<u64>,
}

#[derive(Clone, Default)]
struct OracleTxn {
    depth: u64,
    vars: BTreeMap<VarId, FirstAccess>,
}

struct OracleAtomicity {
    hb: OracleClocks,
    threads: Vec<OracleTxn>,
    vars: BTreeMap<VarId, (ClockTable<u64>, ClockTable<u64>)>,
    index: u64,
    findings: OracleFindings<AtomicityFinding, (VarId, ThreadId, ThreadId)>,
    transactions: u64,
    accesses_checked: u64,
}

impl OracleAtomicity {
    fn new(threads: usize, sync: BTreeSet<VarId>, max: usize) -> Self {
        Self {
            hb: OracleClocks::new(threads, sync),
            threads: vec![OracleTxn::default(); threads.max(1)],
            vars: BTreeMap::new(),
            index: 0,
            findings: OracleFindings::new(max),
            transactions: 0,
            accesses_checked: 0,
        }
    }

    fn on_event(&mut self, event: &Event) {
        let t = event.thread;
        let me = self.hb.observe(event);
        if self.threads.len() <= t.index() {
            self.threads.resize(t.index() + 1, OracleTxn::default());
        }
        self.index += 1;
        let index = self.index;
        let (var, is_write) = match event.kind {
            EventKind::Read { var } => (var, false),
            EventKind::Write { var, value } => {
                if self.hb.sync.contains(&var) {
                    let slot = &mut self.threads[t.index()];
                    if value.as_int() != 0 {
                        slot.depth += 1;
                        if slot.depth == 1 {
                            slot.vars.clear();
                            self.transactions += 1;
                        }
                    } else if slot.depth > 0 {
                        slot.depth -= 1;
                        if slot.depth == 0 {
                            slot.vars.clear();
                        }
                    }
                    return;
                }
                (var, true)
            }
            EventKind::Internal => return,
        };
        self.accesses_checked += 1;
        let txn = &self.threads[t.index()];
        let first = (txn.depth > 0)
            .then(|| txn.vars.get(&var).copied())
            .flatten();
        if let (Some(first), Some((reads, writes))) = (first, self.vars.get(&var)) {
            let mut found = Vec::new();
            let fi_write = match (first.read, first.write) {
                (Some(r), Some(w)) => Some(r.min(w)),
                (r, w) => r.or(w),
            };
            if let Some(fi) = fi_write {
                for (&u, &(uidx, ref clock)) in writes {
                    if u != t && fi < uidx && !clock.le(&me) {
                        found.push((u, fi, uidx));
                    }
                }
            }
            if is_write {
                if let Some(fi) = first.write {
                    for (&u, &(uidx, ref clock)) in reads {
                        if u != t && fi < uidx && !clock.le(&me) {
                            found.push((u, fi, uidx));
                        }
                    }
                }
            }
            for (other, first, interleaved) in found {
                self.findings.report(
                    (var, t, other),
                    AtomicityFinding {
                        var,
                        thread: t,
                        other,
                        first,
                        interleaved,
                        second: index,
                    },
                );
            }
        }
        let txn = &mut self.threads[t.index()];
        if txn.depth > 0 {
            let first = txn.vars.entry(var).or_default();
            let target = if is_write {
                &mut first.write
            } else {
                &mut first.read
            };
            target.get_or_insert(index);
        }
        let (reads, writes) = self.vars.entry(var).or_default();
        let table = if is_write { writes } else { reads };
        table.insert(t, (index, me));
    }

    fn finish(self) -> AtomicityReport {
        AtomicityReport {
            findings: self.findings.list,
            violations_found: self.findings.found,
            transactions: self.transactions,
            accesses_checked: self.accesses_checked,
            exactness: Exactness::Exact,
        }
    }
}

/// A random lock program run on a random schedule: each of `threads`
/// threads runs blocks of data accesses, most inside one or two nested
/// critical sections of `locks` locks (acquire = write 1, release =
/// write 0 of the lock's variable, listed first among the variables);
/// the schedule never lets two threads hold one lock.
fn lock_program(rng: &mut StdRng, threads: u32, locks: u32) -> Vec<Event> {
    let data = locks + rng.gen_range(1..=4);
    let access = |rng: &mut StdRng, t: ThreadId| {
        let var = VarId(rng.gen_range(locks..data));
        if rng.gen_bool(0.5) {
            Event::write(t, var, rng.gen_range(0..5i64))
        } else {
            Event::read(t, var)
        }
    };
    let scripts: Vec<Vec<Event>> = (0..threads)
        .map(|t| {
            let t = ThreadId(t);
            let mut script = Vec::new();
            for _ in 0..rng.gen_range(1..=6) {
                let held: Vec<u32> = match rng.gen_range(0..4) {
                    0 => vec![],
                    1 if locks > 1 => {
                        let outer = rng.gen_range(0..locks - 1);
                        vec![outer, rng.gen_range(outer + 1..locks)]
                    }
                    _ => vec![rng.gen_range(0..locks)],
                };
                for &l in &held {
                    script.push(Event::write(t, VarId(l), 1));
                }
                for _ in 0..rng.gen_range(1..=4) {
                    script.push(access(rng, t));
                }
                for &l in held.iter().rev() {
                    script.push(Event::write(t, VarId(l), 0));
                }
            }
            script
        })
        .collect();
    let mut next = vec![0usize; scripts.len()];
    let mut holder: Vec<Option<usize>> = vec![None; locks as usize];
    let mut events = Vec::new();
    loop {
        let ready: Vec<usize> = (0..scripts.len())
            .filter(|&t| {
                scripts[t].get(next[t]).is_some_and(|e| match e.kind {
                    EventKind::Write { var, value } if var.0 < locks && value.as_int() == 1 => {
                        holder[var.index()].is_none()
                    }
                    _ => true,
                })
            })
            .collect();
        if ready.is_empty() {
            break;
        }
        let t = ready[rng.gen_range(0..ready.len())];
        let e = scripts[t][next[t]];
        next[t] += 1;
        if let EventKind::Write { var, value } = e.kind {
            if var.0 < locks {
                holder[var.index()] = (value.as_int() == 1).then_some(t);
            }
        }
        events.push(e);
    }
    events
}

fn race_report(a: Box<dyn Analysis>) -> RaceReport {
    match a.finish(Exactness::Exact) {
        AnalysisReport::Race(r) => r,
        other => panic!("unexpected report {other:?}"),
    }
}

fn atomicity_report(a: Box<dyn Analysis>) -> AtomicityReport {
    match a.finish(Exactness::Exact) {
        AnalysisReport::Atomicity(r) => r,
        other => panic!("unexpected report {other:?}"),
    }
}

#[test]
fn epoch_analyses_match_the_full_clock_oracles() {
    let mut rng = StdRng::seed_from_u64(0xe90c);
    let (mut races, mut violations, mut transactions) = (0, 0, 0);
    for case in 0..300 {
        // Past `CountVec`'s 12 inline slots, and past the 32 threads whose
        // repeat findings a slot's report mark can recognise.
        let threads = if case % 4 == 0 {
            rng.gen_range(33..=40u32)
        } else {
            rng.gen_range(2..=20u32)
        };
        let locks = rng.gen_range(1..=3u32);
        let events = lock_program(&mut rng, threads, locks);
        // Declaring too few threads exercises the analyses' growth path.
        let declared = if case % 5 == 0 { 2 } else { threads as usize };
        let max = [usize::MAX, 32, 0][case % 3];
        for sync in [
            (0..locks).map(VarId).collect::<BTreeSet<_>>(),
            BTreeSet::new(),
        ] {
            let what = format!("case {case}: {threads} threads, sync {sync:?}");
            let mut oracle_race = OracleRace::new(declared, sync.clone(), max);
            let mut oracle_atom = OracleAtomicity::new(declared, sync.clone(), max);
            let mut race: Box<dyn Analysis> =
                Box::new(RaceAnalysis::new(declared, sync.clone()).with_max_findings(max));
            let mut atom: Box<dyn Analysis> =
                Box::new(AtomicityAnalysis::new(declared, sync.clone()).with_max_findings(max));
            let unused = VectorClock::new();
            for e in &events {
                oracle_race.on_event(e);
                oracle_atom.on_event(e);
                race.on_event(e, &unused);
                atom.on_event(e, &unused);
            }
            let (want, got) = (oracle_race.finish(), race_report(race));
            assert_eq!(got, want, "{what}: race");
            races += want.races_found;
            let (want, got) = (oracle_atom.finish(), atomicity_report(atom));
            assert_eq!(got, want, "{what}: atomicity");
            violations += want.violations_found;
            transactions += want.transactions;
        }
    }
    // Both verdicts are exercised, not just the clean one.
    assert!(races > 0 && violations > 0 && transactions > 0);
}
