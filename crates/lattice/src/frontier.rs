//! The frontier arena: one lattice level as struct-of-arrays rows.
//!
//! A [`Level`] holds every node of one lattice level in a handful of flat
//! vectors, one row per node, so a node costs bytes, not allocations:
//!
//! * its cut, `threads` counts at stride `threads`;
//! * its *slots* — the values of only the variables the monitor reads
//!   ([`Monitor::variables`]) — and the packed atom valuation computed
//!   from them once, when the node is created;
//! * its alive monitor memories with their run counts, sorted by memory,
//!   and its dead (already violated) memories, each a contiguous range of
//!   a level-wide vector;
//! * the runs that reached it already violated.
//!
//! Only when the analyzer retains history does a level also record, per
//! alive memory, one parent `(row in the previous level, memory)` for
//! trail reconstruction. The full [`jmpax_spec::ProgramState`] of a node
//! is never stored: reports rebuild it by replaying delivered writes.
//!
//! Expansion ([`Expand`]) runs in two passes over the same routine on
//! every path. [`Expand::discover`] creates each successor row the first
//! time an edge reaches its cut (deduplicated through a [`CutIndex`]) and
//! records, per successor and thread, the source row of that in-edge.
//! [`Expand::absorb`] then visits every successor's in-edges in ascending
//! thread order, which is ascending source-cut order, and steps every
//! alive memory across each; the first in-edge to bring a run into a
//! memory is its trail parent. The result of a row therefore depends only
//! on its cut, never on the order rows were created in, which is what
//! keeps the sharded pool ([`crate::parallel`]) bit-identical to the
//! sequential path.

use jmpax_core::Message;
use jmpax_spec::{Monitor, MonitorState, StepCache};
use jmpax_trace::{TraceKind, TraceRing};

/// "No row" / "no thread" marker in `u32` fields.
pub(crate) const NONE: u32 = u32::MAX;

/// One alive monitor memory at a node: the runs reaching the node in it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Alive {
    /// Run prefixes in this memory (saturating).
    pub(crate) runs: u128,
    pub(crate) memory: MonitorState,
    /// The thread whose step first brought a run here in this memory
    /// ([`NONE`] at the initial cut): how a truncated trail's first state
    /// was reached.
    pub(crate) via: u32,
}

/// One lattice level, struct-of-arrays; see the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct Level {
    /// Cut stride: counts per row.
    threads: usize,
    /// Slots per row (the monitor's variables).
    width: usize,
    cuts: Vec<u32>,
    slots: Vec<i64>,
    valuations: Vec<u64>,
    alive: Vec<Alive>,
    /// Exclusive end of each row's range in `alive`; a row starts where
    /// the previous one ends.
    alive_end: Vec<u32>,
    /// `(source row, source memory)` per `alive` entry, aligned with it;
    /// empty unless the analyzer retains history.
    parents: Vec<(u32, MonitorState)>,
    dead: Vec<MonitorState>,
    dead_end: Vec<u32>,
    violated: Vec<u128>,
    /// Per-thread maximum count over the rows: the frontier is
    /// expandable iff every thread has a message past this or has ended.
    max_counts: Vec<u32>,
}

impl Level {
    /// An empty level of `threads`-count cuts and `width` slots per row.
    pub(crate) fn new(threads: usize, width: usize) -> Self {
        let mut level = Self::default();
        level.reset(threads, width);
        level
    }

    /// Empties the level, keeping every allocation.
    pub(crate) fn reset(&mut self, threads: usize, width: usize) {
        self.threads = threads;
        self.width = width;
        self.cuts.clear();
        self.slots.clear();
        self.valuations.clear();
        self.alive.clear();
        self.alive_end.clear();
        self.parents.clear();
        self.dead.clear();
        self.dead_end.clear();
        self.violated.clear();
        self.max_counts.clear();
        self.max_counts.resize(threads, 0);
    }

    /// The single-row initial level: the bottom cut in `slots`, with the
    /// monitor's verdict on the initial state.
    pub(crate) fn bottom(
        threads: usize,
        slots: &[i64],
        valuation: u64,
        memory: MonitorState,
        ok: bool,
    ) -> Self {
        let mut level = Self::new(threads, slots.len());
        level.cuts.resize(threads, 0);
        level.slots.extend_from_slice(slots);
        level.valuations.push(valuation);
        if ok {
            level.alive.push(Alive {
                runs: 1,
                memory,
                via: NONE,
            });
        } else {
            level.dead.push(memory);
        }
        level.alive_end.push(level.alive.len() as u32);
        level.dead_end.push(level.dead.len() as u32);
        level.violated.push(u128::from(!ok));
        level
    }

    /// Rows in the level.
    pub(crate) fn len(&self) -> usize {
        self.valuations.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.valuations.is_empty()
    }

    /// The cut of row `i`.
    pub(crate) fn cut(&self, i: usize) -> &[u32] {
        &self.cuts[i * self.threads..(i + 1) * self.threads]
    }

    /// The per-thread maximum count over every row.
    pub(crate) fn max_counts(&self) -> &[u32] {
        &self.max_counts
    }

    fn alive_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 {
            0
        } else {
            self.alive_end[i - 1] as usize
        };
        start..self.alive_end[i] as usize
    }

    /// The alive memories of row `i`, ascending by memory.
    pub(crate) fn alive(&self, i: usize) -> &[Alive] {
        &self.alive[self.alive_range(i)]
    }

    /// How row `i` was first reached in `memory` — the arrival thread
    /// (`None` at the initial cut) and, when this level retains parents,
    /// the `(row, memory)` it came from in the previous level.
    pub(crate) fn arrival(
        &self,
        i: usize,
        memory: MonitorState,
    ) -> (Option<u32>, Option<(u32, MonitorState)>) {
        let range = self.alive_range(i);
        let Ok(k) = self.alive[range.clone()].binary_search_by_key(&memory, |a| a.memory) else {
            return (None, None);
        };
        let k = range.start + k;
        let via = self.alive[k].via;
        let parent = self.parents.get(k).copied().filter(|&(row, _)| row != NONE);
        ((via != NONE).then_some(via), parent)
    }

    /// Bytes the rows of this level hold (lengths, not capacities): per
    /// row `4·threads + 8·slots + 32`, plus 32 per alive memory (48 when
    /// parents are kept) and 8 per dead memory.
    pub(crate) fn bytes(&self) -> u64 {
        use std::mem::size_of;
        let bytes = self.cuts.len() * size_of::<u32>()
            + self.slots.len() * size_of::<i64>()
            + self.valuations.len() * size_of::<u64>()
            + self.alive.len() * size_of::<Alive>()
            + self.alive_end.len() * size_of::<u32>()
            + self.parents.len() * size_of::<(u32, MonitorState)>()
            + self.dead.len() * size_of::<MonitorState>()
            + self.dead_end.len() * size_of::<u32>()
            + self.violated.len() * size_of::<u128>();
        bytes as u64
    }

    /// Re-strides every cut to `threads` counts (a thread beyond the
    /// declared count appeared); the new components are zero.
    pub(crate) fn widen(&mut self, threads: usize) {
        if threads <= self.threads {
            return;
        }
        let mut cuts = Vec::with_capacity(self.len() * threads);
        for i in 0..self.len() {
            cuts.extend_from_slice(self.cut(i));
            cuts.resize((i + 1) * threads, 0);
        }
        self.cuts = cuts;
        self.threads = threads;
        self.max_counts.resize(threads, 0);
    }

    /// Appends every row of `other` (same stride and width) after this
    /// level's rows; returns the row index of `other`'s first row.
    pub(crate) fn append(&mut self, other: &Level) -> u32 {
        debug_assert_eq!((self.threads, self.width), (other.threads, other.width));
        let base = self.len() as u32;
        let (alive_base, dead_base) = (self.alive.len() as u32, self.dead.len() as u32);
        self.cuts.extend_from_slice(&other.cuts);
        self.slots.extend_from_slice(&other.slots);
        self.valuations.extend_from_slice(&other.valuations);
        self.alive.extend_from_slice(&other.alive);
        self.alive_end
            .extend(other.alive_end.iter().map(|e| e + alive_base));
        self.parents.extend_from_slice(&other.parents);
        self.dead.extend_from_slice(&other.dead);
        self.dead_end
            .extend(other.dead_end.iter().map(|e| e + dead_base));
        self.violated.extend_from_slice(&other.violated);
        for (m, &o) in self.max_counts.iter_mut().zip(&other.max_counts) {
            *m = (*m).max(o);
        }
        base
    }

    /// Keeps the rows whose `keep` flag is set, in their order.
    pub(crate) fn retain(&mut self, keep: &[bool]) {
        let (t, w) = (self.threads, self.width);
        let kept_parents = !self.parents.is_empty();
        let (mut n, mut a, mut d) = (0usize, 0usize, 0usize);
        let (mut a_start, mut d_start) = (0usize, 0usize);
        for (i, &k) in keep.iter().enumerate().take(self.len()) {
            let (a_end, d_end) = (self.alive_end[i] as usize, self.dead_end[i] as usize);
            if k {
                self.cuts.copy_within(i * t..(i + 1) * t, n * t);
                self.slots.copy_within(i * w..(i + 1) * w, n * w);
                self.valuations[n] = self.valuations[i];
                self.violated[n] = self.violated[i];
                self.alive.copy_within(a_start..a_end, a);
                if kept_parents {
                    self.parents.copy_within(a_start..a_end, a);
                }
                a += a_end - a_start;
                self.dead.copy_within(d_start..d_end, d);
                d += d_end - d_start;
                self.alive_end[n] = a as u32;
                self.dead_end[n] = d as u32;
                n += 1;
            }
            a_start = a_end;
            d_start = d_end;
        }
        self.cuts.truncate(n * t);
        self.slots.truncate(n * w);
        self.valuations.truncate(n);
        self.violated.truncate(n);
        self.alive.truncate(a);
        if kept_parents {
            self.parents.truncate(a);
        }
        self.dead.truncate(d);
        self.alive_end.truncate(n);
        self.dead_end.truncate(n);
        self.max_counts.iter_mut().for_each(|m| *m = 0);
        for row in self.cuts.chunks_exact(t.max(1)).take(n) {
            for (m, &c) in self.max_counts.iter_mut().zip(row) {
                *m = (*m).max(c);
            }
        }
    }

    /// Every run through the level: `(total, violating)`, saturating.
    pub(crate) fn run_counts(&self) -> (u128, u128) {
        let alive = self
            .alive
            .iter()
            .fold(0u128, |acc, a| acc.saturating_add(a.runs));
        let violated = self
            .violated
            .iter()
            .fold(0u128, |acc, &v| acc.saturating_add(v));
        (alive.saturating_add(violated), violated)
    }
}

/// A multiplicative hash of a cut's counts.
pub(crate) fn cut_hash(cut: &[u32]) -> u64 {
    let mut h = 0u64;
    for &c in cut {
        h = (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h
}

/// Open-addressing index from cut to row over one [`Level`]'s cuts:
/// linear probing over a power-of-two `u32` table, rebuilt into the same
/// buffer for every level.
#[derive(Debug, Default)]
struct CutIndex {
    table: Vec<u32>,
    shift: u32,
}

impl CutIndex {
    /// Empties the index and sizes it for about `expected` cuts.
    fn reset(&mut self, expected: usize) {
        let capacity = (expected * 2).max(16).next_power_of_two();
        self.table.clear();
        self.table.resize(capacity, NONE);
        self.shift = 64 - capacity.trailing_zeros();
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// The row of `cut` in `level`, inserting `level.len()` (the row the
    /// caller is about to push) when absent. Returns `(row, inserted)`.
    fn find_or_insert(&mut self, level: &Level, cut: &[u32]) -> (u32, bool) {
        if (level.len() + 1) * 2 > self.table.len() {
            self.grow(level);
        }
        let mask = self.table.len() - 1;
        let mut i = self.home(cut_hash(cut));
        loop {
            let row = self.table[i];
            if row == NONE {
                let row = level.len() as u32;
                self.table[i] = row;
                return (row, true);
            }
            if level.cut(row as usize) == cut {
                return (row, false);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self, level: &Level) {
        self.reset(self.table.len().max(8));
        let mask = self.table.len() - 1;
        for row in 0..level.len() {
            let mut i = self.home(cut_hash(level.cut(row)));
            while self.table[i] != NONE {
                i = (i + 1) & mask;
            }
            self.table[i] = row as u32;
        }
    }
}

/// The message enabled from `cut` on thread `t`, if causally consistent:
/// thread `t`'s next delivered message, when every event its clock counts
/// is already in the cut (Theorem 3).
pub(crate) fn enabled<'a>(
    delivered: &'a [Vec<Message>],
    cut: &[u32],
    t: usize,
) -> Option<&'a Message> {
    let consumed = cut.get(t).copied().unwrap_or(0);
    let m = delivered.get(t)?.get(consumed as usize)?;
    let consistent = m.clock.as_slice().iter().enumerate().all(|(j, &v)| {
        if j == t {
            v == consumed + 1
        } else {
            v <= cut.get(j).copied().unwrap_or(0)
        }
    });
    consistent.then_some(m)
}

/// A violation found while absorbing a level, before its trail is built:
/// the row and memory that failed, and the `(source row, source memory)`
/// whose step failed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Seed {
    pub(crate) row: u32,
    pub(crate) memory: MonitorState,
    pub(crate) pred: (u32, MonitorState),
}

/// Logical counts of one level's expansion (identical on every path).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Stats {
    /// Successor rows created.
    pub(crate) new_states: u64,
    /// Edges that reached an existing successor row.
    pub(crate) deduped: u64,
    /// Monitor steps (cache hits included).
    pub(crate) evals: u64,
    /// Relevant non-write messages stepped over as stutters.
    pub(crate) non_writes: u64,
}

impl Stats {
    pub(crate) fn add(&mut self, other: Stats) {
        self.new_states += other.new_states;
        self.deduped += other.deduped;
        self.evals += other.evals;
        self.non_writes += other.non_writes;
    }
}

/// Scratch buffers one expansion reuses from level to level.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    index: CutIndex,
    /// Per successor row and thread, the source row of that in-edge
    /// ([`NONE`] when there is none); stride `threads`.
    pred: Vec<u32>,
    cut: Vec<u32>,
}

impl Scratch {
    /// Readies the buffers for a level expected to have about `expected`
    /// rows.
    pub(crate) fn reset(&mut self, expected: usize) {
        self.index.reset(expected);
        self.pred.clear();
    }
}

/// What expanding one level needs besides the levels themselves.
pub(crate) struct Expand<'a> {
    pub(crate) delivered: &'a [Vec<Message>],
    pub(crate) monitor: &'a Monitor,
    /// Slot of each variable id the monitor reads, [`NONE`] otherwise.
    pub(crate) slot_of: &'a [u32],
    /// Step through the memo (packed valuations); otherwise every step
    /// evaluates the formula over the row's slots.
    pub(crate) cached: bool,
    /// Record a parent per alive memory (the analyzer retains history).
    pub(crate) keep_parents: bool,
    /// Index of the level being sealed, for trace records.
    pub(crate) level: u64,
}

impl Expand<'_> {
    /// Follows the edge from `src` row `row` on thread `t` (enabled, by
    /// the caller's check): creates the successor row in `next` the first
    /// time its cut is reached and records the in-edge.
    pub(crate) fn discover(
        &self,
        src: &Level,
        row: u32,
        t: usize,
        next: &mut Level,
        scratch: &mut Scratch,
        stats: &mut Stats,
    ) {
        let threads = src.threads;
        let from = src.cut(row as usize);
        let msg = &self.delivered[t][from[t] as usize];
        let update = msg.var().zip(msg.written_value());
        if update.is_none() {
            // A relevant message that is not a write (exotic relevance
            // policy) cannot update the global state; step over it as a
            // stutter instead of aborting a long-running analysis.
            stats.non_writes += 1;
        }
        scratch.cut.clear();
        scratch.cut.extend_from_slice(from);
        scratch.cut[t] += 1;
        let (succ, inserted) = scratch.index.find_or_insert(next, &scratch.cut);
        if inserted {
            stats.new_states += 1;
            next.cuts.extend_from_slice(&scratch.cut);
            for (m, &c) in next.max_counts.iter_mut().zip(&scratch.cut) {
                *m = (*m).max(c);
            }
            // A node's state is fixed by its cut, so the first edge
            // computes its slots and valuation once for every later edge.
            let r = row as usize;
            let base = next.slots.len();
            next.slots
                .extend_from_slice(&src.slots[r * src.width..(r + 1) * src.width]);
            let slot = update.and_then(|(var, value)| {
                let slot = *self.slot_of.get(var.index())?;
                (slot != NONE).then_some((slot as usize, value.as_int()))
            });
            let valuation = match slot {
                None => src.valuations[r],
                Some((slot, value)) => {
                    next.slots[base + slot] = value;
                    if self.cached {
                        self.monitor
                            .slot_valuation(&next.slots[base..])
                            .unwrap_or(0)
                    } else {
                        0
                    }
                }
            };
            next.valuations.push(valuation);
            scratch.pred.resize(scratch.pred.len() + threads, NONE);
        } else {
            stats.deduped += 1;
        }
        scratch.pred[succ as usize * threads + t] = row;
    }

    /// Steps every alive memory of every in-edge of every row of `next`
    /// (created by [`Expand::discover`] from `src`), completing the rows:
    /// run counts carry to the successor memory, or to the row's violated
    /// count when the property fails there — a first failure per memory
    /// becomes a [`Seed`]. In-edges are visited in ascending thread order
    /// and memories in ascending order, whatever the row order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn absorb(
        &self,
        src: &Level,
        next: &mut Level,
        scratch: &Scratch,
        cache: Option<&mut StepCache>,
        ring: &mut TraceRing,
        seeds: &mut Vec<Seed>,
        stats: &mut Stats,
    ) {
        let threads = src.threads;
        let width = next.width;
        let mut cache = cache.filter(|_| self.cached);
        for i in 0..next.len() {
            let (alive_start, dead_start) = (next.alive.len(), next.dead.len());
            let valuation = next.valuations[i];
            let mut violated = 0u128;
            let in_edges = &scratch.pred[i * threads..(i + 1) * threads];
            for (t, &row) in in_edges.iter().enumerate() {
                if row == NONE {
                    continue;
                }
                violated = violated.saturating_add(src.violated[row as usize]);
                let from = src.alive(row as usize);
                stats.evals += from.len() as u64;
                for a in from {
                    let (memory, ok) = match cache.as_deref_mut() {
                        Some(cache) => self.monitor.step_valuation(a.memory, valuation, cache),
                        None => self
                            .monitor
                            .step_slots(a.memory, &next.slots[i * width..(i + 1) * width]),
                    };
                    if ring.is_enabled() {
                        ring.record(TraceKind::PropertyEvaluated {
                            level: self.level,
                            violated: !ok,
                        });
                    }
                    if ok {
                        let own = &mut next.alive[alive_start..];
                        match own.binary_search_by_key(&memory, |x| x.memory) {
                            Ok(k) => own[k].runs = own[k].runs.saturating_add(a.runs),
                            Err(k) => {
                                next.alive.insert(
                                    alive_start + k,
                                    Alive {
                                        runs: a.runs,
                                        memory,
                                        via: t as u32,
                                    },
                                );
                                if self.keep_parents {
                                    next.parents.insert(alive_start + k, (row, a.memory));
                                }
                            }
                        }
                    } else {
                        violated = violated.saturating_add(a.runs);
                        if !next.dead[dead_start..].contains(&memory) {
                            next.dead.push(memory);
                            seeds.push(Seed {
                                row: i as u32,
                                memory,
                                pred: (row, a.memory),
                            });
                        }
                    }
                }
            }
            next.alive_end.push(next.alive.len() as u32);
            next.dead_end.push(next.dead.len() as u32);
            next.violated.push(violated);
        }
    }
}
