//! In-memory spans for the traced run, recorded by the benchmark around
//! its calls into each layer, and the per-layer self times they give.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::util::median;

/// Session id of spans measured outside any session (the layer probes).
pub const PROBE: u64 = u64::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<usize>,
    pub session: u64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// One recorder per client thread; a disabled recorder keeps nothing.
#[derive(Clone, Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that ran from `start_ns` to now.
    pub fn close(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        parent: Option<usize>,
        session: u64,
    ) -> Option<usize> {
        let end_ns = self.now();
        self.push(name, layer, start_ns, end_ns, parent, session)
    }

    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        session: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            session,
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of span `id` (if recorded) to now.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Median over sessions of the session span minus the in-process
    /// observer spans (`codec`, `reassemble` and the pipeline layers): the
    /// time the session spent outside the observer's own work.
    pub fn overhead_ms(&self) -> f64 {
        let mut per_session: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.session != PROBE) {
            let sign = match (s.name, s.layer) {
                ("session", _) => 1.0,
                (_, "codec" | "reassemble" | "lattice" | "analyses") => -1.0,
                _ => 0.0,
            };
            *per_session.entry(s.session).or_default() += sign * s.dur();
        }
        let v: Vec<f64> = per_session.values().map(|ns| ns / 1e6).collect();
        median(&v)
    }

    /// Appends `other`'s spans, re-basing its parent indices.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() / 1e6)
            .collect()
    }

    /// Median over sessions of each layer's self time per session, in ms:
    /// a span's duration minus the durations of its children. A span whose
    /// layer is `"client"` is the session root; its self time is the part
    /// of the session no layer span covers.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        let mut per_session: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.session == PROBE {
                continue;
            }
            *per_session.entry((s.layer, s.session)).or_default() += s.dur() - child_ns[i];
        }
        let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((layer, _), ns) in per_session {
            by_layer.entry(layer).or_default().push(ns / 1e6);
        }
        by_layer
            .into_iter()
            .map(|(layer, v)| (layer, median(&v)))
            .collect()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let session = if s.session == PROBE {
                "\"probe\"".to_string()
            } else {
                s.session.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{session}}}",
                s.name, s.layer, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(Instant::now(), true);
        let root = spans.push("session", "client", 0, 10_000_000, None, 0);
        let wait = spans.push("wait", "serve", 1_000_000, 9_000_000, root, 0);
        spans.push("pipeline", "lattice", 2_000_000, 7_000_000, wait, 0);
        let by_layer = spans.self_ms_by_layer();
        assert_eq!(by_layer["client"], 2.0);
        assert_eq!(by_layer["serve"], 3.0);
        assert_eq!(by_layer["lattice"], 5.0);
        assert_eq!(by_layer.values().sum::<f64>(), 10.0);
    }
}
