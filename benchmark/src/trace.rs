//! Harness-side spans: one record per call into a layer, kept in memory and
//! written out when the run ends. Spans inside the program are a later
//! issue; these are timed from outside, around the public functions.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Shared by all spans of one query, one `add`, one probe.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// True for a layer call that was run again on its own, after the call
    /// that contains it, because the harness cannot time it in place. Its
    /// duration counts as the parent's child time although its interval lies
    /// outside the parent's.
    pub replay: bool,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    requests: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), requests: 0 }
    }

    pub fn request(&mut self) -> u32 {
        self.requests += 1;
        self.requests
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; `end` closes it.
    pub fn begin(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        replay: bool,
    ) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, parent, request, start_ns, end_ns: start_ns, replay });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.ns(Instant::now());
        self.spans[id].us()
    }

    /// A span whose clock was read elsewhere.
    pub fn record(&mut self, name: &'static str, request: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, parent: None, request, start_ns, end_ns, replay: false });
    }

    /// One childless span around `call`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        replay: bool,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent, replay);
        let out = call();
        self.end(id);
        out
    }

    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Self time of every span — its duration minus its children's — by name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.us();
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_us) {
            by_name.entry(span.name).or_default().push(span.us() - children);
        }
        by_name
    }

    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("request", Json::Num(f64::from(s.request))),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("replay", Json::Bool(s.replay)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_including_replays() {
        let mut t = Tracer::new();
        let req = t.request();
        let root = t.begin("root", req, None, false);
        let child = t.begin("child", req, Some(root), false);
        t.end(child);
        t.end(root);
        let replay = t.begin("replayed", req, Some(root), true);
        t.end(replay);
        // Fix the clocks so the arithmetic is exact.
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100_000;
        t.spans[child].start_ns = 10_000;
        t.spans[child].end_ns = 40_000;
        t.spans[replay].start_ns = 200_000;
        t.spans[replay].end_ns = 220_000;
        let own = t.self_times_us();
        assert_eq!(own["root"], vec![50.0]);
        assert_eq!(own["child"], vec![30.0]);
        assert_eq!(t.durations_us("replayed"), vec![20.0]);
    }
}
