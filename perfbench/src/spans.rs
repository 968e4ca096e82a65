//! In-memory spans for the traced run. A span has a name
//! (`layer.step`), a start and end in nanoseconds since the run's
//! epoch, an optional parent, and the id of the operation it belongs
//! to (0 for set-up and probes outside any operation). Spans are kept
//! in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use subgemini::metrics::json::Value;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.step`; the layer is the text before the first dot.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Operation id; 0 outside operations.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, op)
    }

    /// Closes span `id` now and returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now;
        span.dur()
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op);
        let out = f();
        (out, self.close(id))
    }

    /// Records `durations` as back-to-back children of `parent`,
    /// starting at the parent's start. For stages the program timed
    /// itself (its phase timers), whose order is known but whose
    /// absolute start is not.
    pub fn derive(&mut self, parent: usize, stages: &[(&'static str, u64)]) {
        let (mut at, end, op) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.op)
        };
        for &(name, dur) in stages {
            let stop = (at + dur).min(end);
            self.record(name, at, stop, Some(parent), op);
            at = stop;
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per operation and layer: each span's duration minus
    /// the part its children cover (children never overlap one
    /// another). Operation 0 is left out.
    pub fn self_times(&self) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            if s.op == 0 {
                continue;
            }
            *out.entry(s.op).or_default().entry(s.layer()).or_insert(0) +=
                s.dur().saturating_sub(cov);
        }
        out
    }

    /// The spans as a JSON array of
    /// `{"name", "start_ns", "end_ns", "parent", "op"}` objects.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::int(s.start)),
                        ("end_ns".into(), Value::int(s.end)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::int(p as u64)),
                        ),
                        ("op".into(), Value::int(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_per_layer() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("op", 0, 100, None, 1);
        let find = t.record("engine.find", 10, 90, Some(root), 1);
        t.record("phase2.wall", 20, 80, Some(find), 1);
        t.record("spice.parse", 0, 5, None, 0);
        let st = t.self_times();
        assert_eq!(st.len(), 1, "op 0 is excluded");
        let op = &st[&1];
        assert_eq!(op["op"], 20);
        assert_eq!(op["engine"], 20);
        assert_eq!(op["phase2"], 60);
    }

    #[test]
    fn derived_stages_are_clamped_to_the_parent() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("engine.find", 100, 150, None, 3);
        t.derive(root, &[("netlist.compile", 30), ("phase2.wall", 40)]);
        let s = t.spans();
        assert_eq!((s[1].start, s[1].end), (100, 130));
        assert_eq!((s[2].start, s[2].end), (130, 150));
        assert_eq!(s[2].op, 3);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
