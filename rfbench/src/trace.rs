//! The benchmark's own spans: one around every call it makes into a
//! layer, kept in memory and written out once when the traced round
//! ends. These sit *outside* the program; the per-phase breakdown inside
//! it comes from the existing rf-prof spans.

use rf_obs::json::Value;
use std::time::Instant;

/// One closed span: offsets from the tracer's start, in nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The layer call, e.g. `store.get`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (batch or configuration index) the call served.
    pub request: Option<u64>,
}

/// A single-threaded span recorder. Disabled tracers record nothing and
/// read no clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// The closed spans, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Renders a traced round as JSON: the benchmark's spans (with self
/// times) and the rf-prof self time of every span name inside the
/// program (`layers`).
pub fn render(
    workload: &str,
    seed: u64,
    jobs: usize,
    wall_ns: u64,
    spans: &[SpanRec],
    layers: &[(String, u64)],
) -> String {
    let num = |v: u64| Value::Number(v as f64);
    let opt = |v: Option<u64>| v.map_or(Value::Null, num);
    let spans = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                ("self_ns".into(), num(self_ns)),
                ("parent".into(), opt(s.parent.map(|p| p as u64))),
                ("request".into(), opt(s.request)),
            ])
        })
        .collect();
    let layers = layers
        .iter()
        .map(|(name, ns)| {
            Value::Object(vec![
                ("name".into(), Value::String(name.clone())),
                ("self_ns".into(), num(*ns)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("seed".into(), num(seed)),
        ("jobs".into(), num(jobs as u64)),
        ("wall_ns".into(), num(wall_ns)),
        ("spans".into(), Value::Array(spans)),
        ("layers".into(), Value::Array(layers)),
    ])
    .to_string()
}
