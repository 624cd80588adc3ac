//! Spans recorded from outside the program under test.
//!
//! The harness wraps every call it makes into a layer's public functions
//! in a [`Span`] (name, layer, start, end, parent). The millions of
//! `Backend` calls of one simulation are not kept one by one: each method
//! is folded into one [`Aggregate`] (total time + call count) under the
//! `core.run` span, and the calibrated cost of an empty span times the call
//! count is taken out again ([`Calibration`]).
//!
//! A span's *self time* is its duration minus what its children cover, so
//! the self times under one root add up to the root's duration exactly;
//! [`SpanLog::self_by_layer`] is that partition summed per layer.

use std::time::Instant;

use atlahs_bench::json::Json;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Tracers,
    Schedgen,
    Goal,
    Core,
    Lgs,
    Htsim,
    Bench,
    /// The benchmark's own glue between layer calls.
    Harness,
    /// What timing the `Backend` calls itself costs in a traced run.
    Tracing,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Tracers,
        Layer::Schedgen,
        Layer::Goal,
        Layer::Core,
        Layer::Lgs,
        Layer::Htsim,
        Layer::Bench,
        Layer::Harness,
        Layer::Tracing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Tracers => "tracers",
            Layer::Schedgen => "schedgen",
            Layer::Goal => "goal",
            Layer::Core => "core",
            Layer::Lgs => "lgs",
            Layer::Htsim => "htsim",
            Layer::Bench => "bench",
            Layer::Harness => "harness",
            Layer::Tracing => "tracing",
        }
    }
}

/// Index of a span inside its [`SpanLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Many short calls of one function folded into one span.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub name: &'static str,
    pub layer: Layer,
    pub parent: SpanId,
    /// Sum of the measured intervals, each of which includes the clock
    /// read that ends it.
    pub total_ns: u64,
    pub calls: u64,
}

/// Cost of timing one call, measured on an empty span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// What an empty span measures of itself (lands in the aggregate).
    pub inside_ns: f64,
    /// What an empty span costs around that interval (lands in the parent).
    pub outside_ns: f64,
}

impl Calibration {
    pub const ZERO: Calibration = Calibration { inside_ns: 0.0, outside_ns: 0.0 };

    /// Time `n` empty spans.
    pub fn measure(n: u32) -> Calibration {
        let outer = Instant::now();
        let mut inside = 0u64;
        for _ in 0..n {
            let t0 = Instant::now();
            let t1 = std::hint::black_box(Instant::now());
            inside += (t1 - t0).as_nanos() as u64;
        }
        let total = outer.elapsed().as_nanos() as f64;
        let inside_ns = inside as f64 / n as f64;
        Calibration { inside_ns, outside_ns: (total / n as f64 - inside_ns).max(0.0) }
    }
}

/// All spans of one run, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub run_id: u64,
    pub spans: Vec<Span>,
    pub aggregates: Vec<Aggregate>,
    pub calibration: Calibration,
}

impl SpanLog {
    pub fn new(run_id: u64) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            aggregates: Vec::new(),
            calibration: Calibration::ZERO,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, layer: Layer, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, layer, parent, start_ns, end_ns: 0 });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    pub fn aggregate(&mut self, agg: Aggregate) {
        self.aggregates.push(agg);
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    /// The first span called `name`, if it was recorded.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Seconds spent in the first span called `name` (0 if absent).
    pub fn seconds(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    /// An aggregate's time with the empty-span cost of its calls removed.
    pub fn corrected_ns(&self, agg: &Aggregate) -> f64 {
        (agg.total_ns as f64 - self.calibration.inside_ns * agg.calls as f64).max(0.0)
    }

    /// Self time of every span and aggregate, summed per layer (seconds).
    ///
    /// A span keeps its duration minus its child spans and the full
    /// measured time of its child aggregates; an aggregate keeps its
    /// corrected time; the empty-span cost taken out of aggregates, and
    /// the part of it that fell outside them, goes to [`Layer::Tracing`].
    pub fn self_by_layer(&self) -> Vec<(Layer, f64)> {
        let mut self_ns: Vec<f64> = self.spans.iter().map(|s| s.duration_ns() as f64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p.0] -= s.duration_ns() as f64;
            }
        }
        let mut by_layer = [0.0f64; Layer::ALL.len()];
        // `Layer::ALL` lists the variants in declaration order.
        let slot = |l: Layer| l as usize;
        for a in &self.aggregates {
            let corrected = self.corrected_ns(a);
            let outside = self.calibration.outside_ns * a.calls as f64;
            self_ns[a.parent.0] -= a.total_ns as f64 + outside;
            by_layer[slot(a.layer)] += corrected;
            by_layer[slot(Layer::Tracing)] += a.total_ns as f64 - corrected + outside;
        }
        for (s, ns) in self.spans.iter().zip(&self_ns) {
            by_layer[slot(s.layer)] += ns;
        }
        Layer::ALL.iter().map(|&l| (l, by_layer[slot(l)] / 1e9)).collect()
    }

    /// The trace file: every span and aggregate of the run.
    pub fn to_json(&self, workload: &str) -> Json {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str("atlahs-benchmark-trace-v1".into()));
        doc.set("workload", Json::Str(workload.into()));
        doc.set("run_id", Json::Num(self.run_id as f64));
        let mut cal = Json::obj();
        cal.set("empty_span_inside_ns", Json::Num(self.calibration.inside_ns));
        cal.set("empty_span_outside_ns", Json::Num(self.calibration.outside_ns));
        doc.set("calibration", cal);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut j = Json::obj();
                j.set("id", Json::Num(i as f64));
                j.set("name", Json::Str(s.name.into()));
                j.set("layer", Json::Str(s.layer.name().into()));
                j.set("parent", s.parent.map_or(Json::Null, |p| Json::Num(p.0 as f64)));
                j.set("start_ns", Json::Num(s.start_ns as f64));
                j.set("end_ns", Json::Num(s.end_ns as f64));
                j
            })
            .collect();
        doc.set("spans", Json::Arr(spans));
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                let mut j = Json::obj();
                j.set("name", Json::Str(a.name.into()));
                j.set("layer", Json::Str(a.layer.name().into()));
                j.set("parent", Json::Num(a.parent.0 as f64));
                j.set("calls", Json::Num(a.calls as f64));
                j.set("total_ns", Json::Num(a.total_ns as f64));
                j.set("corrected_ns", Json::Num(self.corrected_ns(a).round()));
                j
            })
            .collect();
        doc.set("aggregates", Json::Arr(aggregates));
        let mut layers = Json::obj();
        for (layer, s) in self.self_by_layer() {
            layers.set(layer.name(), Json::Num(s));
        }
        doc.set("self_seconds_by_layer", layers);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log with hand-written timestamps (the clock is not involved).
    fn log_of(spans: &[(&'static str, Layer, Option<usize>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new(1);
        for &(name, layer, parent, start_ns, end_ns) in spans {
            log.spans.push(Span { name, layer, parent: parent.map(SpanId), start_ns, end_ns });
        }
        log
    }

    fn layer_s(log: &SpanLog, layer: Layer) -> f64 {
        log.self_by_layer().into_iter().find(|(l, _)| *l == layer).unwrap().1
    }

    #[test]
    fn nested_spans_partition_the_root() {
        let log = log_of(&[
            ("root", Layer::Harness, None, 0, 1_000),
            ("parse", Layer::Tracers, Some(0), 100, 300),
            ("run", Layer::Core, Some(0), 400, 900),
            ("inner", Layer::Goal, Some(2), 500, 600),
        ]);
        assert_eq!(layer_s(&log, Layer::Tracers), 200e-9);
        assert_eq!(layer_s(&log, Layer::Goal), 100e-9);
        assert_eq!(layer_s(&log, Layer::Core), 400e-9); // 500 - inner 100
        assert_eq!(layer_s(&log, Layer::Harness), 300e-9); // 1000 - 200 - 500
        let total: f64 = log.self_by_layer().iter().map(|(_, s)| s).sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn aggregates_are_children_of_their_parent_span() {
        let mut log = log_of(&[
            ("root", Layer::Harness, None, 0, 10_000),
            ("run", Layer::Core, Some(0), 1_000, 9_000),
        ]);
        log.aggregate(Aggregate {
            name: "backend.next_event",
            layer: Layer::Lgs,
            parent: SpanId(1),
            total_ns: 5_000,
            calls: 100,
        });
        assert_eq!(layer_s(&log, Layer::Lgs), 5_000e-9);
        assert_eq!(layer_s(&log, Layer::Core), 3_000e-9);
        assert_eq!(layer_s(&log, Layer::Tracing), 0.0);
    }

    #[test]
    fn calibration_moves_the_clock_cost_to_the_tracing_layer() {
        let mut log = log_of(&[
            ("root", Layer::Harness, None, 0, 10_000),
            ("run", Layer::Core, Some(0), 0, 10_000),
        ]);
        log.calibration = Calibration { inside_ns: 10.0, outside_ns: 5.0 };
        log.aggregate(Aggregate {
            name: "backend.send",
            layer: Layer::Htsim,
            parent: SpanId(1),
            total_ns: 4_000,
            calls: 100,
        });
        // 100 calls x 10 ns measured inside the aggregate, x 5 ns outside.
        assert_eq!(layer_s(&log, Layer::Htsim), 3_000e-9);
        assert_eq!(layer_s(&log, Layer::Tracing), 1_500e-9);
        assert_eq!(layer_s(&log, Layer::Core), 5_500e-9);
        let total: f64 = log.self_by_layer().iter().map(|(_, s)| s).sum();
        assert!((total - 10_000e-9).abs() < 1e-15);
    }

    #[test]
    fn correction_never_goes_negative() {
        let mut log = log_of(&[("root", Layer::Core, None, 0, 100)]);
        log.calibration = Calibration { inside_ns: 50.0, outside_ns: 0.0 };
        let agg = Aggregate {
            name: "backend.calc",
            layer: Layer::Lgs,
            parent: SpanId(0),
            total_ns: 60,
            calls: 2,
        };
        assert_eq!(log.corrected_ns(&agg), 0.0);
    }

    #[test]
    fn live_spans_nest_and_measure_nonzero_time() {
        let mut log = SpanLog::new(7);
        let root = log.open("root", Layer::Harness, None);
        let v = log.time("work", Layer::Goal, root, || (0..10_000u64).sum::<u64>());
        log.close(root);
        assert_eq!(v, 49_995_000);
        let (r, w) = (log.get(root), log.find("work").unwrap());
        assert!(r.start_ns <= w.start_ns && w.end_ns <= r.end_ns);
        assert_eq!(w.parent, Some(root));
        let doc = Json::parse(&log.to_json("w").pretty()).unwrap();
        assert_eq!(doc.get("spans").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(doc.get("run_id").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn calibration_measures_a_small_positive_cost() {
        let c = Calibration::measure(10_000);
        assert!(c.inside_ns > 0.0 && c.inside_ns < 10_000.0, "{c:?}");
        assert!(c.outside_ns >= 0.0 && c.outside_ns < 10_000.0, "{c:?}");
    }
}
