//! The per-layer metrics of a traced run (`--trace 1`).
//!
//! Every workload reports the same list, so runs are comparable; a layer a
//! workload does not exercise reads 0 there. Counts and times are per pass
//! (one whole round of the workload's operations), except the `serve.*_us`
//! phase figures, which are means per request of the class they name.
//! The README maps each metric to the end-to-end metric it should move.

use std::collections::BTreeMap;

use sia_obs::{Counter, Hist, Snapshot};

use crate::Metric;

/// Request phases the service reports per response (`respond` comes from the
/// collector's span stream, since it runs after the response is written).
pub const SERVE_PHASES: [&str; 7] = [
    "parse", "admit", "queue", "lint", "cache", "synth", "respond",
];

/// Per-layer metrics other than the per-class serve figures, with units.
const FIXED: [(&str, &str); 43] = [
    ("serve.rejected", "count"),
    ("serve.hit_share", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.inserts", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("analyze.derive.static", "count"),
    ("analyze.derive.miss", "count"),
    ("analyze.derive_ms", "ms"),
    ("analyze.lint_warnings", "count"),
    ("core.synthesize_ms", "ms"),
    ("core.optimal_count", "count"),
    ("core.static_tasks", "count"),
    ("core.cegis_tasks", "count"),
    ("cegis.rounds", "count"),
    ("cegis.true_samples", "count"),
    ("cegis.false_samples", "count"),
    ("synth.generate_ms", "ms"),
    ("synth.learn_ms", "ms"),
    ("synth.verify_ms", "ms"),
    ("smt.checks", "count"),
    ("smt.check_ms", "ms"),
    ("sat.decisions", "count"),
    ("sat.conflicts", "count"),
    ("simplex.pivots", "count"),
    ("qe.eliminations", "count"),
    ("qe.eliminate_ms", "ms"),
    ("qe.blowup_max", "ratio"),
    ("svm.trainings", "count"),
    ("svm.train_ms", "ms"),
    ("svm.iterations_p50", "count"),
    ("engine.plan_ms", "ms"),
    ("engine.move_around_ms", "ms"),
    ("engine.optimize_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.rows_scanned", "count"),
    ("engine.join_input_rows", "count"),
    ("engine.join_output_rows", "count"),
    ("engine.output_rows", "count"),
    ("engine.moveraround.derived", "count"),
    ("engine.moveraround.synthesized", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric with its unit, in report order.
fn catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for class in ["hit", "miss"] {
        out.push((format!("serve.{class}.latency_p50_ms"), "ms"));
        out.push((format!("serve.{class}.transport_us"), "us"));
        out.push((format!("serve.{class}.server_us"), "us"));
        for phase in SERVE_PHASES {
            out.push((format!("serve.{class}.{phase}_us"), "us"));
        }
    }
    out.extend(FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Per-layer values a workload measured; unmeasured ones read 0.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Fold the collector's counters, histograms and spans in, dividing the
    /// counts and times by `passes`.
    pub fn add_snapshot(&mut self, snap: &Snapshot, passes: f64) {
        let counter = |c: Counter| {
            #[allow(clippy::cast_precision_loss)]
            let v = snap
                .counters
                .iter()
                .find(|(k, _)| *k == c)
                .map_or(0.0, |(_, v)| *v as f64);
            v / passes
        };
        // Total milliseconds in spans whose innermost name is `name`.
        let span_ms = |name: &str| {
            let total: f64 = snap
                .spans
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(name))
                .map(|(_, s)| s.total.as_secs_f64() * 1e3)
                .sum();
            total / passes
        };
        let hist = |h: Hist| snap.hists.iter().find(|(k, _)| *k == h).map(|(_, d)| d);

        for (name, c) in [
            ("analyze.derive.static", Counter::AnalyzeDeriveStatic),
            ("analyze.derive.miss", Counter::AnalyzeDeriveMiss),
            ("analyze.lint_warnings", Counter::AnalyzeLintWarnings),
            ("cegis.rounds", Counter::CegisRounds),
            ("cegis.true_samples", Counter::CegisTrueSamples),
            ("cegis.false_samples", Counter::CegisFalseSamples),
            ("smt.checks", Counter::SmtChecks),
            ("sat.decisions", Counter::SatDecisions),
            ("sat.conflicts", Counter::SatConflicts),
            ("simplex.pivots", Counter::SimplexPivots),
            ("qe.eliminations", Counter::QeEliminations),
            ("svm.trainings", Counter::SvmTrainings),
            ("engine.moveraround.derived", Counter::EngineMoveDerived),
            (
                "engine.moveraround.synthesized",
                Counter::EngineMoveSynthesized,
            ),
        ] {
            self.set(name, counter(c));
        }
        // Synthesis phases as `Synthesizer::synthesize` opens them; callers
        // that time the synthesizer themselves overwrite the total.
        self.set("core.synthesize_ms", span_ms("synth"));
        self.set("synth.generate_ms", span_ms("generate"));
        self.set("synth.learn_ms", span_ms("learn"));
        self.set("synth.verify_ms", span_ms("verify") + span_ms("optimality"));
        self.set("analyze.derive_ms", span_ms("derive"));
        self.set("smt.check_ms", span_ms("smt.check"));
        self.set("qe.eliminate_ms", span_ms("qe.eliminate"));
        self.set("svm.train_ms", span_ms("svm.train"));
        self.set("qe.blowup_max", hist(Hist::QeBlowup).map_or(0.0, |d| d.max));
        self.set(
            "svm.iterations_p50",
            hist(Hist::SvmIterations).map_or(0.0, sia_obs::HistData::p50),
        );
    }

    /// The full catalogue in order, 0 where nothing was measured.
    pub fn into_metrics(mut self) -> Result<Vec<Metric>, String> {
        let metrics: Vec<Metric> = catalogue()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.0.remove(&name).unwrap_or(0.0);
                Metric { name, value, unit }
            })
            .collect();
        if let Some(stray) = self.0.keys().next() {
            return Err(format!("layer metric {stray:?} is not in the catalogue"));
        }
        Ok(metrics)
    }
}
