//! `sia-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth_cegis|serve_mixed|query_tpch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up several times (reporting the median set-up
//! time), measures closed-loop operations for `--seconds` in whole rounds,
//! checks every output with checkers that work apart from the code path under
//! test, and prints one JSON object as the last line of stdout:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! See `README.md` for the workloads, metrics and reference figures.

mod check;
mod layers;
mod query;
mod serve;
mod stats;
mod synth;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics of an untraced run. `tail` is the workload's tail
/// percentile, the highest that leaves at least ten samples beyond it in a
/// run of the workload.
pub fn end_to_end(
    throughput: f64,
    latencies_ms: &[f64],
    tail: f64,
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    Ok(vec![
        Metric::new("throughput_per_s", throughput, "1/s"),
        Metric::new("latency_p50_ms", stats::quantile(latencies_ms, 0.5), "ms"),
        Metric::new("latency_tail_ms", stats::quantile(latencies_ms, tail), "ms"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb()?, "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ])
}

/// What a run prints as its last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    sia_obs::json_string(&m.name),
                    sia_obs::json_number(m.value),
                    sia_obs::json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "synth_cegis" => synth::run(&args),
        "serve_mixed" => serve::run(&args),
        "query_tpch" => query::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (expected synth_cegis, serve_mixed or query_tpch)"
        )),
    };
    let result =
        result.and_then(
            |report| match report.metrics.iter().find(|m| !m.value.is_finite()) {
                Some(m) => Err(format!("metric {} is not a number ({})", m.name, m.value)),
                None => Ok(report),
            },
        );
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
