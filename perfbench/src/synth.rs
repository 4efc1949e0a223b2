//! `synth_cegis`: in-process `Synthesizer::synthesize` (default config, no
//! deadline, a fresh synthesizer per task) over the §6.3 tasks that static
//! derivation (`Analyzer::derive`) does not answer exactly.
//!
//! The task set is the fixed `SEED_6_3_SERVE` preset: task cost is heavy
//! tailed (a few tasks take most of a pass), so a task set drawn from
//! `--seed` would make throughput a property of the draw rather than of the
//! code. The seed orders the tasks and draws the checker's tuples.

use std::time::{Duration, Instant};

use sia_analyze::Analyzer;
use sia_core::{SiaConfig, SynthesisError, SynthesisResult, Synthesizer};
use sia_expr::Pred;
use sia_rand::rngs::StdRng;
use sia_rand::SeedableRng;

use crate::check;
use crate::layers::Layers;
use crate::stats::{another_pass_fits, ms, shuffle, timed_setup};
use crate::{end_to_end, Args, Report};

/// Queries, term range and seed of the §6.3 preset the tasks come from.
const QUERIES: usize = 200;
const MIN_TERMS: usize = 2;
const MAX_TERMS: usize = 4;
/// Tail percentile: a pass has 44 tasks, so p75 is the highest with ten
/// tasks beyond it.
const TAIL: f64 = 0.75;

struct Task {
    id: String,
    pred: Pred,
    cols: Vec<String>,
}

struct Tasks {
    cegis: Vec<Task>,
    statics: usize,
}

fn build(seed: u64) -> Result<Tasks, String> {
    let all = sia_gen::paper_6_3_tasks(QUERIES, MIN_TERMS, MAX_TERMS, sia_gen::SEED_6_3_SERVE);
    let analyzer = Analyzer::new();
    let total = all.len();
    let mut cegis: Vec<Task> = all
        .into_iter()
        .filter(|t| {
            !analyzer
                .derive(&t.predicate, &t.cols)
                .is_some_and(|d| d.is_exact())
        })
        .map(|t| Task {
            id: t.id,
            pred: t.predicate,
            cols: t.cols,
        })
        .collect();
    if cegis.is_empty() {
        return Err("the §6.3 preset has no task that needs CEGIS".into());
    }
    shuffle(&mut cegis, &mut StdRng::seed_from_u64(seed));
    Ok(Tasks {
        statics: total - cegis.len(),
        cegis,
    })
}

struct Outcome {
    task: usize,
    latency: Duration,
    result: Result<SynthesisResult, SynthesisError>,
}

fn pass(tasks: &[Task]) -> Vec<Outcome> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut syn = Synthesizer::new(SiaConfig::default());
            let start = Instant::now();
            let result = syn.synthesize(&t.pred, &t.cols);
            Outcome {
                task: i,
                latency: start.elapsed(),
                result,
            }
        })
        .collect()
}

/// Whole passes for as long as `seconds` allows, at least one.
fn measure(tasks: &[Task], seconds: f64) -> Vec<Vec<Outcome>> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || another_pass_fits(start, passes.len(), seconds) {
        passes.push(pass(tasks));
    }
    passes
}

fn busy(pass: &[Outcome]) -> Duration {
    pass.iter().map(|o| o.latency).sum()
}

/// Tasks of a pass whose answer is certified optimal.
fn optimal_in(pass: &[Outcome]) -> usize {
    pass.iter()
        .filter(|o| o.result.as_ref().is_ok_and(|r| r.optimal))
        .count()
}

/// Check every answer: it must exist, and each distinct predicate must be
/// implied by its task's predicate on seeded tuples and in a fresh solver
/// check. The tightened copy of every answer must be rejected.
fn check_all(tasks: &[Task], passes: &[&Vec<Outcome>], seed: u64) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut seen: Vec<Vec<String>> = vec![Vec::new(); tasks.len()];
    let mut tuples: Vec<Option<Vec<check::Tuple>>> = (0..tasks.len()).map(|_| None).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC);
    let mut planted = 0;
    for o in passes.iter().flat_map(|p| p.iter()) {
        let t = &tasks[o.task];
        let q = match &o.result {
            Ok(r) => r.predicate.clone().unwrap_or_else(Pred::true_),
            Err(e) => {
                failed += 1;
                eprintln!("synth_cegis: {}: synthesis failed: {e}", t.id);
                continue;
            }
        };
        let key = q.to_string();
        if seen[o.task].contains(&key) {
            continue;
        }
        seen[o.task].push(key);
        let p_true = tuples[o.task].get_or_insert_with(|| check::true_tuples(&t.pred, &mut rng));
        match check::valid_answer(&t.pred, &t.cols, &q, p_true) {
            Ok(true) => planted += 1,
            Ok(false) => {}
            Err(e) => problems.push(format!("{}: {e}", t.id)),
        }
    }
    if planted == 0 {
        problems.push("no answer had tuples to plant a wrong answer on".into());
    }
    (failed, problems)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (tasks, setup_s) = timed_setup(|| build(args.seed))?;
    let untraced = measure(&tasks.cegis, args.seconds);

    let traced = args.trace.then(|| {
        sia_obs::reset();
        sia_obs::enable();
        let p = pass(&tasks.cegis);
        sia_obs::disable();
        (p, sia_obs::snapshot())
    });

    let all: Vec<&Vec<Outcome>> = untraced
        .iter()
        .chain(traced.iter().map(|(p, _)| p))
        .collect();
    let (failed, problems) = check_all(&tasks.cegis, &all, args.seed);
    for p in &problems {
        eprintln!("synth_cegis: {p}");
    }
    let attempted: usize = all.iter().map(|p| p.len()).sum();
    let optimal: Vec<usize> = untraced.iter().map(|p| optimal_in(p)).collect();
    println!(
        "synth_cegis: {} §6.3 tasks, {} answered statically (skipped), {} need CEGIS; \
         {} untraced pass(es); certified optimal per pass {:?}; {attempted} attempted, {failed} failed",
        tasks.statics + tasks.cegis.len(),
        tasks.statics,
        tasks.cegis.len(),
        untraced.len(),
        optimal,
    );

    let untraced_busy: Duration = untraced.iter().map(|p| busy(p)).sum();
    #[allow(clippy::cast_precision_loss)]
    let untraced_per_pass = untraced_busy.as_secs_f64() / untraced.len() as f64;
    let metrics = if let Some((traced_pass, snap)) = &traced {
        let mut layers = Layers::default();
        layers.add_snapshot(snap, 1.0);
        layers.set("core.synthesize_ms", ms(busy(traced_pass)));
        #[allow(clippy::cast_precision_loss)]
        {
            layers.set("core.optimal_count", optimal_in(traced_pass) as f64);
            layers.set("core.static_tasks", tasks.statics as f64);
            layers.set("core.cegis_tasks", tasks.cegis.len() as f64);
        }
        layers.set(
            "trace.overhead_pct",
            100.0 * (busy(traced_pass).as_secs_f64() / untraced_per_pass - 1.0),
        );
        layers.into_metrics()?
    } else {
        let lat: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.iter().map(|o| ms(o.latency)))
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let throughput = lat.len() as f64 / untraced_busy.as_secs_f64();
        end_to_end(throughput, &lat, TAIL, setup_s)?
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: attempted as u64,
        failed,
        metrics,
    })
}
