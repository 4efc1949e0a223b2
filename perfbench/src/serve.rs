//! `serve_mixed`: the synthesis service in-process, configured as `sia serve`
//! starts it, driven closed-loop over two persistent loopback connections.
//!
//! Set-up starts the server and answers the §6.3 templates that static
//! derivation answers exactly (the cache's warm set). Each connection then
//! sends whole rounds of [`ROUND`] requests: one miss, a fresh zone-eligible
//! `sia-gen` template, and the rest hits, warm templates repeated verbatim or
//! alpha-renamed by `sia_gen::with_repeats`. The seed picks the hit templates,
//! the miss's slot in each round and the `sia-gen` miss templates. Every
//! miss is a new template: the pool's templates with their comparison
//! constants shifted by the number of times the pool has been used.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sia_analyze::Analyzer;
use sia_expr::{Date, Expr, Pred};
use sia_obs::{MemorySink, OwnedEvent};
use sia_rand::rngs::StdRng;
use sia_rand::{Rng, SeedableRng};
use sia_serve::protocol::render_request;
use sia_serve::{server, Request, Response, ServeConfig, ServerHandle, Status};

use crate::check;
use crate::layers::{Layers, SERVE_PHASES};
use crate::stats::{ms, quantile, timed_setup};
use crate::{end_to_end, Args, Report};

/// Client connections (the machine this was sized on has two cores).
const CONNECTIONS: usize = 2;
/// Requests per connection per round; one of them is a miss.
const ROUND: usize = 8;
/// Fresh `sia-gen` templates drawn per run; misses cycle through them.
const MISS_POOL: usize = 64;
/// Alpha-renamed variants per warm template (`with_repeats` repetitions).
const VARIANTS: usize = 4;
/// Tail percentile (a run has hundreds of requests).
const TAIL: f64 = 0.90;
/// Most miss answers one run checks for validity.
const MAX_MISS_CHECKS: usize = 500;
/// Warm-up requests in flight per connection.
const WARM_WINDOW: usize = 16;

/// A warm template with the answer the service gave when it was first asked.
struct Warm {
    pred: Pred,
    cols: Vec<String>,
    answer: Pred,
}

/// A hit request: a `with_repeats` variant of a warm template.
struct Hit {
    warm: usize,
    /// Column prefix of the variant (empty when verbatim).
    prefix: String,
    predicate: String,
    cols: Vec<String>,
}

struct Setup {
    server: ServerHandle,
    warm: Vec<Warm>,
    hits: Vec<Hit>,
    misses: Vec<(Pred, Vec<String>)>,
}

fn serve_config() -> ServeConfig {
    // `sia serve`'s defaults.
    ServeConfig {
        workers: 2,
        cache_capacity: 1024,
        queue_depth: 64,
        admission_delay_budget: Some(Duration::from_millis(250)),
        lint_schemas: sia_gen::schemas().into_iter().map(|(_, s)| s).collect(),
        ..ServeConfig::default()
    }
}

fn answer_of(r: &Response) -> Result<Pred, String> {
    match &r.predicate {
        None => Ok(Pred::true_()),
        Some(s) => sia_sql::parse_predicate(s).map_err(|e| format!("answer `{s}`: {e}")),
    }
}

fn build(seed: u64) -> Result<Setup, String> {
    let analyzer = Analyzer::new();
    let exact = |p: &Pred, cols: &[String]| analyzer.derive(p, cols).is_some_and(|d| d.is_exact());
    let tasks: Vec<_> = sia_gen::paper_6_3_tasks(200, 2, 4, sia_gen::SEED_6_3_SERVE)
        .into_iter()
        .filter(|t| exact(&t.predicate, &t.cols))
        .collect();
    let server = server::start(serve_config()).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let warm_requests: Vec<Request> = tasks
        .iter()
        .map(|t| Request {
            id: t.id.clone(),
            predicate: t.predicate.to_string(),
            cols: t.cols.clone(),
            timeout_ms: None,
            trace: None,
        })
        .collect();
    let lanes: Vec<Result<Vec<Response>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = warm_requests
            .chunks(warm_requests.len().div_ceil(CONNECTIONS))
            .map(|chunk| s.spawn(|| pipelined(&addr, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("warm-up thread panicked".into()))
            })
            .collect()
    });
    let mut responses = Vec::with_capacity(warm_requests.len());
    for lane in lanes {
        responses.extend(lane.map_err(|e| format!("warming the cache: {e}"))?);
    }
    let by_id: HashMap<&str, &Response> = responses.iter().map(|r| (r.id.as_str(), r)).collect();
    let mut warm = Vec::with_capacity(tasks.len());
    for t in &tasks {
        let r = by_id
            .get(t.id.as_str())
            .ok_or_else(|| format!("no warm-up answer for {}", t.id))?;
        if r.status != Status::Ok || r.degraded {
            return Err(format!("warm-up of {} answered {:?}", t.id, r.status));
        }
        warm.push(Warm {
            pred: t.predicate.clone(),
            cols: t.cols.clone(),
            answer: answer_of(r)?,
        });
    }
    let hits = sia_gen::with_repeats(&tasks, VARIANTS)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let w = i / VARIANTS;
            let prefix = v.cols[0]
                .strip_suffix(tasks[w].cols[0].as_str())
                .unwrap_or_default()
                .to_string();
            Hit {
                warm: w,
                prefix,
                predicate: v.predicate.to_string(),
                cols: v.cols,
            }
        })
        .collect();
    let misses: Vec<(Pred, Vec<String>)> = sia_gen::generate(&sia_gen::GenConfig {
        count: MISS_POOL,
        seed,
        zone: sia_gen::ZonePolicy::Eligible,
        ..sia_gen::GenConfig::default()
    })?
    .into_iter()
    .filter(|g| exact(&g.predicate, &g.cols))
    .map(|g| (g.predicate, g.cols))
    .collect();
    if misses.is_empty() {
        return Err("no sia-gen template is answered by static derivation".into());
    }
    Ok(Setup {
        server,
        warm,
        hits,
        misses,
    })
}

/// Send `requests` on one connection with at most [`WARM_WINDOW`] awaiting
/// an answer, which keeps the queue under the admission limit.
fn pipelined(addr: &str, requests: &[Request]) -> Result<Vec<Response>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut out = Vec::with_capacity(requests.len());
    let mut sent = 0;
    let mut line = String::new();
    while out.len() < requests.len() {
        while sent < requests.len() && sent - out.len() < WARM_WINDOW {
            let mut req = render_request(&requests[sent]);
            req.push('\n');
            stream
                .write_all(req.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            sent += 1;
        }
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?
            == 0
        {
            return Err("server closed the connection".into());
        }
        out.push(Response::parse(line.trim()).map_err(|e| format!("response `{line}`: {e}"))?);
    }
    Ok(out)
}

/// Shift every comparison's literal right-hand side by `by` units (days for
/// dates): the same shape with new constants, hence a new cache template.
fn shift(p: &Pred, by: i64) -> Pred {
    match p {
        Pred::Cmp { op, lhs, rhs } => {
            let rhs = match rhs {
                Expr::Int(v) => Expr::Int(v.saturating_add(by)),
                #[allow(clippy::cast_precision_loss)]
                Expr::Double(x) => Expr::Double(x + by as f64),
                Expr::Date(d) => Expr::Date(Date::from_days(d.to_days().saturating_add(by))),
                other => other.clone(),
            };
            Pred::Cmp {
                op: *op,
                lhs: lhs.clone(),
                rhs,
            }
        }
        Pred::And(ps) => Pred::And(ps.iter().map(|q| shift(q, by)).collect()),
        Pred::Or(ps) => Pred::Or(ps.iter().map(|q| shift(q, by)).collect()),
        Pred::Not(q) => Pred::Not(Box::new(shift(q, by))),
        Pred::Lit(_) => p.clone(),
    }
}

/// Miss number `j` of a run.
fn miss(setup: &Setup, j: usize) -> (Pred, Vec<String>) {
    let (p, cols) = &setup.misses[j % setup.misses.len()];
    let by = i64::try_from(j / setup.misses.len()).unwrap_or(i64::MAX);
    (shift(p, by), cols.clone())
}

/// What a request was, by the plan.
#[derive(Clone, Copy)]
enum Kind {
    Hit(usize),
    Miss(usize),
}

struct Sample {
    kind: Kind,
    trace: u64,
    latency: Duration,
    resp: Response,
}

fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &Request,
) -> Result<(Response, Duration), String> {
    let mut line = render_request(req);
    line.push('\n');
    let mut answer = String::new();
    let start = Instant::now();
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    reader
        .read_line(&mut answer)
        .map_err(|e| format!("receive: {e}"))?;
    let latency = start.elapsed();
    let resp = Response::parse(answer.trim()).map_err(|e| format!("response `{answer}`: {e}"))?;
    Ok((resp, latency))
}

/// One connection: whole rounds until `seconds` have passed since `start`.
/// Its `m`-th miss is miss number `first_miss + conn + CONNECTIONS * m`.
fn drive(
    setup: &Setup,
    conn: usize,
    seed: u64,
    first_miss: usize,
    seconds: f64,
    start: Instant,
) -> Result<Vec<Sample>, String> {
    let mut stream =
        TcpStream::connect(setup.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ conn as u64);
    let mut samples = Vec::new();
    let mut misses = 0;
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let miss_slot = rng.gen_range(0..ROUND);
        for k in 0..ROUND {
            let (kind, predicate, cols) = if k == miss_slot {
                let j = first_miss + conn + CONNECTIONS * misses;
                misses += 1;
                let (p, cols) = miss(setup, j);
                (Kind::Miss(j), p.to_string(), cols)
            } else {
                let h = rng.gen_range(0..setup.hits.len());
                let hit = &setup.hits[h];
                (Kind::Hit(h), hit.predicate.clone(), hit.cols.clone())
            };
            let trace =
                ((conn as u64 + 1) << 40) | (first_miss as u64) << 20 | samples.len() as u64;
            let req = Request {
                id: format!("c{conn}-{}", samples.len()),
                predicate,
                cols,
                timeout_ms: None,
                trace: Some(trace),
            };
            let (resp, latency) = exchange(&mut stream, &mut reader, &req)?;
            samples.push(Sample {
                kind,
                trace,
                latency,
                resp,
            });
        }
    }
    Ok(samples)
}

/// Both connections for one window; returns the samples and the window.
fn window(
    setup: &Setup,
    seed: u64,
    first_miss: usize,
    seconds: f64,
) -> Result<(Vec<Sample>, Duration), String> {
    let start = Instant::now();
    let lanes: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || drive(setup, c, seed, first_miss, seconds, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = start.elapsed();
    let mut all = Vec::new();
    for lane in lanes {
        all.extend(lane?);
    }
    Ok((all, elapsed))
}

/// Check every answer; returns (failed operations, problems).
fn check_all(setup: &Setup, samples: &[&Sample], seed: u64) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E);
    let mut planted = 0;
    // Warm answers are outputs too: each must be implied by its template.
    let mut validity = |p: &Pred, cols: &[String], q: &Pred, what: &str| -> Option<String> {
        let p_true = check::true_tuples(p, &mut rng);
        match check::valid_answer(p, cols, q, &p_true) {
            Ok(true) => {
                planted += 1;
                None
            }
            Ok(false) => None,
            Err(e) => Some(format!("{what}: {e}")),
        }
    };
    for (i, w) in setup.warm.iter().enumerate() {
        problems.extend(validity(
            &w.pred,
            &w.cols,
            &w.answer,
            &format!("warm template {i}"),
        ));
    }
    let mut hit_problems = Vec::new();
    // Every miss is a distinct template; when there are many, a fixed
    // stride of them is checked, so checking time stays bounded however
    // fast the service gets.
    let misses = samples
        .iter()
        .filter(|s| matches!(s.kind, Kind::Miss(_)))
        .count();
    let stride = misses.div_ceil(MAX_MISS_CHECKS).max(1);
    for s in samples {
        if s.resp.status != Status::Ok || s.resp.degraded {
            failed += 1;
            eprintln!(
                "serve_mixed: {} answered {:?} (degraded: {})",
                s.resp.id, s.resp.status, s.resp.degraded
            );
            continue;
        }
        let answer = match answer_of(&s.resp) {
            Ok(a) => a,
            Err(e) => {
                problems.push(format!("{}: {e}", s.resp.id));
                continue;
            }
        };
        match s.kind {
            Kind::Hit(h) => {
                // Same predicate as the template's first answer, up to the
                // variant's renaming.
                let hit = &setup.hits[h];
                let expected = &setup.warm[hit.warm].answer;
                if !same_up_to_renaming(&answer, &hit.prefix, expected) {
                    hit_problems.push(format!(
                        "{}: hit answered `{answer}`, first answer was `{expected}`",
                        s.resp.id
                    ));
                }
            }
            Kind::Miss(j) => {
                if j % stride == 0 {
                    let (p, cols) = miss(setup, j);
                    problems.extend(validity(&p, &cols, &answer, &s.resp.id));
                }
            }
        }
    }
    // Self-test of the hit comparison: the renamed first answer of a
    // template passes, and the answer of another template does not.
    let first = &setup.warm[0].answer;
    let renamed = first.map_columns(&|c: &str| format!("v1_{c}"));
    match setup
        .warm
        .iter()
        .find(|w| w.answer.to_string() != first.to_string())
    {
        Some(other)
            if same_up_to_renaming(&renamed, "v1_", first)
                && !same_up_to_renaming(&other.answer, "", first) => {}
        _ => problems.push("hit comparison self-test failed".into()),
    }
    if planted == 0 {
        problems.push("no answer had tuples to plant a wrong answer on".into());
    }
    problems.extend(hit_problems);
    (failed, problems)
}

/// Whether a hit's `answer`, with the variant's column `prefix` taken off,
/// is the template's first answer.
fn same_up_to_renaming(answer: &Pred, prefix: &str, first: &Pred) -> bool {
    let back = answer.map_columns(&|c: &str| c.strip_prefix(prefix).unwrap_or(c).to_string());
    back.to_string() == first.to_string()
}

/// Per-class means of the client latency, server time, transport and phases,
/// with `respond` times keyed by trace id (from the collector's spans).
fn class_layers(layers: &mut Layers, samples: &[Sample], respond_us: &HashMap<u64, u64>) {
    for (class, want_hit) in [("hit", true), ("miss", false)] {
        let of: Vec<&Sample> = samples
            .iter()
            .filter(|s| matches!(s.kind, Kind::Hit(_)) == want_hit)
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let n = of.len().max(1) as f64;
        #[allow(clippy::cast_precision_loss)]
        let mean = |f: &dyn Fn(&Sample) -> f64| of.iter().map(|s| f(s)).sum::<f64>() / n;
        #[allow(clippy::cast_precision_loss)]
        let server = |s: &Sample| s.resp.micros as f64;
        let client = |s: &Sample| s.latency.as_secs_f64() * 1e6;
        layers.set(&format!("serve.{class}.server_us"), mean(&server));
        layers.set(
            &format!("serve.{class}.transport_us"),
            mean(&|s| client(s) - server(s)),
        );
        for phase in SERVE_PHASES {
            #[allow(clippy::cast_precision_loss)]
            let v = mean(&|s| {
                if phase == "respond" {
                    respond_us.get(&s.trace).copied().unwrap_or(0) as f64
                } else {
                    s.resp
                        .phases
                        .iter()
                        .filter(|(p, _)| p == phase)
                        .map(|(_, us)| *us as f64)
                        .sum()
                }
            });
            layers.set(&format!("serve.{class}.{phase}_us"), v);
        }
    }
}

fn p50_ms(samples: &[Sample], hits: bool) -> f64 {
    let lat: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.kind, Kind::Hit(_)) == hits)
        .map(|s| ms(s.latency))
        .collect();
    quantile(&lat, 0.5)
}

fn hit_share(samples: &[Sample]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let share = samples.iter().filter(|s| s.resp.cached).count() as f64 / samples.len() as f64;
    share
}

/// The traced window: the collector on, with a span sink so that each
/// request's `respond` time can be found by its trace id. Returns its
/// samples and the per-layer metrics; `throughput` is the untraced one.
fn traced_window(
    setup: &Setup,
    seed: u64,
    first_miss: usize,
    seconds: f64,
    throughput: f64,
) -> Result<(Vec<Sample>, Layers), String> {
    let (sink, events) = MemorySink::new();
    sia_obs::reset();
    sia_obs::set_sink(Box::new(sink));
    sia_obs::enable();
    let cache_before = setup.server.cache().stats();
    let stats_before = setup.server.stats();
    let result = window(setup, seed, first_miss, seconds);
    sia_obs::disable();
    drop(sia_obs::take_sink());
    let (samples, wall) = result?;
    let cache = setup.server.cache().stats();
    let stats = setup.server.stats();

    let mut respond_us = HashMap::new();
    for e in events.lock().map_err(|_| "span buffer poisoned")?.iter() {
        if let OwnedEvent::SpanExit {
            path,
            trace,
            dur_us,
            ..
        } = e
        {
            if path == "serve.request/respond" {
                respond_us.insert(*trace, *dur_us);
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let passes = samples.len() as f64 / (ROUND * CONNECTIONS) as f64;
    let mut layers = Layers::default();
    layers.add_snapshot(&sia_obs::snapshot(), passes);
    class_layers(&mut layers, &samples, &respond_us);
    let hits = cache.hits - cache_before.hits;
    let misses = cache.misses - cache_before.misses;
    #[allow(clippy::cast_precision_loss)]
    {
        let per_pass = |n: u64| n as f64 / passes;
        layers.set(
            "serve.rejected",
            per_pass(stats.rejected - stats_before.rejected),
        );
        layers.set("cache.hits", per_pass(hits));
        layers.set("cache.misses", per_pass(misses));
        layers.set(
            "cache.inserts",
            per_pass(cache.inserts - cache_before.inserts),
        );
        layers.set(
            "cache.evictions",
            per_pass(cache.evictions - cache_before.evictions),
        );
        layers.set(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let traced = samples.len() as f64 / wall.as_secs_f64();
        layers.set("trace.overhead_pct", 100.0 * (throughput / traced - 1.0));
    }
    Ok((samples, layers))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (setup, setup_s) = timed_setup(|| build(args.seed))?;
    let (untraced, untraced_wall) = window(&setup, args.seed, 0, args.seconds)?;
    #[allow(clippy::cast_precision_loss)]
    let throughput = untraced.len() as f64 / untraced_wall.as_secs_f64();
    let next_miss = untraced
        .iter()
        .filter_map(|s| match s.kind {
            Kind::Miss(j) => Some(j + 1),
            Kind::Hit(_) => None,
        })
        .max()
        .unwrap_or(0);
    let (traced, layers) = if args.trace {
        let (samples, layers) = traced_window(
            &setup,
            args.seed ^ 0x7EACE,
            next_miss,
            args.seconds,
            throughput,
        )?;
        (samples, Some(layers))
    } else {
        (Vec::new(), None)
    };

    let all: Vec<&Sample> = untraced.iter().chain(&traced).collect();
    let (failed, problems) = check_all(&setup, &all, args.seed);
    for p in &problems {
        eprintln!("serve_mixed: {p}");
    }
    let planned_hits = untraced
        .iter()
        .filter(|s| matches!(s.kind, Kind::Hit(_)))
        .count();
    println!(
        "serve_mixed: {} warm templates, {} miss templates; {} requests in {:.2} s; \
         planned {} hits / {} misses, observed hit share {:.4} (planned {:.4}); \
         hit p50 {:.3} ms, miss p50 {:.3} ms; {} attempted, {failed} failed",
        setup.warm.len(),
        setup.misses.len(),
        untraced.len(),
        untraced_wall.as_secs_f64(),
        planned_hits,
        untraced.len() - planned_hits,
        hit_share(&untraced),
        (ROUND - 1) as f64 / ROUND as f64,
        p50_ms(&untraced, true),
        p50_ms(&untraced, false),
        all.len(),
    );

    let metrics = if let Some(mut layers) = layers {
        layers.set("serve.hit.latency_p50_ms", p50_ms(&untraced, true));
        layers.set("serve.miss.latency_p50_ms", p50_ms(&untraced, false));
        layers.set("serve.hit_share", hit_share(&untraced));
        layers.into_metrics()?
    } else {
        let lat: Vec<f64> = untraced.iter().map(|s| ms(s.latency)).collect();
        end_to_end(throughput, &lat, TAIL, setup_s)?
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: all.len() as u64,
        failed,
        metrics,
    })
}
