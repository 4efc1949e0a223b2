//! `query_tpch`: `Database::run` with `MoveAround::Synthesis` on one
//! in-memory database: `sia-tpch` orders/lineitem at SF 0.2 (about 120k
//! lineitem rows) plus `sia-gen` customer/nation/region/supplier.
//!
//! The query stream is fixed: the paper's §2 Q1, its 200 §6.3 join queries
//! (`sia_gen::paper_6_3`, the paper seed), and `exp_engine`'s chain, star and
//! synthesis-only shapes. Synthesis cost per query is heavy tailed, so the
//! seed draws the data and the query order, not the queries.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sia_engine::{
    execute, move_around, optimize, Database, MoveAround, MoveAroundReport, OptimizerConfig, Table,
};
use sia_expr::Value;
use sia_rand::rngs::StdRng;
use sia_rand::SeedableRng;
use sia_sql::Query;

use crate::check::{self, Digest, Tuple};
use crate::layers::Layers;
use crate::stats::{another_pass_fits, ms, shuffle, timed_setup};
use crate::{end_to_end, Args, Report};

/// TPC-H scale factor of orders/lineitem.
const SCALE_FACTOR: f64 = 0.2;
/// Rows of the `sia-gen` customer and supplier tables (nation and region
/// keep `exp_engine`'s 50 and 10).
const DIMENSION_ROWS: usize = 600;
/// Tail percentile (a pass has 204 queries).
const TAIL: f64 = 0.90;
/// Result rows per query used as tuples when auditing pushed predicates.
const AUDIT_ROWS: usize = 300;

const Q1: &str = "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
     AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' \
     AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10";

/// `exp_engine`'s join shapes.
const SHAPES: [(&str, &str); 3] = [
    (
        "chain",
        "SELECT * FROM customer, nation, region, supplier \
         WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
         AND n_nationkey = s_nationkey AND s_nationkey <= 7",
    ),
    (
        "star",
        "SELECT * FROM nation, customer, supplier \
         WHERE n_nationkey = c_nationkey AND n_nationkey = s_nationkey \
         AND n_nationkey < 12",
    ),
    (
        "synth",
        "SELECT * FROM nation, region \
         WHERE n_regionkey = r_regionkey AND 2 * n_nationkey <= 5 * r_name \
         AND r_name <= 3",
    ),
];

fn config() -> OptimizerConfig {
    OptimizerConfig {
        pushdown: true,
        move_around: MoveAround::Synthesis,
    }
}

struct Setup {
    db: Database,
    queries: Vec<(String, Query)>,
}

fn build(seed: u64) -> Result<Setup, String> {
    let mut db = sia_tpch::generate(&sia_tpch::TpchConfig {
        scale_factor: SCALE_FACTOR,
        seed,
    });
    for name in ["customer", "nation", "region", "supplier"] {
        let spec = sia_gen::table(name).ok_or_else(|| format!("sia-gen has no {name} table"))?;
        let rows = match name {
            "nation" => 50,
            "region" => 10,
            _ => DIMENSION_ROWS,
        };
        let data = spec.sample(rows, seed ^ name.len() as u64);
        db.insert(name, Table::from_rows(spec.schema(), &data));
    }
    let parse = |sql: &str| sia_sql::parse_query(sql).map_err(|e| format!("{sql}: {e}"));
    let mut queries = vec![("q1".to_string(), parse(Q1)?)];
    queries.extend(
        sia_gen::paper_6_3()
            .into_iter()
            .map(|q| (format!("p{}", q.id), q.query)),
    );
    for (name, sql) in SHAPES {
        queries.push((name.to_string(), parse(sql)?));
    }
    shuffle(&mut queries, &mut StdRng::seed_from_u64(seed));
    Ok(Setup { db, queries })
}

struct Outcome {
    latency: Duration,
    digest: Digest,
}

/// What the audit of pushed predicates needs from a query's first run: the
/// move-around report and up to [`AUDIT_ROWS`] result rows as tuples.
struct Pushed {
    moved: MoveAroundReport,
    rows: Vec<Tuple>,
}

/// Whole passes for as long as `seconds` allows, at least one.
fn measure(setup: &Setup, seconds: f64) -> Result<(Vec<Vec<Outcome>>, Vec<Pushed>), String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut first = Vec::new();
    while passes.is_empty() || another_pass_fits(start, passes.len(), seconds) {
        let mut pass = Vec::with_capacity(setup.queries.len());
        for (name, q) in &setup.queries {
            let t = Instant::now();
            let r = setup
                .db
                .run(q, config())
                .map_err(|e| format!("{name}: {e}"))?;
            let latency = t.elapsed();
            pass.push(Outcome {
                latency,
                digest: Digest::of_table(&r.table),
            });
            if passes.is_empty() {
                first.push(Pushed {
                    rows: tuples_of(&r.table),
                    moved: r.moved,
                });
            }
        }
        passes.push(pass);
    }
    Ok((passes, first))
}

/// Reference result of a lineitem ⋈ orders query: each lineitem row looks up
/// its order by key and the full WHERE clause is evaluated with `eval_pred`.
/// `columns` gives the output order.
fn reference_join(db: &Database, q: &Query, columns: &[String]) -> Result<Digest, String> {
    let li = db.table("lineitem").ok_or("no lineitem table")?;
    let ord = db.table("orders").ok_or("no orders table")?;
    let key_col = ord.column("o_orderkey").ok_or("no o_orderkey")?;
    let by_key: HashMap<i64, usize> = (0..ord.num_rows())
        .filter_map(|j| key_col.get(j).as_i64().map(|k| (k, j)))
        .collect();
    let li_key = li.column("l_orderkey").ok_or("no l_orderkey")?;
    let side = |name: &str| -> Result<(bool, usize), String> {
        let pos = |t: &Table| t.schema.columns().iter().position(|c| c.name == name);
        pos(li)
            .map(|i| (true, i))
            .or_else(|| pos(ord).map(|i| (false, i)))
            .ok_or_else(|| format!("column {name} is in neither table"))
    };
    let where_cols: Vec<(String, (bool, usize))> = q
        .predicate_or_true()
        .columns()
        .into_iter()
        .map(|c| side(&c).map(|s| (c, s)))
        .collect::<Result<_, _>>()?;
    let out_cols: Vec<(bool, usize)> = columns.iter().map(|c| side(c)).collect::<Result<_, _>>()?;
    let pred = q.predicate_or_true();
    let mut digest = Digest::default();
    for i in 0..li.num_rows() {
        let Some(&j) = li_key.get(i).as_i64().and_then(|k| by_key.get(&k)) else {
            continue;
        };
        let value = |&(is_li, c): &(bool, usize)| {
            if is_li {
                li.columns[c].get(i)
            } else {
                ord.columns[c].get(j)
            }
        };
        let tuple = |name: &str| {
            where_cols
                .iter()
                .find(|(c, _)| c == name)
                .map_or(Value::Null, |(_, s)| value(s))
        };
        if sia_expr::eval_pred(&pred, &tuple) == Some(true) {
            digest.add_row(out_cols.iter().map(value));
        }
    }
    Ok(digest)
}

/// Up to [`AUDIT_ROWS`] integer-valued result rows as checker tuples.
fn tuples_of(t: &Table) -> Vec<Tuple> {
    (0..t.num_rows().min(AUDIT_ROWS))
        .map(|i| {
            t.schema
                .columns()
                .iter()
                .zip(&t.columns)
                .filter_map(|(c, col)| match col.get(i) {
                    Value::Int(v) => Some((c.name.clone(), v)),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// Check every result; returns the problems found.
fn check_all(setup: &Setup, passes: &[&Vec<Outcome>], first: &[Pushed]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut planted_rows = 0;
    let mut planted_preds = 0;
    for (k, (name, q)) in setup.queries.iter().enumerate() {
        // The same query with push-down and move-around off.
        let plain = match setup.db.run(
            q,
            OptimizerConfig {
                pushdown: false,
                move_around: MoveAround::Off,
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("{name}: reference run failed: {e}"));
                continue;
            }
        };
        let expected = Digest::of_table(&plain.table);
        for pass in passes {
            if !pass[k].digest.same_rows(&expected) {
                problems.push(format!(
                    "{name}: {} rows, {} with push-down and move-around off",
                    pass[k].digest.rows, expected.rows
                ));
            }
        }
        if expected.rows > 0 {
            planted_rows += 1;
            if passes[0][k].digest.without_first_row().same_rows(&expected) {
                problems.push(format!(
                    "{name}: checker self-test: a dropped row went unseen"
                ));
            }
        }
        if q.tables == ["lineitem", "orders"] {
            let columns: Vec<String> = plain
                .table
                .schema
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            match reference_join(&setup.db, q, &columns) {
                Ok(d) if d.same_rows(&expected) => {}
                Ok(d) => problems.push(format!(
                    "{name}: {} rows, {} by key lookup and eval_pred",
                    expected.rows, d.rows
                )),
                Err(e) => problems.push(format!("{name}: reference evaluation: {e}")),
            }
        }
        // Every pushed predicate: implied by the gathered conjunction, TRUE
        // on the result rows, and a tightened copy rejected.
        let moved = &first[k].moved;
        let gathered = moved.gathered_conjunction();
        for (table, pushed) in moved.derived.iter().chain(&moved.synthesized) {
            match check::valid_answer(&gathered, &pushed.columns(), pushed, &first[k].rows) {
                Ok(true) => planted_preds += 1,
                Ok(false) => {}
                Err(e) => problems.push(format!("{name}: pushed to {table}: {e}")),
            }
        }
    }
    if planted_rows == 0 || planted_preds == 0 {
        problems.push(format!(
            "checker self-tests ran on {planted_rows} results and {planted_preds} pushed predicates"
        ));
    }
    problems
}

/// The traced measurement: whole passes for as long as `seconds` allows,
/// calling the stages `Database::run` calls, in its order, with a timer on
/// each; every result must match the untraced run's. Sets the per-pass stage
/// times and row counts and returns the time in the stages and the passes.
fn staged(
    setup: &Setup,
    seconds: f64,
    expected: &[Outcome],
    layers: &mut Layers,
) -> Result<(Duration, usize), String> {
    let db = &setup.db;
    let columns_of = |t: &str| {
        db.schema_of(t)
            .map(|s| s.columns().iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default()
    };
    let mut stage = [Duration::ZERO; 4];
    let mut counts = [0u64; 4];
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || another_pass_fits(start, passes, seconds) {
        for (k, (name, q)) in setup.queries.iter().enumerate() {
            let t = Instant::now();
            let plan = db.plan(q).map_err(|e| format!("{name}: {e}"))?;
            stage[0] += t.elapsed();
            let t = Instant::now();
            let (plan, _) = move_around(plan, &|t| db.schema_of(t), MoveAround::Synthesis);
            stage[1] += t.elapsed();
            let t = Instant::now();
            let plan = optimize(plan, &columns_of, config());
            stage[2] += t.elapsed();
            let t = Instant::now();
            let (table, _, stats) = execute(&plan, db).map_err(|e| format!("{name}: {e}"))?;
            stage[3] += t.elapsed();
            if !Digest::of_table(&table).same_rows(&expected[k].digest) {
                return Err(format!("{name}: staged run differs from Database::run"));
            }
            counts[0] += stats.rows_scanned;
            counts[1] += stats.join_input_rows;
            counts[2] += stats.join_output_rows;
            counts[3] += table.num_rows() as u64;
        }
        passes += 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = passes as f64;
    for (name, d) in ["plan", "move_around", "optimize", "execute"]
        .iter()
        .zip(stage)
    {
        layers.set(&format!("engine.{name}_ms"), ms(d) / n);
    }
    let rows = [
        "rows_scanned",
        "join_input_rows",
        "join_output_rows",
        "output_rows",
    ];
    for (name, c) in rows.iter().zip(counts) {
        #[allow(clippy::cast_precision_loss)]
        layers.set(&format!("engine.{name}"), c as f64 / n);
    }
    Ok((stage.iter().sum(), passes))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (setup, setup_s) = timed_setup(|| build(args.seed))?;
    let (untraced, first) = measure(&setup, args.seconds)?;

    let traced = if args.trace {
        let mut layers = Layers::default();
        sia_obs::reset();
        sia_obs::enable();
        let staged = staged(&setup, args.seconds, &untraced[0], &mut layers);
        sia_obs::disable();
        let (busy, passes) = staged?;
        #[allow(clippy::cast_precision_loss)]
        layers.add_snapshot(&sia_obs::snapshot(), passes as f64);
        Some((layers, busy, passes))
    } else {
        None
    };

    let passes: Vec<&Vec<Outcome>> = untraced.iter().collect();
    let problems = check_all(&setup, &passes, &first);
    for p in &problems {
        eprintln!("query_tpch: {p}");
    }
    let synthesized: usize = first.iter().map(|r| r.moved.synthesized.len()).sum();
    let derived: usize = first.iter().map(|r| r.moved.derived.len()).sum();
    let traced_passes = traced.as_ref().map_or(0, |t| t.2);
    let attempted = (untraced.len() + traced_passes) * setup.queries.len();
    println!(
        "query_tpch: {} queries a pass ({} lineitem, {} orders rows); {} untraced pass(es); \
         per pass {derived} derived and {synthesized} synthesized predicates pushed; \
         {attempted} attempted, 0 failed",
        setup.queries.len(),
        setup.db.table("lineitem").map_or(0, Table::num_rows),
        setup.db.table("orders").map_or(0, Table::num_rows),
        untraced.len(),
    );

    let busy: Duration = untraced.iter().flatten().map(|o| o.latency).sum();
    let lat: Vec<f64> = untraced.iter().flatten().map(|o| ms(o.latency)).collect();
    #[allow(clippy::cast_precision_loss)]
    let per_pass = busy.as_secs_f64() / untraced.len() as f64;
    let metrics = if let Some((mut layers, traced_busy, passes)) = traced {
        #[allow(clippy::cast_precision_loss)]
        let traced_per_pass = traced_busy.as_secs_f64() / passes as f64;
        layers.set(
            "trace.overhead_pct",
            100.0 * (traced_per_pass / per_pass - 1.0),
        );
        layers.into_metrics()?
    } else {
        #[allow(clippy::cast_precision_loss)]
        let throughput = lat.len() as f64 / busy.as_secs_f64();
        end_to_end(throughput, &lat, TAIL, setup_s)?
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: attempted as u64,
        failed: 0,
        metrics,
    })
}
