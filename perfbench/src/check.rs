//! Output checkers that work apart from the code path they check.
//!
//! * Predicates: `p ⇒ q` is tested by evaluating both on seeded integer
//!   tuples with `sia_expr::eval_pred` (the tuples are drawn here, not by the
//!   synthesizer's sampler) and by a fresh `verify_implies` call with a new
//!   encoder. The solver runs over the integers, as `Synthesizer::synthesize`
//!   does, so the tuples are integer-valued too.
//! * Query results: an order-insensitive digest of every output row, compared
//!   between runs and against reference evaluations.
//!
//! Each checker also has a planted wrong answer it must reject (see
//! [`tightened`] and [`Digest::without_first_row`]), which every run tries.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use sia_core::{verify_implies, PredEncoder, Validity};
use sia_engine::Table;
use sia_expr::{eval_pred, CmpOp, Expr, Pred, Value};
use sia_rand::rngs::StdRng;
use sia_rand::Rng;

/// A tuple: `(column, value)` pairs; dates are days since the epoch.
pub type Tuple = Vec<(String, i64)>;

/// How many tuples satisfying `p` a validity check looks for, and how many
/// draws it may spend finding them.
const WANT_TRUE: usize = 300;
const MAX_DRAWS: usize = 20_000;

fn value_of(t: &Tuple, name: &str) -> Value {
    t.iter()
        .find(|(c, _)| c == name)
        .map_or(Value::Null, |(_, v)| Value::Int(*v))
}

fn holds(p: &Pred, t: &Tuple) -> bool {
    eval_pred(p, &|name: &str| value_of(t, name)) == Some(true)
}

/// Integer constants of an expression (dates as days, doubles rounded).
fn expr_constants(e: &Expr, out: &mut Vec<i64>) {
    match e {
        Expr::Int(v) => out.push(*v),
        #[allow(clippy::cast_possible_truncation)]
        Expr::Double(x) => out.push(x.round() as i64),
        Expr::Date(d) => out.push(d.to_days()),
        Expr::Column(_) => {}
        Expr::Binary { lhs, rhs, .. } => {
            expr_constants(lhs, out);
            expr_constants(rhs, out);
        }
    }
}

/// `(columns, constants)` of every comparison in `p`.
fn atoms(p: &Pred, out: &mut Vec<(Vec<String>, Vec<i64>)>) {
    match p {
        Pred::Lit(_) => {}
        Pred::Cmp { lhs, rhs, .. } => {
            let mut cols = lhs.columns();
            cols.extend(rhs.columns());
            let mut ks = Vec::new();
            expr_constants(lhs, &mut ks);
            expr_constants(rhs, &mut ks);
            out.push((cols, ks));
        }
        Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|q| atoms(q, out)),
        Pred::Not(q) => atoms(q, out),
    }
}

/// Seeded integer tuples over `p`'s columns on which `p` is TRUE.
///
/// Draws mix two shapes: every column near one shared anchor constant (so
/// difference constraints `a - b ⋖ k` between columns are met), or each
/// column near a constant of an atom it occurs in (so independent bounds
/// are met), with a spread of 3, 30 or 200 around the anchor so that both
/// boundary points and the interior are covered.
pub fn true_tuples(p: &Pred, rng: &mut StdRng) -> Vec<Tuple> {
    let cols = p.columns();
    let mut per_atom = Vec::new();
    atoms(p, &mut per_atom);
    let all: Vec<i64> = per_atom
        .iter()
        .flat_map(|(_, ks)| ks.iter().copied())
        .collect();
    let own: Vec<Vec<i64>> = cols
        .iter()
        .map(|c| {
            per_atom
                .iter()
                .filter(|(cs, _)| cs.contains(c))
                .flat_map(|(_, ks)| ks.iter().copied())
                .collect()
        })
        .collect();
    let pick = |ks: &[i64], rng: &mut StdRng| {
        if ks.is_empty() {
            0
        } else {
            ks[rng.gen_range(0..ks.len())]
        }
    };
    let mut out = Vec::new();
    for _ in 0..MAX_DRAWS {
        if out.len() >= WANT_TRUE {
            break;
        }
        let spread: i64 = [3, 30, 200][rng.gen_range(0..3_usize)];
        let shared = rng.gen_bool_fair().then(|| pick(&all, rng));
        let t: Tuple = cols
            .iter()
            .zip(&own)
            .map(|(c, ks)| {
                let anchor =
                    shared.unwrap_or_else(|| pick(if ks.is_empty() { &all } else { ks }, rng));
                (
                    c.clone(),
                    anchor.saturating_add(rng.gen_range(-spread..=spread)),
                )
            })
            .collect();
        if holds(p, &t) {
            out.push(t);
        }
    }
    out
}

/// Check `p ⇒ q`: `q` must be TRUE on every tuple in `p_true` (tuples on
/// which `p` is TRUE), and a fresh solver check must prove the implication.
fn implied(p: &Pred, q: &Pred, p_true: &[Tuple]) -> Result<(), String> {
    if let Some(t) = p_true.iter().find(|t| !holds(q, t)) {
        return Err(format!("`{q}` is not TRUE on {t:?}, where `{p}` is"));
    }
    match verify_implies(&mut PredEncoder::new(), p, q) {
        Ok(Validity::Valid) => Ok(()),
        other => Err(format!("solver does not prove `{p}` ⇒ `{q}`: {other:?}")),
    }
}

/// A planted wrong answer: `q` tightened by `col ≤ max − 1`, where `max` is
/// the largest value of `col` over `p_true`, so at least one tuple on which
/// `p` is TRUE falsifies it. `None` without tuples or target columns.
fn tightened(q: &Pred, cols: &[String], p_true: &[Tuple]) -> Option<Pred> {
    let col = cols.first()?;
    let max = p_true
        .iter()
        .filter_map(|t| t.iter().find(|(c, _)| c == col).map(|(_, v)| *v))
        .max()?;
    Some(
        q.clone()
            .and(Expr::Column(col.clone()).cmp(CmpOp::Le, Expr::Int(max - 1))),
    )
}

/// The planted self-test for [`implied`]: it must reject the tightened copy
/// of a valid answer, on the tuples and in the solver alike.
fn rejects_tightened(p: &Pred, planted: &Pred, p_true: &[Tuple]) -> Result<(), String> {
    if p_true.iter().all(|t| holds(planted, t)) {
        return Err(format!(
            "tuple check accepted the planted answer `{planted}`"
        ));
    }
    if let Ok(Validity::Valid) = verify_implies(&mut PredEncoder::new(), p, planted) {
        return Err(format!(
            "solver accepted the planted answer `{planted}` for `{p}`"
        ));
    }
    Ok(())
}

/// Check that `q` is a valid answer for `p` ([`implied`]) on those of
/// `tuples` where `p` is TRUE, then that the checker rejects a tightened copy
/// of it. Returns whether a wrong answer could be planted (it cannot without
/// tuples on which `p` is TRUE).
pub fn valid_answer(p: &Pred, cols: &[String], q: &Pred, tuples: &[Tuple]) -> Result<bool, String> {
    let p_true: Vec<Tuple> = tuples.iter().filter(|t| holds(p, t)).cloned().collect();
    implied(p, q, &p_true).map_err(|e| format!("invalid answer: {e}"))?;
    match tightened(q, cols, &p_true) {
        Some(bad) => rejects_tightened(p, &bad, &p_true)
            .map(|()| true)
            .map_err(|e| format!("checker self-test: {e}")),
        None => Ok(false),
    }
}

/// An order-insensitive digest of a multiset of rows: count plus wrapping sum
/// and xor of per-row hashes. Equal multisets give equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    sum: u64,
    xor: u64,
    first: u64,
}

impl Digest {
    /// Fold one row in.
    pub fn add_row(&mut self, row: impl Iterator<Item = Value>) {
        let mut h = DefaultHasher::new();
        for v in row {
            match v {
                Value::Int(i) => (0u8, i).hash(&mut h),
                Value::Double(x) => (1u8, x.to_bits()).hash(&mut h),
                Value::Bool(b) => (2u8, b).hash(&mut h),
                Value::Null => 3u8.hash(&mut h),
            }
        }
        let x = h.finish();
        if self.rows == 0 {
            self.first = x;
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(x);
        self.xor ^= x;
    }

    /// Digest of every row of `t`, columns in schema order.
    pub fn of_table(t: &Table) -> Digest {
        let mut d = Digest::default();
        for i in 0..t.num_rows() {
            d.add_row(t.columns.iter().map(|c| c.get(i)));
        }
        d
    }

    /// The planted wrong answer for result comparison: this multiset with
    /// its first row dropped.
    pub fn without_first_row(self) -> Digest {
        if self.rows == 0 {
            return self;
        }
        Digest {
            rows: self.rows - 1,
            sum: self.sum.wrapping_sub(self.first),
            xor: self.xor ^ self.first,
            first: 0,
        }
    }

    /// Equality of the row multisets (the bookkeeping `first` is ignored).
    pub fn same_rows(&self, other: &Digest) -> bool {
        (self.rows, self.sum, self.xor) == (other.rows, other.sum, other.xor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_rand::SeedableRng;

    fn pred(s: &str) -> Pred {
        sia_sql::parse_predicate(s).expect("parses")
    }

    #[test]
    fn validity_checker_accepts_projection_and_rejects_planted() {
        let p = pred("a - b < 5 AND b < 0");
        let q = pred("a <= 3");
        let mut rng = StdRng::seed_from_u64(7);
        let tuples = true_tuples(&p, &mut rng);
        assert!(!tuples.is_empty());
        implied(&p, &q, &tuples).expect("a <= 3 is implied");
        let planted = tightened(&q, &["a".to_string()], &tuples).expect("planted");
        rejects_tightened(&p, &planted, &tuples).expect("planted is rejected");
        assert!(implied(&p, &pred("a <= 2"), &tuples).is_err());
    }

    #[test]
    fn digest_ignores_order_and_sees_a_dropped_row() {
        let rows = [[1, 2], [3, 4], [5, 6]];
        let mut a = Digest::default();
        let mut b = Digest::default();
        for r in rows {
            a.add_row(r.iter().map(|v| Value::Int(*v)));
        }
        for r in rows.iter().rev() {
            b.add_row(r.iter().map(|v| Value::Int(*v)));
        }
        assert!(a.same_rows(&b));
        assert!(!a.same_rows(&a.without_first_row()));
    }
}
