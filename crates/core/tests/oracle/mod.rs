//! A paper-literal dense oracle for HeteSim, shared by the core and root
//! test suites. It encodes Definitions 8–10 on dense `Vec<Vec<f64>>`:
//! row-normalized relation matrices, multiplied left to right from each
//! end of the path to its middle, and the cosine of the two rows. An odd
//! path meets inside its middle relation `W`, split through edge objects
//! as in Definition 6: one object per relation instance `(a, b)`, in
//! row-major order, with weight `√|w|` toward `a` and the signed `√|w|`
//! toward `b`. No cache, sparse kernel or association order is involved.

use hetesim_core::HeteSimEngine;
use hetesim_graph::{Direction, Hin, MetaPath, Step};

pub type Dense = Vec<Vec<f64>>;

/// `W` of one step in traversal orientation (departure × arrival type).
fn relation(hin: &Hin, step: Step) -> Dense {
    let w = hin.adjacency(step.rel);
    let forward = step.dir == Direction::Forward;
    let (rows, cols) = if forward {
        w.shape()
    } else {
        (w.ncols(), w.nrows())
    };
    let mut m = vec![vec![0.0; cols]; rows];
    for (i, j, v) in w.iter() {
        let (r, c) = if forward { (i, j) } else { (j, i) };
        m[r][c] += v;
    }
    m
}

/// `U` of Definition 8: every non-empty row divided by its sum.
fn transition(mut m: Dense) -> Dense {
    for row in &mut m {
        let s: f64 = row.iter().sum();
        if s != 0.0 {
            row.iter_mut().for_each(|v| *v /= s);
        }
    }
    m
}

fn mul(a: &Dense, b: &Dense) -> Dense {
    let cols = b.first().map_or(0, Vec::len);
    a.iter()
        .map(|row| {
            let mut out = vec![0.0; cols];
            for (k, &x) in row.iter().enumerate().filter(|(_, &x)| x != 0.0) {
                out.iter_mut().zip(&b[k]).for_each(|(o, &y)| *o += x * y);
            }
            out
        })
        .collect()
}

/// `PM_PL` and `PM_PR⁻¹` (Definitions 5 and 9): source × middle and
/// target × middle reachable probabilities.
fn halves(hin: &Hin, path: &MetaPath) -> (Dense, Dense) {
    let steps = path.steps();
    let mid = steps.len() / 2;
    let mut left: Vec<Dense> = steps[..mid].iter().map(|&s| relation(hin, s)).collect();
    let mut right: Vec<Dense> = steps[steps.len() - mid..]
        .iter()
        .rev()
        .map(|&s| relation(hin, s.reversed()))
        .collect();
    if steps.len() % 2 == 1 {
        let w = relation(hin, steps[mid]);
        let edges: Vec<(usize, usize, f64)> = (0..w.len())
            .flat_map(|a| w[a].iter().enumerate().map(move |(b, &v)| (a, b, v)))
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        let cols = w.first().map_or(0, Vec::len);
        let mut ae = vec![vec![0.0; edges.len()]; w.len()];
        let mut be_t = vec![vec![0.0; edges.len()]; cols];
        for (e, &(a, b, v)) in edges.iter().enumerate() {
            ae[a][e] = v.abs().sqrt();
            be_t[b][e] = v.signum() * v.abs().sqrt();
        }
        left.push(ae);
        right.push(be_t);
    }
    let product = |mats: Vec<Dense>| {
        let mut it = mats.into_iter().map(transition);
        let first = it.next().expect("a path has at least one step");
        it.fold(first, |pm, u| mul(&pm, &u))
    };
    (product(left), product(right))
}

/// Normalized (Definition 10) and unnormalized (Equation 6) HeteSim of
/// every (source, target) pair; zero where either walker has no mass.
pub fn hetesim(hin: &Hin, path: &MetaPath) -> (Dense, Dense) {
    let (l, r) = halves(hin, path);
    let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
    let raw: Dense = l
        .iter()
        .map(|x| r.iter().map(|y| dot(x, y)).collect())
        .collect();
    let norms = |m: &Dense| m.iter().map(|x| dot(x, x).sqrt()).collect::<Vec<f64>>();
    let (ln, rn) = (norms(&l), norms(&r));
    let normalized = raw
        .iter()
        .zip(&ln)
        .map(|(row, &la)| {
            row.iter()
                .zip(&rn)
                .map(|(&v, &rb)| if la * rb > 0.0 { v / (la * rb) } else { 0.0 })
                .collect()
        })
        .collect();
    (normalized, raw)
}

/// Asserts that `matrix`, `matrix_unnormalized`, `pair`, `single_source`
/// and `top_k` of `engine` on `path` are the oracle's answers within `tol`.
pub fn check(engine: &HeteSimEngine<'_>, path: &MetaPath, tol: f64) {
    let (want, want_raw) = hetesim(engine.hin(), path);
    let (m, raw) = (
        engine.matrix(path).unwrap(),
        engine.matrix_unnormalized(path).unwrap(),
    );
    assert_eq!(m.shape(), (want.len(), want.first().map_or(0, Vec::len)));
    let close = |x: f64, y: f64| (x - y).abs() < tol;
    for (a, row) in want.iter().enumerate() {
        let ss = engine.single_source(path, a as u32).unwrap();
        for (b, &w) in row.iter().enumerate() {
            let pair = engine.pair(path, a as u32, b as u32).unwrap();
            assert!(
                close(m.get(a, b), w) && close(ss[b], w) && close(pair, w),
                "{a} {b}: {w}"
            );
            assert!(close(raw.get(a, b), want_raw[a][b]), "unnormalized {a} {b}");
        }
        let k = 3;
        let top = engine.top_k(path, a as u32, k).unwrap();
        assert_eq!(
            top.len(),
            k.min(row.iter().filter(|&&w| w > 0.0).count()),
            "top-k of {a}"
        );
        let floor = top.last().map_or(f64::INFINITY, |r| r.score);
        for (i, r) in top.iter().enumerate() {
            assert!(close(r.score, row[r.index as usize]), "top-k of {a}");
            assert!(i == 0 || top[i - 1].score >= r.score);
        }
        let listed = |b: usize| top.iter().any(|r| r.index as usize == b);
        assert!(
            (0..row.len()).all(|b| listed(b) || row[b] < floor + tol),
            "top-k of {a}"
        );
    }
}
