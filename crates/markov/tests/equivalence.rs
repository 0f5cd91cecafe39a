//! CSR ↔ dense arithmetic, pinned as an integration suite: on seeded
//! random graphs, the lazy-walk and diffusion chains' CSR products
//! (`vec_mul_into`, `mul_vec_into`) must equal the same products computed
//! on the dense [`ale_markov::Matrix`] form, bit for bit. The CSR kernels
//! visit rows in the dense order and only skip `v·0.0` terms, which cannot
//! change a sum of non-negative terms — the fact that keeps every stored
//! run and benchmark digest stable across the two representations.

use ale_markov::{MarkovChain, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random connected graph: a random tree plus `extra` random
/// non-duplicate edges. Adjacency lists carry both directions in
/// insertion order.
fn random_connected_adj(n: usize, extra: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges = std::collections::HashSet::new();
    for v in 1..n {
        let u = rng.gen_range(0..v);
        adj[u].push(v);
        adj[v].push(u);
        edges.insert((u.min(v), u.max(v)));
    }
    let mut attempts = 0;
    let mut added = 0;
    while added < extra && attempts < 50 * extra.max(1) {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || !edges.insert((u.min(v), u.max(v))) {
            continue;
        }
        adj[u].push(v);
        adj[v].push(u);
        added += 1;
    }
    adj
}

/// The diffusion alpha every test uses: valid (`α·deg ≤ 1`) for any graph
/// since degrees are below `n`.
fn safe_alpha(adj: &[Vec<usize>]) -> f64 {
    let d_max = adj.iter().map(Vec::len).max().unwrap_or(1);
    1.0 / (2.0 * d_max as f64)
}

fn chains(adj: &[Vec<usize>]) -> [MarkovChain; 2] {
    [
        MarkovChain::lazy_random_walk(adj).unwrap(),
        MarkovChain::diffusion(adj, safe_alpha(adj)).unwrap(),
    ]
}

/// A random probability distribution over `n` states.
fn random_distribution(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut mu: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let total: f64 = mu.iter().sum();
    for x in mu.iter_mut() {
        *x /= total;
    }
    mu
}

/// `d · v` from the dense rows.
fn dense_mul_vec(d: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..d.rows())
        .map(|i| d.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
        .collect()
}

#[test]
fn vec_mul_matches_dense_step_for_step() {
    for (gi, &(n, extra)) in [(10usize, 4usize), (24, 12), (40, 30)].iter().enumerate() {
        let adj = random_connected_adj(n, extra, 100 + gi as u64);
        let mut rng = StdRng::seed_from_u64(7);
        for chain in chains(&adj) {
            let dense = chain.transition().to_dense();
            // A random distribution, evolved 25 steps on both forms.
            let mut mu_s = random_distribution(n, &mut rng);
            let mut mu_d = mu_s.clone();
            let mut next = vec![0.0; n];
            for step in 0..25 {
                chain.transition().vec_mul_into(&mu_s, &mut next).unwrap();
                std::mem::swap(&mut mu_s, &mut next);
                dense.vec_mul_into(&mu_d, &mut next).unwrap();
                std::mem::swap(&mut mu_d, &mut next);
                assert_eq!(mu_s, mu_d, "graph {gi}: step {step} diverged");
            }
        }
    }
}

#[test]
fn mul_vec_matches_dense() {
    for (gi, &(n, extra)) in [(12usize, 6usize), (20, 15), (40, 30)].iter().enumerate() {
        let adj = random_connected_adj(n, extra, 200 + gi as u64);
        let mut rng = StdRng::seed_from_u64(11);
        for chain in chains(&adj) {
            let dense = chain.transition().to_dense();
            let mut out = vec![0.0; n];
            for _ in 0..5 {
                let v: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
                chain.transition().mul_vec_into(&v, &mut out).unwrap();
                assert_eq!(out, dense_mul_vec(&dense, &v), "graph {gi}");
            }
        }
    }
}
