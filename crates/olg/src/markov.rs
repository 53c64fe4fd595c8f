//! First-order Markov chains over the discrete shocks `z ∈ Z` (Sec. II-A):
//! transition validation, stationary distributions, simulation, and the
//! product construction used to build the paper's 16-state chain
//! (productivity × tax regime).

use rand::Rng;

/// A finite-state Markov chain with transition probabilities `π(z'|z)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MarkovChain {
    n: usize,
    /// Row-major `n × n`; `rows[z·n + z']` = π(z'|z).
    rows: Vec<f64>,
}

impl MarkovChain {
    /// Builds and validates a chain from a row-major transition matrix.
    ///
    /// # Panics
    /// If any row does not sum to 1 (tolerance 1e-10) or has negative
    /// entries.
    pub fn new(n: usize, rows: Vec<f64>) -> Self {
        Self::try_new(n, rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking constructor: validates shape, finiteness,
    /// non-negativity, and row-stochasticity, returning a diagnostic
    /// instead of aborting.
    pub fn try_new(n: usize, rows: Vec<f64>) -> Result<Self, String> {
        if rows.len() != n * n {
            return Err(format!(
                "transition matrix must be n x n: {} entries for n = {n}",
                rows.len()
            ));
        }
        for z in 0..n {
            let row = &rows[z * n..(z + 1) * n];
            if row.iter().any(|p| !p.is_finite()) {
                return Err(format!("non-finite transition probability in row {z}"));
            }
            if row.iter().any(|&p| p < 0.0) {
                return Err(format!("negative transition probability in row {z}"));
            }
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() >= 1e-10 {
                return Err(format!("row {z} sums to {sum}, expected 1"));
            }
        }
        Ok(MarkovChain { n, rows })
    }

    /// The single-state (deterministic) chain.
    pub fn deterministic() -> Self {
        MarkovChain::new(1, vec![1.0])
    }

    /// A symmetric persistent chain: stay with probability `persistence`,
    /// otherwise move uniformly to another state.
    pub fn persistent(n: usize, persistence: f64) -> Self {
        assert!(n >= 1);
        assert!((0.0..=1.0).contains(&persistence));
        if n == 1 {
            return Self::deterministic();
        }
        let off = (1.0 - persistence) / (n - 1) as f64;
        let mut rows = vec![off; n * n];
        for z in 0..n {
            rows[z * n + z] = persistence;
        }
        MarkovChain::new(n, rows)
    }

    /// Kronecker product of two independent chains — the paper's 16
    /// discrete states ("booms, busts as well as different tax regimes")
    /// are the product of a productivity chain and a tax-regime chain.
    pub fn product(&self, other: &MarkovChain) -> MarkovChain {
        let n = self.n * other.n;
        let mut rows = vec![0.0; n * n];
        for a in 0..self.n {
            for b in 0..other.n {
                let from = a * other.n + b;
                for a2 in 0..self.n {
                    for b2 in 0..other.n {
                        let to = a2 * other.n + b2;
                        rows[from * n + to] = self.prob(a, a2) * other.prob(b, b2);
                    }
                }
            }
        }
        MarkovChain::new(n, rows)
    }

    /// Number of states `Ns`.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// `π(to | from)`.
    #[inline]
    pub fn prob(&self, from: usize, to: usize) -> f64 {
        self.rows[from * self.n + to]
    }

    /// The outgoing row `π(·|from)`.
    #[inline]
    pub fn row(&self, from: usize) -> &[f64] {
        &self.rows[from * self.n..(from + 1) * self.n]
    }

    /// Stationary distribution by power iteration (chains here are small
    /// and ergodic).
    pub fn stationary(&self) -> Vec<f64> {
        let mut dist = vec![1.0 / self.n as f64; self.n];
        let mut next = vec![0.0; self.n];
        for _ in 0..10_000 {
            next.fill(0.0);
            for z in 0..self.n {
                let pz = dist[z];
                if pz == 0.0 {
                    continue;
                }
                for (z2, &p) in self.row(z).iter().enumerate() {
                    next[z2] += pz * p;
                }
            }
            let delta: f64 = dist.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut dist, &mut next);
            if delta < 1e-14 {
                break;
            }
        }
        dist
    }

    /// Draws the next state given the current one.
    pub fn step<R: Rng>(&self, current: usize, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (z2, &p) in self.row(current).iter().enumerate() {
            acc += p;
            if u < acc {
                return z2;
            }
        }
        self.n - 1
    }

    /// Simulates a path of length `len` starting from `start`.
    pub fn simulate<R: Rng>(&self, start: usize, len: usize, rng: &mut R) -> Vec<usize> {
        let mut path = Vec::with_capacity(len);
        let mut z = start;
        for _ in 0..len {
            path.push(z);
            z = self.step(z, rng);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn persistent_chain_rows_sum_to_one() {
        let chain = MarkovChain::persistent(4, 0.9);
        for z in 0..4 {
            let sum: f64 = chain.row(z).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert_eq!(chain.prob(2, 2), 0.9);
        assert!((chain.prob(2, 0) - 0.1 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn product_chain_has_16_states() {
        let productivity = MarkovChain::persistent(4, 0.85);
        let taxes = MarkovChain::persistent(4, 0.95);
        let joint = productivity.product(&taxes);
        assert_eq!(joint.num_states(), 16);
        for z in 0..16 {
            let sum: f64 = joint.row(z).iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
        // Independence: π((a,b)→(a',b')) = π_A(a→a')·π_B(b→b').
        assert!(
            (joint.prob(0, 0) - 0.85 * 0.95).abs() < 1e-12,
            "stay-stay probability"
        );
    }

    #[test]
    fn stationary_of_symmetric_chain_is_uniform() {
        let chain = MarkovChain::persistent(5, 0.7);
        let dist = chain.stationary();
        for p in &dist {
            assert!((p - 0.2).abs() < 1e-10);
        }
    }

    #[test]
    fn stationary_is_fixed_point() {
        // An asymmetric two-state chain with known stationary distribution:
        // π = (b, a)/(a+b) for switch probabilities a (0→1) and b (1→0).
        let chain = MarkovChain::new(2, vec![0.9, 0.1, 0.3, 0.7]);
        let dist = chain.stationary();
        assert!((dist[0] - 0.75).abs() < 1e-10);
        assert!((dist[1] - 0.25).abs() < 1e-10);
    }

    #[test]
    fn simulation_frequency_approaches_stationary() {
        let chain = MarkovChain::new(2, vec![0.9, 0.1, 0.3, 0.7]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let path = chain.simulate(0, 200_000, &mut rng);
        let freq0 = path.iter().filter(|&&z| z == 0).count() as f64 / path.len() as f64;
        assert!((freq0 - 0.75).abs() < 0.01, "freq0 = {freq0}");
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn rejects_non_stochastic_rows() {
        let _ = MarkovChain::new(2, vec![0.5, 0.6, 0.5, 0.5]);
    }

    #[test]
    fn deterministic_chain() {
        let chain = MarkovChain::deterministic();
        assert_eq!(chain.num_states(), 1);
        assert_eq!(chain.prob(0, 0), 1.0);
    }
}
