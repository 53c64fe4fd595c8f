//! Proportional rank-group assignment (Sec. IV-A): each discrete state `z`
//! receives `MPI_COMM_SIZE(z) = M_z / Σ_j M_j` of the available ranks,
//! using the previous iteration's grid sizes as the load proxy.

/// Splits `total_ranks` across states proportionally to their point counts
/// `m`, by largest remainder. When `total_ranks ≥ #states`, every state
/// with work gets at least one rank (a sub-communicator must not be
/// empty). Returns the per-state rank counts (summing to `total_ranks`).
///
/// The paper's footnote-5 example: `M = (200, 100)` over 3 ranks yields
/// `(2, 1)`.
pub fn proportional_ranks(m: &[usize], total_ranks: usize) -> Vec<usize> {
    assert!(!m.is_empty());
    let states = m.len();
    let total_points: usize = m.iter().sum();
    if total_points == 0 {
        // Degenerate: spread evenly.
        let mut out = vec![total_ranks / states; states];
        for slot in out.iter_mut().take(total_ranks % states) {
            *slot += 1;
        }
        return out;
    }
    if total_ranks <= states {
        // Fewer ranks than states: the caller multiplexes states onto
        // ranks (see `multiplex_states`); give each rank one "slot" by
        // descending weight.
        let mut order: Vec<usize> = (0..states).collect();
        order.sort_by_key(|&z| std::cmp::Reverse(m[z]));
        let mut out = vec![0usize; states];
        for &z in order.iter().take(total_ranks) {
            out[z] = 1;
        }
        return out;
    }

    // Largest-remainder apportionment with a floor of 1 rank per
    // nonempty state.
    let mut counts = vec![0usize; states];
    let mut floors = 0usize;
    for (z, &points) in m.iter().enumerate() {
        if points > 0 {
            counts[z] = 1;
            floors += 1;
        }
    }
    let spare = total_ranks - floors;
    let weights: Vec<f64> = m
        .iter()
        .map(|&points| points as f64 / total_points as f64)
        .collect();
    let ideal: Vec<f64> = weights.iter().map(|w| w * spare as f64).collect();
    let mut assigned = 0usize;
    for (z, &i) in ideal.iter().enumerate() {
        let extra = i.floor() as usize;
        counts[z] += extra;
        assigned += extra;
    }
    let mut rest: Vec<(usize, f64)> = ideal
        .iter()
        .enumerate()
        .map(|(z, &i)| (z, i - i.floor()))
        .collect();
    rest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for &(z, _) in rest.iter().take(spare - assigned) {
        counts[z] += 1;
    }
    debug_assert_eq!(counts.iter().sum::<usize>(), total_ranks);
    counts
}

/// When there are fewer ranks than states, states must share ranks. This
/// greedy balancer (largest state to least-loaded rank) returns, for each
/// rank, the list of states it serves sequentially, in ascending order.
pub fn multiplex_states(m: &[usize], total_ranks: usize) -> Vec<Vec<usize>> {
    assert!(total_ranks >= 1);
    let mut buckets: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new()); total_ranks];
    let mut order: Vec<usize> = (0..m.len()).collect();
    order.sort_by_key(|&z| std::cmp::Reverse(m[z]));
    for z in order {
        let slot = buckets
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least one rank");
        slot.0 += m[z];
        slot.1.push(z);
    }
    for (_, states) in &mut buckets {
        states.sort_unstable();
    }
    buckets.into_iter().map(|(_, states)| states).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_footnote5_example() {
        // "assume that Ns = 2, pnext(z=1) has 200 points and pnext(z=2)
        // has 100. With 3 MPI processes, 2 go to group 1 and 1 to
        // group 2."
        assert_eq!(proportional_ranks(&[200, 100], 3), vec![2, 1]);
    }

    #[test]
    fn conserves_total_ranks() {
        for ranks in [16usize, 17, 100, 4096] {
            let m = vec![
                7081, 6962, 7100, 6900, 7000, 7050, 6950, 7020, 7081, 6962, 7100, 6900, 7000, 7050,
                6950, 7020,
            ];
            let counts = proportional_ranks(&m, ranks);
            assert_eq!(counts.iter().sum::<usize>(), ranks, "ranks={ranks}");
            assert!(counts.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn balanced_states_get_balanced_ranks() {
        let counts = proportional_ranks(&[100; 16], 4096);
        assert!(counts.iter().all(|&c| c == 256), "{counts:?}");
    }

    #[test]
    fn skewed_states_get_skewed_ranks() {
        // The paper's Fig. 9 note: final ASGs ranged from 69,026 (z=6) to
        // 76,645 (z=1) points; bigger grids must get more ranks.
        let mut m = vec![73_874usize; 16];
        m[0] = 76_645;
        m[5] = 69_026;
        let counts = proportional_ranks(&m, 1024);
        assert!(counts[0] > counts[5]);
        assert_eq!(counts.iter().sum::<usize>(), 1024);
    }

    #[test]
    fn fewer_ranks_than_states() {
        let m = vec![100, 300, 200, 50];
        let counts = proportional_ranks(&m, 2);
        assert_eq!(counts.iter().sum::<usize>(), 2);
        // The two heaviest states get the slots.
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
    }

    #[test]
    fn multiplex_balances_load() {
        let m = vec![100, 300, 200, 50];
        let plan = multiplex_states(&m, 2);
        assert_eq!(plan.len(), 2);
        let loads: Vec<usize> = plan
            .iter()
            .map(|states| states.iter().map(|&z| m[z]).sum())
            .collect();
        // Greedy: 300 -> rank0, 200 -> rank1, 100 -> rank1, 50 -> rank0.
        assert_eq!(loads.iter().sum::<usize>(), 650);
        assert!((loads[0] as i64 - loads[1] as i64).unsigned_abs() <= 100);
        // Every state appears exactly once.
        let mut seen = [false; 4];
        for z in plan.iter().flatten() {
            assert!(!seen[*z]);
            seen[*z] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn multiplex_lists_ascend_and_keep_their_assignment() {
        // Each case's greedy assignment, rank by rank.
        let check = |m: &[usize], want: &[&[usize]]| {
            let plan = multiplex_states(m, want.len());
            assert_eq!(plan, want, "{m:?}");
            assert!(plan.iter().all(|states| states.is_sorted()));
        };
        check(&[100, 300, 200, 50], &[&[1, 3], &[0, 2]]);
        check(&[100, 300, 200, 50], &[&[1], &[2], &[0, 3]]);
        check(&[1405, 1380], &[&[0, 1]]);
        check(&[5, 40, 40, 10, 30, 20], &[&[0, 1, 4], &[2, 3, 5]]);
    }

    #[test]
    fn zero_point_states() {
        let counts = proportional_ranks(&[0, 100, 0, 100], 10);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        assert_eq!(counts.iter().sum::<usize>(), 10);
    }
}
