//! `top_k_into` selects exactly the first `k` entries of the fully
//! sorted ranking (descending score, then ascending index) — the set the
//! IPMs' boosting and perturbation steps used to take after a full sort —
//! ties included.

use cc_ipm::top_k_into;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn selected_set_is_the_sorted_prefix(
        levels in proptest::collection::vec(0u8..5, 0..48),
        scale in 0.5f64..4.0,
        k in 0usize..52,
    ) {
        // Few distinct levels, so most scores tie.
        let scores: Vec<f64> = levels.iter().map(|&l| f64::from(l) * scale).collect();
        let mut sorted: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let mut want: Vec<usize> = sorted.iter().take(k).map(|&(i, _)| i).collect();
        want.sort_unstable();

        let mut buf = vec![(7, 7.0); 3]; // stale contents are cleared
        let mut got: Vec<usize> = top_k_into(scores.iter().copied(), k, &mut buf)
            .iter()
            .map(|&(i, s)| {
                assert_eq!(s.to_bits(), scores[i].to_bits());
                i
            })
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
