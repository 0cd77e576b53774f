//! Selecting the most congested edges of an IPM step.

use std::cmp::Ordering;

/// Descending score, then ascending index: the order the IPMs rank
/// congested edges in. Total on finite scores.
///
/// # Panics
///
/// Panics if a compared score is NaN.
fn by_score_desc(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("finite congestion score")
        .then(a.0.cmp(&b.0))
}

/// The `k` entries of `scores` that rank first by descending score, then
/// ascending index, as `(index, score)` in no particular order. `buf` is
/// cleared and reused, so a warm call allocates nothing.
///
/// The ranking is a total order, so the selected set is exactly the first
/// `min(k, len)` entries of the fully sorted list, ties included; a
/// selection costs `O(len)` instead of a sort's `O(len log len)`.
///
/// # Panics
///
/// Panics if a score the selection compares is NaN.
pub fn top_k_into(
    scores: impl IntoIterator<Item = f64>,
    k: usize,
    buf: &mut Vec<(usize, f64)>,
) -> &[(usize, f64)] {
    buf.clear();
    buf.extend(scores.into_iter().enumerate());
    let k = k.min(buf.len());
    if k > 0 {
        buf.select_nth_unstable_by(k - 1, by_score_desc);
    }
    &buf[..k]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_break_by_ascending_index() {
        let mut buf = Vec::new();
        let mut top: Vec<usize> = top_k_into([1.0, 3.0, 3.0, 2.0, 3.0], 2, &mut buf)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        top.sort_unstable();
        assert_eq!(top, vec![1, 2]);
        assert!(top_k_into([1.0], 0, &mut buf).is_empty());
        assert_eq!(top_k_into([1.0, 2.0], 9, &mut buf).len(), 2);
    }
}
