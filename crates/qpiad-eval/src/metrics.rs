//! Retrieval-quality metrics used throughout §6.

/// One point of a precision/recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Number of (possible) answers consumed so far.
    pub k: usize,
    /// Precision among the first `k` answers.
    pub precision: f64,
    /// Recall after the first `k` answers.
    pub recall: f64,
}

/// Precision/recall after each answer of a ranked list.
///
/// `labels[i]` says whether the i-th ranked answer is relevant;
/// `total_relevant` is the oracle's count of relevant possible answers.
pub fn pr_curve(labels: &[bool], total_relevant: usize) -> Vec<PrPoint> {
    let mut hits = 0usize;
    labels
        .iter()
        .enumerate()
        .map(|(i, rel)| {
            if *rel {
                hits += 1;
            }
            let k = i + 1;
            PrPoint {
                k,
                precision: hits as f64 / k as f64,
                recall: if total_relevant == 0 {
                    0.0
                } else {
                    hits as f64 / total_relevant as f64
                },
            }
        })
        .collect()
}

/// Accumulated precision after each of the first `max_k` answers (Figures
/// 6–7). Shorter lists yield shorter curves.
pub fn accumulated_precision(labels: &[bool], max_k: usize) -> Vec<f64> {
    let mut hits = 0usize;
    labels
        .iter()
        .take(max_k)
        .enumerate()
        .map(|(i, rel)| {
            if *rel {
                hits += 1;
            }
            hits as f64 / (i + 1) as f64
        })
        .collect()
}

/// Averages several accumulated-precision curves position-wise; position k
/// averages only the curves that reach it.
pub fn average_curves(curves: &[Vec<f64>], max_k: usize) -> Vec<f64> {
    (0..max_k)
        .map_while(|k| {
            let vals: Vec<f64> = curves.iter().filter_map(|c| c.get(k).copied()).collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        })
        .collect()
}

/// The number of answers that must be consumed to reach each recall level;
/// `None` when the list never reaches it (Figure 8).
pub fn answers_to_reach_recall(
    labels: &[bool],
    total_relevant: usize,
    levels: &[f64],
) -> Vec<Option<usize>> {
    let curve = pr_curve(labels, total_relevant);
    levels
        .iter()
        .map(|level| {
            curve
                .iter()
                .find(|p| p.recall >= *level - 1e-12)
                .map(|p| p.k)
        })
        .collect()
}

/// Downsamples a curve to at most `n` evenly spaced points (always keeping
/// the last one) for compact reporting.
pub fn downsample<T: Copy>(points: &[T], n: usize) -> Vec<T> {
    if points.len() <= n || n == 0 {
        return points.to_vec();
    }
    let mut out = Vec::with_capacity(n);
    let step = (points.len() - 1) as f64 / (n - 1) as f64;
    for i in 0..n {
        out.push(points[(i as f64 * step).round() as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: [bool; 6] = [true, true, false, true, false, false];

    #[test]
    fn pr_curve_hand_checked() {
        let curve = pr_curve(&L, 4);
        assert_eq!(curve.len(), 6);
        assert_eq!(
            curve[0],
            PrPoint {
                k: 1,
                precision: 1.0,
                recall: 0.25
            }
        );
        assert_eq!(curve[2].precision, 2.0 / 3.0);
        assert_eq!(
            curve[3],
            PrPoint {
                k: 4,
                precision: 0.75,
                recall: 0.75
            }
        );
        assert_eq!(curve[5].recall, 0.75);
    }

    #[test]
    fn pr_curve_zero_relevant_is_zero_recall() {
        let curve = pr_curve(&[true, false], 0);
        assert!(curve.iter().all(|p| p.recall == 0.0));
    }

    #[test]
    fn accumulated_precision_truncates() {
        let acc = accumulated_precision(&L, 3);
        assert_eq!(acc, vec![1.0, 1.0, 2.0 / 3.0]);
        assert_eq!(accumulated_precision(&L, 100).len(), 6);
    }

    #[test]
    fn average_curves_respects_lengths() {
        let a = vec![1.0, 0.5, 0.5];
        let b = vec![0.0, 0.5];
        let avg = average_curves(&[a, b], 10);
        assert_eq!(avg, vec![0.5, 0.5, 0.5]);
        assert!(average_curves(&[], 5).is_empty());
    }

    #[test]
    fn answers_to_reach_recall_finds_thresholds() {
        let res = answers_to_reach_recall(&L, 4, &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(res, vec![Some(1), Some(2), Some(4), None]);
    }

    #[test]
    fn downsample_keeps_ends() {
        let pts: Vec<usize> = (0..100).collect();
        let ds = downsample(&pts, 5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds[0], 0);
        assert_eq!(*ds.last().unwrap(), 99);
        // No-op when already short.
        assert_eq!(downsample(&pts[..3], 5), vec![0, 1, 2]);
    }
}
