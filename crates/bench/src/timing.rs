//! Wall-clock timing for the bench binaries.

use std::time::Instant;

/// Wall-clock of one run of `f`, in nanoseconds.
fn time_ns(f: &mut impl FnMut()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// The `q`-quantile (nearest rank) of `samples`, which it sorts.
fn quantile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> T {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// Median wall-clock over `reps` runs of `f`, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps).map(|_| time_ns(&mut f)).collect();
    quantile(&mut samples, 0.5)
}

/// `a` against `b` in `pairs` interleaved pairs. A pair runs both on each
/// of `items` inputs, back to back per input (the order alternating), and
/// sums each side's time. Returns the median wall-clock of each side and
/// the quartiles `[q1, median, q3]` of the per-pair ratio `a / b`: a slow
/// host period stretches both sides of a pair alike, so the ratio holds
/// still where the medians drift.
pub fn paired_ns(
    pairs: usize,
    items: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> (u64, u64, [f64; 3]) {
    let mut a_ns = Vec::with_capacity(pairs);
    let mut b_ns = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (mut ta, mut tb) = (0, 0);
        for i in 0..items {
            if (pair + i) % 2 == 0 {
                ta += time_ns(&mut || a(i));
                tb += time_ns(&mut || b(i));
            } else {
                tb += time_ns(&mut || b(i));
                ta += time_ns(&mut || a(i));
            }
        }
        a_ns.push(ta);
        b_ns.push(tb);
    }
    let mut ratios: Vec<f64> =
        a_ns.iter().zip(&b_ns).map(|(&ta, &tb)| ta as f64 / tb.max(1) as f64).collect();
    let quartiles = [0.25, 0.5, 0.75].map(|q| quantile(&mut ratios, q));
    (quantile(&mut a_ns, 0.5), quantile(&mut b_ns, 0.5), quartiles)
}
