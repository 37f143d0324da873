//! Integer Spearman rank correlation.
//!
//! Table 4's point is that the "misleading" logical metrics do not rank
//! algorithms the way page I/O does; Spearman's rank correlation is the
//! natural machine check. To keep reports byte-deterministic the whole
//! computation is integral: ranks are average ranks scaled by 2 (so
//! tie-averages stay whole numbers), the Pearson step runs in `i128`,
//! and the result is a fixed-point value scaled by 1000 (three decimal
//! digits), rounded half away from zero against the floor integer
//! square root of the variance product.

/// Average ranks of `xs`, scaled by 2 so tie-averages are integral, and
/// ordering `f64`s by [`f64::total_cmp`] — deterministic for any input,
/// including ties. Ties receive the mean of the ranks they span.
pub fn ranks_f64(xs: &[f64]) -> Vec<i64> {
    ranks_by(xs, |a, b| a.total_cmp(b))
}

fn ranks_by<T, F: Fn(&T, &T) -> std::cmp::Ordering>(xs: &[T], cmp: F) -> Vec<i64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| cmp(&xs[a], &xs[b]).then(a.cmp(&b)));
    let mut ranks = vec![0i64; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && cmp(&xs[order[j + 1]], &xs[order[i]]).is_eq() {
            j += 1;
        }
        // Positions i..=j (0-based) share the average 1-based rank
        // (i+1 + j+1)/2; scaled by 2 that is i + j + 2 — integral.
        let scaled = (i + j + 2) as i64;
        for &idx in &order[i..=j] {
            ranks[idx] = scaled;
        }
        i = j + 1;
    }
    ranks
}

/// Floor integer square root.
fn isqrt(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    let shift = (128 - n.leading_zeros()).div_ceil(2);
    let mut x = 1u128 << shift;
    loop {
        let y = (x + n / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Signed division rounding half away from zero.
fn div_round(num: i128, den: i128) -> i128 {
    let half = den / 2;
    if num >= 0 {
        (num + half) / den
    } else {
        (num - half) / den
    }
}

/// Spearman's rho over pre-computed scaled ranks (from [`ranks_f64`]), as a fixed-point value scaled by 1000 in
/// `[-1000, 1000]`. Returns `None` when either side is constant (the
/// correlation is undefined) or the lengths differ.
pub fn spearman_from_ranks(rx: &[i64], ry: &[i64]) -> Option<i64> {
    if rx.len() != ry.len() || rx.is_empty() {
        return None;
    }
    let n = rx.len() as i128;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0i128, 0i128, 0i128, 0i128, 0i128);
    for (&x, &y) in rx.iter().zip(ry) {
        let (x, y) = (x as i128, y as i128);
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
    }
    let num = n * sxy - sx * sy;
    let var_x = n * sxx - sx * sx;
    let var_y = n * syy - sy * sy;
    if var_x == 0 || var_y == 0 {
        return None;
    }
    let den = isqrt((var_x as u128) * (var_y as u128)) as i128;
    if den == 0 {
        return None;
    }
    let r = div_round(1000 * num, den);
    Some(r.clamp(-1000, 1000) as i64)
}

/// Renders a rho scaled by 1000 as a signed three-decimal string
/// (`+1.000`, `-0.874`, `+0.000`).
pub fn format_milli(r: i64) -> String {
    let sign = if r < 0 { '-' } else { '+' };
    let a = r.unsigned_abs();
    format!("{sign}{}.{:03}", a / 1000, a % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks_u64(xs: &[u64]) -> Vec<i64> {
        ranks_by(xs, |a, b| a.cmp(b))
    }

    /// Spearman's rho of two `u64` series (scaled by 1000).
    fn spearman_u64(xs: &[u64], ys: &[u64]) -> Option<i64> {
        if xs.len() != ys.len() {
            return None;
        }
        spearman_from_ranks(&ranks_u64(xs), &ranks_u64(ys))
    }

    #[test]
    fn perfect_monotone_series_correlate_to_one() {
        assert_eq!(spearman_u64(&[1, 2, 3, 4], &[10, 20, 30, 40]), Some(1000));
        assert_eq!(spearman_u64(&[1, 2, 3, 4], &[40, 30, 20, 10]), Some(-1000));
        // Rank correlation sees through any monotone transform.
        assert_eq!(
            spearman_u64(&[1, 2, 3, 4], &[1, 100, 101, 9999]),
            Some(1000)
        );
    }

    #[test]
    fn constant_series_have_no_correlation() {
        assert_eq!(spearman_u64(&[5, 5, 5], &[1, 2, 3]), None);
        assert_eq!(spearman_u64(&[1, 2], &[1, 2, 3]), None);
    }

    #[test]
    fn ties_average_their_ranks() {
        // [10, 10, 20] -> 1-based ranks (1.5, 1.5, 3) -> scaled (3, 3, 6).
        assert_eq!(ranks_u64(&[10, 10, 20]), vec![3, 3, 6]);
        assert_eq!(ranks_f64(&[2.0, 1.0, 2.0]), vec![5, 2, 5]);
    }

    #[test]
    fn known_value_matches_the_textbook_formula() {
        // Ranks (1,2,3,4,5) vs (2,1,4,3,5): d^2 = 1+1+1+1+0 = 4,
        // rho = 1 - 6*4/(5*24) = 0.8.
        let r = spearman_u64(&[1, 2, 3, 4, 5], &[2, 1, 4, 3, 5]);
        assert_eq!(r, Some(800));
        assert_eq!(format_milli(800), "+0.800");
        assert_eq!(format_milli(-1000), "-1.000");
    }

    #[test]
    fn isqrt_is_exact_floor() {
        for n in 0..2000u128 {
            let s = isqrt(n);
            assert!(s * s <= n && (s + 1) * (s + 1) > n, "n={n} s={s}");
        }
    }
}
