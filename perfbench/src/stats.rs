//! Small numeric and host helpers: order statistics, digests, peak RSS.

/// Median of `v` (mean of the two middle values for an even count); 0
/// for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Lowers each entry of `acc` to the same entry of `row`, extending
/// `acc` where `row` is longer: folded over rows, entry `k` becomes the
/// smallest entry `k` of any row that has one.
pub fn keep_fastest(acc: &mut Vec<f64>, row: &[f64]) {
    for (k, &v) in row.iter().enumerate() {
        match acc.get_mut(k) {
            Some(m) => *m = m.min(v),
            None => acc.push(v),
        }
    }
}

/// [`keep_fastest`] folded over `rows`.
pub fn fastest<'a>(rows: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut out = Vec::new();
    for row in rows {
        keep_fastest(&mut out, row);
    }
    out
}

/// Nearest-rank percentile `p` (0..=100) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, or 0 when the base is 0 (the layer did no such work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a digest of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: the benchmark's own seed expander, independent of the
/// simulator's RNG so that crash points do not move when it changes.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The process's peak resident set (`VmHWM`) in KiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn fastest_is_elementwise() {
        let rows = [vec![3.0, 1.0, 5.0], vec![2.0, 4.0], vec![]];
        assert_eq!(fastest(&rows), vec![2.0, 1.0, 5.0]);
        assert!(fastest(&Vec::<Vec<f64>>::new()).is_empty());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
