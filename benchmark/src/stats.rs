//! The arithmetic every reported number goes through. Kept apart from
//! the crates under test on purpose: a later change to
//! `stap_serve::percentile` must not silently redefine this ledger.

/// Nearest-rank percentile of an ascending-sorted sample, `q` in [0, 1].
/// Panics on an empty sample: a metric without samples is a harness bug,
/// not a zero.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Median by the usual rule (mean of the two middle values for an even
/// count). Sorts in place.
pub fn median(sample: &mut [f64]) -> f64 {
    assert!(!sample.is_empty(), "median of an empty sample");
    sample.sort_by(f64::total_cmp);
    let n = sample.len();
    if n % 2 == 1 {
        sample[n / 2]
    } else {
        0.5 * (sample[n / 2 - 1] + sample[n / 2])
    }
}

/// Mean of the middle half of a sample: the lowest and the highest
/// quarter (rounded down) are dropped. As deaf to a stalled window as the
/// median, but not quantised to one window's event count — 38 events in
/// a 2 s window would put the median on a 0.5/s grid.
pub fn mid_mean(sample: &mut [f64]) -> f64 {
    assert!(!sample.is_empty(), "mid-mean of an empty sample");
    sample.sort_by(f64::total_cmp);
    let drop = sample.len() / 4;
    let mid = &sample[drop..sample.len() - drop];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Events per second in each of the `count` consecutive windows of
/// `width` seconds that start at `t0`. Stamps outside the windows are
/// ignored.
pub fn window_rates(stamps: &[f64], t0: f64, width: f64, count: usize) -> Vec<f64> {
    let mut per_window = vec![0u64; count];
    for &t in stamps {
        if t >= t0 {
            let w = ((t - t0) / width) as usize;
            if w < count {
                per_window[w] += 1;
            }
        }
    }
    per_window.iter().map(|&c| c as f64 / width).collect()
}

/// Share of windows whose rate is below half the median window: the
/// disturbed-run signal (a host stall empties a window, real overload
/// lowers all of them alike).
pub fn stalled_window_share(rates: &[f64]) -> f64 {
    let med = median(&mut rates.to_vec());
    let stalled = rates.iter().filter(|&&r| r < 0.5 * med).count();
    stalled as f64 / rates.len() as f64
}

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`; Linux reports both in `USER_HZ` = 100
/// ticks per second on every architecture.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    const USER_HZ: f64 = 100.0;
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `Vm*` line of `/proc/<pid>/status`, in MB (10^6 bytes).
pub fn status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim_start_matches(':')
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// FNV-1a over 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mid_mean_drops_a_quarter_from_each_end() {
        // Ten windows: the two lowest and two highest go.
        let mut v = [0.0, 1.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 90.0, 99.0];
        assert_eq!(mid_mean(&mut v), 12.5);
        assert_eq!(mid_mean(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mid_mean(&mut [5.0]), 5.0);
    }

    #[test]
    fn window_median_survives_one_stall() {
        // 10 events per second for 8 s, except a 2 s stall in window 1.
        let stamps: Vec<f64> = (0..80)
            .map(|i| i as f64 * 0.1 + 0.05)
            .filter(|t| !(2.0..4.0).contains(t))
            .collect();
        let rates = window_rates(&stamps, 0.0, 2.0, 4);
        assert_eq!(rates, vec![10.0, 0.0, 10.0, 10.0]);
        assert_eq!(median(&mut rates.clone()), 10.0);
        assert_eq!(stalled_window_share(&rates), 0.25);
        // Stamps before t0 and past the last window are not counted.
        assert_eq!(window_rates(&[0.5, 1.5, 9.0], 1.0, 2.0, 2), vec![0.5, 0.0]);
    }

    #[test]
    fn cpu_ticks_parse_past_a_hostile_command_name() {
        let stat = "4242 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 1234 66 0 0 20 0 11 0 100 0 0";
        assert_eq!(cpu_seconds_from_stat(stat), Some(13.0));
        assert_eq!(cpu_seconds_from_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_convert_kib_to_mb() {
        let status = "Name:\tx\nVmHWM:\t    2000 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(status_mb(status, "VmHWM"), Some(2.048));
        assert_eq!(status_mb(status, "VmRSS"), Some(1.024));
        assert_eq!(status_mb(status, "VmSwap"), None);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of eight zero bytes.
        let mut h = Fnv::new();
        h.word(0);
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..8 {
            want = want.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.0, want);
    }
}
