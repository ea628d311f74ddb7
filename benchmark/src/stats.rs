//! Small numeric helpers: percentiles, quartiles, segment medians, and
//! the process's peak resident set.

/// The `p`-th percentile (0–100) by nearest rank. `None` on no samples.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// `[p25, p50, p75]` of the samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut s = samples.to_vec();
    Some([
        percentile(&mut s, 25.0)?,
        percentile(&mut s, 50.0)?,
        percentile(&mut s, 75.0)?,
    ])
}

/// The median by nearest rank; 0 on no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; 0 on no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Rates of `segments` equal consecutive segments of a run.
///
/// `events` are `(seconds since the run began, amount)` in time order,
/// one per completed operation. The events are cut into `segments`
/// groups of equal count; a group's rate is its amount over the time
/// from the previous group's last event (the run's start for the first)
/// to its own last event. Leftover events at the end are dropped.
pub fn segment_rates(events: &[(f64, f64)], segments: usize) -> Vec<f64> {
    let per = events.len() / segments.max(1);
    if per == 0 {
        return Vec::new();
    }
    let mut start = 0.0;
    events
        .chunks_exact(per)
        .take(segments)
        .map(|chunk| {
            let end = chunk[chunk.len() - 1].0;
            let rate = chunk.iter().map(|e| e.1).sum::<f64>() / (end - start).max(1e-9);
            start = end;
            rate
        })
        .collect()
}

/// The `p`-th percentile of each of `segments` equal consecutive groups
/// of `samples` (in time order). A burst of outside noise moves the
/// groups it hits and leaves the others alone, where a percentile pooled
/// over the run would move with it.
pub fn segment_percentiles(samples: &[f64], segments: usize, p: f64) -> Vec<f64> {
    let per = (samples.len() / segments.max(1)).max(1);
    samples
        .chunks_exact(per)
        .take(segments)
        .filter_map(|chunk| percentile(&mut chunk.to_vec(), p))
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(all, stolen)` CPU jiffies of the machine so far, from the first
/// line of `/proc/stat`. Stolen time is what the hypervisor gave to
/// other guests while this one wanted to run.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields.iter().sum(), fields[7]))
}

/// Share of the machine's CPU time stolen since `since`.
pub fn steal_share(since: Option<(u64, u64)>) -> f64 {
    match (since, cpu_jiffies()) {
        (Some((all0, stolen0)), Some((all1, stolen1))) if all1 > all0 => {
            (stolen1 - stolen0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), Some(50.0));
        assert_eq!(percentile(&mut s, 99.0), Some(99.0));
        assert_eq!(percentile(&mut s, 100.0), Some(100.0));
        assert_eq!(percentile(&mut s, 0.0), Some(1.0));
        assert_eq!(percentile(&mut [7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&mut [], 50.0), None);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn segment_rates_cut_by_count_and_time_by_last_event() {
        // Four events of 10 each; the second pair takes twice as long.
        let events = [
            (1.0, 10.0),
            (2.0, 10.0),
            (4.0, 10.0),
            (6.0, 10.0),
            (6.5, 10.0),
        ];
        assert_eq!(segment_rates(&events, 2), vec![10.0, 5.0]);
        assert!(segment_rates(&events[..1], 2).is_empty());
        let mut rates = segment_rates(&events, 2);
        assert_eq!(percentile(&mut rates, 50.0), Some(5.0));
    }

    #[test]
    fn segment_percentile_shrugs_off_a_burst() {
        // Ten groups of ten; one group is hit by a burst.
        let mut samples: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        for s in &mut samples[30..40] {
            *s += 1000.0;
        }
        let each = segment_percentiles(&samples, 10, 90.0);
        assert_eq!(each.len(), 10);
        assert_eq!((each[3], median(&each)), (1008.0, 8.0));
        assert_eq!(percentile(&mut samples.clone(), 99.0), Some(1008.0));
        assert_eq!(segment_percentiles(&[3.0, 1.0], 10, 50.0), vec![3.0, 1.0]);
        assert!(segment_percentiles(&[], 10, 50.0).is_empty());
    }

    #[test]
    fn proc_files_are_readable_here() {
        assert!(peak_rss_mb().unwrap() > 1.0);
        let (all, stolen) = cpu_jiffies().unwrap();
        assert!(all > stolen);
        assert!((0.0..=1.0).contains(&steal_share(Some((0, 0)))));
    }
}
