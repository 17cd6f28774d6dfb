//! Order statistics and the splice-excluded replay accounting.

use std::collections::BTreeMap;

use fusion_core::MemoMark;

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (`q` in `(0, 1]`). Returns 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle samples (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One grid point as the accounting sees it: how the memo served it, the
/// refs its trace holds and the host time of its run call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTime {
    pub mark: MemoMark,
    pub refs: u64,
    pub nanos: u64,
}

/// Replayed versus spliced work over a set of grid points.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayAccount {
    /// Refs of the points that actually replayed.
    pub replayed_refs: u64,
    /// Host nanoseconds inside the run calls of those points.
    pub replay_nanos: u64,
    /// Points that replayed.
    pub replayed: u64,
    /// Refs the memo spliced instead of replaying.
    pub spliced_refs: u64,
    /// Host nanoseconds inside the run calls the memo served.
    pub splice_nanos: u64,
    /// Points the memo served.
    pub spliced: u64,
}

impl ReplayAccount {
    /// Splits `jobs` by their memo mark: a hit counts zero replayed refs
    /// and its time stays out of the replay total.
    pub fn of(jobs: &[JobTime]) -> ReplayAccount {
        let mut acc = ReplayAccount::default();
        for job in jobs {
            if job.mark == MemoMark::Hit {
                acc.spliced_refs += job.refs;
                acc.splice_nanos += job.nanos;
                acc.spliced += 1;
            } else {
                acc.replayed_refs += job.refs;
                acc.replay_nanos += job.nanos;
                acc.replayed += 1;
            }
        }
        acc
    }

    /// Replayed refs per host microsecond, i.e. millions per second.
    pub fn mrefs_per_s(&self) -> f64 {
        ratio(self.replayed_refs as f64 * 1e3, self.replay_nanos as f64)
    }
}

/// Every operation sample of a set of repetitions, given as
/// `(repetition wall, its operations)`, with its time rescaled by the
/// median repetition wall over its own repetition's wall. The host's speed
/// swings between repetitions of identical work (1.2 to 2.5 s for a
/// `grid_paper` repetition); rescaling removes the swing and keeps each
/// operation's share of its repetition.
pub fn scale_to_median_rep<'a>(
    reps: impl IntoIterator<Item = (f64, &'a [(String, JobTime)])> + Clone,
) -> Vec<(String, JobTime)> {
    let walls: Vec<f64> = reps.clone().into_iter().map(|(wall, _)| wall).collect();
    let median_wall = median(&walls);
    reps.into_iter()
        .flat_map(|(wall, jobs)| {
            let k = ratio(median_wall, wall);
            jobs.iter().map(move |(key, job)| {
                let nanos = (job.nanos as f64 * k).round() as u64;
                (key.clone(), JobTime { nanos, ..*job })
            })
        })
        .collect()
}

/// Median-of-N per operation: for every operation key, its memo mark,
/// its refs and its median host time over all repetitions, in key order.
/// Medians of every operation, like the medians of whole repetitions,
/// move with the host state the run's probe measures.
pub fn median_per_job<'a>(
    samples: impl IntoIterator<Item = &'a (String, JobTime)>,
) -> Vec<JobTime> {
    let mut by_key: BTreeMap<&str, (JobTime, Vec<f64>)> = BTreeMap::new();
    for (key, job) in samples {
        by_key
            .entry(key)
            .or_insert_with(|| (*job, Vec::new()))
            .1
            .push(job.nanos as f64);
    }
    by_key
        .into_values()
        .map(|(job, nanos)| JobTime {
            nanos: median(&nanos).round() as u64,
            ..job
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.8), 8.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&xs, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.8), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 91 samples: p80 is the 73rd, leaving 18 above it.
        let ys: Vec<f64> = (1..=91).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.8), 73.0);
    }

    #[test]
    fn tiny_design_grid_splices_count_no_replayed_refs() {
        use fusion_core::{design_grid, Sweep};
        use fusion_types::SystemConfig;
        use fusion_workloads::Scale;
        let outcomes = Sweep::new(Scale::Tiny)
            .threads(1)
            .run(design_grid(&SystemConfig::small()));
        let jobs: Vec<JobTime> = outcomes
            .iter()
            .map(|o| {
                let m = o.expect_result().metrics;
                JobTime {
                    mark: o.memo.mark,
                    refs: m.refs_simulated,
                    nanos: m.wall_nanos,
                }
            })
            .collect();
        let acc = ReplayAccount::of(&jobs);
        assert_eq!((acc.replayed, acc.spliced), (91, 105));
        let all: u64 = jobs.iter().map(|j| j.refs).sum();
        let hit_refs: u64 = jobs
            .iter()
            .filter(|j| j.mark == MemoMark::Hit)
            .map(|j| j.refs)
            .sum();
        assert_eq!(acc.spliced_refs, hit_refs);
        assert_eq!(acc.replayed_refs, all - hit_refs);
    }

    #[test]
    fn operation_samples_scale_to_the_median_repetition() {
        let job = |nanos| JobTime {
            mark: MemoMark::Miss,
            refs: 10,
            nanos,
        };
        let fast = vec![("a".to_string(), job(100))];
        let slow = vec![("a".to_string(), job(300))];
        let mid = vec![("a".to_string(), job(200))];
        let reps = [(1.0, &fast[..]), (3.0, &slow[..]), (2.0, &mid[..])];
        let scaled = scale_to_median_rep(reps.iter().copied());
        let nanos: Vec<u64> = scaled.iter().map(|(_, j)| j.nanos).collect();
        assert_eq!(nanos, vec![200, 200, 200]);
    }

    #[test]
    fn median_per_job_keeps_each_keys_median() {
        let job = |mark, refs, nanos| JobTime { mark, refs, nanos };
        let samples = [
            ("b".to_string(), job(MemoMark::Hit, 20, 900)),
            ("a".to_string(), job(MemoMark::Miss, 10, 500)),
            ("a".to_string(), job(MemoMark::Miss, 10, 300)),
            ("b".to_string(), job(MemoMark::Hit, 20, 950)),
            ("a".to_string(), job(MemoMark::Miss, 10, 400)),
        ];
        assert_eq!(
            median_per_job(&samples),
            vec![job(MemoMark::Miss, 10, 400), job(MemoMark::Hit, 20, 925)]
        );
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn hits_count_no_replayed_refs_and_no_replay_time() {
        let jobs = [
            JobTime {
                mark: MemoMark::Miss,
                refs: 1000,
                nanos: 2000,
            },
            JobTime {
                mark: MemoMark::Hit,
                refs: 1000,
                nanos: 10,
            },
            JobTime {
                mark: MemoMark::Fallback,
                refs: 500,
                nanos: 1000,
            },
            JobTime {
                mark: MemoMark::Off,
                refs: 500,
                nanos: 1000,
            },
        ];
        let acc = ReplayAccount::of(&jobs);
        assert_eq!(acc.replayed_refs, 2000);
        assert_eq!(acc.replay_nanos, 4000);
        assert_eq!(acc.replayed, 3);
        assert_eq!(
            (acc.spliced_refs, acc.splice_nanos, acc.spliced),
            (1000, 10, 1)
        );
        // 2000 refs in 4 us = 500 Mrefs/s; counting the splice would
        // have claimed 3000 refs in 4.01 us.
        assert_eq!(acc.mrefs_per_s(), 500.0);
        assert_eq!(ReplayAccount::of(&[]).mrefs_per_s(), 0.0);
    }
}
