//! The benchmark's own bookkeeping, kept free of sockets and clocks so
//! it can be unit-tested: the tail-percentile rule, open-loop timing,
//! and the tally of attempted and failed operations.

use std::time::Duration;

use bix_server::{ClientError, ErrorCode};

/// Percentiles a latency may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`LADDER`] with at least [`TAIL_SAMPLES`]
/// of `n` samples beyond it, or `None` when even the median has fewer.
/// With 1000 samples this is p99: ten samples lie above it.
pub fn highest_tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| samples_beyond(n, *p) >= TAIL_SAMPLES as f64)
}

fn samples_beyond(n: usize, p: f64) -> f64 {
    // Rounded to absorb the binary error of (100 - 99.9) and the like.
    ((n as f64) * (100.0 - p) / 100.0 * 1e6).round() / 1e6
}

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a p99 needs: ten lie beyond it.
pub const P99_SAMPLES: usize = 1000;

/// A latency distribution with its sample count.
#[derive(Debug, Clone)]
pub struct Latencies {
    in_order: Vec<f64>,
    sorted_ms: Vec<f64>,
}

impl Latencies {
    /// `samples_ms` in completion order (NaN-free: they are durations).
    pub fn new(samples_ms: Vec<f64>) -> Latencies {
        let mut sorted_ms = samples_ms.clone();
        sorted_ms.sort_by(f64::total_cmp);
        Latencies {
            in_order: samples_ms,
            sorted_ms,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// Median, or `None` without samples.
    pub fn p50(&self) -> Option<f64> {
        (!self.sorted_ms.is_empty()).then(|| percentile(&self.sorted_ms, 50.0))
    }

    /// p99, reported only when the rule allows it (at least 1000
    /// samples). The run is cut into consecutive chunks of at least
    /// 1000 samples, so ten lie beyond each chunk's p99, and the median
    /// of the chunks' p99s is reported: a stall of a shared host in one
    /// part of the run moves one chunk, not the figure.
    pub fn p99(&self) -> Option<f64> {
        let chunks = self.len() / P99_SAMPLES;
        if chunks == 0 {
            return None;
        }
        let size = self.len() / chunks;
        let p99s: Vec<f64> = (0..chunks)
            .map(|c| {
                let end = if c + 1 == chunks {
                    self.len()
                } else {
                    (c + 1) * size
                };
                let mut chunk = self.in_order[c * size..end].to_vec();
                chunk.sort_by(f64::total_cmp);
                percentile(&chunk, 99.0)
            })
            .collect();
        Some(median(&p99s))
    }

    /// One line naming the count and the highest reportable tail.
    pub fn describe(&self) -> String {
        match highest_tail_percentile(self.len()) {
            Some(p) => format!(
                "{} samples, p{p} {:.3} ms",
                self.len(),
                percentile(&self.sorted_ms, p)
            ),
            None => format!("{} samples, too few for a percentile", self.len()),
        }
    }
}

/// A fixed send schedule: request `i` is due `i * interval` after the
/// start, whether or not earlier requests have been answered.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    interval: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_per_s` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_s` is positive.
    pub fn new(rate_per_s: f64) -> OpenLoop {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        OpenLoop {
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `i` is due, as an offset from the schedule's start.
    pub fn due(&self, i: u64) -> Duration {
        self.interval * u32::try_from(i).expect("schedule index fits u32")
    }

    /// Latency and generator lateness of request `i`, sent at `sent` and
    /// acknowledged at `acked` (offsets from the start). Latency runs
    /// from the due time, so a stall is charged to every request queued
    /// behind it; lateness is how far the send itself slipped.
    pub fn timing(&self, i: u64, sent: Duration, acked: Duration) -> (Duration, Duration) {
        let due = self.due(i);
        (acked.saturating_sub(due), sent.saturating_sub(due))
    }
}

/// How one timed operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer passed its check.
    Ok,
    /// Answered, but the answer failed its check.
    Wrong,
    /// Refused by admission or memtable control (`Overloaded`).
    Refused,
    /// Any other typed or transport error.
    Error,
}

impl Outcome {
    /// Classifies a client call: errors by kind, answers by `check`.
    pub fn of<T>(result: &Result<T, ClientError>, check: impl FnOnce(&T) -> bool) -> Outcome {
        match result {
            Ok(value) if check(value) => Outcome::Ok,
            Ok(_) => Outcome::Wrong,
            Err(e) if e.is_code(ErrorCode::Overloaded) => Outcome::Refused,
            Err(_) => Outcome::Error,
        }
    }
}

/// Counts of operations attempted and how they ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// Refusals.
    pub refused: u64,
    /// Other errors.
    pub errors: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Wrong => self.wrong += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.errors += other.errors;
    }

    /// Failed, refused and wrong operations.
    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.errors
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail_percentile(19), None);
        assert_eq!(highest_tail_percentile(20), Some(50.0));
        assert_eq!(highest_tail_percentile(99), Some(50.0));
        assert_eq!(highest_tail_percentile(100), Some(90.0));
        assert_eq!(highest_tail_percentile(999), Some(90.0));
        assert_eq!(highest_tail_percentile(1000), Some(99.0));
        assert_eq!(highest_tail_percentile(9_999), Some(99.0));
        assert_eq!(highest_tail_percentile(10_000), Some(99.9));
        assert_eq!(highest_tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let short = Latencies::new((0..999).map(f64::from).collect());
        assert_eq!(short.p99(), None);
        assert_eq!(short.p50(), Some(499.0));
        let long = Latencies::new((1..=1000).rev().map(f64::from).collect());
        // Nearest rank: the 990th of 1000, so ten samples lie above it.
        assert_eq!(long.p99(), Some(990.0));
        assert_eq!(long.sorted_ms.iter().filter(|&&v| v > 990.0).count(), 10);
    }

    #[test]
    fn p99_is_the_median_over_chunks_of_a_thousand() {
        // Three chunks; the middle one is a stall where every sample is slow.
        let calm = || (1..=1000).map(f64::from);
        let samples: Vec<f64> = calm().chain(vec![5000.0; 1000]).chain(calm()).collect();
        let l = Latencies::new(samples);
        assert_eq!(l.p99(), Some(990.0));
        // 2999 samples make two chunks (1499 and 1500), not three.
        let l = Latencies::new((1..=2999).map(f64::from).collect());
        let first = percentile(&(1..=1499).map(f64::from).collect::<Vec<_>>(), 99.0);
        let second = percentile(&(1500..=2999).map(f64::from).collect::<Vec<_>>(), 99.0);
        assert_eq!(l.p99(), Some((first + second) / 2.0));
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let schedule = OpenLoop::new(100.0); // due every 10 ms
        let ms = Duration::from_millis;
        // Request 0 is served promptly.
        assert_eq!(schedule.timing(0, ms(0), ms(2)), (ms(2), ms(0)));
        // Request 1 stalls for 35 ms after going out on time ...
        assert_eq!(schedule.timing(1, ms(10), ms(45)), (ms(35), ms(0)));
        // ... so request 2, due at 20 ms, could only be sent at 45 ms:
        // the stall shows in its latency and in the generator's lateness.
        assert_eq!(schedule.timing(2, ms(45), ms(47)), (ms(27), ms(25)));
        // A send ahead of schedule is never negative lateness.
        assert_eq!(schedule.timing(3, ms(29), ms(31)), (ms(1), ms(0)));
    }

    #[test]
    fn failed_frac_counts_refusals_errors_and_wrong_answers() {
        let overloaded: Result<u64, ClientError> = Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            message: "memtable full".into(),
        });
        let bad_query: Result<u64, ClientError> = Err(ClientError::Server {
            code: ErrorCode::BadQuery,
            message: "bad".into(),
        });
        let io: Result<u64, ClientError> = Err(ClientError::Io(std::io::Error::other("reset")));
        let right: Result<u64, ClientError> = Ok(7);
        let wrong: Result<u64, ClientError> = Ok(8);
        let expect_seven = |v: &u64| *v == 7;

        let mut tally = Tally::default();
        for result in [&overloaded, &bad_query, &io, &right, &wrong, &right] {
            tally.record(Outcome::of(result, expect_seven));
        }
        assert_eq!(Outcome::of(&overloaded, expect_seven), Outcome::Refused);
        assert_eq!(Outcome::of(&bad_query, expect_seven), Outcome::Error);
        assert_eq!(Outcome::of(&wrong, expect_seven), Outcome::Wrong);
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                wrong: 1,
                refused: 1,
                errors: 2,
            }
        );
        assert_eq!(tally.failed(), 4);
        assert!((tally.failed_frac() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
