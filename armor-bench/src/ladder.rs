//! The open-loop rate ladder: the highest offered rate a server sustains.

/// Open-loop rates tried, in requests per second, lowest first. Doubling
/// steps span the Nagle-bound server (tens of req/s) up to a server that
/// answers in microseconds, so the same ladder measures both.
pub const RATES: [f64; 8] = [20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0];

/// The latency limit on a rung's p90.
pub const P90_LIMIT_MS: f64 = 100.0;

/// What one rung of the ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, req/s.
    pub rate: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, overloaded, timed out or answered wrongly.
    pub failed: u64,
    /// p90 latency from due time, counting failed requests as past any limit.
    pub p90_ms: f64,
    /// Whether the number of outstanding requests grew during the rung.
    pub backlog_growing: bool,
    /// Requests answered correctly per second, from the rung's first due
    /// time to its last answer.
    pub achieved_rps: f64,
}

impl Rung {
    /// A rung passes when every request succeeded, p90 meets the limit and
    /// the backlog stayed flat.
    pub fn passes(&self) -> bool {
        self.failed == 0 && self.p90_ms <= P90_LIMIT_MS && !self.backlog_growing
    }
}

/// Walks `rates` upwards, measuring each with `probe`, and stops at the first
/// rung that does not pass. Returns every measured rung and the index of the
/// highest passing one (`None` when the lowest rung already fails).
pub fn climb(rates: &[f64], mut probe: impl FnMut(f64) -> Rung) -> (Vec<Rung>, Option<usize>) {
    let mut rungs = Vec::new();
    let mut best = None;
    for &rate in rates {
        let rung = probe(rate);
        let passed = rung.passes();
        rungs.push(rung);
        if !passed {
            break;
        }
        best = Some(rungs.len() - 1);
    }
    (rungs, best)
}

/// Whether a backlog grew over a rung, from the number of requests
/// outstanding (sent but not yet answered) sampled at even intervals while
/// the generator was sending.
///
/// A server keeping up holds the outstanding count level around
/// `rate × latency`; one falling behind accumulates the shortfall. The rule
/// compares the mean of the last third of the samples with the first third
/// and calls growth when the increase exceeds a tenth of the requests sent
/// (and at least four requests, so one burst of arrivals does not count).
pub fn backlog_growing(outstanding: &[u64], sent: u64) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let head = mean(&outstanding[..third]);
    let tail = mean(&outstanding[outstanding.len() - third..]);
    tail - head > (sent as f64 / 10.0).max(4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p90_ms: f64) -> Rung {
        Rung {
            rate,
            attempted: 100,
            failed: 0,
            p90_ms,
            backlog_growing: false,
            achieved_rps: rate,
        }
    }

    #[test]
    fn climb_stops_at_the_first_failing_rung() {
        let mut seen = Vec::new();
        let (rungs, best) = climb(&RATES, |rate| {
            seen.push(rate);
            rung(rate, if rate < 100.0 { 40.0 } else { 250.0 })
        });
        assert_eq!(seen, vec![20.0, 40.0, 80.0, 160.0]);
        assert_eq!(rungs.len(), 4);
        assert_eq!(best.map(|i| rungs[i].rate), Some(80.0));
    }

    #[test]
    fn failures_and_backlog_fail_a_rung_even_under_the_latency_limit() {
        let (rungs, best) = climb(&RATES, |rate| Rung {
            failed: u64::from(rate >= 40.0),
            ..rung(rate, 5.0)
        });
        assert_eq!(best.map(|i| rungs[i].rate), Some(20.0));
        let (rungs, best) = climb(&RATES, |rate| Rung {
            backlog_growing: rate >= 80.0,
            ..rung(rate, 5.0)
        });
        assert_eq!(best.map(|i| rungs[i].rate), Some(40.0));
    }

    #[test]
    fn a_failing_first_rung_has_no_passing_rate() {
        let (rungs, best) = climb(&RATES, |rate| rung(rate, 150.0));
        assert_eq!(rungs.len(), 1);
        assert_eq!(best, None);
    }

    #[test]
    fn every_rung_passing_reports_the_top_rate() {
        let (rungs, best) = climb(&RATES, |rate| rung(rate, 1.0));
        assert_eq!(rungs.len(), RATES.len());
        assert_eq!(best, Some(RATES.len() - 1));
    }

    #[test]
    fn backlog_detection_separates_level_from_growing_queues() {
        // Level around 3 outstanding, with jitter.
        let level = [2, 4, 3, 3, 5, 2, 3, 4, 3];
        assert!(!backlog_growing(&level, 300));
        // A queue that keeps growing by 10 per sample.
        let growing: Vec<u64> = (0..9).map(|i| i * 10).collect();
        assert!(backlog_growing(&growing, 300));
        // Too few samples to judge.
        assert!(!backlog_growing(&[0, 50], 300));
    }
}
