//! Order statistics, the per-operation latency ledger and the seeded
//! open-loop schedule.

use std::time::{Duration, Instant};

use stco_numerics::rng::Xorshift;

/// Ascending copy of `values` (`+∞` sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank `q`-quantile of an ascending slice. The result is always
/// an observed sample, so a `+∞` failure propagates as `+∞`, never NaN.
pub fn quantile(ascending: &[f64], q: f64) -> f64 {
    if ascending.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points by the exclusive method, the default
/// of Python's `statistics.quantiles(values, n=4)`, which is how
/// run-to-run spread is judged against a metric's bound.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return [s.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Per-operation outcomes of one measured phase. Latency is charged from
/// each operation's due time; a failed operation enters the sample as
/// `+∞`, so it misses every latency limit.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    latencies: Vec<f64>,
    failed: u64,
}

impl Ledger {
    /// Records a completed operation (seconds on one clock).
    pub fn ok(&mut self, due: f64, done: f64) {
        self.latencies.push(done - due);
    }

    /// Records a failed operation.
    pub fn fail(&mut self) {
        self.latencies.push(f64::INFINITY);
        self.failed += 1;
    }

    /// Operations recorded.
    pub fn attempted(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Latency `q`-quantile in seconds (nearest rank).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&sorted(&self.latencies), q)
    }

    /// The raw latency sample, seconds, in record order.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }
}

/// `failed ÷ attempted`, 0 when nothing was attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Seconds since a fixed origin, and a way to wait for a later instant.
pub trait Clock {
    /// Seconds since the origin.
    fn now(&self) -> f64;
    /// Returns at or after `t` seconds since the origin.
    fn sleep_until(&self, t: f64);
}

/// The wall clock, counted from `origin`.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// Open-loop pacing: sends request `i` no earlier than `schedule[i]`,
/// in order, and returns how late each send started. A send that stalls
/// holds back every send behind it; latency is charged from due time, so
/// that wait lands on the later requests instead of vanishing.
pub fn pace<E>(
    schedule: &[f64],
    clock: &impl Clock,
    mut send: impl FnMut(usize, f64) -> Result<(), E>,
) -> Result<Vec<f64>, E> {
    let mut lags = Vec::with_capacity(schedule.len());
    for (i, &due) in schedule.iter().enumerate() {
        if clock.now() < due {
            clock.sleep_until(due);
        }
        lags.push(clock.now() - due);
        send(i, due)?;
    }
    Ok(lags)
}

/// Due times of a Poisson arrival process at `rate` per second over
/// `[0, duration)` seconds.
pub fn poisson_schedule(rng: &mut Xorshift, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 1);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.uniform()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// A seeded permutation of `0..n`, which request streams cycle through.
pub fn shuffled(rng: &mut Xorshift, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.9), 5.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        assert_eq!(quartiles(&v), [1.25, 3.5, 5.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn a_seed_fixes_the_schedule_and_the_payload_order() {
        let draw = |seed| {
            let mut rng = Xorshift::new(seed);
            (
                poisson_schedule(&mut rng, 2000.0, 1.0),
                shuffled(&mut rng, 420),
            )
        };
        let (schedule, order) = draw(7);
        assert_eq!(draw(7), (schedule.clone(), order.clone()));
        assert_ne!(draw(8).0, schedule);
        assert_ne!(draw(8).1, order);
        assert!(schedule.windows(2).all(|w| w[0] < w[1]));
        assert!((1800..2200).contains(&schedule.len()), "{}", schedule.len());
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..420).collect::<Vec<_>>());
    }

    /// A clock that only moves when told to.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }

        fn sleep_until(&self, t: f64) {
            self.0.set(t);
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        let clock = FakeClock(Cell::new(0.0));
        let schedule = [0.000, 0.001, 0.002, 0.003, 0.020];
        let mut ledger = Ledger::default();
        let mut from_send = Vec::new();
        let lags = pace(&schedule, &clock, |i, due| -> Result<(), ()> {
            let sent = clock.now();
            if i == 0 {
                // The first send blocks for 10 ms.
                clock.0.set(sent + 0.010);
            }
            // Replies arrive the moment the send returns.
            ledger.ok(due, clock.now());
            from_send.push(clock.now() - sent);
            Ok(())
        })
        .expect("fake sends never fail");
        let ms = |v: &[f64]| -> Vec<i64> { v.iter().map(|s| (s * 1e3).round() as i64).collect() };
        assert_eq!(ms(&lags), [0, 9, 8, 7, 0]);
        assert_eq!(ms(ledger.latencies()), [10, 9, 8, 7, 0]);
        // Timed from the send, the three held-back requests look free.
        assert_eq!(ms(&from_send), [10, 0, 0, 0, 0]);
    }

    #[test]
    fn failures_are_infinite_latencies_and_count_as_failed() {
        let mut ledger = Ledger::default();
        for i in 0..9 {
            ledger.ok(0.0, 0.001 * f64::from(i + 1));
        }
        ledger.fail();
        assert_eq!(ledger.attempted(), 10);
        assert_eq!(ledger.failed(), 1);
        assert_eq!(failed_share(ledger.failed(), ledger.attempted()), 0.1);
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(ledger.quantile(0.5), 0.005);
        assert_eq!(ledger.quantile(0.99), f64::INFINITY);
    }
}
