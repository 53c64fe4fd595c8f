//! The open-loop load generator: request `i` is due at `i / rate` whether
//! or not earlier requests have completed, so a slow system keeps
//! receiving the full load and its queue can grow. Latency is counted from
//! the *due* time, which charges a stall of the generator (or of an inline
//! fast path) to the requests it delayed; how late the generator ran is
//! reported beside it.

use std::time::{Duration, Instant};

/// Time as the generator sees it, in seconds since the run began.
pub trait Clock {
    fn now(&self) -> f64;
    /// Returns no earlier than `t`; at once when `t` has passed.
    fn wait_until(&self, t: f64);
}

/// The wall clock: sleeps to within 200 µs of the due time, then spins.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn start() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// The instant `t` seconds after the start.
    pub fn instant_at(&self, t: f64) -> Instant {
        self.origin + Duration::from_secs_f64(t)
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn wait_until(&self, t: f64) {
        const SPIN: f64 = 200e-6;
        let ahead = t - self.now();
        if ahead > SPIN {
            std::thread::sleep(Duration::from_secs_f64(ahead - SPIN));
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// One request as sent: when it was due, when it was handed over, when the
/// hand-over returned, and what it returned.
pub struct Sent<T> {
    pub due_s: f64,
    pub sent_s: f64,
    pub returned_s: f64,
    pub reply: T,
}

impl<T> Sent<T> {
    /// How late the generator handed this request over.
    pub fn late_s(&self) -> f64 {
        self.sent_s - self.due_s
    }
}

/// Sends `requests` through `send` on the schedule `i / rate`.
pub fn drive<C: Clock, R, T>(
    clock: &C,
    rate: f64,
    requests: Vec<R>,
    mut send: impl FnMut(R) -> T,
) -> Vec<Sent<T>> {
    requests
        .into_iter()
        .enumerate()
        .map(|(i, request)| {
            let due_s = i as f64 / rate;
            clock.wait_until(due_s);
            let sent_s = clock.now();
            let reply = send(request);
            Sent {
                due_s,
                sent_s,
                returned_s: clock.now(),
                reply,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when someone waits on it or works under it.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn wait_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn lateness_is_counted_from_the_due_time() {
        let clock = FakeClock(Cell::new(0.0));
        // 10 req/s; the first hand-over stalls for 0.25 s, the rest take 10 ms.
        let service = vec![0.25, 0.01, 0.01, 0.01];
        let sent = drive(&clock, 10.0, service, |s| {
            clock.0.set(clock.0.get() + s);
            s
        });
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        let due: Vec<f64> = sent.iter().map(|s| s.due_s).collect();
        assert_eq!(due, vec![0.0, 0.1, 0.2, 0.3]);
        // The stall makes requests 1 and 2 late; request 3 is on time again.
        assert!(close(sent[0].late_s(), 0.0));
        assert!(close(sent[1].late_s(), 0.15));
        assert!(close(sent[2].late_s(), 0.06));
        assert!(close(sent[3].late_s(), 0.0));
        // Latency from the due time includes the lateness.
        assert!(close(sent[1].returned_s - sent[1].due_s, 0.16));
        assert!(sent.iter().all(|s| s.sent_s >= s.due_s));
    }

    #[test]
    fn wall_clock_waits_and_never_returns_early() {
        let clock = WallClock::start();
        clock.wait_until(0.003);
        let now = clock.now();
        assert!(now >= 0.003, "returned early at {now}");
        clock.wait_until(0.0); // already past: returns at once
        assert!(clock.instant_at(1.0) > clock.instant_at(0.5));
    }
}
