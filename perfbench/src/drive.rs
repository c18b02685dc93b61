//! Load phases over real TCP: open loop (requests due on a fixed
//! schedule, latency timed from when each was due) and closed loop
//! (each connection sends its next request when the last one returns).

use crate::client::Conn;
use crate::workload::{exponential, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A request source for one connection.
pub type Source = Box<dyn FnMut() -> Request + Send>;

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub req: Request,
    /// `None` when the request failed at the transport level.
    pub status: Option<u16>,
    pub count: Option<u64>,
    pub epoch: Option<u64>,
    /// From when the request was due to when its response ended.
    pub latency: Duration,
    /// From when the request was sent to when its response ended.
    pub service: Duration,
    /// From when the request was due to when it was sent.
    pub late: Duration,
    pub sent: Instant,
}

impl Sample {
    pub fn served(&self) -> bool {
        self.status == Some(200) && self.count.is_some()
    }

    /// When the request was due.
    pub fn due(&self) -> Instant {
        self.sent - self.late
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Poisson arrivals at `rate` requests per second in total, split
    /// evenly over the connections; the arrival times are seeded.
    /// Random gaps keep the schedule from locking into step with other
    /// periodic activity in the process.
    Open { rate: f64, seed: u64 },
    /// Back to back, until the duration has passed and each
    /// connection has sent a whole number of rounds of `round`
    /// requests, at least one.
    Closed { round: usize },
}

/// The samples of one phase and how long it ran.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub started: Instant,
    pub elapsed: Duration,
}

impl Phase {
    pub fn served(&self) -> usize {
        self.samples.iter().filter(|s| s.served()).count()
    }

    /// The p99 latency of the served requests in each `window` of the
    /// phase, by due time.
    pub fn window_p99s(&self, window: Duration) -> Vec<f64> {
        // An open loop ends at its last response, which can come a
        // little before the phase's nominal end; round, do not truncate.
        let n = ((self.elapsed.as_secs_f64() / window.as_secs_f64()).round() as usize).max(1);
        let mut windows = vec![Vec::new(); n];
        for s in self.samples.iter().filter(|s| s.served()) {
            let offset = s.due().saturating_duration_since(self.started);
            let i = (offset.as_secs_f64() / window.as_secs_f64()) as usize;
            windows[i.min(n - 1)].push(ms(s.latency));
        }
        windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, 0.99))
            .collect()
    }
}

/// Runs one phase with one connection per source.
pub fn run_phase(addr: SocketAddr, sources: Vec<Source>, mode: Mode, duration: Duration) -> Phase {
    let conns = sources.len();
    let started = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .enumerate()
            .map(|(i, mut next)| {
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut samples = Vec::new();
                    let mut arrivals = match mode {
                        Mode::Open { rate, seed } => Some((
                            StdRng::seed_from_u64(seed ^ (0xA77 << 32 | i as u64)),
                            rate / conns as f64,
                        )),
                        Mode::Closed { .. } => None,
                    };
                    let mut due = match &mut arrivals {
                        Some((rng, rate)) => started + exponential(rng, *rate),
                        None => started,
                    };
                    // A closed loop ends on a round boundary, after at
                    // least one round, even when that outlasts the phase.
                    let open_round = |sent: usize| match mode {
                        Mode::Closed { round } => sent == 0 || !sent.is_multiple_of(round),
                        Mode::Open { .. } => false,
                    };
                    while due < started + duration || open_round(samples.len()) {
                        let req = next();
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let result = conn.query(&req.body());
                        let done = Instant::now();
                        let (status, count, epoch) = match result {
                            Ok(r) => (Some(r.status), r.count, r.epoch),
                            Err(_) => (None, None, None),
                        };
                        samples.push(Sample {
                            req,
                            status,
                            count,
                            epoch,
                            latency: done.saturating_duration_since(due),
                            service: done - sent,
                            late: sent.saturating_duration_since(due),
                            sent,
                        });
                        due = match &mut arrivals {
                            Some((rng, rate)) => due + exponential(rng, *rate),
                            None => done,
                        };
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    Phase {
        samples: per_conn.into_iter().flatten().collect(),
        started,
        elapsed,
    }
}

/// Nearest-rank quantile of `values` (sorted in place); `q` in [0, 1].
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
