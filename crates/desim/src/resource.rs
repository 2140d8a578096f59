//! Queueing resources.
//!
//! A [`FifoResource`] models a station with `c` identical servers and a shared
//! FIFO queue — a dual-CPU application server is `FifoResource::new("cpu", 2)`,
//! a network link's serialization stage is a single-server resource.
//!
//! Instead of scheduling explicit service-start/service-end events, the
//! resource computes each job's completion time analytically at admission:
//! it keeps the next-free time of every server; an arriving job grabs the
//! earliest-free server and occupies it for its service demand. When
//! admissions happen in non-decreasing time order (which the event-driven
//! callers guarantee for response-path steps), this is exactly a c-server FIFO
//! queue; out-of-order admissions are still served work-conservingly.

use crate::time::{SimDuration, SimTime};

/// A multi-server FIFO queueing resource with analytic admission.
///
/// ```
/// use mutsvc_desim::{FifoResource, SimDuration, SimTime};
///
/// let mut cpu = FifoResource::new("cpu", 1);
/// let d = SimDuration::from_millis(10);
/// let t0 = SimTime::ZERO;
/// assert_eq!(cpu.admit(t0, d), SimTime::from_millis(10));
/// // Second job arriving at the same instant queues behind the first.
/// assert_eq!(cpu.admit(t0, d), SimTime::from_millis(20));
/// ```
#[derive(Debug, Clone)]
pub struct FifoResource {
    name: String,
    /// Next-free time of each server, indexed by server. Sized once at
    /// construction and reused for the lifetime of the resource — admissions
    /// never allocate. Server counts are small (CPUs per host, one per link),
    /// so a linear minimum scan beats heap churn; ties resolve to the lowest
    /// server index, keeping grant order deterministic and FIFO.
    free_at: Vec<SimTime>,
    servers: usize,
    jobs_admitted: u64,
    busy_time: SimDuration,
    first_admit: Option<SimTime>,
}

impl FifoResource {
    /// Creates a resource with `servers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(name: impl Into<String>, servers: usize) -> Self {
        assert!(servers > 0, "a resource needs at least one server");
        let free_at = vec![SimTime::ZERO; servers];
        FifoResource {
            name: name.into(),
            free_at,
            servers,
            jobs_admitted: 0,
            busy_time: SimDuration::ZERO,
            first_admit: None,
        }
    }

    /// The resource name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Admits a job arriving at `now` with service demand `demand` and
    /// returns its completion time.
    ///
    /// A zero-demand job completes immediately at `max(now, earliest free)`.
    pub fn admit(&mut self, now: SimTime, demand: SimDuration) -> SimTime {
        let mut earliest = 0;
        for i in 1..self.free_at.len() {
            if self.free_at[i] < self.free_at[earliest] {
                earliest = i;
            }
        }
        let free = self.free_at[earliest];
        let start = now.max(free);
        let completion = start + demand;
        self.free_at[earliest] = completion;

        self.jobs_admitted += 1;
        self.busy_time += demand;
        if self.first_admit.is_none() {
            self.first_admit = Some(now);
        }
        completion
    }

    /// Jobs admitted so far.
    pub fn jobs_admitted(&self) -> u64 {
        self.jobs_admitted
    }

    /// Cumulative service demand admitted (busy server-time).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Utilization over `[first admission, horizon]`: busy server-time divided
    /// by available server-time. Returns 0 before any admission.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        let Some(first) = self.first_admit else {
            return 0.0;
        };
        let elapsed = horizon.saturating_since(first).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / (elapsed * self.servers as f64)
    }

    /// Resets statistics (not server occupancy). Used when discarding warm-up.
    pub fn reset_stats(&mut self) {
        self.jobs_admitted = 0;
        self.busy_time = SimDuration::ZERO;
        self.first_admit = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;
    const AT: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn single_server_serializes() {
        let mut r = FifoResource::new("r", 1);
        assert_eq!(r.admit(AT(0), MS(10)), AT(10));
        assert_eq!(r.admit(AT(0), MS(10)), AT(20));
        assert_eq!(r.admit(AT(5), MS(10)), AT(30));
        // After the backlog drains, a late arrival starts immediately.
        assert_eq!(r.admit(AT(100), MS(10)), AT(110));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = FifoResource::new("r", 2);
        assert_eq!(r.admit(AT(0), MS(10)), AT(10));
        assert_eq!(r.admit(AT(0), MS(10)), AT(10));
        // Third job waits for the earliest of the two.
        assert_eq!(r.admit(AT(0), MS(10)), AT(20));
    }

    #[test]
    fn zero_demand_completes_at_start() {
        let mut r = FifoResource::new("r", 1);
        assert_eq!(r.admit(AT(3), SimDuration::ZERO), AT(3));
        r.admit(AT(3), MS(10));
        // Zero-demand job still queues behind the busy server.
        assert_eq!(r.admit(AT(3), SimDuration::ZERO), AT(13));
    }

    #[test]
    fn utilization_and_wait_accounting() {
        let mut r = FifoResource::new("r", 1);
        r.admit(AT(0), MS(10));
        // The second job waits 10ms behind the first.
        assert_eq!(r.admit(AT(0), MS(10)), AT(20));
        assert_eq!(r.jobs_admitted(), 2);
        assert_eq!(r.busy_time(), MS(20));
        let u = r.utilization(AT(40));
        assert!((u - 0.5).abs() < 1e-9, "expected 0.5 got {u}");
    }

    #[test]
    fn utilization_before_any_admission_is_zero() {
        let r = FifoResource::new("idle", 4);
        assert_eq!(r.utilization(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn reset_stats_keeps_occupancy() {
        let mut r = FifoResource::new("r", 1);
        r.admit(AT(0), MS(50));
        r.reset_stats();
        assert_eq!(r.jobs_admitted(), 0);
        // Occupancy survives: next job queues behind the in-flight one.
        assert_eq!(r.admit(AT(0), MS(1)), AT(51));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = FifoResource::new("bad", 0);
    }

    /// When several servers free up at the same instant, queued arrivals are
    /// granted in strict arrival order at that instant — the tie between
    /// simultaneously-free servers must not reorder or delay grants.
    #[test]
    fn fifo_grant_order_under_simultaneous_releases() {
        let mut r = FifoResource::new("r", 3);
        // Occupy all three servers until t=10 (simultaneous releases).
        for _ in 0..3 {
            assert_eq!(r.admit(AT(0), MS(10)), AT(10));
        }
        // Backlogged arrivals, admitted in FIFO order: each is granted one of
        // the servers freed at t=10 and completes per its own demand, with no
        // extra wait introduced by the simultaneous release.
        assert_eq!(r.admit(AT(1), MS(5)), AT(15));
        assert_eq!(r.admit(AT(2), MS(7)), AT(17));
        assert_eq!(r.admit(AT(3), MS(9)), AT(19));
        // A fourth queued job waits for the earliest of the second wave.
        assert_eq!(r.admit(AT(4), MS(1)), AT(16));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Lindley's recursion: for a single-server FIFO queue with
            /// in-order arrivals, completion times match the classical
            /// recurrence C_i = max(A_i, C_{i-1}) + S_i.
            #[test]
            fn lindley_recursion_single_server(
                arrivals in proptest::collection::vec(0u64..10_000, 1..200),
                services in proptest::collection::vec(0u64..500, 200),
            ) {
                let mut sorted = arrivals.clone();
                sorted.sort_unstable();
                let mut r = FifoResource::new("q", 1);
                let mut prev_completion = SimTime::ZERO;
                for (i, &a) in sorted.iter().enumerate() {
                    let arrival = SimTime::from_micros(a);
                    let service = SimDuration::from_micros(services[i % services.len()]);
                    let completion = r.admit(arrival, service);
                    let expected = arrival.max(prev_completion) + service;
                    prop_assert_eq!(completion, expected);
                    prev_completion = completion;
                }
            }

            /// Completion never precedes arrival + service, and the resource
            /// is work-conserving: total busy time equals the admitted demand.
            #[test]
            fn completions_respect_causality(
                servers in 1usize..5,
                jobs in proptest::collection::vec((0u64..5_000, 0u64..300), 1..100),
            ) {
                let mut sorted = jobs.clone();
                sorted.sort_unstable_by_key(|j| j.0);
                let mut r = FifoResource::new("q", servers);
                let mut demand_sum = SimDuration::ZERO;
                for &(a, s) in &sorted {
                    let arrival = SimTime::from_micros(a);
                    let service = SimDuration::from_micros(s);
                    let completion = r.admit(arrival, service);
                    prop_assert!(completion >= arrival + service);
                    demand_sum += service;
                }
                prop_assert_eq!(r.busy_time(), demand_sum);
            }
        }
    }
}
