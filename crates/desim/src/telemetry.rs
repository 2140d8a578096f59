//! Named counters and gauges snapshotted into a sim-time series.
//!
//! A [`TelemetryRegistry`] is a flat table of named `f64` metrics. Owners
//! register metrics once at setup (getting a dense [`MetricId`]), update
//! them with [`set`](TelemetryRegistry::set)/[`add`](TelemetryRegistry::add)
//! (array indexing, no hashing on the hot path), and call
//! [`snapshot`](TelemetryRegistry::snapshot) at a fixed sim-time cadence to
//! append the current values to a time series.
//!
//! The registry is passive: it never schedules anything itself. The
//! workload driver owns the snapshot cadence (a typed event).

use crate::time::SimTime;

/// Dense handle to a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u32);

impl MetricId {
    /// Index into [`TelemetryRegistry::names`] / snapshot value vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// All metric values observed at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Values in registration order (parallel to `names()`).
    pub values: Vec<f64>,
}

/// Flat registry of named metrics plus their snapshot series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryRegistry {
    names: Vec<String>,
    values: Vec<f64>,
    snapshots: Vec<TelemetrySnapshot>,
}

impl TelemetryRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TelemetryRegistry::default()
    }

    /// Registers a metric and returns its handle. Names must be unique;
    /// registering a duplicate panics (metric wiring is static, a clash is
    /// a programming error worth failing loudly on).
    pub fn register(&mut self, name: impl Into<String>) -> MetricId {
        let name = name.into();
        assert!(
            !self.names.contains(&name),
            "telemetry metric {name:?} registered twice"
        );
        self.names.push(name);
        self.values.push(0.0);
        MetricId((self.names.len() - 1) as u32)
    }

    /// Overwrites a gauge.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: f64) {
        self.values[id.index()] = value;
    }

    /// Increments a counter.
    #[inline]
    pub fn add(&mut self, id: MetricId, delta: f64) {
        self.values[id.index()] += delta;
    }

    /// Current value of a metric.
    pub fn get(&self, id: MetricId) -> f64 {
        self.values[id.index()]
    }

    /// Appends the current values to the time series.
    pub fn snapshot(&mut self, now: SimTime) {
        self.snapshots.push(TelemetrySnapshot {
            at: now,
            values: self.values.clone(),
        });
    }

    /// Metric names in registration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The snapshot series in time order.
    pub fn snapshots(&self) -> &[TelemetrySnapshot] {
        &self.snapshots
    }

    /// Moves the snapshot series out, leaving the registry empty of history
    /// (names and current values are kept).
    pub fn take_snapshots(&mut self) -> Vec<TelemetrySnapshot> {
        std::mem::take(&mut self.snapshots)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_set_add_snapshot() {
        let mut reg = TelemetryRegistry::new();
        let depth = reg.register("queue.near_depth");
        let hits = reg.register("plan_cache.hits");
        reg.set(depth, 12.0);
        reg.add(hits, 1.0);
        reg.add(hits, 1.0);
        reg.snapshot(SimTime::from_millis(500));
        reg.set(depth, 3.0);
        reg.snapshot(SimTime::from_millis(1_000));

        assert_eq!(reg.names(), &["queue.near_depth", "plan_cache.hits"]);
        assert_eq!(reg.get(hits), 2.0);
        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].values, vec![12.0, 2.0]);
        assert_eq!(snaps[1].values, vec![3.0, 2.0]);
        assert_eq!(snaps[1].at, SimTime::from_millis(1_000));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = TelemetryRegistry::new();
        reg.register("x");
        reg.register("x");
    }
}
