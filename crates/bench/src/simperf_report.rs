//! Simulator hot-path throughput measurement behind `repro-report --simperf`
//! (`BENCH_simperf.json`).
//!
//! Runs the paper topology at 1×/10×/100× the §3.3 arrival rate (30 req/s),
//! for both applications under the full §4.5 configuration, twice per load
//! point **in the same process**: once with the bound-program cache off
//! (every request walks the full `Binder`) and once with it on. Both runs
//! complete the identical open workload — the driver-level equivalence suite
//! pins bit-identical simulated results — so requests/s is a pure wall-clock
//! ratio and the reported speedup is apples-to-apples.
//!
//! The modelled hardware is provisioned with the load
//! ([`mutsvc_netsim::Topology::scale_capacity`]): at 100× the paper's
//! arrival rate the nodes and links are 100× faster, so completions track
//! the offered load and the simulator — not the modelled system — stays the
//! thing being measured.
//!
//! A second family of rows runs RUBiS on the sequential engine over the
//! widened fan-out topology at 2, 4, 8 and 16 client regions, with the total
//! load fixed at the top load factor and the cache on. Events per request
//! barely move with the region count, so host time per request against the
//! paper-topology row (the `"fanout_cost"` map) is the per-edge cost of the
//! write path. Each row keeps the fastest of three in-process runs.
//!
//! A third family measures the region-sharded parallel engine (DESIGN.md
//! §6.5) on the eight-region fan-out at thread counts 1/2/4/8 (capped by
//! `--parallel N`). Because the parallel merge is deterministic by
//! construction, the bench asserts in-process that every thread count
//! produces an identical report digest before it reports any wall-clock
//! number — a scaling figure that changed the answer would panic instead of
//! printing.

use std::time::Instant;

use mutsvc_core::{fanout_input, AppKind, Config, Scenario};
use mutsvc_desim::json::Json;
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{run_experiment, run_experiment_parallel, ExperimentInput, ExperimentReport};

/// One measured cell: an application at a load factor, cache on or off.
#[derive(Debug, Clone)]
pub struct SimperfCell {
    /// Application name: `"petstore"` or `"rubis"`.
    pub app: &'static str,
    /// Configuration under test (the full §4.5 deployment).
    pub config: &'static str,
    /// `"paper"` for the paper's three-node topology, `"fanout"` for the
    /// widened fan-out topology of [`fanout_input`].
    pub topology: &'static str,
    /// Client regions (client groups) of the topology.
    pub regions: usize,
    /// Multiplier on the paper's 30 req/s arrival rate.
    pub load_factor: u32,
    /// Whether the bound-program cache was enabled.
    pub bind_cache: bool,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Requests completed within the measured window.
    pub completed: u64,
    /// Completed requests per wall-clock second — the headline metric.
    pub requests_per_sec: f64,
    /// Simulator events fired over the run.
    pub events_fired: u64,
    /// Events fired per wall-clock second.
    pub events_per_sec: f64,
    /// Bound-program cache hit rate over all issued requests (0 when off).
    pub hit_rate: f64,
    /// OS threads of the region-sharded parallel engine; 0 for rows measured
    /// on the classic sequential engine.
    pub threads: usize,
    /// Events fired per shard, in shard order (empty for sequential rows).
    pub shard_events: Vec<u64>,
}

/// Load factors measured: `--smoke` stops at 10× so CI stays inside its
/// wall-clock ceiling; the full report sweeps to the 100× target.
pub fn load_factors(smoke: bool) -> &'static [u32] {
    if smoke {
        &[1, 10]
    } else {
        &[1, 10, 100]
    }
}

/// Simulated (warm-up, measured) windows: `--smoke` shortens them for CI.
fn windows(smoke: bool) -> (SimDuration, SimDuration) {
    if smoke {
        (SimDuration::from_secs(10), SimDuration::from_secs(30))
    } else {
        (SimDuration::from_secs(20), SimDuration::from_secs(100))
    }
}

/// Scales `input` to `factor`× the arrival rate on `factor`× the hardware,
/// runs it on the sequential engine (`threads` 0) or the parallel engine,
/// and times the run.
fn measure(
    app: AppKind,
    topology: &'static str,
    mut input: ExperimentInput,
    factor: u32,
    bind_cache: bool,
    threads: usize,
    smoke: bool,
) -> (SimperfCell, ExperimentReport) {
    let (warmup, duration) = windows(smoke);
    // Provision the modelled hardware with the load: the bench measures the
    // simulator's throughput, not the topology's saturation point.
    input.topology.scale_capacity(factor as f64);
    input.spec = input
        .spec
        .scale_rates(factor as f64)
        .with_duration(warmup, duration)
        .with_bind_cache(bind_cache);
    let regions = input.spec.groups.len();

    let started = Instant::now();
    let report = if threads == 0 {
        run_experiment(input)
    } else {
        run_experiment_parallel(input, threads)
    };
    let wall = started.elapsed().as_secs_f64().max(1e-9);

    let issued = report.bind_cache.hits + report.bind_cache.misses;
    let cell = SimperfCell {
        app: app.name(),
        config: Config::AsyncUpdates.name(),
        topology,
        regions,
        load_factor: factor,
        bind_cache,
        wall_secs: wall,
        completed: report.completed,
        requests_per_sec: report.completed as f64 / wall,
        events_fired: report.events_fired,
        events_per_sec: report.events_fired as f64 / wall,
        hit_rate: if issued == 0 {
            0.0
        } else {
            report.bind_cache.hits as f64 / issued as f64
        },
        threads,
        shard_events: report.shard_events.clone(),
    };
    (cell, report)
}

fn run_cell(app: AppKind, factor: u32, bind_cache: bool, smoke: bool, seed: u64) -> SimperfCell {
    let (mut input, _) = Scenario::quick(app, Config::AsyncUpdates).build();
    input.spec = input.spec.with_seed(seed);
    measure(app, "paper", input, factor, bind_cache, 0, smoke).0
}

/// Client-region counts of the sequential fan-out rows: the local cluster
/// plus 1, 3, 7 and 15 WAN edge regions.
pub const FANOUT_REGIONS: [usize; 4] = [2, 4, 8, 16];

/// In-process runs per fan-out row; the row keeps the fastest.
const FANOUT_RUNS: usize = 3;

/// One sequential RUBiS fan-out row: the fastest of [`FANOUT_RUNS`] runs,
/// which must all simulate the same history.
fn run_fanout_cell(regions: usize, factor: u32, smoke: bool, seed: u64) -> SimperfCell {
    let app = AppKind::Rubis;
    let mut best: Option<SimperfCell> = None;
    for _ in 0..FANOUT_RUNS {
        let input = fanout_input(app, Config::AsyncUpdates, regions - 1, seed);
        let (cell, _) = measure(app, "fanout", input, factor, true, 0, smoke);
        if let Some(b) = &best {
            assert_eq!(
                (b.completed, b.events_fired),
                (cell.completed, cell.events_fired),
                "rubis/{regions} regions: repeated runs diverged"
            );
        }
        if best.as_ref().is_none_or(|b| cell.wall_secs < b.wall_secs) {
            best = Some(cell);
        }
    }
    best.expect("at least one run")
}

/// How many WAN edge regions the parallel rows fan out to. With the local
/// cluster that makes eight client regions, so eight shards — one per thread
/// at the widest measured thread count.
pub const PARALLEL_EDGES: usize = 7;

/// Thread counts measured for the parallel rows: the 1/2/4/8 ladder clipped
/// to `--parallel N` (1 is always kept as the scaling baseline).
pub fn thread_counts(cap: usize) -> Vec<usize> {
    [1, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= cap)
        .collect()
}

/// A deterministic fingerprint of everything a parallel run computed:
/// the merged statistics (every Welford accumulator and histogram bucket), the
/// per-shard event counts and the cache counters. Wall-clock is excluded;
/// two runs that simulated the same history digest identically.
fn report_digest(report: &ExperimentReport) -> String {
    format!(
        "{} {} {:?} {:?} {:?} {:?}",
        report.completed,
        report.events_fired,
        report.shard_events,
        report.bind_cache,
        report.stats,
        report.staleness_ms,
    )
}

fn run_parallel_cell(
    app: AppKind,
    factor: u32,
    threads: usize,
    smoke: bool,
    seed: u64,
) -> (SimperfCell, String) {
    let input = fanout_input(app, Config::AsyncUpdates, PARALLEL_EDGES, seed);
    let (cell, report) = measure(app, "fanout", input, factor, true, threads, smoke);
    (cell, report_digest(&report))
}

/// Measures both applications across the load factors, cache off then on at
/// each point. Cells come back grouped `(app, factor, [off, on])`, followed
/// by the sequential RUBiS fan-out rows at the top load factor, one per
/// [`FANOUT_REGIONS`] entry. When `parallel_cap > 0`, appends the parallel
/// engine's rows: each application at the top load factor on the
/// eight-region fan-out, at every [`thread_counts`] point, asserting that
/// all thread counts digest identically before any number is reported.
pub fn measure_simperf(smoke: bool, seed: u64, parallel_cap: usize) -> Vec<SimperfCell> {
    let mut cells = Vec::new();
    for app in AppKind::all() {
        for &factor in load_factors(smoke) {
            for bind_cache in [false, true] {
                let cell = run_cell(app, factor, bind_cache, smoke, seed);
                if bind_cache {
                    // Write pages and pages crossing nodes are never
                    // memoizable, so 100% is unreachable by design; well
                    // under half means the fast path has stopped engaging.
                    assert!(
                        cell.hit_rate > 0.25,
                        "{}/{factor}x: bind cache barely hitting ({:.0}%)",
                        cell.app,
                        cell.hit_rate * 100.0
                    );
                }
                cells.push(cell);
            }
        }
    }
    let top = *load_factors(smoke).last().unwrap();
    for regions in FANOUT_REGIONS {
        cells.push(run_fanout_cell(regions, top, smoke, seed));
    }
    if parallel_cap > 0 {
        for app in AppKind::all() {
            let mut baseline_digest: Option<String> = None;
            for threads in thread_counts(parallel_cap) {
                let (cell, digest) = run_parallel_cell(app, top, threads, smoke, seed);
                match &baseline_digest {
                    None => baseline_digest = Some(digest),
                    Some(expected) => assert_eq!(
                        expected,
                        &digest,
                        "{}/{top}x: {threads}-thread run diverged from the \
                         1-thread digest — the merge is no longer deterministic",
                        app.name()
                    ),
                }
                cells.push(cell);
            }
        }
    }
    cells
}

/// The sequential paper-topology row of `(app, factor, bind_cache)`.
fn paper_row<'a>(
    cells: &'a [SimperfCell],
    app: &str,
    factor: u32,
    bind_cache: bool,
) -> Option<&'a SimperfCell> {
    cells.iter().find(|c| {
        c.topology == "paper"
            && c.app == app
            && c.load_factor == factor
            && c.bind_cache == bind_cache
            && c.threads == 0
    })
}

/// Cache-on over cache-off requests/s for one `(app, factor)` pair, over
/// the sequential paper-topology rows.
pub fn speedup_at(cells: &[SimperfCell], app: &str, factor: u32) -> f64 {
    let rate =
        |cache: bool| paper_row(cells, app, factor, cache).map_or(f64::NAN, |c| c.requests_per_sec);
    rate(true) / rate(false)
}

/// Host time per request of the sequential `regions`-region fan-out row of
/// `app` over the paper-topology row at the same load factor, cache on: how
/// the simulator's per-request cost grows with the edge count.
pub fn fanout_cost_at(cells: &[SimperfCell], app: &str, regions: usize) -> f64 {
    let Some(row) = cells
        .iter()
        .find(|c| c.topology == "fanout" && c.app == app && c.regions == regions && c.threads == 0)
    else {
        return f64::NAN;
    };
    paper_row(cells, app, row.load_factor, true).map_or(f64::NAN, |paper| {
        paper.requests_per_sec / row.requests_per_sec
    })
}

/// Requests/s of an application's `threads`-thread parallel row over its
/// 1-thread row — the parallel engine's scaling ratio.
pub fn parallel_scaling_at(cells: &[SimperfCell], app: &str, threads: usize) -> f64 {
    let rate = |t: usize| {
        cells
            .iter()
            .find(|c| c.app == app && c.threads == t)
            .map_or(f64::NAN, |c| c.requests_per_sec)
    };
    rate(threads) / rate(1)
}

/// Renders the cells as the `BENCH_simperf.json` document. Schema per
/// entry: `{"app", "config", "topology", "regions", "load_factor",
/// "bind_cache", "threads", "wall_secs", "completed", "requests_per_sec",
/// "events_per_sec", "hit_rate", "shard_events"}` (`threads` 0 = classic
/// sequential engine), plus a top-level `"cores"` (the machine's available
/// parallelism — the honest context for any scaling ratio), a `"speedup"`
/// map of `app_factor` → cached/uncached requests/s over the sequential
/// paper-topology rows, a `"fanout_cost"` map of `app_Nr` → host time per
/// request of the sequential N-region fan-out row over the paper-topology
/// row ([`fanout_cost_at`]), and a `"parallel_scaling"` map of `app_Nt` →
/// N-thread over 1-thread requests/s on the fan-out topology.
pub fn render_simperf_json(cells: &[SimperfCell], cores: usize) -> String {
    let entries = cells.iter().map(|c| {
        Json::object([
            ("app", c.app.into()),
            ("config", c.config.into()),
            ("topology", c.topology.into()),
            ("regions", c.regions.into()),
            ("load_factor", c.load_factor.into()),
            ("bind_cache", c.bind_cache.into()),
            ("threads", c.threads.into()),
            ("wall_secs", Json::fixed(c.wall_secs, 3)),
            ("completed", c.completed.into()),
            ("requests_per_sec", Json::fixed(c.requests_per_sec, 1)),
            ("events_per_sec", Json::fixed(c.events_per_sec, 1)),
            ("hit_rate", Json::fixed(c.hit_rate, 4)),
            (
                "shard_events",
                Json::Array(c.shard_events.iter().map(|&e| e.into()).collect()),
            ),
        ])
    });
    // One member per distinct key, in first-seen order.
    let ratios = |rows: Vec<(String, f64)>| {
        let mut members: Vec<(String, Json)> = Vec::new();
        for (key, ratio) in rows {
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, Json::fixed(ratio, 2)));
            }
        }
        Json::Object(members)
    };
    let speedup = cells
        .iter()
        .filter(|c| c.topology == "paper" && c.threads == 0)
        .map(|c| {
            let ratio = speedup_at(cells, c.app, c.load_factor);
            (format!("{}_{}x", c.app, c.load_factor), ratio)
        });
    let fanout = cells
        .iter()
        .filter(|c| c.topology == "fanout" && c.threads == 0)
        .map(|c| {
            let ratio = fanout_cost_at(cells, c.app, c.regions);
            (format!("{}_{}r", c.app, c.regions), ratio)
        });
    let scaling = cells.iter().filter(|c| c.threads > 1).map(|c| {
        let ratio = parallel_scaling_at(cells, c.app, c.threads);
        (format!("{}_{}t", c.app, c.threads), ratio)
    });
    Json::object([
        ("cores", cores.into()),
        ("entries", Json::Array(entries.collect())),
        ("speedup", ratios(speedup.collect())),
        ("fanout_cost", ratios(fanout.collect())),
        ("parallel_scaling", ratios(scaling.collect())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::at;

    fn cell(bind_cache: bool, threads: usize, rps: f64, shard_events: Vec<u64>) -> SimperfCell {
        let fanout = threads > 0;
        SimperfCell {
            app: "rubis",
            config: "async-updates",
            topology: if fanout { "fanout" } else { "paper" },
            regions: if fanout { 8 } else { 3 },
            load_factor: 10,
            bind_cache,
            wall_secs: 2.0,
            completed: 3000,
            requests_per_sec: rps,
            events_fired: 90_000,
            events_per_sec: 45_000.0,
            hit_rate: if bind_cache { 0.93 } else { 0.0 },
            threads,
            shard_events,
        }
    }

    #[test]
    fn json_is_well_formed_and_speedup_indexed() {
        let cells = vec![
            cell(false, 0, 1500.0, Vec::new()),
            cell(true, 0, 12_000.0, Vec::new()),
        ];
        assert!((speedup_at(&cells, "rubis", 10) - 8.0).abs() < 1e-9);
        let json = render_simperf_json(&cells, 8);
        let mut doc = Json::parse(&json).unwrap();
        assert_eq!(doc.render(), json);
        assert_eq!(*at(&mut doc, "cores"), Json::from(8u64));
        assert_eq!(*at(&mut doc, "speedup/rubis_10x"), Json::fixed(8.0, 2));
        assert_eq!(*at(&mut doc, "entries/0/threads"), Json::from(0u64));
    }

    #[test]
    fn parallel_rows_index_their_scaling_and_shards() {
        let cells = vec![
            cell(true, 0, 12_000.0, Vec::new()),
            cell(true, 1, 2_000.0, vec![100, 200, 300]),
            cell(true, 4, 7_000.0, vec![100, 200, 300]),
        ];
        assert!((parallel_scaling_at(&cells, "rubis", 4) - 3.5).abs() < 1e-9);
        // Sequential-row speedup never reads the parallel rows.
        assert!(speedup_at(&cells, "rubis", 10).is_nan());
        let mut doc = Json::parse(&render_simperf_json(&cells, 1)).unwrap();
        assert_eq!(
            *at(&mut doc, "parallel_scaling/rubis_4t"),
            Json::fixed(3.5, 2)
        );
        assert_eq!(
            *at(&mut doc, "entries/1/shard_events"),
            Json::parse("[100,200,300]").unwrap()
        );
        assert!(
            at(&mut doc, "parallel_scaling").get("rubis_1t").is_err(),
            "1t is the baseline, not a ratio"
        );
    }

    #[test]
    fn fanout_rows_price_against_the_paper_row() {
        let fanout = |regions: usize, rps: f64| SimperfCell {
            topology: "fanout",
            regions,
            ..cell(true, 0, rps, Vec::new())
        };
        let cells = vec![
            cell(false, 0, 1500.0, Vec::new()),
            cell(true, 0, 12_000.0, Vec::new()),
            fanout(2, 12_000.0),
            fanout(8, 8_000.0),
        ];
        assert!((fanout_cost_at(&cells, "rubis", 8) - 1.5).abs() < 1e-9);
        assert!(fanout_cost_at(&cells, "rubis", 16).is_nan());
        // The paper-topology speed-up never reads the fan-out rows.
        assert!((speedup_at(&cells, "rubis", 10) - 8.0).abs() < 1e-9);
        let mut doc = Json::parse(&render_simperf_json(&cells, 2)).unwrap();
        assert_eq!(
            *at(&mut doc, "fanout_cost"),
            Json::parse("{\"rubis_2r\":1.00,\"rubis_8r\":1.50}").unwrap()
        );
        assert_eq!(*at(&mut doc, "entries/3/topology"), Json::from("fanout"));
        assert_eq!(*at(&mut doc, "entries/3/regions"), Json::from(8u64));
        assert_eq!(
            *at(&mut doc, "speedup"),
            Json::parse("{\"rubis_10x\":8.00}").unwrap()
        );
    }

    #[test]
    fn smoke_factors_stop_at_ten() {
        assert_eq!(load_factors(true), &[1, 10]);
        assert_eq!(load_factors(false), &[1, 10, 100]);
    }

    #[test]
    fn thread_ladder_is_clipped_by_the_cap() {
        assert_eq!(thread_counts(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_counts(4), vec![1, 2, 4]);
        assert_eq!(thread_counts(3), vec![1, 2]);
        assert_eq!(thread_counts(1), vec![1]);
    }
}
