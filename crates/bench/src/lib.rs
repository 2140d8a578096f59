//! # mutsvc-bench — report generators
//!
//! The library behind the `repro-report` binary: parallel sweep execution
//! across scenario cells, the artifact renderers and validators
//! (`BENCH_faults.json`, `BENCH_adaptive.json`, the trace and metrics
//! exports), the placement move-throughput measurement behind
//! `BENCH_placement.json`, and the simulator hot-path throughput
//! measurement behind `BENCH_simperf.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive_artifacts;
pub mod fault_artifacts;
pub mod metrics_artifacts;
pub mod placement_report;
pub mod simperf_report;
pub mod trace_artifacts;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use mutsvc_core::{AppKind, Config, Scenario};
use mutsvc_workload::ExperimentReport;

/// Runs `run` on every named cell, on at most `available_parallelism`
/// worker threads that each take the next cell as they finish one, and
/// returns the results in cell order. Each cell is internally
/// single-threaded and deterministic, so the results are those of running
/// the cells one after another.
///
/// # Panics
///
/// Panics with a cell's name and message if `run` panicked on it, once
/// every other cell has run.
pub fn run_cells<T: Send, R: Send>(cells: Vec<(String, T)>, run: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(cells.len());
    let queue = Mutex::new(cells.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("no cell runs while the queue is locked")
                .next();
            let Some((index, (name, cell))) = next else {
                return done;
            };
            done.push((index, name, catch_unwind(AssertUnwindSafe(|| run(cell)))));
        }
    };
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("cell panics are caught"))
            .collect()
    });
    done.sort_unstable_by_key(|&(index, ..)| index);
    done.into_iter()
        .map(|(_, name, result)| {
            result.unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("(no message)");
                panic!("{name} panicked: {message}")
            })
        })
        .collect()
}

/// Runs a batch of scenarios through [`run_cells`]; a panic names the
/// scenario's configuration.
pub fn run_scenarios_parallel(scenarios: Vec<Scenario>) -> Vec<ExperimentReport> {
    let cells = scenarios
        .into_iter()
        .map(|scenario| (format!("scenario {}", scenario.config.name()), scenario))
        .collect();
    run_cells(cells, |scenario| scenario.run())
}

/// Runs the five configurations of `app` in parallel.
pub fn run_sweep_parallel(app: AppKind, quick: bool, seed: u64) -> Vec<ExperimentReport> {
    let scenarios = Config::all()
        .into_iter()
        .map(|config| {
            let scenario = if quick {
                Scenario::quick(app, config)
            } else {
                Scenario::paper(app, config)
            };
            scenario.with_seed(seed)
        })
        .collect();
    run_scenarios_parallel(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_desim::json::Json;

    /// `json` re-rendered after an edit of its parsed value: how the
    /// validators' tamper tests damage a document.
    pub(crate) fn edited(json: &str, edit: impl FnOnce(&mut Json)) -> String {
        let mut doc = Json::parse(json).expect("the untampered document parses");
        edit(&mut doc);
        doc.render()
    }

    /// The value at a `/`-separated path of object keys and array indices.
    pub(crate) fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('/').fold(doc, |v, step| match v {
            Json::Object(members) => match members.iter_mut().find(|(k, _)| k == step) {
                Some((_, v)) => v,
                None => panic!("no member {step}"),
            },
            Json::Array(items) => &mut items[step.parse::<usize>().expect("an index")],
            _ => panic!("{step} looked up in a scalar"),
        })
    }

    /// Removes the last step of `path` from the array it indexes.
    pub(crate) fn remove(doc: &mut Json, path: &str) {
        let (array, i) = path.rsplit_once('/').expect("an array path");
        let Json::Array(items) = at(doc, array) else {
            panic!("{array} is not an array")
        };
        items.remove(i.parse().expect("an index"));
    }

    /// A panicking cell is named, with its message, once every other cell
    /// has run. (The sweep and adaptive-suite tests pin cell order.)
    #[test]
    fn a_panicking_cell_is_named_after_every_cell_runs() {
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let cells = (0..5u64).map(|i| (format!("cell {i}"), i)).collect();
        let panic = catch_unwind(AssertUnwindSafe(|| {
            run_cells(cells, |i| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                assert_ne!(i, 3, "boom");
            })
        }))
        .expect_err("cell 3 panics");
        assert_eq!(ran.into_inner(), 5);
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            message.starts_with("cell 3 panicked: assertion `left != right` failed: boom"),
            "{message}"
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential_order() {
        // Tiny scenarios: just verify ordering and determinism of assembly.
        let reports = run_sweep_parallel(AppKind::Rubis, true, 1);
        let names: Vec<_> = reports.iter().map(|r| r.config.clone()).collect();
        let expected: Vec<_> = Config::all().iter().map(|c| c.name().to_string()).collect();
        assert_eq!(names, expected);
    }

    /// The committed artifacts parse; the faults and adaptive documents pass
    /// their validators and re-render byte for byte, which pins the codec's
    /// layout rule to the files CI diffs against.
    #[test]
    fn committed_artifacts_parse_and_validate() {
        let faults = include_str!("../../../BENCH_faults.json");
        let adaptive = include_str!("../../../BENCH_adaptive.json");
        assert_eq!(fault_artifacts::validate_faults_json(faults), Ok(60));
        assert_eq!(adaptive_artifacts::validate_adaptive_json(adaptive), Ok(16));
        for text in [faults, adaptive] {
            assert_eq!(Json::parse(text).unwrap().render(), text);
        }
        for text in [
            include_str!("../../../BENCH_simperf.json"),
            include_str!("../../../BENCH_placement.json"),
        ] {
            let doc = Json::parse(text).unwrap();
            assert!(doc.get("cores").and_then(Json::as_u64).unwrap() > 0);
            assert!(!doc
                .get("entries")
                .and_then(Json::as_array)
                .unwrap()
                .is_empty());
        }
    }
}
