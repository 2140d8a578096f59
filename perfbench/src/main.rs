//! Repeatable host-time benchmark of the simulator and the deployment
//! planner. See `README.md` in this directory for the workloads and
//! metrics.
//!
//! ```text
//! perfbench --workload seq-rubis|par-petstore|plan-mt --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics, and writes the traced run's spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. The last line of standard
//! output is the JSON result. Exit code 0 means every output check
//! passed, 1 that one tripped, 2 a usage error.

mod metrics;
mod plan;
mod replay;
mod sim;
mod spans;

use std::process::ExitCode;

use metrics::{RunResult, END_TO_END, PER_LAYER};
use sim::SimWorkload;
use spans::Spans;

/// Names accepted by `--workload`.
const WORKLOADS: [&str; 3] = ["seq-rubis", "par-petstore", "plan-mt"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, spans: &mut Spans) -> RunResult {
    let sim = match args.workload {
        "seq-rubis" => Some(SimWorkload::SeqRubis),
        "par-petstore" => Some(SimWorkload::ParPetstore),
        _ => None,
    };
    match (sim, args.trace) {
        (Some(w), false) => sim::run(w, args.seed, args.seconds),
        (Some(w), true) => sim::trace(w, args.seed, args.seconds, spans),
        (None, false) => plan::run(args.seed, args.seconds),
        (None, true) => plan::trace(args.seed, args.seconds, spans),
    }
}

fn write_spans(args: &Args, spans: &Spans) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, spans.jsonl())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace);
    print!("{} seed {}: ", args.workload, args.seed);
    let mut result = run(&args, &mut spans);
    if args.trace {
        match write_spans(&args, &spans) {
            Ok(path) => println!("spans: {} written to {path}", spans.spans().len()),
            Err(e) => result.check(false, || format!("writing spans: {e}")),
        }
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    result.finish(defs);
    for p in &result.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", result.counters_line());
    println!("{}", result.json(defs));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(&strings(&[
            "--workload",
            "plan-mt",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "plan-mt",
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &[
                "--workload",
                "bogus",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "plan-mt",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "plan-mt",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "plan-mt",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "plan-mt", "--seed", "1", "--seconds", "1"],
            &["--workload"],
        ] {
            assert!(parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
