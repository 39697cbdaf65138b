//! The repo benchmark. `BENCHMARK.json` at the repository root names
//! the command; `README.md` beside this package says what is measured
//! and why.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark --smoke
//! benchmark --study RUNS [--seconds S] [--out DIR]
//! benchmark --compare DIR_A DIR_B
//! ```

mod alloc;
mod chain;
mod ledger;
mod parking;
mod pin;
mod probes;
mod rng;
mod stats;
mod study;
mod tracer;
mod workload;

use chain::{EventChain, FanoutWide};
use parking::{ParkingCity, ParkingEdge};
use probes::Row;
use stats::{median, OverSlices, Slice};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{run, Plan, Run, Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, by their permanent names.
pub const WORKLOADS: [&str; 4] = ["event_chain", "fanout_wide", "parking_city", "parking_edge"];

/// The end-to-end metrics every workload reports: name, unit, and
/// whether higher is better.
pub const END_TO_END: [(&str, &str, bool); 5] = [
    ("setup_s", "s", false),
    ("throughput_per_s", "1/s", true),
    ("latency_p50_us", "us", false),
    ("latency_tail_us", "us", false),
    ("peak_alloc_mib", "MiB", false),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SET_UPS: usize = 9;

/// What one run prints as its last line.
pub struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Row>,
}

impl Output {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The timing metrics of a run, each summarised over its slices.
fn over_slices(slices: &[Slice]) -> [OverSlices; 3] {
    let of = |f: fn(&Slice) -> f64, higher_is_better| {
        OverSlices::new(&slices.iter().map(f).collect::<Vec<_>>(), higher_is_better)
    };
    [
        of(Slice::throughput, true),
        of(|s| s.p50_ns as f64 / 1e3, false),
        of(|s| s.tail_ns as f64 / 1e3, false),
    ]
}

fn end_to_end(run: &Run) -> Vec<Row> {
    let [throughput, p50, tail] = over_slices(&run.slices);
    let values = [
        median(&run.setup_s),
        throughput.best,
        p50.best,
        tail.best,
        run.peak_bytes as f64 / (1 << 20) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), value)| (*name, value, *unit))
        .collect()
}

/// The human table of a full-size run. (Toy runs print nothing: their
/// timings mean nothing.)
fn print_run<W: Workload>(label: &str, run: &Run, scale: Scale) {
    if scale == Scale::Toy {
        return;
    }
    let [throughput, p50, tail] = over_slices(&run.slices);
    let line = |what: &str, unit: &str, m: &OverSlices| {
        eprintln!(
            "  {what:<18} {:>14.3} {unit:<5} (best slice; median {:.3}, worst {:.3})",
            m.best, m.median, m.worst
        );
    };
    eprintln!(
        "{} [{label}]: {} slices, {} {} a slice",
        W::NAME,
        run.slices.len(),
        run.slices[0].items,
        W::ITEMS
    );
    eprintln!(
        "  {:<18} {:>14.6} s     (median of {})",
        "setup_s",
        median(&run.setup_s),
        run.setup_s.len()
    );
    line("throughput_per_s", "1/s", &throughput);
    line("latency_p50_us", "us", &p50);
    line("latency_tail_us", "us", &tail);
    eprintln!(
        "  {:<18} {:>14.3} MiB",
        "peak_alloc_mib",
        run.peak_bytes as f64 / (1 << 20) as f64
    );
    for note in &run.finish.notes {
        eprintln!("  {note}");
    }
    for mismatch in &run.finish.mismatches {
        eprintln!("  ORACLE MISMATCH: {mismatch}");
    }
}

/// Where trace files and study results go: under the build directory,
/// which the repository ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

fn write_trace(workload: &str, traced: &Run) {
    let kept = |r: &Option<tracer::Recording>| r.as_ref().map_or(Vec::new(), |r| r.kept().to_vec());
    let (coordinator, edge) = (kept(&traced.recording), kept(&traced.finish.edge));
    let json = tracer::trace_event_json(&[("coordinator", &coordinator), ("edge", &edge)]);
    let path = out_dir().join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => eprintln!("trace: {}", path.display()),
        // The figures do not depend on the file.
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// One run of workload `W` as the contract defines it.
fn measure<W: Workload>(seed: u64, seconds: f64, trace: bool, scale: Scale) -> Output {
    let plan = |set_ups, measure: f64, traced, count_allocs| Plan {
        seed,
        scale,
        set_ups,
        measure: Duration::from_secs_f64(measure),
        traced,
        count_allocs,
    };
    if !trace {
        let run = run::<W>(&plan(SET_UPS, seconds, false, false));
        print_run::<W>("untraced", &run, scale);
        return Output {
            correct: run.finish.mismatches.is_empty(),
            attempted: run.finish.attempted,
            failed: run.finish.failed,
            metrics: end_to_end(&run),
        };
    }

    // A traced run: the probes take a fixed amount of work, the workload
    // the rest of the time — two parts untraced, three parts traced.
    let sizes = match scale {
        Scale::Full => probes::Sizes::full(),
        Scale::Toy => probes::Sizes::toy(),
    };
    let rest = (seconds - probes::FULL_BUDGET.as_secs_f64()).max(0.0);
    let untraced = run::<W>(&plan(1, rest * 0.4, false, true));
    print_run::<W>("untraced reference", &untraced, scale);
    let traced = run::<W>(&plan(1, rest * 0.6, true, false));
    print_run::<W>("traced", &traced, scale);
    let mut metrics = ledger::rows(&untraced, &traced);
    metrics.extend(probes::all(seed, sizes));
    if scale == Scale::Full {
        write_trace(W::NAME, &traced);
        for (name, value, unit) in &metrics {
            eprintln!("  {name:<36} {value:>16.3} {unit}");
        }
    }
    Output {
        correct: untraced.finish.mismatches.is_empty() && traced.finish.mismatches.is_empty(),
        attempted: untraced.finish.attempted + traced.finish.attempted,
        failed: untraced.finish.failed + traced.finish.failed,
        metrics,
    }
}

/// Dispatches on the workload's name.
fn measure_named(name: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Option<Output> {
    Some(match name {
        "event_chain" => measure::<EventChain>(seed, seconds, trace, scale),
        "fanout_wide" => measure::<FanoutWide>(seed, seconds, trace, scale),
        "parking_city" => measure::<ParkingCity>(seed, seconds, trace, scale),
        "parking_edge" => measure::<ParkingEdge>(seed, seconds, trace, scale),
        _ => return None,
    })
}

/// All four workloads at toy size, untraced and traced: oracles and the
/// shape of the output, no timings.
fn smoke() -> Result<(), String> {
    for name in WORKLOADS {
        for trace in [false, true] {
            let out = measure_named(name, 42, 0.0, trace, Scale::Toy).expect("a known workload");
            if !out.correct || out.failed > 0 || out.attempted == 0 {
                return Err(format!(
                    "{name} (trace {trace}): correct {}, attempted {}, failed {}",
                    out.correct, out.attempted, out.failed
                ));
            }
            // (The full list of per-layer names is checked against
            // `BENCHMARK.json` by a unit test.)
            let expected: Vec<&str> = if trace {
                ledger::ROWS.iter().map(|r| r.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            let printed: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
            if !printed.starts_with(&expected) || (!trace && printed.len() != expected.len()) {
                return Err(format!("{name} (trace {trace}): printed {printed:?}"));
            }
            study::parse_result(&out.to_json())
                .map_err(|e| format!("{name} (trace {trace}): result line: {e}"))?;
        }
    }
    Ok(())
}

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                     benchmark --smoke\n       \
                     benchmark --study RUNS [--seconds S] [--out DIR]\n       \
                     benchmark --compare DIR_A DIR_B";

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or(format!("{name} needs a value\n{USAGE}")),
    }
}

fn main_with(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--smoke") {
        smoke()?;
        eprintln!("smoke: all four workloads correct, untraced and traced");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err(USAGE.to_owned());
        };
        return study::compare(a.as_ref(), b.as_ref());
    }
    let seconds: Option<f64> = flag(args, "--seconds")?;
    if let Some(runs) = flag::<u64>(args, "--study")? {
        let out: PathBuf = flag(args, "--out")?.unwrap_or_else(|| out_dir().join("study"));
        return study::study(runs, seconds, &out);
    }
    let workload: String = flag(args, "--workload")?.ok_or(USAGE)?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(42);
    let seconds = seconds.ok_or(USAGE)?;
    let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds}: expected a time"));
    }
    let out = measure_named(&workload, seed, seconds, trace, Scale::Full).ok_or(format!(
        "unknown workload `{workload}`; known: {WORKLOADS:?}"
    ))?;
    println!("{}", out.to_json());
    Ok(if out.correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    main_with(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_of_all_four_workloads() {
        smoke().expect("toy runs are correct and print the declared metrics");
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let doc = study::benchmark_json().expect("BENCHMARK.json parses");
        let texts = |list: &str, key: &str| -> Vec<String> {
            study::list(&doc, list)
                .expect("a list")
                .iter()
                .map(|entry| study::text(entry, key).expect("a text"))
                .collect()
        };
        assert_eq!(texts("workloads", "name"), WORKLOADS);

        let declared = study::Declared::load().expect("end-to-end metrics parse");
        let names_and_directions: Vec<(&str, bool)> = declared
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.higher_is_better))
            .collect();
        assert_eq!(
            names_and_directions,
            END_TO_END.map(|(name, _, higher)| (name, higher))
        );
        assert_eq!(texts("end_to_end", "unit"), END_TO_END.map(|m| m.1));
        assert!(declared
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));

        let probes = probes::all(1, probes::Sizes::toy());
        let printed = || {
            ledger::ROWS
                .into_iter()
                .chain(probes.iter().map(|r| (r.0, r.2)))
        };
        let names: Vec<&str> = printed().map(|(name, _)| name).collect();
        let units: Vec<&str> = printed().map(|(_, unit)| unit).collect();
        assert_eq!(texts("per_layer", "name"), names, "in print order");
        assert_eq!(texts("per_layer", "unit"), units);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let out = Output {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("throughput_per_s", 1e6, "1/s")],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"throughput_per_s\":{\"value\":1000000.0,\"unit\":\"1/s\"}}}"
        );
    }
}
