//! `experiments` — regenerates every quantitative table of
//! `EXPERIMENTS.md` (the per-experiment index lives in `DESIGN.md`).
//!
//! ```text
//! cargo run --release -p diaspec-bench --bin experiments \
//!     [-- --quick] [-- --json] [-- --only eNN] [-- --list]
//!     [-- --check-bench-json [path]]
//! ```
//!
//! `--quick` shrinks the sweeps for smoke-testing; `--json` additionally
//! dumps machine-readable rows; `--only eNN` runs a single experiment
//! (e.g. `--only e20`) and rejects ids this binary does not implement;
//! `--list` prints the full experiment index with where each experiment
//! lives; `--check-bench-json [path]` validates an existing
//! `BENCH_delivery.json` against the schema guard and exits. Any other
//! argument is a usage error (exit status 2): a script passing a retired
//! flag must not silently get a different run than it asked for.

use diaspec_bench::{
    chaossoak, churn, continuum, delivery, discovery, fanout, loadgen, processing, share,
    taskfaults,
};

/// The experiment index from `DESIGN.md`: id, one-line summary, and whether
/// this binary runs it (the rest are covered by tests, examples, or the
/// `diaspec-gen` CLI).
const EXPERIMENTS: &[(&str, &str, bool)] = &[
    ("e1", "orchestration continuum: parking design at 10 -> 12 500 sensors (paper Fig. 1)", true),
    ("e2", "SCC paradigm enforcement: layering violations rejected (tests/scc_conformance.rs)", false),
    ("e3", "cooker design end-to-end: alert -> prompt -> remote turn-off (examples/cooker_monitoring.rs)", false),
    ("e4", "parking design end-to-end: 4 contexts + 3 controllers vs simulated city (examples/parking_city.rs)", false),
    ("e5", "device-declaration figures parse and check, incl. inheritance (tests/spec_figures.rs)", false),
    ("e6", "generated Alert skeleton matches Figure 9's shape (tests/codegen_golden.rs)", false),
    ("e7", "generated MapReduce interface computes hand-checked availability (tests/mapreduce_parking.rs)", false),
    ("e8", "generated controller + discover facade drives panels (tests/controller_discover.rs)", false),
    ("e9", "generated-vs-handwritten LoC share across the four applications (paper SS V claim)", true),
    ("e10", "serial vs parallel MapReduce speedup: crossover where parallelism pays", true),
    ("e11", "message volume + latency per delivery model (periodic/event/query)", true),
    ("e12", "discovery latency vs registry size and attribute selectivity", true),
    ("e13", "compiler throughput vs spec size (benchmark/ probes lexer.lex_us .. codegen.java_us)", false),
    ("e14", "@error/@qos annotations drive declared recovery (tests/failure_injection.rs)", false),
    ("e15", "designs linted against infrastructure descriptions: lint --match (examples/capacity_planning.rs)", false),
    ("e16", "recovery cost under seeded device churn: leases, rebinds, retries", true),
    ("e17", "fault-tolerant batch processing: task panics, bounded retries, degraded coverage", true),
    ("e18", "one-datum-to-many fan-out through the zero-copy delivery pipeline", true),
    ("e19", "whole-design static analysis + negative fixtures (diaspec-gen lint)", false),
    ("e20", "open-loop load harness: throughput knee + latency percentiles + spans", true),
    ("e21", "chaos soak: byte-identical orchestration under swept link-fault rates", true),
    ("e22", "cross-design deployment analysis validated on a shared device fleet (tests/cross_design.rs)", false),
];

const USAGE: &str = "--quick --json --list --only <id> --check-bench-json [path]";

/// The parsed command line.
#[derive(Default)]
struct Cli {
    quick: bool,
    json: bool,
    list: bool,
    only: Option<String>,
    /// `Some(path)` when `--check-bench-json` was given.
    check_bench_json: Option<String>,
}

/// Parses the arguments against the known flag set, naming the first
/// offender otherwise.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--json" => cli.json = true,
            "--list" => cli.list = true,
            "--only" => {
                cli.only = Some(
                    args.next_if(|id| !id.starts_with("--"))
                        .ok_or("`--only` needs an experiment id")?,
                );
            }
            "--check-bench-json" => {
                let path = args.next_if(|a| !a.starts_with("--"));
                cli.check_bench_json = Some(path.unwrap_or_else(|| "BENCH_delivery.json".into()));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(cli)
}

/// `E1-E22`, derived from the first and last rows of [`EXPERIMENTS`].
fn index_range() -> String {
    let first = EXPERIMENTS.first().expect("index is not empty").0;
    let last = EXPERIMENTS.last().expect("index is not empty").0;
    format!("{}-{}", first.to_uppercase(), last.to_uppercase())
}

fn main() {
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("experiments: {e}; valid flags: {USAGE}");
        std::process::exit(2);
    });
    let (quick, json) = (cli.quick, cli.json);

    if cli.list {
        list_experiments();
        return;
    }

    if let Some(path) = &cli.check_bench_json {
        check_bench_json(path);
        return;
    }

    let only = cli.only.as_deref();
    if let Some(o) = only {
        let runnable = EXPERIMENTS
            .iter()
            .any(|(id, _, runs_here)| *id == o && *runs_here);
        if !runnable {
            let valid: Vec<&str> = EXPERIMENTS
                .iter()
                .filter(|(_, _, runs_here)| *runs_here)
                .map(|(id, _, _)| *id)
                .collect();
            eprintln!(
                "unknown experiment `{o}`: this binary runs {} (see --list for the full {} index)",
                valid.join(", "),
                index_range()
            );
            std::process::exit(1);
        }
    }
    let run = |name: &str| only.is_none_or(|o| o == name);

    if run("e1") {
        e1_continuum(quick, json);
    }
    if run("e9") {
        e9_generated_share(json);
    }
    if run("e10") {
        e10_processing(quick, json);
    }
    if run("e11") {
        e11_delivery(quick, json);
    }
    if run("e12") {
        e12_discovery(quick, json);
    }
    if run("e16") {
        e16_churn(quick, json);
    }
    if run("e17") {
        e17_taskfaults(quick, json);
    }
    if run("e18") {
        e18_fanout(quick, json);
    }
    if run("e20") {
        e20_load(quick, json);
    }
    if run("e21") {
        e21_chaossoak(quick, json);
    }
}

/// Prints the experiment index: one line per experiment, marking the
/// ones this binary runs (`*`) versus the ones covered elsewhere.
fn list_experiments() {
    println!(
        "{} experiment index (*) = runnable via --only:",
        index_range()
    );
    for (id, summary, runs_here) in EXPERIMENTS {
        let marker = if *runs_here { '*' } else { ' ' };
        println!("{marker} {id:>4}  {summary}");
    }
}

/// Validates `path` against the E20 schema guard; exits non-zero on any
/// missing field or violated invariant (the CI guard entry point).
fn check_bench_json(path: &str) {
    let payload = match std::fs::read_to_string(path) {
        Ok(payload) => payload,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            std::process::exit(1);
        }
    };
    match loadgen::check_report(&payload) {
        Ok(report) => println!(
            "{path}: ok ({} offered rates, knee {} msgs/s)",
            report.rates.len(),
            report.knee_msgs_per_sec
        ),
        Err(e) => {
            eprintln!("{path}: schema guard failed: {e}");
            std::process::exit(1);
        }
    }
}

fn heading(title: &str) {
    println!("\n## {title}\n");
}

fn e1_continuum(quick: bool, json: bool) {
    heading("E1 — orchestration continuum (paper Fig. 1): one 10-min period of the parking design");
    let scales: &[usize] = if quick {
        &[10, 100]
    } else {
        &[10, 100, 1_000, 6_250, 12_500]
    };
    println!(
        "{:>9} {:>11} {:>13} {:>10} {:>8} {:>9} {:>14}",
        "sensors", "build (ms)", "period (ms)", "readings", "publish", "actuate", "readings/s"
    );
    let rows = continuum::sweep(scales);
    for row in &rows {
        println!(
            "{:>9} {:>11.1} {:>13.1} {:>10} {:>8} {:>9} {:>14.0}",
            row.sensors,
            row.build_ms,
            row.period_wall_ms,
            row.readings,
            row.publications,
            row.actuations,
            row.readings_per_sec
        );
    }
    if json {
        println!("{}", serde_json::to_string(&rows).expect("serializable"));
    }
    e1_latency_breakdown(quick, json);
}

/// The observed E1 run: per-activity latency percentiles plus a JSONL
/// trace of every orchestration event (LPWAN-class transport, 20–200 ms
/// per hop).
fn e1_latency_breakdown(quick: bool, json: bool) {
    let sensors_per_lot = if quick { 10 } else { 100 };
    let trace_path = std::path::Path::new("target/e1_trace.jsonl");
    if let Some(parent) = trace_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let observed = match continuum::observed_run(sensors_per_lot, trace_path) {
        Ok(observed) => observed,
        Err(e) => {
            eprintln!(
                "E1 latency breakdown skipped: cannot write {}: {e}",
                trace_path.display()
            );
            return;
        }
    };
    println!(
        "\nPer-activity latency breakdown ({} sensors, uniform 20-200 ms transport):\n",
        observed.row.sensors
    );
    println!(
        "{:>12} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "activity", "unit", "count", "p50", "p90", "p99", "max"
    );
    for activity in &observed.snapshot.activities {
        if activity.latency.count == 0 {
            continue;
        }
        println!(
            "{:>12} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
            activity.activity,
            if activity.unit == "ms" {
                "ms (sim)"
            } else {
                "us (wall)"
            },
            activity.latency.count,
            activity.latency.p50,
            activity.latency.p90,
            activity.latency.p99,
            activity.latency.max
        );
    }
    println!(
        "\nJSONL trace: {} ({} lines)",
        trace_path.display(),
        observed.trace_lines
    );
    if json {
        println!(
            "{}",
            serde_json::to_string(&observed.snapshot).expect("serializable")
        );
    }
}

fn e9_generated_share(json: bool) {
    heading("E9 — generated-code share (TSE'12 [8] claims \"up to 80%\")");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>12} {:>10} {:>7} {:>7}",
        "app", "spec", "gen rust", "gen java", "handwritten", "callbacks", "rust%", "java%"
    );
    let rows = share::table();
    for row in &rows {
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>12} {:>10} {:>6.1}% {:>6.1}%",
            row.app,
            row.spec_loc,
            row.generated_rust_loc,
            row.generated_java_loc,
            row.handwritten_loc,
            row.callbacks,
            100.0 * row.rust_fraction,
            100.0 * row.java_fraction
        );
    }
    if json {
        println!("{}", serde_json::to_string(&rows).expect("serializable"));
    }
}

fn e10_processing(quick: bool, json: bool) {
    heading("E10 — serial vs parallel MapReduce (DiaSwarm [11,17]); per-record work varies");
    let readings = if quick { 20_000 } else { 400_000 };
    let workers: &[usize] = &[1, 2, 4, 8];
    println!(
        "nproc {}; every speedup is the median (min-max) of {} alternating serial/parallel pairs\n",
        std::thread::available_parallelism().map_or(1, usize::from),
        processing::ROUNDS
    );
    println!(
        "{:>9} {:>6} {:>9} {:>11} {:>9} {:>13} {:>8}",
        "readings", "work", "workers", "wall (ms)", "speedup", "(min-max)", "groups"
    );
    let mut all = Vec::new();
    for work in [0u32, 50, 400] {
        let rows = processing::sweep(readings, workers, work);
        for row in &rows {
            println!(
                "{:>9} {:>6} {:>9} {:>11.2} {:>8.2}x {:>13} {:>8}",
                row.readings,
                row.work,
                if row.workers == 0 {
                    "serial".to_owned()
                } else {
                    row.workers.to_string()
                },
                row.wall_ms,
                row.speedup,
                format!("({:.2}-{:.2})", row.speedup_min, row.speedup_max),
                row.groups
            );
        }
        all.extend(rows);
        println!();
    }
    if json {
        println!("{}", serde_json::to_string(&all).expect("serializable"));
    }
}

fn e11_delivery(quick: bool, json: bool) {
    heading("E11 — the three delivery models (paper §IV): message economy vs change rate");
    let sensors = if quick { 50 } else { 400 };
    let minutes = if quick { 5 } else { 30 };
    println!(
        "{:>13} {:>8} {:>12} {:>10} {:>9} {:>12} {:>10}",
        "model", "sensors", "changes/min", "messages", "queries", "activations", "wall (ms)"
    );
    let mut all = Vec::new();
    for change_rate in [0.1, 1.0, 10.0] {
        for row in delivery::compare(sensors, change_rate, minutes) {
            println!(
                "{:>13} {:>8} {:>12.1} {:>10} {:>9} {:>12} {:>10.1}",
                row.model.name(),
                row.sensors,
                row.change_rate,
                row.network_messages,
                row.queries,
                row.activations,
                row.wall_ms
            );
            all.push(row);
        }
        println!();
    }
    if json {
        println!("{}", serde_json::to_string(&all).expect("serializable"));
    }
}

fn e16_churn(quick: bool, json: bool) {
    heading(
        "E16 — recovery cost under device churn (leases + retry + standby rebinds, seeded faults)",
    );
    let scales: &[usize] = if quick { &[20, 100] } else { &[20, 100, 1_000] };
    println!(
        "{:>8} {:>8} {:>7} {:>8} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>7} {:>10}",
        "sensors",
        "crashes",
        "faults",
        "retries",
        "abandoned",
        "expiries",
        "rebinds",
        "rec. ev.",
        "p50 (ms)",
        "p99 (ms)",
        "errors",
        "wall (ms)"
    );
    let rows = churn::sweep(scales);
    for row in &rows {
        println!(
            "{:>8} {:>8} {:>7} {:>8} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>7} {:>10.1}",
            row.sensors,
            row.crashes,
            row.faults_injected,
            row.delivery_retries,
            row.deliveries_abandoned,
            row.lease_expiries,
            row.rebinds,
            row.recovery_events,
            row.recovery_p50_ms,
            row.recovery_p99_ms,
            row.errors,
            row.wall_ms
        );
    }
    if json {
        println!("{}", serde_json::to_string(&rows).expect("serializable"));
    }
}

fn e17_taskfaults(quick: bool, json: bool) {
    heading("E17 — fault-tolerant processing: coverage + wall-clock vs injected task-failure rate");
    let scales: &[usize] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    println!(
        "{:>8} {:>9} {:>7} {:>9} {:>8} {:>7} {:>7} {:>10}",
        "sensors", "workers", "rate", "coverage", "retries", "failed", "faults", "wall (ms)"
    );
    let rows = taskfaults::sweep(scales, &[0.0, 0.05, 0.2, 0.5], 8);
    for row in &rows {
        println!(
            "{:>8} {:>9} {:>7.2} {:>8}% {:>8} {:>7} {:>7} {:>10.2}",
            row.sensors,
            if row.workers == 0 {
                "serial".to_owned()
            } else {
                row.workers.to_string()
            },
            row.failure_rate,
            row.coverage_pct,
            row.task_retries,
            row.tasks_failed,
            row.injected_faults,
            row.wall_ms
        );
    }
    if json {
        println!("{}", serde_json::to_string(&rows).expect("serializable"));
    }
}

fn e18_fanout(quick: bool, json: bool) {
    heading("E18 — subscriber fan-out × payload size (zero-copy delivery pipeline)");
    let fanouts: &[usize] = if quick {
        &[1, 10, 100]
    } else {
        &[1, 10, 100, 1_000]
    };
    let emissions_at_1k = if quick { 20 } else { 100 };
    println!(
        "{:>7} {:>11} {:>9} {:>10} {:>11} {:>13} {:>13} {:>10}",
        "fanout", "payload", "emit", "delivered", "copied", "deep copy", "deliv/s", "wall (ms)"
    );
    let rows = fanout::sweep(fanouts, emissions_at_1k);
    for row in &rows {
        println!(
            "{:>7} {:>11} {:>9} {:>10} {:>11} {:>13} {:>13.0} {:>10.1}",
            row.fanout,
            row.payload,
            row.emissions,
            row.deliveries,
            human_bytes(row.copied_bytes),
            human_bytes(row.deep_copy_bytes),
            row.deliveries_per_sec,
            row.wall_ms
        );
    }
    if json {
        println!("{}", serde_json::to_string(&rows).expect("serializable"));
    }
}

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{:.1} GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / (1u64 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn e20_load(quick: bool, json: bool) {
    heading("E20 — open-loop load harness: latency under load (coordinated-omission-free)");
    let config = if quick {
        loadgen::LoadConfig::quick()
    } else {
        loadgen::LoadConfig::full()
    };
    let report = loadgen::sweep(&config, quick);
    println!(
        "{:>12} {:>12} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "offered/s", "achieved/s", "messages", "late", "p50 (us)", "p99 (us)", "p99.9", "max (us)"
    );
    for rate in &report.rates {
        println!(
            "{:>12} {:>12} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9}",
            rate.offered_msgs_per_sec,
            rate.achieved_msgs_per_sec,
            rate.messages,
            rate.late_starts,
            rate.end_to_end_us.p50,
            rate.end_to_end_us.p99,
            rate.end_to_end_us.p999,
            rate.end_to_end_us.max
        );
    }
    if report.knee_msgs_per_sec > 0 {
        println!(
            "\nThroughput knee: {} msgs/s offered",
            report.knee_msgs_per_sec
        );
    } else {
        println!("\nThroughput knee: below the lowest offered rate");
    }
    // Per-stage breakdown at the heaviest sustained rate (or the last
    // rate when nothing was sustained).
    let detail = report
        .rates
        .iter()
        .rfind(|r| r.offered_msgs_per_sec <= report.knee_msgs_per_sec.max(1))
        .or(report.rates.last());
    if let Some(rate) = detail {
        println!(
            "\nPer-stage latency at {} msgs/s offered:\n",
            rate.offered_msgs_per_sec
        );
        println!(
            "{:>10} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
            "stage", "unit", "count", "p50", "p99", "p99.9", "max"
        );
        for stage in &rate.stages {
            println!(
                "{:>10} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
                stage.stage,
                if stage.unit == "ms" {
                    "ms (sim)"
                } else {
                    "us (wall)"
                },
                stage.latency.count,
                stage.latency.p50,
                stage.latency.p99,
                stage.latency.p999,
                stage.latency.max
            );
        }
    }
    let bench_path = "BENCH_delivery.json";
    match serde_json::to_string(&report) {
        Ok(payload) => match std::fs::write(bench_path, &payload) {
            Ok(()) => println!("\nMachine-readable report: {bench_path}"),
            Err(e) => eprintln!("\ncannot write {bench_path}: {e}"),
        },
        Err(e) => eprintln!("\ncannot serialize load report: {e}"),
    }
    let trace_path = std::path::Path::new("target/e20_perfetto.json");
    if let Some(parent) = trace_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let sample = loadgen::perfetto_sample(if quick { 50 } else { 200 }, 8);
    match std::fs::write(trace_path, &sample) {
        Ok(()) => println!("Perfetto sample trace: {}", trace_path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", trace_path.display()),
    }
    if json {
        println!("{}", serde_json::to_string(&report).expect("serializable"));
    }
}

fn e21_chaossoak(quick: bool, json: bool) {
    heading("E21 — chaos soak: byte-identical orchestration under link faults");
    let rates: &[f64] = if quick { &[0.05] } else { &[0.02, 0.05, 0.10] };
    let rows = chaossoak::sweep(rates);
    println!(
        "{:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>10} {:>10} {:>10}",
        "rate",
        "parts",
        "faults",
        "resends",
        "replays",
        "dedup",
        "trips",
        "ident",
        "p50 (ms)",
        "p99 (ms)",
        "max (ms)"
    );
    for row in &rows {
        println!(
            "{:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>10} {:>10} {:>10}",
            format!("{:.0}%", row.fault_rate * 100.0),
            row.partitions,
            row.faults_injected,
            row.resends,
            row.replays,
            row.duplicates_absorbed,
            row.breaker_trips,
            if row.identical { "yes" } else { "NO" },
            row.replay_p50_ms,
            row.replay_p99_ms,
            row.replay_max_ms
        );
    }
    if rows.iter().all(|r| r.identical) {
        println!("\nEvery run byte-identical to the fault-free summary.");
    } else {
        println!("\nWARNING: at least one run diverged from the fault-free summary.");
    }
    // Merge the rows into the existing bench report so one JSON file
    // carries both the E20 load sweep and the E21 soak.
    let bench_path = "BENCH_delivery.json";
    match std::fs::read_to_string(bench_path) {
        Ok(payload) => match serde_json::from_str::<loadgen::LoadReport>(&payload) {
            Ok(mut report) => {
                report.chaos = rows.clone();
                match serde_json::to_string(&report) {
                    Ok(payload) => match std::fs::write(bench_path, &payload) {
                        Ok(()) => println!("Chaos rows merged into {bench_path}"),
                        Err(e) => eprintln!("cannot write {bench_path}: {e}"),
                    },
                    Err(e) => eprintln!("cannot serialize merged report: {e}"),
                }
            }
            Err(e) => eprintln!("{bench_path} is not a load report, not merging: {e}"),
        },
        Err(_) => println!("No {bench_path} yet; run --only e20 first to merge the soak rows."),
    }
    if json {
        println!("{}", serde_json::to_string(&rows).expect("serializable"));
    }
}

fn e12_discovery(quick: bool, json: bool) {
    heading("E12 — attribute-filtered discovery latency vs registry size");
    let iters = if quick { 20 } else { 200 };
    println!(
        "{:>9} {:>7} {:>9} {:>12}",
        "entities", "zones", "matched", "mean (us)"
    );
    let mut rows = Vec::new();
    for entities in [100usize, 1_000, 10_000, if quick { 10_000 } else { 50_000 }] {
        let row = discovery::run(entities, 10, iters);
        println!(
            "{:>9} {:>7} {:>9} {:>12.1}",
            row.entities, row.zones, row.matched, row.mean_us
        );
        rows.push(row);
    }
    if json {
        println!("{}", serde_json::to_string(&rows).expect("serializable"));
    }
}
