//! `diaspec-gen` — the design-compiler command line.
//!
//! Usage:
//!
//! ```text
//! diaspec-gen <SPEC.spec> --language rust|java --out <DIR> [--report]
//!             [--with <SPEC2.spec>]...
//! diaspec-gen lint <SPEC.spec>... [--format json|sarif] [--deny warnings]
//!                  [--allow CODE] [--warn CODE] [--deny CODE]
//!                  [--fleet N] [--capacity] [--manifest <M.json>]...
//! diaspec-gen deploy <SPEC.spec> [--edges N] [--host H] [--port-base P]
//!                    [--shard-enum NAME] [--out <DIR>]
//! ```
//!
//! Compiles a DiaSpec design and writes the generated programming
//! framework into `<DIR>` (Rust: a single `framework.rs`; Java: one file
//! per class). With `--report`, prints a JSON generation report (file
//! list, generated LoC, abstract-method count) to stdout. With `--with`,
//! the Rust header additionally records the co-deployed companion
//! designs and the cross-application conflict verdict.
//!
//! The `lint` subcommand runs the checker plus every whole-design
//! analysis pass (actuation conflicts, feedback loops, reachability,
//! rate propagation) and, given several specs, the cross-design
//! deployment passes over the whole co-deployment (plus any `--manifest`
//! deployment pins, whose `edges[].link.msgs_per_hour` budget each cut
//! link). Exit codes classify the outcome: `0` clean (or
//! warnings only), `2` at least one diagnostic ended up error-severity
//! after the level flags, `3` an input could not be read or parsed at
//! all, `1` bad flags.
//!
//! The `deploy` subcommand partitions a design into deployment units —
//! one coordinator plus N edge nodes sharded by a discovery-attribute
//! enumeration — passes the split through the gate a loaded manifest
//! meets (`NodeManifest::check_against`: shard assignment, then the
//! static partition pass) and writes `<DIR>/manifest.json`, the
//! deployment unit. Without `--out` the manifest is printed to stdout.

use diaspec_codegen::deploy::{plan_deployment, DeployOptions, NodeManifest};
use diaspec_codegen::lint::{lint_designs, LintFormat, LintLevel, LintOptions};
use diaspec_codegen::{generate_java, generate_rust, generate_rust_co_deployed, metrics};
use diaspec_core::span::MultiSourceMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code for inputs that could not be read or parsed at all — the
/// lint never saw a model — as opposed to deny-level findings (2).
const EXIT_BROKEN: u8 = 3;
/// Exit code for deny-level findings in otherwise-analyzable designs.
const EXIT_FINDINGS: u8 = 2;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("lint") {
        args.next();
        return match run_lint(args) {
            Ok(code) => ExitCode::from(code),
            Err(message) => {
                eprintln!("diaspec-gen: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args.peek().map(String::as_str) == Some("deploy") {
        args.next();
        return match run_deploy(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("diaspec-gen: {message}");
                ExitCode::FAILURE
            }
        };
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("diaspec-gen: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parses deploy flags, partitions the design, and writes or prints
/// the manifest.
fn run_deploy(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut options = DeployOptions::default();
    let mut spec_path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--edges" => {
                let value = args.next().ok_or("--edges needs a node count")?;
                options.edges = value
                    .parse()
                    .map_err(|_| format!("--edges needs an integer, got `{value}`"))?;
            }
            "--host" => options.host = args.next().ok_or("--host needs a value")?,
            "--port-base" => {
                let value = args.next().ok_or("--port-base needs a port")?;
                options.port_base = value
                    .parse()
                    .map_err(|_| format!("--port-base needs a port number, got `{value}`"))?;
            }
            "--shard-enum" => {
                options.shard_enum = Some(args.next().ok_or("--shard-enum needs a name")?);
            }
            "--out" | "-o" => {
                out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?));
            }
            "--help" | "-h" => {
                println!(
                    "usage: diaspec-gen deploy <SPEC.spec> [--edges N] [--host H] \
                     [--port-base P] [--shard-enum NAME] [--out <DIR>]"
                );
                return Ok(());
            }
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let spec_path = spec_path.ok_or("deploy needs a <SPEC.spec> argument")?;
    options.design = spec_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "design".to_owned());
    let source = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let spec = diaspec_core::compile_str(&source).map_err(|e| e.to_string())?;

    let deployment = plan_deployment(&spec, &options)?;
    for warning in &deployment.warnings {
        eprintln!("diaspec-gen: warning: {warning}");
    }
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("manifest.json"), deployment.manifest.to_json()))
            .map_err(|e| format!("cannot write to {}: {e}", dir.display()))?;
        eprintln!(
            "deployed `{}` as 1 coordinator + {} edge node(s), {} cut route(s), into {}",
            deployment.manifest.design,
            deployment.manifest.edges.len(),
            deployment.manifest.cut_routes.len(),
            dir.display()
        );
    } else {
        print!("{}", deployment.manifest.to_json());
    }
    Ok(())
}

/// Parses lint flags, lints the given specs (together, when several),
/// prints the outcome, and returns the process exit code. `Err` is
/// reserved for flag-usage mistakes (exit 1); unreadable or unparsable
/// inputs exit [`EXIT_BROKEN`] with the offending path on stderr.
fn run_lint(mut args: impl Iterator<Item = String>) -> Result<u8, String> {
    let mut options = LintOptions::default();
    let mut files: Vec<PathBuf> = Vec::new();
    let mut manifest_paths: Vec<PathBuf> = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                options.format = match args.next().as_deref() {
                    Some("human") => LintFormat::Human,
                    Some("json") => LintFormat::Json,
                    Some("sarif") => LintFormat::Sarif,
                    Some(other) => {
                        return Err(format!(
                            "unknown format `{other}` (expected human, json, or sarif)"
                        ))
                    }
                    None => return Err("--format needs a value".to_owned()),
                };
            }
            "--deny" => match args.next() {
                Some(value) if value == "warnings" => options.deny_warnings = true,
                Some(code) => {
                    options.levels.insert(code, LintLevel::Deny);
                }
                None => return Err("--deny needs `warnings` or a code".to_owned()),
            },
            "--allow" => {
                let code = args.next().ok_or("--allow needs a diagnostic code")?;
                options.levels.insert(code, LintLevel::Allow);
            }
            "--warn" => {
                let code = args.next().ok_or("--warn needs a diagnostic code")?;
                options.levels.insert(code, LintLevel::Warn);
            }
            "--fleet" => {
                let value = args.next().ok_or("--fleet needs a device count")?;
                options.fleet_size = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--fleet needs an integer, got `{value}`"))?,
                );
            }
            "--capacity" => options.capacity = true,
            "--manifest" => {
                manifest_paths.push(PathBuf::from(
                    args.next().ok_or("--manifest needs a manifest JSON file")?,
                ));
            }
            "--help" | "-h" => {
                println!(
                    "usage: diaspec-gen lint <SPEC.spec>... [--format human|json|sarif] \
                     [--deny warnings] [--allow CODE] [--warn CODE] [--deny CODE] \
                     [--fleet N] [--capacity] [--manifest <M.json>]"
                );
                return Ok(0);
            }
            other if !other.starts_with('-') => files.push(PathBuf::from(other)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if files.is_empty() {
        return Err("lint needs at least one <SPEC.spec> argument".to_owned());
    }

    let mut inputs: Vec<(String, String)> = Vec::new();
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(source) => inputs.push((path.display().to_string(), source)),
            Err(e) => {
                eprintln!("diaspec-gen: cannot read {}: {e}", path.display());
                return Ok(EXIT_BROKEN);
            }
        }
    }
    let mut manifests: Vec<(String, NodeManifest)> = Vec::new();
    for path in &manifest_paths {
        let raw = match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("diaspec-gen: cannot read {}: {e}", path.display());
                return Ok(EXIT_BROKEN);
            }
        };
        match NodeManifest::from_json(&raw) {
            Ok(manifest) => manifests.push((path.display().to_string(), manifest)),
            Err(e) => {
                eprintln!("diaspec-gen: invalid manifest {}: {e}", path.display());
                return Ok(EXIT_BROKEN);
            }
        }
    }

    let outcome = match lint_designs(&inputs, &manifests, &options) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("diaspec-gen: {message}");
            return Ok(EXIT_BROKEN);
        }
    };
    print!("{}", outcome.rendered);
    if !outcome.rendered.ends_with('\n') {
        println!();
    }
    if outcome.broken {
        Ok(EXIT_BROKEN)
    } else if outcome.failed() {
        Ok(EXIT_FINDINGS)
    } else {
        Ok(0)
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut spec_path: Option<PathBuf> = None;
    let mut language = "rust".to_owned();
    let mut out: Option<PathBuf> = None;
    let mut report = false;
    let mut dot = false;
    let mut chains = false;
    let mut requirements = false;
    let mut match_infra: Option<PathBuf> = None;
    let mut with: Vec<PathBuf> = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--language" | "-l" => {
                language = args.next().ok_or("--language needs a value")?;
            }
            "--with" => {
                with.push(PathBuf::from(
                    args.next().ok_or("--with needs a companion <SPEC.spec>")?,
                ));
            }
            "--out" | "-o" => {
                out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?));
            }
            "--report" => report = true,
            "--dot" => dot = true,
            "--chains" => chains = true,
            "--requirements" => requirements = true,
            "--match" => {
                match_infra = Some(PathBuf::from(
                    args.next()
                        .ok_or("--match needs an infrastructure JSON file")?,
                ));
            }
            "--help" | "-h" => {
                println!(
                    "usage: diaspec-gen <SPEC.spec> --language rust|java --out <DIR> \
                     [--report] [--dot] [--chains] [--requirements] \
                     [--match <INFRA.json>] [--with <SPEC2.spec>]..."
                );
                return Ok(());
            }
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }

    let spec_path = spec_path.ok_or("missing <SPEC.spec> argument")?;
    let source = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let spec = diaspec_core::compile_str(&source).map_err(|e| e.to_string())?;

    if let Some(infra_path) = &match_infra {
        let infra_src = std::fs::read_to_string(infra_path)
            .map_err(|e| format!("cannot read {}: {e}", infra_path.display()))?;
        let infra: diaspec_core::requirements::Infrastructure = serde_json::from_str(&infra_src)
            .map_err(|e| format!("invalid infrastructure JSON {}: {e}", infra_path.display()))?;
        let req = diaspec_core::requirements::estimate(&spec);
        let report = diaspec_core::requirements::match_infrastructure(&spec, &req, &infra);
        let sources = MultiSourceMap::new([(spec_path.display().to_string(), &source)]);
        println!("{}", report.render(&sources, false));
        return if report.deployable() {
            Ok(())
        } else {
            Err("design does not fit the infrastructure".to_owned())
        };
    }

    if requirements {
        let req = diaspec_core::requirements::estimate(&spec);
        let json = serde_json::to_string_pretty(&req).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }

    if chains {
        for chain in diaspec_core::chains::functional_chains(&spec) {
            println!("{chain}");
        }
        return Ok(());
    }

    if dot {
        let name = spec_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "design".to_owned());
        print!("{}", diaspec_codegen::dot::generate_dot(&spec, &name));
        return Ok(());
    }

    let mut companions: Vec<(String, diaspec_core::model::CheckedSpec)> = Vec::new();
    for path in &with {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let companion =
            diaspec_core::compile_str(&source).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        companions.push((name, companion));
    }

    let framework = match language.as_str() {
        "rust" if !companions.is_empty() => {
            let design = spec_path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "design".to_owned());
            let refs: Vec<(String, &diaspec_core::model::CheckedSpec)> = companions
                .iter()
                .map(|(name, spec)| (name.clone(), spec))
                .collect();
            generate_rust_co_deployed(&design, &spec, &refs)
        }
        "rust" => generate_rust(&spec),
        "java" => {
            if !companions.is_empty() {
                return Err("--with is only supported with --language rust".to_owned());
            }
            generate_java(&spec)
        }
        other => {
            return Err(format!(
                "unknown language `{other}` (expected rust or java)"
            ))
        }
    };

    if let Some(dir) = &out {
        framework
            .write_to(dir)
            .map_err(|e| format!("cannot write to {}: {e}", dir.display()))?;
        eprintln!(
            "generated {} {} file(s) into {}",
            framework.files.len(),
            framework.language,
            dir.display()
        );
    }
    if report {
        let report = metrics::report(&framework);
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{json}");
    }
    if out.is_none() && !report {
        for file in &framework.files {
            println!("// ===== {} =====", file.path);
            println!("{}", file.content);
        }
    }
    Ok(())
}
