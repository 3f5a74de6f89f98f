//! `perfbench` — the library side of the benchmark that `run.py` drives.
//!
//! ```text
//! perfbench gen    --workload W --seed S --dir D
//! perfbench expect --workload W --dir D --bwsa BIN
//! perfbench trace  --workload W --dir D --bwsa BIN --reps N --seconds T --spans FILE
//! perfbench daemon --workload daemon-mix --dir D --bwsa BIN --seed S --seconds T
//! perfbench reference
//! ```
//!
//! Each subcommand prints one JSON document on stdout. `gen` writes the
//! seeded inputs; `expect` computes the outputs a correct `bwsa` prints
//! for them; `trace` is the per-layer traced run; `daemon` runs the whole
//! `daemon-mix` workload against a `bwsa serve` child; `reference` runs
//! the fixed load that `run.py` times to gauge the host's speed.

mod daemon;
mod expect;
mod inputs;
mod layers;
mod reference;
mod tracer;

use bwsa::obs::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure with a debug build (build with --release)");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse().map_err(|_| format!("bad {name} {v:?}"))
}

fn checks_json(doc: &mut Vec<(String, Json)>, checks: &layers::Checks) {
    doc.push(("attempted".to_owned(), Json::UInt(checks.attempted)));
    doc.push((
        "failures".to_owned(),
        Json::Array(checks.failures.iter().map(|f| Json::from(f.as_str())).collect()),
    ));
}

fn run(args: &[String]) -> Result<Json, String> {
    let command = args.first().map(String::as_str).unwrap_or("");
    if command == "reference" {
        return Ok(Json::object([("checksum", Json::UInt(reference::run()))]));
    }
    let workload = flag(args, "--workload")?;
    let dir = PathBuf::from(flag(args, "--dir")?);
    match command {
        "gen" => {
            let seed: u64 = number(args, "--seed")?;
            let files = inputs::generate_workload(workload, seed, &dir)?;
            let path = |p: &PathBuf| Json::from(p.display().to_string());
            Ok(Json::object([(
                "traces",
                Json::Array(
                    files
                        .iter()
                        .map(|f| {
                            Json::object([
                                ("key", Json::from(f.key.as_str())),
                                ("bwss", path(&f.bwss)),
                                ("alternate", f.alternate.as_ref().map_or(Json::Null, path)),
                            ])
                        })
                        .collect(),
                ),
            )]))
        }
        "expect" => {
            let ctx = layers::Ctx::new(workload, &dir, flag(args, "--bwsa")?.as_ref())?;
            let (expected, checks) = layers::expectations(&ctx)?;
            let mut doc = vec![("expected".to_owned(), expected.to_json())];
            checks_json(&mut doc, &checks);
            Ok(Json::Object(doc))
        }
        "trace" => {
            let ctx = layers::Ctx::new(workload, &dir, flag(args, "--bwsa")?.as_ref())?;
            let walk = layers::traced_walk(&ctx, number(args, "--reps")?, number(args, "--seconds")?)?;
            let spans = flag(args, "--spans")?;
            std::fs::write(spans, &walk.spans_jsonl)
                .map_err(|e| format!("cannot write {spans}: {e}"))?;
            let metrics = walk
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::object([("value", Json::Float(*value)), ("unit", Json::from(*unit))]),
                    )
                })
                .collect();
            let mut doc = vec![
                ("metrics".to_owned(), Json::Object(metrics)),
                ("expected".to_owned(), walk.expected.to_json()),
            ];
            checks_json(&mut doc, &walk.checks);
            Ok(Json::Object(doc))
        }
        "daemon" => daemon::run(
            flag(args, "--bwsa")?.as_ref(),
            &dir,
            &inputs::keys(workload)?,
            number(args, "--seed")?,
            number(args, "--seconds")?,
        ),
        other => Err(format!(
            "unknown subcommand {other:?} (gen, expect, trace, daemon, reference)"
        )),
    }
}
