//! Exit-code and output contract for `analyze --window`, exercised
//! against the real binary: 2 on malformed/misused flags before any
//! I/O, 0 with a `windows:` summary line on success, a valid JSON
//! sidecar from `--emit-windows`, a whole-trace summary that is
//! byte-identical to the unwindowed run, and a typed timeout exit when
//! the windowed replay outlives `--max-seconds`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bwsa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bwsa"))
        .args(args)
        .output()
        .expect("bwsa binary runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (killed by signal?)")
}

fn fixture_trace(dir_tag: &str, format: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bwsa_cli_window_{dir_tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("t.{format}"));
    let out = bwsa(&[
        "generate",
        "pgp",
        "--scale",
        "0.01",
        "--format",
        format,
        "-o",
        path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "generate failed: {out:?}");
    path
}

#[test]
fn window_misuse_exits_2_before_touching_files() {
    for args in [
        ["analyze", "/no/such.bwst", "--window", "0"],
        ["analyze", "/no/such.bwst", "--window", "0i"],
        ["analyze", "/no/such.bwst", "--window", "lots"],
        ["analyze", "/no/such.bwst", "--window", "-5"],
        ["analyze", "/no/such.bwst", "--window", "12x"],
    ] {
        let out = bwsa(&args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--window"), "{args:?}: {err}");
    }
}

#[test]
fn emit_windows_without_window_exits_2() {
    let out = bwsa(&["analyze", "/no/such.bwst", "--emit-windows", "w.json"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--emit-windows needs --window"),
        "{out:?}"
    );
}

#[test]
fn window_with_checkpointing_exits_2() {
    for flag in ["--checkpoint", "--resume"] {
        let out = bwsa(&[
            "analyze",
            "/no/such.bwss",
            "--window",
            "100",
            flag,
            "c.bwck",
        ]);
        assert_eq!(exit_code(&out), 2, "{flag}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{flag}: {out:?}"
        );
    }
}

#[test]
fn windowed_analyze_prints_summary_and_preserves_the_whole_trace_answer() {
    for format in ["bwst", "bwss"] {
        let path = fixture_trace("green", format);
        let path = path.to_str().unwrap();
        let plain = bwsa(&["analyze", path, "--threshold", "3"]);
        let windowed = bwsa(&["analyze", path, "--threshold", "3", "--window", "100"]);
        assert_eq!(exit_code(&plain), 0, "{plain:?}");
        assert_eq!(exit_code(&windowed), 0, "{windowed:?}");
        let plain_out = String::from_utf8_lossy(&plain.stdout);
        let windowed_out = String::from_utf8_lossy(&windowed.stdout);
        let windows_line = windowed_out
            .lines()
            .find(|l| l.starts_with("windows: "))
            .unwrap_or_else(|| panic!("{format}: no windows line in {windowed_out}"));
        assert!(windows_line.contains("mean stability"), "{windows_line}");
        // Stripping the extra windows line leaves the unwindowed output.
        let stripped: String = windowed_out
            .lines()
            .filter(|l| !l.starts_with("windows: "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain_out, "{format}: analysis summary diverged");
    }
}

#[test]
fn emit_windows_writes_parseable_json_with_one_entry_per_window() {
    let path = fixture_trace("emit", "bwst");
    let sidecar = path.parent().unwrap().join("windows.json");
    let out = bwsa(&[
        "analyze",
        path.to_str().unwrap(),
        "--threshold",
        "3",
        "--window",
        "64i",
        "--emit-windows",
        sidecar.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let text = std::fs::read_to_string(&sidecar).expect("sidecar written");
    let json = bwsa::obs::json::Json::parse(&text).expect("sidecar parses");
    assert_eq!(
        json.get("window_unit")
            .and_then(bwsa::obs::json::Json::as_str),
        Some("instructions")
    );
    assert_eq!(
        json.get("window_interval")
            .and_then(bwsa::obs::json::Json::as_u64),
        Some(64)
    );
    let windows = json.get("windows").expect("windows array");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let count: u64 = stdout
        .lines()
        .find(|l| l.starts_with("windows: "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .expect("window count on the summary line");
    match windows {
        bwsa::obs::json::Json::Array(items) => assert_eq!(items.len() as u64, count),
        other => panic!("windows is not an array: {other:?}"),
    }
}

#[test]
fn a_slow_window_flush_is_cut_short_by_max_seconds() {
    let path = fixture_trace("deadline", "bwst");
    // Every flush stalls 50 ms and the trace has dozens of 100-branch
    // windows, so only a deadline on the windowed replay itself stops the
    // run within its 0.2 s budget.
    let out = Command::new(env!("CARGO_BIN_EXE_bwsa"))
        .args([
            "analyze",
            path.to_str().unwrap(),
            "--threshold",
            "3",
            "--window",
            "100",
            "--max-seconds",
            "0.2",
        ])
        .env("BWSA_FAILPOINTS", "core.window_flush=delay(50)")
        .output()
        .expect("bwsa binary runs");
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("deadline exceeded") && err.contains("core.window_flush"),
        "{err}"
    );
}

#[test]
fn a_windowed_metrics_report_attributes_the_window_walk() {
    let path = fixture_trace("metrics", "bwss");
    for jobs in [1, 2] {
        let report = path.parent().unwrap().join(format!("metrics-{jobs}.json"));
        let out = bwsa(&[
            "analyze",
            path.to_str().unwrap(),
            "--threshold",
            "3",
            "--window",
            "100",
            "--jobs",
            &jobs.to_string(),
            "--metrics",
            report.to_str().unwrap(),
        ]);
        assert_eq!(exit_code(&out), 0, "{out:?}");
        let text = std::fs::read_to_string(&report).expect("report written");
        let json = bwsa::obs::json::Json::parse(&text).expect("report parses");
        // One thread detects; with --jobs 2 a second one re-colors, and
        // the echo says so.
        let config = json.get("config").expect("config echo");
        let echo = |key: &str| config.get(key).cloned();
        assert_eq!(echo("execution"), Some("windowed".into()), "{text}");
        assert_eq!(
            echo("jobs"),
            Some(bwsa::obs::json::Json::UInt(jobs)),
            "{text}"
        );
        assert_eq!(echo("shards"), None, "{text}");
        let counter = |name: &str| {
            json.get("counters")
                .and_then(|c| c.get(name))
                .and_then(bwsa::obs::json::Json::as_u64)
        };
        let windows = counter("core.windows_flushed").expect("windows flushed");
        let recolors = counter("core.recolors").expect("recolors counted");
        assert!(0 < recolors && recolors <= windows, "{text}");
        let stage = |name: &str| match json.get("stages") {
            Some(bwsa::obs::json::Json::Array(stages)) => stages
                .iter()
                .find(|s| s.get("name").and_then(bwsa::obs::json::Json::as_str) == Some(name))
                .and_then(|s| s.get("count"))
                .and_then(bwsa::obs::json::Json::as_u64),
            other => panic!("stages is not an array: {other:?}"),
        };
        // One walk per flush, inside the flush, and one colorer pass per
        // window, which builds and colors only when the kept graph moved.
        assert_eq!(stage("window_diff"), Some(windows), "{text}");
        assert_eq!(stage("window_flush"), Some(windows), "{text}");
        assert_eq!(stage("recolor"), Some(windows), "{text}");
        assert_eq!(stage("recolor_build"), Some(recolors), "{text}");
        assert_eq!(stage("recolor_color"), Some(recolors), "{text}");
        // The walk waits to hand a window over only to a helper thread.
        let handoffs = (jobs == 2).then_some(windows);
        assert_eq!(stage("window_handoff"), handoffs, "{text}");
        let touched = counter("core.window_rows_touched").expect("rows touched counted");
        assert!(touched > 0, "{text}");
        // Every kept pair enters the colorer's graph once, as a new pair
        // among its moves, and the run's conflict graph is that graph.
        let new_pairs = counter("core.recolor_new_pairs").expect("new pairs counted");
        let moves = counter("core.recolor_moves").expect("moves counted");
        assert_eq!(Some(new_pairs), counter("core.graph_edges_kept"), "{text}");
        assert!(new_pairs > 0 && moves >= new_pairs, "{text}");
    }
}
