//! Exit-code contract for `--jobs`, exercised against the real binary:
//! 0 on success, 1 on runtime (I/O/data) failures, 2 on usage errors —
//! and byte-identical stdout between serial and parallel runs, and at
//! the default, which is every hardware thread.

use bwsa::obs::json::Json;
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

/// Generates a small deterministic trace for the given format, returning
/// its path inside a per-test temp directory.
fn fixture_trace(dir_tag: &str, format: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bwsa_cli_jobs_{dir_tag}"));
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
fn jobs_misuse_exits_2_before_touching_files() {
    for args in [
        ["analyze", "/no/such.bwst", "--jobs", "0"],
        ["analyze", "/no/such.bwst", "--jobs", "lots"],
        ["simulate", "/no/such.bwst", "--jobs", "0"],
        ["simulate", "/no/such.bwst", "--jobs", "2.5"],
        ["allocate", "/no/such.bwst", "--jobs", "0"],
        // Each detection worker is a thread: above the bound of 256, none
        // starts and no file is opened.
        ["analyze", "/no/such.bwst", "--jobs", "257"],
        ["analyze", "/no/such.bwss", "--jobs", "100000"],
        ["allocate", "/no/such.bwst", "--jobs", "257"],
    ] {
        let out = bwsa(&args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
    }
}

#[test]
fn table_misuse_exits_2_before_touching_files() {
    // A table of no entries, one without room for --classify's two
    // reserved entries and the mixed branches, or one past the bound of
    // 2^20 is refused before the trace is opened.
    for args in [
        &["allocate", "/no/such.bwst", "--table", "0"][..],
        &["allocate", "/no/such.bwst", "--classify", "--table", "2"],
        &["allocate", "/no/such.bwst", "--table", "1048577"],
    ] {
        let out = bwsa(args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--table"), "{args:?}: {stderr}");
    }
    // The bounds themselves are tables: those runs reach the missing file.
    for args in [
        &["allocate", "/no/such.bwst", "--classify", "--table", "3"][..],
        &["allocate", "/no/such.bwst", "--table", "1048576"],
    ] {
        let out = bwsa(args);
        assert_eq!(exit_code(&out), 1, "{args:?}: {out:?}");
    }
}

#[test]
fn checkpoint_flags_are_unknown_to_analyze_and_simulate() {
    // Nothing saves or resumes a run, so these are unknown flags, met
    // before the trace is opened.
    for command in ["analyze", "simulate"] {
        for flag in [
            &["--checkpoint", "c.bwck"][..],
            &["--checkpoint-every", "4"],
            &["--resume", "c.bwck"],
        ] {
            let out = bwsa(&[&[command, "/no/such.bwss"][..], flag].concat());
            assert_eq!(exit_code(&out), 2, "{command} {flag:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("unknown flag"),
                "{command} {flag:?}: {stderr}"
            );
        }
    }
}

#[test]
fn checkpointed_analyze_with_parallel_jobs_exits_2() {
    // The usage gate fires before I/O, so no real files are needed. The
    // checkpoint flags are unknown at every --jobs, --jobs 1 included.
    for (flag, jobs) in [
        ("--checkpoint", "2"),
        ("--resume", "4"),
        ("--checkpoint", "1"),
    ] {
        let out = bwsa(&["analyze", "/no/such.bwss", flag, "c.bwck", "--jobs", jobs]);
        assert_eq!(exit_code(&out), 2, "{flag} --jobs {jobs}: {out:?}");
    }
}

#[test]
fn missing_trace_file_exits_1() {
    let out = bwsa(&["analyze", "/no/such/file.bwst", "--jobs", "2"]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
}

#[test]
fn parallel_analyze_stdout_is_byte_identical_to_serial() {
    for format in ["bwst", "bwss"] {
        let path = fixture_trace("analyze", format);
        let path = path.to_str().unwrap();
        let serial = bwsa(&["analyze", path, "--threshold", "3", "--jobs", "1"]);
        let parallel = bwsa(&["analyze", path, "--threshold", "3", "--jobs", "3"]);
        assert_eq!(exit_code(&serial), 0, "{serial:?}");
        assert_eq!(exit_code(&parallel), 0, "{parallel:?}");
        assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&parallel.stdout),
            "{format}: parallel analyze output diverged"
        );
    }
}

#[test]
fn analyze_and_allocate_print_the_same_at_the_default_and_any_jobs() {
    for format in ["bwst", "bwss", "bwss3"] {
        let path = fixture_trace("defaults", format);
        let path = path.to_str().unwrap();
        let stdout = |args: &[&str]| {
            let out = bwsa(args);
            assert_eq!(exit_code(&out), 0, "{args:?}: {out:?}");
            String::from_utf8(out.stdout).unwrap()
        };
        let serial = stdout(&["analyze", path, "--threshold", "3", "--jobs", "1"]);
        let default = stdout(&["analyze", path, "--threshold", "3"]);
        assert_eq!(default, serial, "{format}: analyze at the default");
        let allocate = ["allocate", path, "--threshold", "3", "--classify"];
        let serial = stdout(&[&allocate[..], &["--jobs", "1"]].concat());
        for jobs in [&[][..], &["--jobs", "3"]] {
            let parallel = stdout(&[&allocate[..], jobs].concat());
            assert_eq!(parallel, serial, "{format}: allocate {jobs:?}");
        }
    }
}

#[test]
fn parallel_simulate_stdout_is_byte_identical_to_serial() {
    let path = fixture_trace("simulate", "bwst");
    let path = path.to_str().unwrap();
    let serial = bwsa(&["simulate", path, "--jobs", "1"]);
    let parallel = bwsa(&["simulate", path, "--jobs", "4"]);
    assert_eq!(exit_code(&serial), 0, "{serial:?}");
    assert_eq!(exit_code(&parallel), 0, "{parallel:?}");
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "parallel simulate output diverged"
    );
}

/// The parts of `allocate --report json`'s report that do not depend on
/// the workers: its digests and its counters, less the `core.shard*`
/// ones that count how detection split among them.
fn allocate_report(path: &str, jobs: &str) -> (Json, Vec<(String, Json)>) {
    let out = bwsa(&[
        "allocate",
        path,
        "--threshold",
        "3",
        "--classify",
        "--report",
        "json",
        "--jobs",
        jobs,
    ]);
    assert_eq!(exit_code(&out), 0, "--jobs {jobs}: {out:?}");
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let Some(Json::Object(counters)) = doc.get("counters") else {
        panic!("--jobs {jobs}: no counters");
    };
    let counters = counters
        .iter()
        .filter(|(name, _)| !name.starts_with("core.shard"))
        .cloned()
        .collect();
    (doc.get("digests").unwrap().clone(), counters)
}

#[test]
fn allocate_reports_the_same_products_at_any_jobs() {
    // Once detection ends, allocate's four products run on the --jobs
    // workers: the same allocation, search and three PAg runs, counted
    // the same, on one worker or three.
    let path = fixture_trace("allocate_report", "bwst");
    let path = path.to_str().unwrap();
    let (digests, counters) = allocate_report(path, "1");
    for name in ["allocation", "required_size", "working_sets"] {
        assert!(digests.get(name).is_some(), "no {name} digest");
    }
    let count = |name: &str| counters.iter().find(|(n, _)| n == name).map(|(_, v)| v);
    assert_eq!(count("core.allocations"), Some(&Json::UInt(1)));
    assert!(count("predictor.lookups").is_some());
    for jobs in ["2", "3"] {
        assert_eq!(
            allocate_report(path, jobs),
            (digests.clone(), counters.clone()),
            "--jobs {jobs}"
        );
    }
}

#[test]
fn a_fault_in_any_product_ends_allocate_alike_at_any_jobs() {
    // A fault in the coloring (the allocation and the search) or in a PAg
    // run unwinds out of whichever worker meets it, and the run ends as
    // a serial run does: exit 1 and the same final error line.
    let path = fixture_trace("allocate_fault", "bwst");
    let path = path.to_str().unwrap();
    for site in ["graph.color", "predictor.simulate"] {
        let last_error = |jobs: &str| {
            let out = Command::new(env!("CARGO_BIN_EXE_bwsa"))
                .args([
                    "allocate",
                    path,
                    "--threshold",
                    "3",
                    "--classify",
                    "--jobs",
                    jobs,
                ])
                .env("BWSA_FAILPOINTS", format!("{site}=error(boom)"))
                .output()
                .expect("bwsa binary runs");
            assert_eq!(exit_code(&out), 1, "{site} --jobs {jobs}: {out:?}");
            let stderr = String::from_utf8(out.stderr).unwrap();
            let last = stderr.lines().rfind(|l| l.starts_with("error:"));
            last.unwrap_or_else(|| panic!("{site} --jobs {jobs}: {stderr}"))
                .to_owned()
        };
        let serial = last_error("1");
        assert!(serial.contains(site) && serial.contains("boom"), "{serial}");
        assert_eq!(last_error("2"), serial, "{site}");
    }
}
