//! Exit-code contract for `--jobs`, exercised against the real binary:
//! 0 on success, 1 on runtime (I/O/data) failures, 2 on usage errors —
//! and byte-identical stdout between serial and parallel runs, and at
//! the default, which is every hardware thread.

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
