//! Exit-code contract for `bwsa corpus` and `bwsa validate-fleet`,
//! exercised against the real binary: 0 on a completed batch (even with
//! degraded entries), 1 on runtime failures, 2 on manifest/usage errors
//! — plus the bit-identity contract between serial and parallel runs.

use std::path::{Path, PathBuf};
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

/// A per-test scratch dir holding three small generated traces and a
/// manifest naming them. Returns the manifest path.
fn fixture_corpus(dir_tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bwsa_cli_corpus_{dir_tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (bench, file) in [
        ("compress", "compress_a.bwss"),
        ("pgp", "pgp_a.bwss"),
        ("li", "li_a.bwss"),
    ] {
        let path = dir.join(file);
        let out = bwsa(&[
            "generate",
            bench,
            "--scale",
            "0.01",
            "--format",
            "bwss",
            "-o",
            path.to_str().unwrap(),
        ]);
        assert_eq!(exit_code(&out), 0, "generate {bench} failed: {out:?}");
    }
    write_manifest(
        &dir,
        "name = \"cli\"\n\n\
         [defaults]\n\
         threshold = 10\n\
         class = \"integer\"\n\n\
         [[trace]]\n\
         path = \"compress_a.bwss\"\n\n\
         [[trace]]\n\
         path = \"pgp_a.bwss\"\n\
         class = \"crypto\"\n\n\
         [[trace]]\n\
         path = \"li_a.bwss\"\n",
    )
}

fn write_manifest(dir: &Path, text: &str) -> PathBuf {
    let path = dir.join("corpus.toml");
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn corpus_misuse_exits_2() {
    // No manifest argument, unknown flag, bad flag values: all usage.
    for args in [
        vec!["corpus"],
        vec!["corpus", "/no/such.toml", "--frobnicate"],
        vec!["corpus", "/no/such.toml", "--jobs", "0"],
        vec!["corpus", "/no/such.toml", "--threshold", "none"],
        vec!["corpus", "/no/such.toml", "--report", "yaml"],
    ] {
        let out = bwsa(&args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
    }
}

#[test]
fn missing_manifest_file_exits_1() {
    let out = bwsa(&["corpus", "/no/such/corpus.toml"]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
}

#[test]
fn malformed_manifest_exits_2() {
    let dir = std::env::temp_dir().join("bwsa_cli_corpus_malformed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Unparseable document.
    let m = write_manifest(&dir, "not a manifest at all [[[");
    let out = bwsa(&["corpus", m.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    // Dangling entry: parses, but the trace file does not exist.
    let m = write_manifest(&dir, "[[trace]]\npath = \"ghost.bwss\"\n");
    let out = bwsa(&["corpus", m.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("ghost.bwss"),
        "{out:?}"
    );
    // Duplicate trace paths.
    std::fs::write(dir.join("t.bwss"), b"placeholder").unwrap();
    let m = write_manifest(
        &dir,
        "[[trace]]\npath = \"t.bwss\"\n\n[[trace]]\npath = \"t.bwss\"\n",
    );
    let out = bwsa(&["corpus", m.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("duplicate"),
        "{out:?}"
    );
}

#[test]
fn good_corpus_exits_0_and_parallel_output_is_byte_identical() {
    let manifest = fixture_corpus("good");
    let m = manifest.to_str().unwrap();
    let serial = bwsa(&["corpus", m, "--jobs", "1", "--report", "json"]);
    assert_eq!(exit_code(&serial), 0, "{serial:?}");
    for jobs in ["2", "3", "8"] {
        let parallel = bwsa(&["corpus", m, "--jobs", jobs, "--report", "json"]);
        assert_eq!(exit_code(&parallel), 0, "{parallel:?}");
        assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&parallel.stdout),
            "--jobs {jobs} corpus output diverged"
        );
    }
    // The human table reports all three entries ok.
    let text = bwsa(&["corpus", m]);
    assert_eq!(exit_code(&text), 0, "{text:?}");
    let stdout = String::from_utf8_lossy(&text.stdout);
    assert!(stdout.contains("3 entries"), "{stdout}");
    assert!(stdout.contains("3 ok, 0 degraded, 0 failed"), "{stdout}");
}

#[test]
fn emitted_fleet_summary_validates() {
    let manifest = fixture_corpus("emit");
    let fleet = manifest.parent().unwrap().join("fleet.json");
    let out = bwsa(&[
        "corpus",
        manifest.to_str().unwrap(),
        "--jobs",
        "2",
        "--emit-fleet",
        fleet.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let out = bwsa(&["validate-fleet", fleet.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("valid fleet summary"),
        "{out:?}"
    );
}

#[test]
fn validate_fleet_rejects_junk_and_wrong_versions() {
    let dir = std::env::temp_dir().join("bwsa_cli_corpus_validate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Missing file: runtime.
    let out = bwsa(&["validate-fleet", "/no/such/fleet.json"]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    // No positional: usage.
    let out = bwsa(&["validate-fleet"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    // Parseable JSON, wrong document.
    let p = dir.join("wrong.json");
    std::fs::write(&p, "{\"fleet_summary_version\": 999}").unwrap();
    let out = bwsa(&["validate-fleet", p.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    // A run report is not a fleet summary.
    std::fs::write(&p, "{\"run_report_version\": 3}").unwrap();
    let out = bwsa(&["validate-fleet", p.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
}

#[test]
fn cache_flag_conflicts_exit_2_before_io() {
    // Validation precedes I/O: the manifest path never exists, yet the
    // conflict is still reported as usage (2), not runtime (1).
    let args = [
        "corpus",
        "/no/such.toml",
        "--no-cache",
        "--cache-dir",
        "/tmp/x",
    ];
    let out = bwsa(&args);
    assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--no-cache"),
        "{out:?}"
    );
}

#[test]
fn warm_cache_rerun_is_all_hits_and_byte_identical() {
    let manifest = fixture_corpus("warm");
    let dir = manifest.parent().unwrap();
    let cache = dir.join("cache");
    let cold_fleet = dir.join("cold.json");
    let warm_fleet = dir.join("warm.json");
    let cold = bwsa(&[
        "corpus",
        manifest.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
        "--emit-fleet",
        cold_fleet.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&cold), 0, "{cold:?}");
    assert!(
        String::from_utf8_lossy(&cold.stderr).contains("cache: 0 hits, 3 misses"),
        "{cold:?}"
    );
    // A second run replays every entry from the cache — zero analyses —
    // and the emitted summary is byte-for-byte the cold one.
    let warm = bwsa(&[
        "corpus",
        manifest.to_str().unwrap(),
        "--cache-dir",
        cache.to_str().unwrap(),
        "--emit-fleet",
        warm_fleet.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&warm), 0, "{warm:?}");
    assert!(
        String::from_utf8_lossy(&warm.stderr).contains("cache: 3 hits, 0 misses"),
        "{warm:?}"
    );
    assert_eq!(
        std::fs::read(&cold_fleet).unwrap(),
        std::fs::read(&warm_fleet).unwrap(),
        "warm summary drifted from cold"
    );
    // --no-cache opts out entirely: no stats line, same bytes anyway.
    let fresh_fleet = dir.join("fresh.json");
    let fresh = bwsa(&[
        "corpus",
        manifest.to_str().unwrap(),
        "--no-cache",
        "--emit-fleet",
        fresh_fleet.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&fresh), 0, "{fresh:?}");
    assert!(!String::from_utf8_lossy(&fresh.stderr).contains("cache:"));
    assert_eq!(
        std::fs::read(&cold_fleet).unwrap(),
        std::fs::read(&fresh_fleet).unwrap(),
        "cached summary drifted from an uncached run"
    );
}

#[test]
fn corrupt_member_degrades_but_batch_exits_0() {
    let manifest = fixture_corpus("salvage");
    let dir = manifest.parent().unwrap();
    // Truncate one member mid-stream: salvage drops the damaged tail,
    // the entry is degraded (or failed if nothing survives), and the
    // batch still completes with exit 0.
    let victim = dir.join("pgp_a.bwss");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let fleet = dir.join("fleet.json");
    let out = bwsa(&[
        "corpus",
        manifest.to_str().unwrap(),
        "--emit-fleet",
        fleet.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 ok"), "{stdout}");
    // And the emitted summary still validates against the fixture.
    let out = bwsa(&["validate-fleet", fleet.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
}
