//! Integration: durable ingestion end to end — corrupted streams salvage
//! to the same analysis minus the damaged chunk, torn files print the
//! same analysis on every path, and the `bwsa` binary honours its
//! exit-code contract.

use bwsa::prelude::*;
use bwsa::trace::stream::{frame_spans, RecoveryPolicy, StreamReader, StreamWriter};
use std::path::PathBuf;
use std::process::Command;

fn stream_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = StreamWriter::new(&mut buf, &trace.meta().name).unwrap();
    for r in trace.records() {
        w.push(*r).unwrap();
    }
    w.finish(trace.meta().total_instructions).unwrap();
    buf
}

fn salvage_records(bytes: &[u8]) -> Vec<BranchRecord> {
    StreamReader::with_recovery(bytes, RecoveryPolicy::Salvage)
        .unwrap()
        .filter_map(|r| r.ok())
        .collect()
}

/// Corrupting one chunk and salvaging yields exactly the analysis of the
/// trace with that chunk's records removed — damage stays local.
#[test]
fn salvaged_analysis_equals_clean_analysis_minus_the_dropped_chunk() {
    let trace = Benchmark::Compress.generate_scaled(InputSet::A, 0.05);
    let buf = stream_bytes(&trace);

    // Flip a bit in the payload of the second data chunk.
    let spans = frame_spans(&buf).unwrap();
    let victim = spans[1];
    let mut bad = buf.clone();
    bad[victim.offset + victim.len / 2] ^= 0x08;

    let recovered = salvage_records(&bad);
    assert_eq!(
        recovered.len(),
        trace.len() - victim.records as usize,
        "exactly the victim chunk is gone"
    );

    // Reference: the same records with the victim chunk excised.
    let start: usize = spans[..1].iter().map(|s| s.records as usize).sum();
    let mut expect = trace.records().to_vec();
    expect.drain(start..start + victim.records as usize);
    assert_eq!(recovered, expect);

    // The damaged file read through a session under salvage analyses
    // exactly as the excised trace does in memory.
    let salvaged = Session::over(Source::File {
        bytes: &bad,
        policy: RecoveryPolicy::Salvage,
    });
    let a = salvaged.run().unwrap();
    let dropped = salvaged.ingested().unwrap().salvage.chunks_dropped;
    assert_eq!(dropped, 1, "the session reads past the victim chunk");
    let mut excised = Trace::new(trace.meta().name.clone());
    for r in expect {
        excised.push(r).unwrap();
    }
    let reference = Session::new(&excised);
    let b = reference.run().unwrap();
    assert_eq!(a.profile, b.profile);
    assert_eq!(a.working_sets, b.working_sets);
    assert_eq!(a.classification, b.classification);
}

// ---------------------------------------------------------------------
// The real binary: exit codes and salvage warnings.
// ---------------------------------------------------------------------

fn bwsa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bwsa"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bwsa_durability_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn usage_errors_exit_2_and_runtime_errors_exit_1() {
    let out = bwsa().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    let out = bwsa()
        .args(["analyze", "/no/such/file.bwst"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    let out = bwsa()
        .args(["analyze", "x.bwss", "--checkpoint-every", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "a flag analyze has not");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn corrupted_stream_fails_strict_but_salvages_to_the_reduced_report() {
    let trace = Benchmark::Compress.generate_scaled(InputSet::A, 0.05);
    let buf = stream_bytes(&trace);
    let spans = frame_spans(&buf).unwrap();
    let victim = spans[2];
    let mut bad = buf.clone();
    bad[victim.offset + victim.len / 2] ^= 0x10;

    let bad_path = temp_path("corrupt.bwss");
    std::fs::write(&bad_path, &bad).unwrap();

    // Strict read of a damaged stream is a data error: exit 1.
    let out = bwsa().arg("analyze").arg(&bad_path).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Salvage succeeds (exit 0) and warns on stderr.
    let out = bwsa()
        .args(["analyze"])
        .arg(&bad_path)
        .arg("--salvage")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning:"), "no salvage warning: {stderr}");
    assert!(stderr.contains("1 dropped"), "unexpected warning: {stderr}");

    // Its stdout equals analyzing a clean stream of the surviving records.
    let start: usize = spans[..2].iter().map(|s| s.records as usize).sum();
    let mut rest = Trace::new(trace.meta().name.clone());
    for (i, r) in trace.records().iter().enumerate() {
        if !(start..start + victim.records as usize).contains(&i) {
            rest.push(*r).unwrap();
        }
    }
    rest.meta_mut().total_instructions = trace.meta().total_instructions;
    let rest_path = temp_path("rest.bwss");
    std::fs::write(&rest_path, stream_bytes(&rest)).unwrap();
    let clean = bwsa().arg("analyze").arg(&rest_path).output().unwrap();
    assert_eq!(clean.status.code(), Some(0));
    assert!(clean.stderr.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "salvaged analysis differs from the clean reduced analysis"
    );

    std::fs::remove_file(bad_path).ok();
    std::fs::remove_file(rest_path).ok();
}

/// A BWSS3 file with one damaged block recovers, on every ingest path,
/// exactly the analysis of a clean file holding the surviving records.
/// The damaged block holds the only records of one branch and the first
/// records of another that runs again later, so the survivors' branch
/// numbering differs from the file's directory.
#[test]
fn damaged_columnar_block_salvages_to_the_same_answer_on_every_path() {
    const RECORDS: u64 = 150_000;
    const BLOCK: u64 = bwsa::trace::columnar::DEFAULT_BLOCK_RECORDS as u64;
    const VICTIM: u64 = 5;
    let record = |i: u64| {
        let pc = match (i / BLOCK == VICTIM, i % BLOCK) {
            (true, 10) => 0x9000,
            (true, 11) => 0x9004,
            (false, _) if i / BLOCK > VICTIM && i.is_multiple_of(97) => 0x9004,
            // Small working sets that shift every 8192 records.
            _ => 0x4000 + (i / 8192 % 3) * 0x100 + (i % 4) * 4,
        };
        BranchRecord::from_raw(pc, !i.is_multiple_of(5), 3 * i + 1)
    };
    let write = |path: &PathBuf, keep: &dyn Fn(u64) -> bool| {
        let mut bytes = Vec::new();
        let mut w = bwsa::trace::columnar::ColumnarWriter::new(&mut bytes, "salvage3").unwrap();
        for i in (0..RECORDS).filter(|&i| keep(i)) {
            w.push(record(i)).unwrap();
        }
        w.finish(3 * RECORDS + 10).unwrap();
        std::fs::write(path, &bytes).unwrap();
        bytes
    };
    let bad_path = temp_path("damaged.bws3");
    let mut bad = write(&bad_path, &|_| true);
    let offset = bwsa::trace::columnar::ColumnarFile::parse(&bad)
        .unwrap()
        .footer()
        .unwrap()
        .blocks[VICTIM as usize]
        .0;
    bad[offset as usize + 40] ^= 0x40;
    std::fs::write(&bad_path, &bad).unwrap();
    let clean_path = temp_path("survivors.bws3");
    write(&clean_path, &|i| i / BLOCK != VICTIM);

    let run = |args: &[&str]| {
        let out = bwsa().args(args).arg(&bad_path).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?} --salvage: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let streamed = run(&["analyze", "--salvage"]);
    let parallel = run(&["analyze", "--salvage", "--jobs", "2"]);
    run(&["allocate", "--salvage"]);

    let clean = bwsa().arg("analyze").arg(&clean_path).output().unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let clean = String::from_utf8(clean.stdout).unwrap();
    assert_eq!(streamed, clean, "streaming salvage");
    assert_eq!(parallel, clean, "in-memory salvage");

    std::fs::remove_file(bad_path).ok();
    std::fs::remove_file(clean_path).ok();
}

/// A torn file has no trailer or footer total, so every `analyze` path
/// counts instructions up to the last record it recovered: streamed,
/// decoded for two workers, or windowed, a torn BWSS2 or BWSS3 file
/// prints the same bytes.
#[test]
fn torn_traces_print_the_same_analysis_on_every_path() {
    let trace = Benchmark::Li.generate_scaled(InputSet::A, 0.01);
    let stream = stream_bytes(&trace);
    let mut columnar = Vec::new();
    bwsa::trace::Format::Bwss3
        .write(&trace, &mut columnar)
        .unwrap();
    // The stream loses its end frame and nothing else; the columnar file
    // loses its footer and the blocks past two thirds of its length.
    let last = trace.records().last().unwrap().time;
    for (name, bytes, header) in [
        ("torn.bwss", &stream[..stream.len() - 40], Some(last)),
        ("torn.bws3", &columnar[..columnar.len() * 2 / 3], None),
    ] {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let run = |flags: &[&str]| {
            let out = bwsa()
                .arg("analyze")
                .arg(&path)
                .arg("--salvage")
                .args(flags)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(0), "{name} {flags:?}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let kept: Vec<&str> = stdout
                .lines()
                .filter(|line| !line.starts_with("windows: "))
                .collect();
            kept.join("\n")
        };
        let streamed = run(&[]);
        assert!(!streamed.contains("unknown"), "{name}: {streamed}");
        if let Some(time) = header {
            let expected = format!("static sites, {time} instructions");
            assert!(streamed.contains(&expected), "{name}: {streamed}");
        }
        assert_eq!(run(&["--jobs", "2"]), streamed, "{name} --jobs 2");
        assert_eq!(run(&["--window", "4096"]), streamed, "{name} --window");
        std::fs::remove_file(path).ok();
    }
}
