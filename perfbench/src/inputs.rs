//! Seeded input generation for the four workloads.
//!
//! Every trace is the suite benchmark's program run on its own input (so
//! a "gcc-shaped" trace keeps gcc's regions, branch counts and schedule),
//! with its branch addresses drawn from a seed derived from the workload
//! seed and the trace's key. `bwsa` only ever sees the files written here.

use bwsa::trace::stream::StreamWriter;
use bwsa::trace::{BranchRecord, Pc, Trace};
use bwsa::workload::suite::{Benchmark, InputSet};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Lowest address a moved branch gets.
const PC_BASE: u64 = 0x40_0000;

/// The benchmarks a `corpus-small` batch draws from: the suite's
/// small-working-set programs, whose edge tables fit in cache.
const CORPUS_BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Compress,
    Benchmark::Pgp,
    Benchmark::Ijpeg,
    Benchmark::Perl,
    Benchmark::M88ksim,
    Benchmark::Tex,
];

/// Copies of each (benchmark, input set) pair in the corpus.
const CORPUS_COPIES: usize = 2;

/// One entry in four of the corpus is regenerated before the incremental
/// pass.
const CORPUS_CHANGED_EVERY: usize = 4;

/// The payload traces of the daemon mix.
const DAEMON_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Compress,
    Benchmark::Pgp,
    Benchmark::Perl,
    Benchmark::Ijpeg,
];

/// One generated trace file.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Stable name of the trace within its workload.
    pub key: String,
    /// The BWSS2 stream the benchmark wrote.
    pub bwss: PathBuf,
    /// For corpus entries that the incremental pass regenerates: the
    /// regenerated version, written beside the original.
    pub alternate: Option<PathBuf>,
}

/// SplitMix64 finaliser: a well-mixed 64-bit value from any input.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-trace seed derived from the workload seed and a trace key.
pub fn derive(seed: u64, key: &str) -> u64 {
    key.bytes()
        .fold(mix(seed), |acc, b| mix(acc ^ u64::from(b)))
}

/// `bench`'s program run on its suite input `set`, with every static
/// branch moved to a seeded address.
///
/// The seed does not re-draw the input itself: a re-drawn input changes
/// which regions run hot, and with them the analysis work, by up to 2x,
/// so runs on different seeds would measure different amounts of work.
/// Moving the branches keeps the work while every address-keyed structure
/// (the pc interner, pc-indexed BHTs, content digests) sees new keys.
pub fn generate(bench: Benchmark, set: InputSet, seed: u64, scale: f64) -> Trace {
    let base = bench.workload().trace_scaled(&bench.input(set), scale);
    let slots = 4 * base.static_branch_count() as u64;
    let mut moved: HashMap<u64, u64> = HashMap::new();
    let mut taken_slots = HashSet::new();
    let mut draw = mix(seed);
    let mut trace = Trace::new(base.meta().name.clone());
    for r in base.records() {
        let pc = *moved.entry(r.pc.addr()).or_insert_with(|| loop {
            draw = mix(draw);
            let slot = draw % slots;
            if taken_slots.insert(slot) {
                break PC_BASE + 4 * slot;
            }
        });
        trace
            .push(BranchRecord::new(Pc::new(pc), r.direction, r.time))
            .expect("records keep their order");
    }
    trace.meta_mut().total_instructions = base.meta().total_instructions;
    trace
}

/// Writes `trace` as a checksummed BWSS2 stream.
pub fn write_bwss(trace: &Trace, path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(fs::File::create(path)?);
    let mut writer = StreamWriter::new(&mut out, &trace.meta().name).map_err(io_err)?;
    for record in trace.records() {
        writer.push(*record).map_err(io_err)?;
    }
    writer
        .finish(trace.meta().total_instructions)
        .map_err(io_err)?;
    out.flush()
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// The trace set of one workload, before any file is written.
struct Planned {
    key: String,
    bench: Benchmark,
    set: InputSet,
    scale: f64,
    regenerated: bool,
}

fn plan(workload: &str) -> Result<Vec<Planned>, String> {
    let one = |key: &str, bench, scale| Planned {
        key: key.to_owned(),
        bench,
        set: InputSet::A,
        scale,
        regenerated: false,
    };
    Ok(match workload {
        // gcc's structure at 1/20 of its budget: 125k records, working
        // sets in the hundreds, an edge table of ~200k edges.
        "paper-large" => vec![one("gcc", Benchmark::Gcc, 0.05)],
        // li's structure at 1/5 of its budget: 160k records, 40 windows
        // of 4096 branches.
        "windowed" => vec![one("li", Benchmark::Li, 0.2)],
        "corpus-small" => {
            let mut entries = Vec::new();
            for bench in CORPUS_BENCHMARKS {
                for set in [InputSet::A, InputSet::B] {
                    for copy in 0..CORPUS_COPIES {
                        let index = entries.len();
                        entries.push(Planned {
                            key: format!("{}_{}_{copy}", bench.name(), set.suffix()),
                            bench,
                            set,
                            scale: 0.02,
                            regenerated: index % CORPUS_CHANGED_EVERY == CORPUS_CHANGED_EVERY - 1,
                        });
                    }
                }
            }
            entries
        }
        "daemon-mix" => DAEMON_BENCHMARKS
            .iter()
            .map(|&bench| one(bench.name(), bench, 0.02))
            .collect(),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The trace keys of `workload`, in generation order.
pub fn keys(workload: &str) -> Result<Vec<String>, String> {
    Ok(plan(workload)?.into_iter().map(|p| p.key).collect())
}

/// The keys of the corpus entries the incremental pass regenerates.
pub fn regenerated_keys(workload: &str) -> Result<Vec<String>, String> {
    Ok(plan(workload)?
        .into_iter()
        .filter(|p| p.regenerated)
        .map(|p| p.key)
        .collect())
}

/// Generates every input of `workload` for `seed` into `dir` as BWSS2
/// streams, plus a corpus manifest naming their BWSS3 conversions. Corpus
/// entries the incremental pass regenerates also get their regenerated
/// version (a different derived seed) beside them.
pub fn generate_workload(workload: &str, seed: u64, dir: &Path) -> Result<Vec<TraceFile>, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let planned = plan(workload)?;
    let mut manifest = String::from("name = \"bench\"\n\n[defaults]\nthreshold = 100\nbaseline = 1024\n");
    for p in &planned {
        manifest.push_str(&format!(
            "\n[[trace]]\npath = \"{}.bws3\"\nclass = \"{}\"\n",
            p.key,
            p.bench.name()
        ));
    }
    let manifest_path = dir.join("corpus.toml");
    fs::write(&manifest_path, manifest)
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
    let mut files = Vec::new();
    for p in planned {
        let trace = generate(p.bench, p.set, derive(seed, &p.key), p.scale);
        let bwss = dir.join(format!("{}.bwss", p.key));
        write_bwss(&trace, &bwss).map_err(|e| format!("cannot write {}: {e}", bwss.display()))?;
        let alternate = if p.regenerated {
            let alt = generate(p.bench, p.set, derive(seed ^ 0xA17E, &p.key), p.scale);
            let path = dir.join(format!("{}.alt.bwss", p.key));
            write_bwss(&alt, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Some(path)
        } else {
            None
        };
        files.push(TraceFile {
            key: p.key,
            bwss,
            alternate,
        });
    }
    Ok(files)
}
