//! The exact outputs a correct `bwsa` prints, rebuilt from library
//! results with the same format strings the commands use.

use bwsa::core::allocation::{Allocation, RequiredSize};
use bwsa::core::pipeline::{Analysis, AnalysisPipeline};
use bwsa::core::WindowedResult;
use bwsa::corpus::EntryRecord;
use bwsa::obs::json::Json;
use bwsa::trace::columnar::ColumnarFile;
use bwsa::trace::stats::trace_stats;
use bwsa::trace::stream::SalvageReport;
use bwsa::trace::Trace;
use std::collections::BTreeMap;

/// Expected command outputs, keyed `<command>:<trace key>`, and expected
/// corpus entries, keyed `<orig|alt>:<manifest key>`.
#[derive(Debug, Default)]
pub struct Expected {
    pub stdout: BTreeMap<String, String>,
    pub corpus: BTreeMap<String, EntryRecord>,
}

impl Expected {
    pub fn to_json(&self) -> Json {
        let entry = |e: &EntryRecord| {
            Json::object([
                ("records", Json::UInt(e.records)),
                ("total_sets", Json::UInt(e.total_sets)),
                ("max_set", Json::UInt(e.max_set)),
                ("required_size", Json::UInt(e.required_size)),
            ])
        };
        Json::object([
            (
                "stdout",
                Json::Object(
                    self.stdout
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                        .collect(),
                ),
            ),
            (
                "corpus",
                Json::Object(self.corpus.iter().map(|(k, e)| (k.clone(), entry(e))).collect()),
            ),
        ])
    }
}

/// The corpus class tag of an entry: its benchmark's name.
pub fn class_of(key: &str) -> &str {
    key.split('_').next().unwrap_or(key)
}

/// The lines every `analyze` path ends with.
pub fn analysis_tail(analysis: &Analysis, pipeline: &AnalysisPipeline) -> String {
    let r = &analysis.working_sets.report;
    let (t, n, m) = analysis.classification.counts();
    format!(
        "\nconflict graph: {} edges kept of {} raw ({} threshold)\n\
         working sets: {} sets | avg static {:.1} | avg dynamic {:.1} | max {}\n\
         classification: {t} biased-taken, {n} biased-not-taken, {m} mixed\n",
        analysis.conflict.graph.edge_count(),
        analysis.conflict.raw_edge_count,
        pipeline.conflict.threshold,
        r.total_sets,
        r.avg_static_size,
        r.avg_dynamic_size,
        r.max_size
    )
}

/// `bwsa analyze <trace.bws3>` (the streaming columnar path).
pub fn analyze_stdout(
    bytes: &[u8],
    analysis: &Analysis,
    report: &SalvageReport,
    pipeline: &AnalysisPipeline,
) -> Result<String, String> {
    let file = ColumnarFile::parse(bytes).map_err(|e| e.to_string())?;
    let instructions = file.footer().map(|f| f.total_instructions);
    let n = report.records_recovered;
    let taken: u64 = analysis.profile.iter().map(|(_, s)| s.taken).sum();
    let density = match instructions {
        Some(t) if t > 0 => n as f64 / t as f64,
        _ => 0.0,
    };
    let taken_rate = if n > 0 { taken as f64 / n as f64 } else { 0.0 };
    Ok(format!(
        "trace '{}': {} dynamic branches over {} static sites, {} instructions\n\
         density {:.3} branches/instr, dynamic taken rate {:.1}%\n{}",
        file.name(),
        n,
        analysis.profile.iter().count(),
        instructions.map_or_else(|| "unknown".to_owned(), |t| t.to_string()),
        density,
        taken_rate * 100.0,
        analysis_tail(analysis, pipeline)
    ))
}

/// `bwsa analyze <trace> --window N --jobs 2` (the in-memory path).
pub fn windowed_stdout(
    trace: &Trace,
    analysis: &Analysis,
    windowed: &WindowedResult,
    pipeline: &AnalysisPipeline,
) -> String {
    let s = trace_stats(trace);
    format!(
        "{trace}\ndensity {:.3} branches/instr, dynamic taken rate {:.1}%\n{}\
         windows: {} x {} {} | {} recolors | mean stability {:.3} | {} phase changes\n",
        s.branch_density,
        s.dynamic_taken_rate * 100.0,
        analysis_tail(analysis, pipeline),
        windowed.windows.len(),
        windowed.config.interval(),
        windowed.config.unit().label(),
        windowed.recolors,
        windowed.mean_stability,
        windowed.phase_changes
    )
}

/// The allocation and required-size lines of `bwsa allocate --classify`.
pub fn allocate_head(allocation: &Allocation, required: &RequiredSize) -> String {
    let occ = allocation.occupancy();
    format!(
        "allocation into 1024 entries (classified): conflict mass {}, {} conflicting pairs\n\
         occupancy: {} entries used, max {} branches/entry, mean {:.2}\n\
         required size to beat conventional 1024-entry BHT: {} (target mass {}, achieved {})\n",
        allocation.conflict_mass,
        allocation.conflicting_pairs,
        occ.used_entries,
        occ.max_per_entry,
        occ.mean_per_used_entry,
        required.size,
        required.target_mass,
        required.achieved_mass
    )
}

/// The whole `bwsa allocate --classify` output, given the misprediction
/// rates of the allocated, conventional and interference-free PAg.
pub fn allocate_stdout(head: String, rates: [f64; 3]) -> String {
    format!(
        "{head}\nmisprediction: allocated {:.2}% | conventional-1024 {:.2}% | interference-free {:.2}%\n",
        rates[0] * 100.0,
        rates[1] * 100.0,
        rates[2] * 100.0
    )
}

/// The daemon's allocate answer for an allocation.
pub fn allocation_json(allocation: &Allocation) -> Json {
    let occupancy = allocation.occupancy();
    Json::object([
        ("table_size", Json::UInt(allocation.table_size() as u64)),
        ("conflict_mass", Json::UInt(allocation.conflict_mass)),
        (
            "conflicting_pairs",
            Json::UInt(allocation.conflicting_pairs as u64),
        ),
        (
            "occupancy",
            Json::object([
                ("used_entries", Json::UInt(occupancy.used_entries as u64)),
                ("max_per_entry", Json::UInt(occupancy.max_per_entry as u64)),
                (
                    "mean_per_used_entry",
                    Json::Float(occupancy.mean_per_used_entry),
                ),
            ]),
        ),
    ])
}
