//! The versioned, machine-readable **run report**.
//!
//! A [`RunReport`] is the single artifact an instrumented run emits: which
//! command ran, an echo of the effective configuration, per-stage wall
//! times, every counter the layers recorded, peak RSS where available,
//! and digests of the results (so two reports can be compared for
//! result equality without re-running).
//!
//! The JSON shape is versioned by [`RUN_REPORT_VERSION`] and pinned by a
//! golden schema test (`tests/run_report.rs` at the workspace root): any
//! change to the emitted shape must bump the version and regenerate the
//! fixture, which is the deprecation/compat policy for downstream
//! consumers of `--metrics` files.

use crate::json::Json;
use crate::Metrics;

/// Version of the `RunReport` JSON shape. Bump on any schema change.
///
/// v2 added the always-present `resilience` section (supervision
/// attempts, retries, downgrades, faults). v3 added the always-present
/// `windows` section (online windowed-analysis summary).
pub const RUN_REPORT_VERSION: u64 = 3;

/// One pipeline stage's timing row in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name, matching the pipeline diagram in DESIGN.md §1/§9.
    pub name: String,
    /// Total wall time in nanoseconds.
    pub wall_nanos: u128,
    /// Number of spans aggregated into this row.
    pub count: u64,
}

/// One drop down the supervised degradation ladder, as reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowngradeReport {
    /// The engine that failed (`"parallel"`, `"serial"`).
    pub from: String,
    /// The engine the run fell back to (`"serial"`, `"streaming"`).
    pub to: String,
    /// The fault that forced the drop, rendered for humans.
    pub reason: String,
}

/// The supervision section of a report: what the run survived.
///
/// Always present in the JSON (v2) so consumers can rely on the shape;
/// an unsupervised run reports the trivial summary — one attempt,
/// nothing retried, nothing downgraded.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Whether the run executed under a supervisor.
    pub supervised: bool,
    /// Whole-engine attempts made.
    pub attempts: u64,
    /// Retries granted (whole-engine and per-worker combined).
    pub retries: u64,
    /// Each drop down the degradation ladder, in order.
    pub downgrades: Vec<DowngradeReport>,
    /// Every fault observed, rendered for humans, in order.
    pub faults: Vec<String>,
}

impl Default for ResilienceReport {
    fn default() -> Self {
        ResilienceReport {
            supervised: false,
            attempts: 1,
            retries: 0,
            downgrades: Vec::new(),
            faults: Vec::new(),
        }
    }
}

/// The windowed-analysis section of a report: what an online run emitted.
///
/// Always present in the JSON (v3) so consumers can rely on the shape; a
/// run without `--window` reports the trivial summary — disabled, zero
/// windows, unit `"none"`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowsReport {
    /// Whether the run performed windowed analysis.
    pub enabled: bool,
    /// The reset interval (0 when disabled).
    pub interval: u64,
    /// What the interval counts: `"branches"`, `"instructions"`, or
    /// `"none"` when disabled.
    pub unit: String,
    /// Windows emitted.
    pub count: u64,
    /// Dynamic records the windowed pass consumed.
    pub records: u64,
    /// Times the incremental re-colorer actually ran.
    pub recolors: u64,
    /// Mean re-coloring stability across windows (1.0 with no windows).
    pub mean_stability: f64,
    /// Windows flagged as phase changes.
    pub phase_changes: u64,
}

impl Default for WindowsReport {
    fn default() -> Self {
        WindowsReport {
            enabled: false,
            interval: 0,
            unit: "none".to_owned(),
            count: 0,
            records: 0,
            recolors: 0,
            mean_stability: 1.0,
            phase_changes: 0,
        }
    }
}

/// A complete, self-describing record of one instrumented run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The subcommand or entry point (`"analyze"`, `"simulate"`, ...).
    pub command: String,
    /// Trace name the run consumed.
    pub trace_name: String,
    /// Dynamic branch records processed.
    pub trace_records: u64,
    /// Static branch sites in the trace.
    pub trace_static_branches: u64,
    /// Echo of the effective configuration (threshold, execution mode,
    /// jobs, classification, ...), as an ordered JSON object.
    pub config: Json,
    /// Per-stage wall times, in first-start order.
    pub stages: Vec<StageReport>,
    /// All recorded counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Peak resident set size in bytes, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Named result digests (`crc32:xxxxxxxx`), for cheap equality checks
    /// between runs.
    pub digests: Vec<(String, String)>,
    /// Supervision outcome; the trivial default for unsupervised runs.
    pub resilience: ResilienceReport,
    /// Windowed-analysis outcome; the trivial default for whole-trace
    /// runs.
    pub windows: WindowsReport,
}

impl RunReport {
    /// Starts a report for `command` over a trace, folding in everything
    /// `metrics` recorded. The `process.peak_rss_bytes` counter, when
    /// present, is lifted into [`RunReport::peak_rss_bytes`].
    pub fn new(
        command: impl Into<String>,
        trace_name: impl Into<String>,
        trace_records: u64,
        trace_static_branches: u64,
        config: Json,
        metrics: &Metrics,
    ) -> Self {
        let mut counters: Vec<(String, u64)> = metrics
            .counters
            .iter()
            .filter(|(k, _)| *k != "process.peak_rss_bytes")
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        counters.sort();
        RunReport {
            command: command.into(),
            trace_name: trace_name.into(),
            trace_records,
            trace_static_branches,
            config,
            stages: metrics
                .stages
                .iter()
                .map(|s| StageReport {
                    name: s.name.clone(),
                    wall_nanos: s.wall_nanos,
                    count: s.count,
                })
                .collect(),
            counters,
            peak_rss_bytes: metrics.counters.get("process.peak_rss_bytes").copied(),
            digests: Vec::new(),
            resilience: ResilienceReport::default(),
            windows: WindowsReport::default(),
        }
    }

    /// Appends a named result digest.
    pub fn push_digest(&mut self, name: impl Into<String>, digest: impl Into<String>) {
        self.digests.push((name.into(), digest.into()));
    }

    /// Replaces the supervision section (set by supervised sessions).
    pub fn set_resilience(&mut self, resilience: ResilienceReport) {
        self.resilience = resilience;
    }

    /// Replaces the windowed-analysis section (set by windowed sessions).
    pub fn set_windows(&mut self, windows: WindowsReport) {
        self.windows = windows;
    }

    /// The report as a JSON document (see [`RunReport::to_json_string`]
    /// for the serialised form).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("run_report_version", Json::UInt(RUN_REPORT_VERSION)),
            ("tool", Json::from("bwsa")),
            ("command", Json::from(self.command.clone())),
            (
                "trace",
                Json::object([
                    ("name", Json::from(self.trace_name.clone())),
                    ("records", Json::UInt(self.trace_records)),
                    ("static_branches", Json::UInt(self.trace_static_branches)),
                ]),
            ),
            ("config", self.config.clone()),
            (
                "stages",
                Json::Array(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::object([
                                ("name", Json::from(s.name.clone())),
                                (
                                    "wall_ns",
                                    Json::UInt(s.wall_nanos.min(u64::MAX as u128) as u64),
                                ),
                                ("count", Json::UInt(s.count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "peak_rss_bytes",
                match self.peak_rss_bytes {
                    Some(v) => Json::UInt(v),
                    None => Json::Null,
                },
            ),
            (
                "resilience",
                Json::object([
                    ("supervised", Json::Bool(self.resilience.supervised)),
                    ("attempts", Json::UInt(self.resilience.attempts)),
                    ("retries", Json::UInt(self.resilience.retries)),
                    (
                        "downgrades",
                        Json::Array(
                            self.resilience
                                .downgrades
                                .iter()
                                .map(|d| {
                                    Json::object([
                                        ("from", Json::from(d.from.clone())),
                                        ("to", Json::from(d.to.clone())),
                                        ("reason", Json::from(d.reason.clone())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "faults",
                        Json::Array(
                            self.resilience
                                .faults
                                .iter()
                                .map(|f| Json::from(f.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "windows",
                Json::object([
                    ("enabled", Json::Bool(self.windows.enabled)),
                    ("interval", Json::UInt(self.windows.interval)),
                    ("unit", Json::from(self.windows.unit.clone())),
                    ("count", Json::UInt(self.windows.count)),
                    ("records", Json::UInt(self.windows.records)),
                    ("recolors", Json::UInt(self.windows.recolors)),
                    ("mean_stability", Json::Float(self.windows.mean_stability)),
                    ("phase_changes", Json::UInt(self.windows.phase_changes)),
                ]),
            ),
            (
                "digests",
                Json::Object(
                    self.digests
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON, the exact bytes `--report json` and
    /// `--metrics` emit.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// A human-readable rendering for `--report text`.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report v{RUN_REPORT_VERSION}: {} on trace '{}' ({} records, {} static branches)",
            self.command, self.trace_name, self.trace_records, self.trace_static_branches
        );
        let _ = writeln!(out, "stages:");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<24} {:>12.3} ms  x{}",
                s.name,
                s.wall_nanos as f64 / 1e6,
                s.count
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<32} {v}");
            }
        }
        if let Some(rss) = self.peak_rss_bytes {
            let _ = writeln!(out, "peak rss: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        }
        if self.resilience.supervised {
            let _ = writeln!(
                out,
                "resilience: {} attempts, {} retries, {} faults",
                self.resilience.attempts,
                self.resilience.retries,
                self.resilience.faults.len()
            );
            for d in &self.resilience.downgrades {
                let _ = writeln!(out, "  downgraded {} -> {}: {}", d.from, d.to, d.reason);
            }
        }
        if self.windows.enabled {
            let _ = writeln!(
                out,
                "windows: {} x {} {} ({} recolors, mean stability {:.3}, {} phase changes)",
                self.windows.count,
                self.windows.interval,
                self.windows.unit,
                self.windows.recolors,
                self.windows.mean_stability,
                self.windows.phase_changes
            );
        }
        for (k, v) in &self.digests {
            let _ = writeln!(out, "digest {k}: {v}");
        }
        out
    }
}

/// Flattens a JSON document into its **shape**: sorted `path: type` lines
/// with data-dependent key sets (everything under `config`, `counters`,
/// and `digests`) wildcarded. Two reports with the same shape are
/// schema-compatible; the golden schema test pins this string.
pub fn schema_shape(doc: &Json) -> String {
    let mut lines = Vec::new();
    walk_shape(doc, String::new(), &mut lines);
    lines.sort();
    lines.dedup();
    lines.join("\n") + "\n"
}

fn walk_shape(doc: &Json, path: String, lines: &mut Vec<String>) {
    match doc {
        Json::Object(pairs) => {
            lines.push(format!(
                "{}: object",
                if path.is_empty() { "$" } else { &path }
            ));
            // Config, counter, and digest keys are data (which knobs a
            // subcommand echoes, which counters fired, which digests it
            // emits), not schema — wildcard them.
            let wildcard_values =
                path.ends_with("config") || path.ends_with("counters") || path.ends_with("digests");
            for (k, v) in pairs {
                let child = if path.is_empty() {
                    k.clone()
                } else if wildcard_values {
                    format!("{path}.*")
                } else {
                    format!("{path}.{k}")
                };
                walk_shape(v, child, lines);
            }
        }
        Json::Array(items) => {
            lines.push(format!("{path}: array"));
            for item in items {
                walk_shape(item, format!("{path}[]"), lines);
            }
        }
        other => lines.push(format!("{path}: {}", other.type_name())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn sample_report() -> RunReport {
        let obs = Obs::recording();
        obs.span("interleave").finish();
        obs.span("compile").finish();
        obs.add("core.interleave_pairs", 12);
        obs.record_max("process.peak_rss_bytes", 1024);
        let metrics = obs.snapshot().unwrap();
        let mut report = RunReport::new(
            "analyze",
            "demo",
            1000,
            7,
            Json::object([("threshold", Json::UInt(100))]),
            &metrics,
        );
        report.push_digest("analysis", "crc32:deadbeef");
        report
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = sample_report();
        let text = report.to_json_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("run_report_version").and_then(Json::as_u64),
            Some(RUN_REPORT_VERSION)
        );
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("analyze"));
        assert_eq!(
            doc.get("trace")
                .and_then(|t| t.get("records"))
                .and_then(Json::as_u64),
            Some(1000)
        );
        assert_eq!(doc.get("peak_rss_bytes").and_then(Json::as_u64), Some(1024));
    }

    #[test]
    fn peak_rss_is_lifted_out_of_counters() {
        let report = sample_report();
        assert!(report
            .counters
            .iter()
            .all(|(k, _)| k != "process.peak_rss_bytes"));
        assert_eq!(report.peak_rss_bytes, Some(1024));
    }

    #[test]
    fn shape_wildcards_config_counter_and_digest_keys() {
        let report = sample_report();
        let shape = schema_shape(&report.to_json());
        assert!(shape.contains("counters.*: number"), "{shape}");
        assert!(shape.contains("digests.*: string"), "{shape}");
        assert!(shape.contains("config.*: number"), "{shape}");
        assert!(!shape.contains("core.interleave_pairs"), "{shape}");
        assert!(!shape.contains("config.threshold"), "{shape}");
        assert!(shape.contains("stages[].wall_ns: number"), "{shape}");
    }

    #[test]
    fn shape_is_stable_across_counter_sets() {
        let a = sample_report();
        let obs = Obs::recording();
        obs.span("interleave").finish();
        obs.add("completely.other.counter", 1);
        let mut b = RunReport::new(
            "analyze",
            "other",
            5,
            2,
            Json::object([("threshold", Json::UInt(3))]),
            &obs.snapshot().unwrap(),
        );
        b.push_digest("analysis", "crc32:00000000");
        // peak_rss differs (None vs Some) — normalise for the comparison.
        let mut a = a;
        a.peak_rss_bytes = None;
        assert_eq!(schema_shape(&a.to_json()), schema_shape(&b.to_json()));
    }

    #[test]
    fn text_rendering_mentions_stages_and_counters() {
        let text = sample_report().to_text();
        assert!(text.contains("interleave"));
        assert!(text.contains("core.interleave_pairs"));
        assert!(text.contains("peak rss"));
    }

    #[test]
    fn windows_section_is_always_present_and_roundtrips() {
        let plain = sample_report();
        let doc = Json::parse(&plain.to_json_string()).unwrap();
        let windows = doc.get("windows").expect("always present");
        assert_eq!(windows.get("enabled"), Some(&Json::Bool(false)));
        assert_eq!(windows.get("unit").and_then(Json::as_str), Some("none"));
        assert_eq!(windows.get("count").and_then(Json::as_u64), Some(0));
        assert!(!plain.to_text().contains("windows:"));

        let mut windowed = sample_report();
        windowed.set_windows(WindowsReport {
            enabled: true,
            interval: 4096,
            unit: "branches".into(),
            count: 12,
            records: 49152,
            recolors: 5,
            mean_stability: 0.875,
            phase_changes: 2,
        });
        let doc = Json::parse(&windowed.to_json_string()).unwrap();
        let section = doc.get("windows").unwrap();
        assert_eq!(section.get("interval").and_then(Json::as_u64), Some(4096));
        assert_eq!(section.get("recolors").and_then(Json::as_u64), Some(5));
        // The enabled/disabled sections have the same schema shape.
        assert_eq!(
            schema_shape(&windowed.to_json()),
            schema_shape(&plain.to_json())
        );
        let text = windowed.to_text();
        assert!(text.contains("windows: 12 x 4096 branches"), "{text}");
        assert!(text.contains("mean stability 0.875"), "{text}");
    }

    #[test]
    fn resilience_section_is_always_present_and_roundtrips() {
        let plain = sample_report();
        let doc = Json::parse(&plain.to_json_string()).unwrap();
        let resilience = doc.get("resilience").expect("always present");
        assert_eq!(resilience.get("supervised"), Some(&Json::Bool(false)));
        assert_eq!(
            resilience.get("attempts").and_then(Json::as_u64),
            Some(1),
            "an unsupervised run is one attempt"
        );
        assert!(!plain.to_text().contains("resilience:"));

        let mut degraded = sample_report();
        degraded.set_resilience(ResilienceReport {
            supervised: true,
            attempts: 3,
            retries: 1,
            downgrades: vec![DowngradeReport {
                from: "parallel".into(),
                to: "serial".into(),
                reason: "injected fault at 'core.shard_detect': boom".into(),
            }],
            faults: vec!["injected fault at 'core.shard_detect': boom".into()],
        });
        let doc = Json::parse(&degraded.to_json_string()).unwrap();
        let resilience = doc.get("resilience").unwrap();
        assert_eq!(resilience.get("retries").and_then(Json::as_u64), Some(1));
        let text = degraded.to_text();
        assert!(text.contains("3 attempts, 1 retries"), "{text}");
        assert!(text.contains("downgraded parallel -> serial"), "{text}");
    }
}
