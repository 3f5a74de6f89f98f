//! Serialisable rows mirroring the paper's tables and figures.
//!
//! These types are shared by the `bwsa-bench` harness, the integration
//! tests, and EXPERIMENTS.md generation so that every consumer agrees on
//! what a "row" of each experiment contains.

/// One row of Table 1: benchmark, input, and coverage of the analysed
/// branch subset.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Input set label.
    pub input_set: String,
    /// Total dynamic conditional branches executed.
    pub total_dynamic: u64,
    /// Dynamic branches whose static branch survived the frequency filter.
    pub analyzed_dynamic: u64,
    /// `analyzed / total`, as a percentage.
    pub analyzed_percent: f64,
}

/// One row of Table 2: working-set counts and sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Static conditional branches analysed.
    pub static_branches: usize,
    /// Total number of working sets.
    pub total_sets: usize,
    /// Mean working-set size over sets.
    pub avg_static_size: f64,
    /// Execution-weighted mean working-set size.
    pub avg_dynamic_size: f64,
    /// Largest working set.
    pub max_size: usize,
}

/// One row of Table 3 or Table 4: the required-BHT-size search result.
#[derive(Debug, Clone, PartialEq)]
pub struct RequiredSizeRow {
    /// Benchmark label (`perl_a`, `ss_b`, ...).
    pub benchmark: String,
    /// Whether branch classification was applied (Table 4) or not
    /// (Table 3).
    pub classified: bool,
    /// Conventional baseline table size (1024 in the paper).
    pub baseline_size: usize,
    /// The baseline's conflict mass (the bar to clear).
    pub target_mass: u64,
    /// Smallest allocation table size meeting the bar.
    pub required_size: usize,
    /// The allocation's conflict mass at that size.
    pub achieved_mass: u64,
}

/// One bar group of Figure 3 or Figure 4: misprediction rates of every
/// scheme on one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Benchmark label.
    pub benchmark: String,
    /// Whether allocation used classification (Figure 4) or not (Figure 3).
    pub classified: bool,
    /// Misprediction rate of allocation with a 16-entry BHT.
    pub alloc_16: f64,
    /// Misprediction rate of allocation with a 128-entry BHT.
    pub alloc_128: f64,
    /// Misprediction rate of allocation with a 1024-entry BHT.
    pub alloc_1024: f64,
    /// Misprediction rate of the conventional PAg with a 1024-entry BHT.
    pub pag_1024: f64,
    /// Misprediction rate of the interference-free PAg.
    pub interference_free: f64,
}

impl FigureRow {
    /// Relative improvement of alloc-1024 over the conventional PAg-1024,
    /// as a fraction of the conventional misprediction rate (the paper's
    /// headline "improved by 16%" metric).
    pub fn alloc_1024_improvement(&self) -> f64 {
        if self.pag_1024 == 0.0 {
            0.0
        } else {
            (self.pag_1024 - self.alloc_1024) / self.pag_1024
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_is_relative() {
        let row = FigureRow {
            benchmark: "x".into(),
            classified: true,
            alloc_16: 0.3,
            alloc_128: 0.12,
            alloc_1024: 0.084,
            pag_1024: 0.1,
            interference_free: 0.08,
        };
        assert!((row.alloc_1024_improvement() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn improvement_handles_zero_baseline() {
        let row = FigureRow {
            benchmark: "x".into(),
            classified: false,
            alloc_16: 0.0,
            alloc_128: 0.0,
            alloc_1024: 0.0,
            pag_1024: 0.0,
            interference_free: 0.0,
        };
        assert_eq!(row.alloc_1024_improvement(), 0.0);
    }

    #[test]
    fn rows_are_constructible_and_debuggable() {
        let row = Table2Row {
            benchmark: "gcc".into(),
            static_branches: 16000,
            total_sets: 51888,
            avg_static_size: 365.0,
            avg_dynamic_size: 336.0,
            max_size: 900,
        };
        let dbg = format!("{row:?}");
        assert!(dbg.contains("51888"));
    }
}
