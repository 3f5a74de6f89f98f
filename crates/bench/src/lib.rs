//! Experiment harness shared by the per-table/per-figure binaries, the
//! ablation binaries, and the integration tests.
//!
//! Every binary accepts:
//!
//! * `--scale <f64>` — dynamic-branch budget multiplier (default 1.0).
//!   The conflict threshold scales with it so thresholding behaves the
//!   same at reduced scale (edge weights are proportional to trace
//!   length).
//! * `--quick` — shorthand for `--scale 0.05`.
//! * `--bench <name>` — restrict to one benchmark (repeatable).
//! * `--jobs <n>` — worker threads for the benchmark fan-out (default:
//!   all hardware threads). Results are reported in input order for any
//!   value.
//!
//! The harness runs benchmarks in parallel with scoped threads and prints
//! fixed-width text tables whose columns mirror the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod text;

use bwsa_workload::suite::Benchmark;

/// Command-line configuration shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Trace-budget multiplier.
    pub scale: f64,
    /// Benchmarks to run (empty = the binary's default set).
    pub benchmarks: Vec<Benchmark>,
    /// Worker threads for the run fan-out (`None` = hardware threads).
    pub jobs: Option<usize>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: 1.0,
            benchmarks: Vec::new(),
            jobs: None,
        }
    }
}

impl Cli {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("usage: <binary> [--scale F] [--quick] [--bench NAME]... [--jobs N]");
                std::process::exit(2);
            }
        }
    }

    /// Parses from an explicit argument iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    cli.scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                    if cli.scale <= 0.0 {
                        return Err("scale must be positive".into());
                    }
                }
                "--quick" => cli.scale = 0.05,
                "--bench" => {
                    let v = it.next().ok_or("--bench needs a name")?;
                    let b = Benchmark::ALL
                        .iter()
                        .find(|b| b.name() == v)
                        .ok_or(format!("unknown benchmark {v:?}"))?;
                    cli.benchmarks.push(*b);
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be positive".into());
                    }
                    cli.jobs = Some(n);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }

    /// The benchmark list to run: the explicit `--bench` set, or `default`.
    pub fn benchmarks_or(&self, default: &[Benchmark]) -> Vec<Benchmark> {
        if self.benchmarks.is_empty() {
            default.to_vec()
        } else {
            self.benchmarks.clone()
        }
    }

    /// The conflict threshold adjusted for the scale: the paper's 100 at
    /// full scale, proportionally smaller (floor 2) at reduced scale.
    pub fn threshold(&self) -> u64 {
        ((100.0 * self.scale).round() as u64).max(2)
    }
}

/// Runs `f` over the items in parallel (scoped threads, the work split
/// across the machine's parallelism) and returns the results in input
/// order.
pub fn run_parallel<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Copy + Send + Sync,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    run_parallel_jobs(items, None, f)
}

/// [`run_parallel`] with an explicit worker count; `None` uses every
/// hardware thread. Results are in input order for any worker count.
pub fn run_parallel_jobs<I, T, F>(items: &[I], jobs: Option<usize>, f: F) -> Vec<T>
where
    I: Copy + Send + Sync,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    bwsa_core::parallel_map(items.to_vec(), jobs, |_, item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.scale, 1.0);
        assert_eq!(cli.threshold(), 100);
        assert!(cli.benchmarks.is_empty());
    }

    #[test]
    fn quick_sets_scale() {
        let cli = parse(&["--quick"]).unwrap();
        assert_eq!(cli.scale, 0.05);
        assert_eq!(cli.threshold(), 5);
    }

    #[test]
    fn threshold_has_a_floor() {
        let cli = parse(&["--scale", "0.001"]).unwrap();
        assert_eq!(cli.threshold(), 2);
    }

    #[test]
    fn bench_filter_parses() {
        let cli = parse(&["--bench", "gcc", "--bench", "perl"]).unwrap();
        assert_eq!(cli.benchmarks, vec![Benchmark::Gcc, Benchmark::Perl]);
        assert_eq!(
            cli.benchmarks_or(&[Benchmark::Tex]),
            vec![Benchmark::Gcc, Benchmark::Perl]
        );
        let empty = parse(&[]).unwrap();
        assert_eq!(empty.benchmarks_or(&[Benchmark::Tex]), vec![Benchmark::Tex]);
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--bench", "nope"]).is_err());
        assert!(parse(&["--wat"]).is_err());
    }

    #[test]
    fn run_parallel_preserves_order() {
        let out = run_parallel(&Benchmark::ALL, |b| b.name().to_owned());
        let expect: Vec<String> = Benchmark::ALL.iter().map(|b| b.name().to_owned()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&["--jobs", "3"]).unwrap().jobs, Some(3));
        assert_eq!(parse(&[]).unwrap().jobs, None);
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
    }

    #[test]
    fn explicit_job_counts_preserve_order_too() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * 3).collect();
        for jobs in [1, 2, 5, 64] {
            let out = run_parallel_jobs(&items, Some(jobs), |v| v * 3);
            assert_eq!(out, expect, "jobs {jobs}");
        }
    }
}
