//! Knob-driven workload specifications.
//!
//! A [`WorkloadSpec`] describes a program family: how many phase regions,
//! how many branches per region, the loop trip counts, the bias mix, and
//! the dynamic-branch budget. [`WorkloadSpec::instantiate`] builds the
//! *static structure* (region functions, branch pcs, behaviors) from the
//! structure seed alone, so it is identical for every input set; a
//! [`Workload`] then produces per-input traces by drawing a phase
//! *schedule* from the input's seed and interpreting the program.
//!
//! Input sets model the paper's §5.2 observation that "different areas of
//! the program \[are\] exercised depending on the input data set": each
//! input draws its own region-popularity weights, and a high
//! [`InputParams::concentration`] focuses execution on a few regions.

use crate::behavior::BranchBehavior;
use crate::builder::{BuiltRegion, PlannedBranch, ProgramBuilder, RegionPlan};
use crate::interp::{execute, InterpConfig};
use crate::WorkloadError;
use bwsa_trace::Trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fractions of body branches that are highly biased.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasMix {
    /// Fraction biased towards taken (taken rate ≈ 0.995).
    pub taken: f64,
    /// Fraction biased towards not taken (taken rate ≈ 0.005).
    pub not_taken: f64,
}

impl BiasMix {
    /// Validates that the fractions are sane.
    fn validate(&self) -> Result<(), WorkloadError> {
        if self.taken < 0.0 || self.not_taken < 0.0 || self.taken + self.not_taken > 1.0 {
            return Err(WorkloadError::InvalidSpec {
                reason: format!(
                    "bias fractions must be non-negative and sum to <= 1, got {} + {}",
                    self.taken, self.not_taken
                ),
            });
        }
        Ok(())
    }
}

/// How the phase schedule walks between regions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScheduleModel {
    /// Each visit picks a region independently by popularity weight.
    #[default]
    Iid,
    /// A Markov walk: with probability `self_loop` the next visit stays
    /// in the current region (longer dwell times, fewer working-set
    /// switches); otherwise a region is drawn by popularity weight.
    Markov {
        /// Probability in `[0, 1)` of revisiting the current region.
        self_loop: f64,
    },
}

/// Description of a synthetic benchmark family.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name.
    pub name: String,
    /// Seed fixing the static structure (regions, pcs, behaviors).
    pub structure_seed: u64,
    /// Number of phase regions.
    pub regions: usize,
    /// Inclusive range of body branches per region.
    pub branches_per_region: (usize, usize),
    /// Inclusive range of loop trip counts per region.
    pub trips: (u32, u32),
    /// Bias mix of body branches.
    pub bias: BiasMix,
    /// Among unbiased branches: fraction with short periodic patterns.
    pub pattern_frac: f64,
    /// Among unbiased branches: fraction correlated with global history.
    pub correlated_frac: f64,
    /// Fraction of body branches that act as guards (skip the next
    /// construct when taken).
    pub guard_frac: f64,
    /// Inclusive range of straight-line instructions per block.
    pub block_instrs: (u32, u32),
    /// Dynamic conditional-branch budget per generated trace.
    pub target_dynamic_branches: u64,
    /// Phase-schedule model (defaults to independent draws).
    pub schedule: ScheduleModel,
}

impl WorkloadSpec {
    /// Checks all knobs for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] describing the first bad knob.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let bad = |reason: String| Err(WorkloadError::InvalidSpec { reason });
        if self.regions == 0 {
            return bad("at least one region required".into());
        }
        if self.branches_per_region.0 > self.branches_per_region.1
            || self.branches_per_region.0 == 0
        {
            return bad(format!(
                "branches_per_region range {:?} invalid",
                self.branches_per_region
            ));
        }
        if self.trips.0 > self.trips.1 || self.trips.0 == 0 {
            return bad(format!("trips range {:?} invalid", self.trips));
        }
        if self.block_instrs.0 > self.block_instrs.1 {
            return bad(format!(
                "block_instrs range {:?} invalid",
                self.block_instrs
            ));
        }
        self.bias.validate()?;
        for (label, v) in [
            ("pattern_frac", self.pattern_frac),
            ("correlated_frac", self.correlated_frac),
            ("guard_frac", self.guard_frac),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return bad(format!("{label} {v} outside [0,1]"));
            }
        }
        if self.pattern_frac + self.correlated_frac > 1.0 {
            return bad("pattern_frac + correlated_frac exceed 1".into());
        }
        if self.target_dynamic_branches == 0 {
            return bad("target_dynamic_branches must be positive".into());
        }
        if let ScheduleModel::Markov { self_loop } = self.schedule {
            if !(0.0..1.0).contains(&self_loop) {
                return bad(format!("markov self_loop {self_loop} outside [0,1)"));
            }
        }
        Ok(())
    }

    fn draw_behavior(&self, rng: &mut SmallRng) -> BranchBehavior {
        let roll: f64 = rng.gen();
        if roll < self.bias.taken {
            BranchBehavior::Bernoulli {
                taken_prob: rng.gen_range(0.992..0.9999),
            }
        } else if roll < self.bias.taken + self.bias.not_taken {
            BranchBehavior::Bernoulli {
                taken_prob: rng.gen_range(0.0001..0.008),
            }
        } else {
            let kind: f64 = rng.gen();
            if kind < self.pattern_frac {
                // A short mixed pattern: flip at least once so the branch
                // is genuinely unbiased and locally predictable.
                let len = rng.gen_range(2..=8usize);
                let mut bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
                let first = bits[0];
                if bits.iter().all(|&b| b == first) {
                    let i = rng.gen_range(0..len);
                    bits[i] = !first;
                }
                BranchBehavior::Pattern { bits }
            } else if kind < self.pattern_frac + self.correlated_frac {
                BranchBehavior::Correlated {
                    agree_prob: rng.gen_range(0.7..0.95),
                }
            } else {
                BranchBehavior::Bernoulli {
                    taken_prob: rng.gen_range(0.1..0.9),
                }
            }
        }
    }

    /// Builds the static structure of this benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidSpec`] if [`WorkloadSpec::validate`]
    /// fails.
    pub fn instantiate(&self) -> Result<Workload, WorkloadError> {
        self.validate()?;
        let mut rng = SmallRng::seed_from_u64(self.structure_seed);
        let mut builder = ProgramBuilder::new();
        let mut regions = Vec::with_capacity(self.regions);
        let mut per_visit = Vec::with_capacity(self.regions);
        for i in 0..self.regions {
            let k = rng.gen_range(self.branches_per_region.0..=self.branches_per_region.1);
            let trips = rng.gen_range(self.trips.0..=self.trips.1);
            let branches = (0..k)
                .map(|_| PlannedBranch {
                    behavior: self.draw_behavior(&mut rng),
                    guard: rng.gen_bool(self.guard_frac),
                })
                .collect();
            let plan = RegionPlan {
                name: format!("region_{i}"),
                loop_trips: trips,
                branches,
                block_instrs: self.block_instrs,
            };
            let built = builder.add_region(&plan, &mut rng);
            // Rough expected dynamic branches per visit: the loop branch
            // fires `trips` times and each body branch close to `trips - 1`
            // times (guards skip some; 0.9 is a serviceable fudge).
            let est = f64::from(trips) + f64::from(trips - 1) * k as f64 * 0.9;
            per_visit.push(est.max(1.0));
            regions.push(built);
        }
        Ok(Workload {
            spec: self.clone(),
            builder,
            regions,
            per_visit,
        })
    }
}

/// Parameters identifying one profiling/evaluation input.
#[derive(Debug, Clone, PartialEq)]
pub struct InputParams {
    /// Input-set label appended to the trace name (e.g. `"ref.in"`).
    pub name: String,
    /// Seed for schedule and dynamics.
    pub seed: u64,
    /// Region-popularity skew. `0.0` visits regions uniformly; larger
    /// values concentrate execution on fewer regions ("different areas of
    /// the program exercised", §5.2). Typical values: 0.5–3.0.
    pub concentration: f64,
}

impl InputParams {
    /// Uniform input with a seed.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        InputParams {
            name: name.into(),
            seed,
            concentration: 0.8,
        }
    }
}

/// An instantiated benchmark: fixed static structure, ready to generate
/// per-input traces.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    builder: ProgramBuilder,
    regions: Vec<BuiltRegion>,
    per_visit: Vec<f64>,
}

impl Workload {
    /// The spec this workload was instantiated from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Branch pcs per region (loop branch first), mirroring the structure.
    pub fn region_pcs(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.regions.iter().map(|r| r.branch_pcs.as_slice())
    }

    /// Total static conditional branches in the program.
    pub fn static_branch_count(&self) -> usize {
        self.builder.program().static_branch_count()
    }

    /// Generates the dynamic branch trace for one input.
    ///
    /// The trace is deterministic in `(spec, input)` and capped at the
    /// spec's `target_dynamic_branches`.
    pub fn trace(&self, input: &InputParams) -> Trace {
        self.trace_scaled(input, 1.0)
    }

    /// Like [`Workload::trace`] but with the dynamic-branch budget scaled
    /// by `scale` (useful for fast tests: `0.01` runs 1% of the budget).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn trace_scaled(&self, input: &InputParams, scale: f64) -> Trace {
        assert!(scale > 0.0, "scale must be positive");
        let budget = ((self.spec.target_dynamic_branches as f64 * scale).ceil() as u64).max(1);
        let mut rng = SmallRng::seed_from_u64(input.seed ^ 0x5DEE_CE66_D1CE_5EED);

        // Region popularity: exponential weights raised to the
        // concentration power, then normalised — a cheap Dirichlet-like
        // skew that a different seed reshuffles completely.
        let weights: Vec<f64> = (0..self.regions.len())
            .map(|_| {
                let u: f64 = rng.gen_range(1e-6..1.0);
                (-u.ln()).powf(1.0 + input.concentration.max(0.0))
            })
            .collect();
        let total_w: f64 = weights.iter().sum();

        // Schedule enough visits to exceed the budget ~2×; the interpreter
        // stops exactly at the budget.
        let mean_visit_cost: f64 = self
            .per_visit
            .iter()
            .zip(&weights)
            .map(|(c, w)| c * (w / total_w))
            .sum();
        let visits = ((budget as f64 / mean_visit_cost) * 2.0).ceil() as usize + 4;

        let draw_weighted = |rng: &mut SmallRng| {
            let mut pick: f64 = rng.gen_range(0.0..total_w);
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= *w;
                idx = i;
            }
            idx
        };
        let mut schedule = Vec::with_capacity(visits);
        let mut current: Option<usize> = None;
        for _ in 0..visits {
            let idx = match (self.spec.schedule, current) {
                (ScheduleModel::Markov { self_loop }, Some(cur))
                    if rng.gen_bool(self_loop.clamp(0.0, 1.0)) =>
                {
                    cur
                }
                _ => draw_weighted(&mut rng),
            };
            current = Some(idx);
            schedule.push(self.regions[idx].func);
        }

        let program = self
            .builder
            .clone()
            .finish_with_schedule(&schedule, &mut rng);
        let config = InterpConfig {
            max_dynamic_branches: budget,
            seed: input
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
            ..InterpConfig::default()
        };
        let name = format!("{}:{}", self.spec.name, input.name);
        execute(&program, &name, &config).expect("instantiated programs are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "toy".into(),
            structure_seed: 11,
            regions: 4,
            branches_per_region: (3, 6),
            trips: (5, 15),
            bias: BiasMix {
                taken: 0.3,
                not_taken: 0.2,
            },
            pattern_frac: 0.3,
            correlated_frac: 0.1,
            guard_frac: 0.2,
            block_instrs: (1, 6),
            target_dynamic_branches: 20_000,
            schedule: ScheduleModel::default(),
        }
    }

    #[test]
    fn spec_validates() {
        assert!(small_spec().validate().is_ok());
    }

    #[test]
    fn invalid_specs_are_caught() {
        let mut s = small_spec();
        s.regions = 0;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.branches_per_region = (5, 2);
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.bias = BiasMix {
            taken: 0.8,
            not_taken: 0.5,
        };
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.pattern_frac = 0.7;
        s.correlated_frac = 0.7;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.target_dynamic_branches = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn trace_hits_the_budget() {
        let w = small_spec().instantiate().unwrap();
        let t = w.trace(&InputParams::new("a", 1));
        assert_eq!(t.len(), 20_000);
    }

    #[test]
    fn scaled_trace_is_smaller() {
        let w = small_spec().instantiate().unwrap();
        let t = w.trace_scaled(&InputParams::new("a", 1), 0.1);
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn structure_is_shared_across_inputs() {
        let w = small_spec().instantiate().unwrap();
        let a = w.trace_scaled(&InputParams::new("a", 1), 0.1);
        let b = w.trace_scaled(&InputParams::new("b", 999), 0.1);
        // Every pc in trace B exists in the static structure of A's program:
        let pcs: std::collections::HashSet<u64> = w.region_pcs().flatten().copied().collect();
        for rec in a.records().iter().chain(b.records()) {
            assert!(pcs.contains(&rec.pc.addr()));
        }
    }

    #[test]
    fn different_inputs_give_different_traces() {
        let w = small_spec().instantiate().unwrap();
        let a = w.trace_scaled(&InputParams::new("a", 1), 0.05);
        let b = w.trace_scaled(&InputParams::new("b", 2), 0.05);
        assert_ne!(a.records(), b.records());
    }

    #[test]
    fn same_input_is_deterministic() {
        let w = small_spec().instantiate().unwrap();
        let a = w.trace_scaled(&InputParams::new("a", 7), 0.05);
        let b = w.trace_scaled(&InputParams::new("a", 7), 0.05);
        assert_eq!(a, b);
    }

    #[test]
    fn concentration_skews_region_popularity() {
        let w = small_spec().instantiate().unwrap();
        let uniform = InputParams {
            name: "u".into(),
            seed: 3,
            concentration: 0.0,
        };
        let skewed = InputParams {
            name: "s".into(),
            seed: 3,
            concentration: 6.0,
        };
        let count_regions = |t: &bwsa_trace::Trace| {
            let mut firsts = std::collections::HashSet::new();
            for (i, pcs) in w.region_pcs().enumerate() {
                let set: std::collections::HashSet<u64> = pcs.iter().copied().collect();
                if t.records().iter().any(|r| set.contains(&r.pc.addr())) {
                    firsts.insert(i);
                }
            }
            firsts.len()
        };
        let tu = w.trace_scaled(&uniform, 0.25);
        let ts = w.trace_scaled(&skewed, 0.25);
        assert!(
            count_regions(&ts) <= count_regions(&tu),
            "high concentration should not broaden coverage"
        );
    }

    #[test]
    fn static_branch_count_matches_regions() {
        let w = small_spec().instantiate().unwrap();
        let from_regions: usize = w.region_pcs().map(<[u64]>::len).sum();
        assert_eq!(w.static_branch_count(), from_regions);
    }

    #[test]
    fn markov_schedule_increases_dwell_time() {
        // Count region switches in the trace by watching which region's
        // pcs appear; the Markov walk should switch much less often.
        let region_of = |w: &Workload, pc: u64| -> usize {
            w.region_pcs()
                .enumerate()
                .find(|(_, pcs)| pcs.contains(&pc))
                .map(|(i, _)| i)
                .expect("pc belongs to a region")
        };
        let switches = |spec: &WorkloadSpec| -> usize {
            let w = spec.instantiate().unwrap();
            let t = w.trace_scaled(&InputParams::new("m", 9), 0.5);
            let mut prev = None;
            let mut n = 0;
            for rec in t.records() {
                let r = region_of(&w, rec.pc.addr());
                if prev.is_some() && prev != Some(r) {
                    n += 1;
                }
                prev = Some(r);
            }
            n
        };
        let iid = small_spec();
        let mut markov = small_spec();
        markov.schedule = ScheduleModel::Markov { self_loop: 0.9 };
        assert!(
            switches(&markov) * 2 < switches(&iid),
            "markov {} vs iid {}",
            switches(&markov),
            switches(&iid)
        );
    }

    #[test]
    fn markov_self_loop_must_be_a_probability() {
        let mut s = small_spec();
        s.schedule = ScheduleModel::Markov { self_loop: 1.0 };
        assert!(s.validate().is_err());
        s.schedule = ScheduleModel::Markov { self_loop: 0.99 };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn behaviors_cover_bias_classes() {
        // With enough draws, the structure should contain biased-taken,
        // biased-not-taken, and mixed branches.
        let mut s = small_spec();
        s.regions = 10;
        s.branches_per_region = (20, 20);
        let w = s.instantiate().unwrap();
        let t = w.trace(&InputParams::new("a", 5));
        let prof = bwsa_trace::profile::BranchProfile::from_trace(&t);
        let mut high = 0;
        let mut low = 0;
        let mut mid = 0;
        for (_, stats) in prof.iter() {
            if stats.executions < 100 {
                continue;
            }
            let r = stats.taken_rate();
            if r >= 0.99 {
                high += 1;
            } else if r <= 0.01 {
                low += 1;
            } else {
                mid += 1;
            }
        }
        assert!(
            high > 0 && low > 0 && mid > 0,
            "high={high} low={low} mid={mid}"
        );
    }
}
