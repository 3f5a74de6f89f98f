//! Deterministic byte-corruption fault injection.
//!
//! [`FaultyReader`] wraps any [`Read`] source and serves its bytes with a
//! [`FaultPlan`] applied: bit flips, truncation, and in-place chunk
//! duplication. Plans are either hand-built for targeted tests or derived
//! from a seed ([`FaultPlan::random`], driven by [`crate::DetRng`]) so
//! property tests explore many corruption shapes reproducibly.
//!
//! Faults are positioned by a fraction of the *mutable region* — the
//! stream past a caller-chosen protected prefix (normally a file header)
//! — so the same plan scales to streams of any length and never destroys
//! the header that salvage readers need to even start.
//!
//! This is the one fault model for the workspace: the trace-salvage
//! property tests and the chaos suite both draw corruption from it.
//!
//! # Example
//!
//! ```
//! use bwsa_resilience::fault::{Fault, FaultPlan};
//!
//! let mut data: Vec<u8> = (0u8..=255).collect();
//! let plan = FaultPlan::new().with(Fault::BitFlip { position: 0.5, bit: 3 });
//! plan.apply(&mut data, 4); // first 4 bytes are protected
//! // halfway into the 252-byte mutable region: byte 4 + 126
//! assert_eq!(data[130] ^ 130u8, 1 << 3);
//! ```

use crate::det::DetRng;
use std::io::{self, Read};

/// One injected fault. Positions are fractions in `[0, 1)` of the mutable
/// region (everything past the protected prefix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Flips bit `bit & 7` of the byte at `position`.
    BitFlip {
        /// Fractional position of the target byte.
        position: f64,
        /// Which bit to flip (taken modulo 8).
        bit: u8,
    },
    /// Cuts the stream off at `position` — everything after is lost.
    Truncate {
        /// Fractional position of the cut.
        position: f64,
    },
    /// Re-inserts the `len` bytes starting at `position` immediately after
    /// themselves, as a torn rewrite/replay would.
    Duplicate {
        /// Fractional position of the first duplicated byte.
        position: f64,
        /// How many bytes to duplicate.
        len: usize,
    },
}

/// An ordered list of faults to apply to a byte stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (applies no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault; faults apply in insertion order.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Derives `count` faults deterministically from `seed`. The mix
    /// favours bit flips (the common medium fault), with occasional
    /// duplication, and at most one trailing truncation.
    pub fn random(seed: u64, count: usize) -> Self {
        let mut rng = DetRng::new(seed);
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let roll = rng.below(10);
            let position = rng.unit_f64();
            faults.push(match roll {
                0..=6 => Fault::BitFlip {
                    position,
                    bit: rng.below(8) as u8,
                },
                7 | 8 => Fault::Duplicate {
                    position,
                    len: 1 + rng.below(255) as usize,
                },
                _ => Fault::Truncate {
                    // Keep truncation in the back half so something
                    // survives to salvage.
                    position: 0.5 + position / 2.0,
                },
            });
        }
        // Truncation last: later faults would otherwise resurrect bytes.
        faults.sort_by_key(|f| matches!(f, Fault::Truncate { .. }));
        if let Some(first_cut) = faults
            .iter()
            .position(|f| matches!(f, Fault::Truncate { .. }))
        {
            faults.truncate(first_cut + 1);
        }
        FaultPlan { faults }
    }

    /// The planned faults, in application order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Applies the plan to `data`, leaving the first `protect` bytes
    /// untouched.
    pub fn apply(&self, data: &mut Vec<u8>, protect: usize) {
        for fault in &self.faults {
            let mutable = data.len().saturating_sub(protect);
            if mutable == 0 {
                return;
            }
            let at = |position: f64| -> usize {
                let f = position.clamp(0.0, 1.0 - f64::EPSILON);
                protect + ((f * mutable as f64) as usize).min(mutable - 1)
            };
            match *fault {
                Fault::BitFlip { position, bit } => {
                    let i = at(position);
                    data[i] ^= 1 << (bit & 7);
                }
                Fault::Truncate { position } => {
                    data.truncate(at(position));
                }
                Fault::Duplicate { position, len } => {
                    let start = at(position);
                    let len = len.clamp(1, data.len() - start);
                    let copy = data[start..start + len].to_vec();
                    let tail = data.split_off(start + len);
                    data.extend_from_slice(&copy);
                    data.extend_from_slice(&tail);
                }
            }
        }
    }
}

/// A [`Read`] adapter that serves its inner source's bytes with a
/// [`FaultPlan`] applied.
///
/// The source is drained eagerly at construction (this is a test harness,
/// not a production path) so faults that need global positions —
/// truncation, duplication — can be applied exactly.
#[derive(Debug)]
pub struct FaultyReader<R> {
    data: Vec<u8>,
    pos: usize,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Read> FaultyReader<R> {
    /// Reads `source` to the end, applies `plan` (protecting the first
    /// `protect` bytes), and serves the result.
    ///
    /// # Errors
    ///
    /// Returns the source's I/O error, if any.
    pub fn new(mut source: R, plan: FaultPlan, protect: usize) -> io::Result<Self> {
        let mut data = Vec::new();
        source.read_to_end(&mut data)?;
        plan.apply(&mut data, protect);
        Ok(FaultyReader {
            data,
            pos: 0,
            _marker: std::marker::PhantomData,
        })
    }

    /// The faulted bytes this reader serves.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.data.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<u8> {
        (0u8..=255).collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        let mut d = data();
        FaultPlan::new().apply(&mut d, 0);
        assert_eq!(d, data());
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut d = data();
        FaultPlan::new()
            .with(Fault::BitFlip {
                position: 0.5,
                bit: 2,
            })
            .apply(&mut d, 0);
        let diff: Vec<usize> = d
            .iter()
            .zip(data())
            .enumerate()
            .filter(|(_, (a, b))| **a != *b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff, vec![128]);
        assert_eq!(d[128] ^ data()[128], 1 << 2);
    }

    #[test]
    fn protect_shields_the_prefix() {
        let mut d = data();
        FaultPlan::new()
            .with(Fault::BitFlip {
                position: 0.0,
                bit: 0,
            })
            .apply(&mut d, 100);
        assert_eq!(d[..100], data()[..100]);
        assert_ne!(d[100], data()[100]);
    }

    #[test]
    fn truncate_cuts_the_tail() {
        let mut d = data();
        FaultPlan::new()
            .with(Fault::Truncate { position: 0.25 })
            .apply(&mut d, 0);
        assert_eq!(d, data()[..64]);
    }

    #[test]
    fn duplicate_replays_a_run() {
        let mut d = vec![0, 1, 2, 3, 4, 5];
        FaultPlan::new()
            .with(Fault::Duplicate {
                position: 0.34,
                len: 2,
            })
            .apply(&mut d, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 3, 4, 5]);
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let a = FaultPlan::random(7, 5);
        let b = FaultPlan::random(7, 5);
        let c = FaultPlan::random(8, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.faults().is_empty());
    }

    #[test]
    fn random_plan_truncates_at_most_once_and_last() {
        for seed in 0..50 {
            let plan = FaultPlan::random(seed, 8);
            let cuts = plan
                .faults()
                .iter()
                .filter(|f| matches!(f, Fault::Truncate { .. }))
                .count();
            assert!(cuts <= 1, "seed {seed} planned {cuts} truncations");
            if cuts == 1 {
                assert!(
                    matches!(plan.faults().last(), Some(Fault::Truncate { .. })),
                    "seed {seed} truncates before other faults"
                );
            }
        }
    }

    #[test]
    fn random_plans_explore_every_fault_kind() {
        let mut flips = 0;
        let mut cuts = 0;
        let mut dups = 0;
        for seed in 0..100 {
            for fault in FaultPlan::random(seed, 6).faults() {
                match fault {
                    Fault::BitFlip { .. } => flips += 1,
                    Fault::Truncate { .. } => cuts += 1,
                    Fault::Duplicate { .. } => dups += 1,
                }
            }
        }
        assert!(flips > 0 && cuts > 0 && dups > 0, "{flips}/{cuts}/{dups}");
    }

    #[test]
    fn faulty_reader_serves_mutated_bytes() {
        let plan = FaultPlan::new().with(Fault::BitFlip {
            position: 0.0,
            bit: 7,
        });
        let src = data();
        let mut r = FaultyReader::new(&src[..], plan, 0).unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 256);
        assert_eq!(out[0], 0x80);
        assert_eq!(out[1..], data()[1..]);
    }
}
