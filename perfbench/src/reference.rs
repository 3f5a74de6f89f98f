//! A fixed reference load that uses none of the program's code.
//!
//! `run.py` times it between op cycles to see how fast the shared host is
//! running at that moment. Its mix follows the program's hot loops: a
//! recency scan over a few thousand branch ids, pair counts in a hash table
//! that outgrows the caches, and 2-bit counter updates in a pattern table.

use std::collections::HashMap;

const IDS: u64 = 2_600;
const RECENT: usize = 12;
const RECORDS: usize = 150_000;

/// Runs the load once and returns a checksum, so the work cannot be
/// optimised away and its result can be checked to repeat.
pub fn run() -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut recent = [u32::MAX; RECENT];
    let mut pairs: HashMap<u64, u32> = HashMap::new();
    let mut history = vec![0u16; 1024];
    let mut counters = vec![1u8; 1 << 16];
    let mut wrong = 0u64;
    for _ in 0..RECORDS {
        let r = next();
        // Skewed toward low ids, as branch frequencies are.
        let id = ((r % IDS) * (r % IDS) / IDS) as u32;
        let taken = next() % 3 != 0;
        let pos = recent.iter().position(|&x| x == id).unwrap_or(RECENT - 1);
        for &other in &recent[..pos] {
            if other != u32::MAX {
                let key = (u64::from(id.min(other)) << 32) | u64::from(id.max(other));
                *pairs.entry(key).or_insert(0) += 1;
            }
        }
        recent.copy_within(..pos, 1);
        recent[0] = id;
        let h = &mut history[id as usize % 1024];
        let c = &mut counters[(usize::from(*h) << 4 | id as usize & 15) & 0xFFFF];
        wrong += u64::from((*c >= 2) != taken);
        *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
        *h = (*h << 1 | u16::from(taken)) & 0x0FFF;
    }
    pairs.values().map(|&v| u64::from(v)).sum::<u64>() ^ (pairs.len() as u64) << 40 ^ wrong
}
