//! Branch history shift registers.

use bwsa_trace::Direction;

/// A fixed-width branch-outcome shift register.
///
/// New outcomes shift in at the least-significant bit (1 = taken); the
/// register value indexes a pattern history table.
///
/// # Example
///
/// ```
/// use bwsa_predictor::HistoryRegister;
/// use bwsa_trace::Direction;
///
/// let mut h = HistoryRegister::new(4);
/// h.push(Direction::Taken);
/// h.push(Direction::NotTaken);
/// h.push(Direction::Taken);
/// assert_eq!(h.value(), 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HistoryRegister {
    value: u64,
    width: u32,
}

impl HistoryRegister {
    /// Creates an all-zero (all not-taken) history of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 63`.
    pub fn new(width: u32) -> Self {
        assert!(
            (1..=63).contains(&width),
            "history width {width} outside 1..=63"
        );
        HistoryRegister { value: 0, width }
    }

    /// The register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current history value in `0..2^width`.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Overwrites the history value, masking to the register width — the
    /// restore half of checkpointing.
    pub fn set_value(&mut self, value: u64) {
        self.value = value & ((1u64 << self.width) - 1);
    }

    /// Shifts in an outcome.
    pub fn push(&mut self, outcome: Direction) {
        self.value = ((self.value << 1) | outcome.as_bit()) & ((1u64 << self.width) - 1);
    }

    /// Number of distinct history values (`2^width`) — the natural pattern
    /// table size for this register.
    pub fn pattern_count(&self) -> usize {
        1usize << self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_lsb_first() {
        let mut h = HistoryRegister::new(3);
        h.push(Direction::Taken);
        assert_eq!(h.value(), 0b1);
        h.push(Direction::Taken);
        assert_eq!(h.value(), 0b11);
        h.push(Direction::NotTaken);
        assert_eq!(h.value(), 0b110);
    }

    #[test]
    fn width_masks_old_history() {
        let mut h = HistoryRegister::new(2);
        for _ in 0..5 {
            h.push(Direction::Taken);
        }
        assert_eq!(h.value(), 0b11);
        h.push(Direction::NotTaken);
        assert_eq!(h.value(), 0b10);
    }

    #[test]
    fn pattern_count_is_two_to_width() {
        assert_eq!(HistoryRegister::new(12).pattern_count(), 4096);
    }

    #[test]
    #[should_panic(expected = "outside 1..=63")]
    fn zero_width_rejected() {
        HistoryRegister::new(0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=63")]
    fn width_64_rejected() {
        HistoryRegister::new(64);
    }
}
