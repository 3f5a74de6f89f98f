//! Saturating up/down counters — the basic prediction state element.

use bwsa_trace::Direction;

/// An n-bit saturating counter (n in `1..=8`).
///
/// Values `0..2^n` count confidence: the top half predicts taken, the
/// bottom half not taken. Taken outcomes increment (saturating at the
/// maximum), not-taken outcomes decrement (saturating at zero). The
/// classic two-bit counter of Smith predictors and 2-level PHTs is
/// [`SaturatingCounter::two_bit`].
///
/// # Example
///
/// ```
/// use bwsa_predictor::SaturatingCounter;
/// use bwsa_trace::Direction;
///
/// let mut c = SaturatingCounter::two_bit();
/// assert!(!c.predict().is_taken(), "starts weakly not-taken");
/// c.update(Direction::Taken);
/// c.update(Direction::Taken);
/// assert!(c.predict().is_taken());
/// c.update(Direction::NotTaken);
/// assert!(c.predict().is_taken(), "hysteresis survives one miss");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates an n-bit counter initialised to the weakly-not-taken value
    /// just below the decision threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=8).contains(&bits),
            "counter width {bits} outside 1..=8"
        );
        let max = if bits == 8 {
            u8::MAX
        } else {
            (1u8 << bits) - 1
        };
        SaturatingCounter {
            value: max / 2,
            max,
        }
    }

    /// The standard two-bit counter, initialised weakly not-taken.
    pub fn two_bit() -> Self {
        SaturatingCounter::new(2)
    }

    /// The current raw value.
    pub fn value(&self) -> u8 {
        self.value
    }

    /// The saturation maximum (`2^bits − 1`).
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Overwrites the counter value, clamping to the saturation maximum —
    /// the restore half of checkpointing.
    pub fn set_value(&mut self, value: u8) {
        self.value = value.min(self.max);
    }

    /// The predicted direction: taken iff the value is in the top half.
    pub fn predict(&self) -> Direction {
        Direction::from_taken(u16::from(self.value) * 2 > u16::from(self.max))
    }

    /// Trains the counter with an outcome.
    pub fn update(&mut self, outcome: Direction) {
        if outcome.is_taken() {
            if self.value < self.max {
                self.value += 1;
            }
        } else {
            self.value = self.value.saturating_sub(1);
        }
    }

    /// Returns `true` when the counter is saturated in either direction —
    /// a confidence signal used by chooser/agreement predictors.
    pub fn is_saturated(&self) -> bool {
        self.value == 0 || self.value == self.max
    }
}

impl Default for SaturatingCounter {
    fn default() -> Self {
        SaturatingCounter::two_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_state_machine() {
        let mut c = SaturatingCounter::two_bit();
        assert_eq!(c.value(), 1);
        assert!(!c.predict().is_taken());
        c.update(Direction::Taken); // 2: weakly taken
        assert!(c.predict().is_taken());
        c.update(Direction::Taken); // 3: strongly taken
        c.update(Direction::Taken); // saturates at 3
        assert_eq!(c.value(), 3);
        c.update(Direction::NotTaken); // 2
        assert!(c.predict().is_taken(), "hysteresis");
        c.update(Direction::NotTaken); // 1
        assert!(!c.predict().is_taken());
        c.update(Direction::NotTaken); // 0
        c.update(Direction::NotTaken); // saturates at 0
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn one_bit_counter_flips_immediately() {
        let mut c = SaturatingCounter::new(1);
        assert!(!c.predict().is_taken());
        c.update(Direction::Taken);
        assert!(c.predict().is_taken());
        c.update(Direction::NotTaken);
        assert!(!c.predict().is_taken());
    }

    #[test]
    fn eight_bit_counter_has_full_range() {
        let mut c = SaturatingCounter::new(8);
        for _ in 0..300 {
            c.update(Direction::Taken);
        }
        assert_eq!(c.value(), 255);
        assert!(c.is_saturated());
    }

    #[test]
    fn saturation_detection() {
        let mut c = SaturatingCounter::two_bit();
        assert!(!c.is_saturated());
        c.update(Direction::NotTaken);
        assert!(c.is_saturated());
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn zero_bits_rejected() {
        SaturatingCounter::new(0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn nine_bits_rejected() {
        SaturatingCounter::new(9);
    }

    #[test]
    fn three_bit_threshold_is_majority() {
        // 3-bit: max 7, predicts taken for value >= 4.
        let mut c = SaturatingCounter::new(3);
        assert_eq!(c.value(), 3);
        assert!(!c.predict().is_taken());
        c.update(Direction::Taken);
        assert!(c.predict().is_taken());
    }
}
