//! Return-address stack, the paper's predictor for subroutine returns.
//!
//! §4 of the paper: "Subroutine return branches can be predicted by using
//! a return address stack. A return address is pushed onto the stack when
//! a subroutine is called and is popped as the prediction for the branch
//! target address when a return instruction is detected. The return
//! address prediction may miss when the return address stack overflows."

/// Statistics collected by a [`ReturnAddressStack`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RasStats {
    /// Return predictions attempted.
    pub predictions: u64,
    /// Return predictions whose predicted target was correct.
    pub correct: u64,
    /// Pops issued while the stack was empty (forced mispredictions).
    pub underflows: u64,
    /// Pushes that displaced the oldest entry because the stack was full.
    pub overflows: u64,
}

impl RasStats {
    /// Fraction of return predictions that were correct (1.0 when none
    /// were attempted).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

/// A bounded return-address stack.
///
/// On overflow the *oldest* entry is discarded (the stack behaves as a
/// ring), matching the hardware structures of the era: deep recursion
/// wraps around and the outermost returns mispredict.
///
/// # Examples
///
/// ```
/// use tlat_trace::ReturnAddressStack;
///
/// let mut ras = ReturnAddressStack::new(4);
/// ras.push(0x104);
/// assert!(ras.predict_and_verify(0x104));
/// assert_eq!(ras.stats().correct, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    ring: Vec<u32>,
    top: usize,
    len: usize,
    stats: RasStats,
}

impl ReturnAddressStack {
    /// Creates a stack holding at most `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "return address stack capacity must be > 0");
        ReturnAddressStack {
            ring: vec![0; capacity],
            top: 0,
            len: 0,
            stats: RasStats::default(),
        }
    }

    /// Capacity of the stack.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Current number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no live entries exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a return address (a call was executed).
    pub fn push(&mut self, return_address: u32) {
        if self.len == self.ring.len() {
            self.stats.overflows += 1;
        } else {
            self.len += 1;
        }
        self.ring[self.top] = return_address;
        self.top = (self.top + 1) % self.ring.len();
    }

    /// Pops the predicted return address (a return was detected), or
    /// `None` on underflow.
    pub fn pop(&mut self) -> Option<u32> {
        if self.len == 0 {
            self.stats.underflows += 1;
            return None;
        }
        self.len -= 1;
        self.top = (self.top + self.ring.len() - 1) % self.ring.len();
        Some(self.ring[self.top])
    }

    /// Pops a prediction, compares it with the actual target, records the
    /// outcome and returns whether the prediction was correct.
    pub fn predict_and_verify(&mut self, actual_target: u32) -> bool {
        self.stats.predictions += 1;
        let correct = self.pop() == Some(actual_target);
        self.stats.correct += correct as u64;
        correct
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RasStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = ReturnAddressStack::new(0);
    }

    #[test]
    fn push_pop_lifo() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.len(), 3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), Some(1));
        assert!(ras.is_empty());
    }

    #[test]
    fn underflow_counts_and_returns_none() {
        let mut ras = ReturnAddressStack::new(2);
        assert_eq!(ras.pop(), None);
        assert_eq!(ras.stats().underflows, 1);
    }

    #[test]
    fn overflow_discards_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // displaces 1
        assert_eq!(ras.stats().overflows, 1);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        // Entry `1` was lost; the next pop after wrap sees stale data.
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn deep_recursion_mispredicts_outer_frames_only() {
        let mut ras = ReturnAddressStack::new(4);
        // Call depth 6 on a stack of 4.
        for addr in 1..=6u32 {
            ras.push(addr * 0x10);
        }
        // Inner 4 returns predict correctly...
        for addr in (3..=6u32).rev() {
            assert!(ras.predict_and_verify(addr * 0x10));
        }
        // ...outer 2 were displaced.
        assert!(!ras.predict_and_verify(0x20));
        assert!(!ras.predict_and_verify(0x10));
        let s = ras.stats();
        assert_eq!(s.predictions, 6);
        assert_eq!(s.correct, 4);
        assert!((s.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_accuracy_is_one() {
        assert_eq!(RasStats::default().accuracy(), 1.0);
    }
}
