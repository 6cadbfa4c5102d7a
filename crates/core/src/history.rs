//! Branch history registers (the first level of the two-level scheme).

/// Maximum supported history length, in bits.
///
/// The paper simulates 6-, 8-, 10- and 12-bit registers; 16 gives
/// headroom for extension studies while keeping the pattern table
/// (2^k entries) comfortably in memory.
pub const MAX_HISTORY_BITS: u8 = 16;

/// A k-bit branch history shift register.
///
/// Shifts in a `1` for every taken outcome and a `0` for every
/// not-taken outcome; the register content is the pattern-table index.
/// Per §4.2 of the paper, registers initialize to all ones because about
/// 60 % of conditional branches are taken.
///
/// # Examples
///
/// ```
/// use tlat_core::HistoryRegister;
///
/// let mut hr = HistoryRegister::new(4);
/// assert_eq!(hr.pattern(), 0b1111);
/// hr.shift(false);
/// hr.shift(true);
/// assert_eq!(hr.pattern(), 0b1101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryRegister {
    bits: u16,
    len: u8,
}

impl HistoryRegister {
    /// Creates an all-ones history register of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than [`MAX_HISTORY_BITS`].
    pub fn new(len: u8) -> Self {
        assert!(
            len > 0 && len <= MAX_HISTORY_BITS,
            "history length must be in 1..={MAX_HISTORY_BITS}"
        );
        HistoryRegister {
            bits: ((1u32 << len) - 1) as u16,
            len,
        }
    }

    /// Creates a register with explicit contents (low `len` bits of
    /// `bits`).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than [`MAX_HISTORY_BITS`].
    pub fn from_bits(bits: u16, len: u8) -> Self {
        let mut hr = HistoryRegister::new(len);
        hr.bits = bits & hr.mask();
        hr
    }

    fn mask(self) -> u16 {
        ((1u32 << self.len) - 1) as u16
    }

    /// The register length in bits (the paper's k).
    pub fn len(self) -> u8 {
        self.len
    }

    /// Always `false`; a history register has at least one bit.
    pub fn is_empty(self) -> bool {
        false
    }

    /// The current history pattern, used as a pattern-table index.
    pub fn pattern(self) -> usize {
        self.bits as usize
    }

    /// Shifts the resolved outcome into the least-significant bit.
    pub fn shift(&mut self, taken: bool) {
        self.bits = ((self.bits << 1) | taken as u16) & self.mask();
    }

    /// Number of distinct patterns (`2^len`) — the pattern-table size.
    pub fn pattern_count(self) -> usize {
        1usize << self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializes_to_all_ones() {
        for len in 1..=MAX_HISTORY_BITS {
            let hr = HistoryRegister::new(len);
            assert_eq!(hr.pattern(), (1usize << len) - 1);
            assert_eq!(hr.len(), len);
            assert_eq!(hr.pattern_count(), 1usize << len);
        }
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn zero_length_panics() {
        let _ = HistoryRegister::new(0);
    }

    #[test]
    #[should_panic(expected = "history length")]
    fn oversize_length_panics() {
        let _ = HistoryRegister::new(MAX_HISTORY_BITS + 1);
    }

    #[test]
    fn shifting_tracks_recent_outcomes() {
        let mut hr = HistoryRegister::new(3);
        hr.shift(false); // 110
        hr.shift(false); // 100
        hr.shift(true); // 001
        assert_eq!(hr.pattern(), 0b001);
        hr.shift(true); // 011
        hr.shift(true); // 111
        hr.shift(true); // 111 (window full of ones)
        assert_eq!(hr.pattern(), 0b111);
    }

    #[test]
    fn pattern_never_exceeds_window() {
        let mut hr = HistoryRegister::new(5);
        for i in 0..100 {
            hr.shift(i % 3 == 0);
            assert!(hr.pattern() < hr.pattern_count());
        }
    }

    #[test]
    fn from_bits_masks_extra_bits() {
        let hr = HistoryRegister::from_bits(0xffff, 4);
        assert_eq!(hr.pattern(), 0xf);
        let hr = HistoryRegister::from_bits(0b10110, 4);
        assert_eq!(hr.pattern(), 0b0110);
    }

    #[test]
    fn sixteen_bit_register_shifts_correctly() {
        let mut hr = HistoryRegister::new(16);
        hr.shift(false);
        assert_eq!(hr.pattern(), 0xfffe);
        for _ in 0..16 {
            hr.shift(true);
        }
        assert_eq!(hr.pattern(), 0xffff);
    }
}
