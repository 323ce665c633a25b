//! Architectural register file layout.
//!
//! The LoopFrog reproduction ISA has a unified architectural register space of
//! 64 registers: `x0..=x31` are integer registers (with `x0` hardwired to
//! zero, RISC-style) and `f0..=f31` are floating-point registers holding
//! `f64` bit patterns. A single flat space keeps register renaming, register
//! loop-carried-dependence analysis, and checkpointing uniform across the
//! integer and floating-point domains.

use std::fmt;

/// Number of integer architectural registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_REGS: usize = 32;
/// Total architectural registers (integer + floating point).
pub const NUM_ARCH_REGS: usize = NUM_INT_REGS + NUM_FP_REGS;

/// An architectural register name.
///
/// Indices `0..32` are the integer registers (`x0` is hardwired to zero) and
/// `32..64` are the floating-point registers.
///
/// # Examples
///
/// ```
/// use lf_isa::{reg, Reg};
///
/// let a = reg::x(5);
/// assert!(a.is_int());
/// assert_eq!(a.to_string(), "x5");
/// let f = reg::f(2);
/// assert!(f.is_fp());
/// assert_eq!(f.index(), 34);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register from a flat index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_ARCH_REGS`.
    #[inline]
    pub fn new(index: usize) -> Reg {
        assert!(index < NUM_ARCH_REGS, "register index {index} out of range");
        Reg(index as u8)
    }

    /// The flat index of this register in `0..NUM_ARCH_REGS`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is an integer register (`x0..=x31`).
    #[inline]
    pub fn is_int(self) -> bool {
        (self.0 as usize) < NUM_INT_REGS
    }

    /// Whether this is a floating-point register (`f0..=f31`).
    #[inline]
    pub fn is_fp(self) -> bool {
        !self.is_int()
    }

    /// Whether this is the hardwired zero register `x0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_int() {
            write!(f, "x{}", self.0)
        } else {
            write!(f, "f{}", self.0 as usize - NUM_INT_REGS)
        }
    }
}

/// Integer register `xN`.
///
/// # Panics
///
/// Panics if `n >= 32`.
#[inline]
pub fn x(n: usize) -> Reg {
    assert!(n < NUM_INT_REGS, "integer register x{n} out of range");
    Reg::new(n)
}

/// Floating-point register `fN`.
///
/// # Panics
///
/// Panics if `n >= 32`.
#[inline]
pub fn f(n: usize) -> Reg {
    assert!(n < NUM_FP_REGS, "fp register f{n} out of range");
    Reg::new(NUM_INT_REGS + n)
}

/// The hardwired zero register `x0`.
pub const ZERO: Reg = Reg(0);
/// Conventional stack pointer (`x2`).
pub const SP: Reg = Reg(2);
/// Conventional link register (`x1`).
pub const RA: Reg = Reg(1);

/// A set of architectural registers, as a bitmask over flat register
/// indices. Iteration is in ascending index order.
///
/// # Examples
///
/// ```
/// use lf_isa::RegSet;
///
/// let mut s = RegSet::empty();
/// assert!(s.insert(9));
/// assert!(!s.insert(9), "already present");
/// s.insert(3);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 9]);
/// s.remove(9);
/// assert!(!s.contains(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(pub u64);

const _: () = assert!(NUM_ARCH_REGS <= 64, "RegSet assumes ≤64 architectural registers");

impl RegSet {
    /// The empty set.
    pub fn empty() -> RegSet {
        RegSet(0)
    }

    /// Inserts a register index; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, r: usize) -> bool {
        let bit = 1 << r;
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    /// Removes a register index.
    #[inline]
    pub fn remove(&mut self, r: usize) {
        self.0 &= !(1 << r);
    }

    /// Empties the set.
    #[inline]
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Whether `r` is in the set.
    #[inline]
    pub fn contains(&self, r: usize) -> bool {
        self.0 >> r & 1 == 1
    }

    /// Set union.
    pub fn union(self, o: RegSet) -> RegSet {
        RegSet(self.0 | o.0)
    }

    /// Set intersection.
    pub fn inter(self, o: RegSet) -> RegSet {
        RegSet(self.0 & o.0)
    }

    /// Set difference `self \ o`.
    pub fn minus(self, o: RegSet) -> RegSet {
        RegSet(self.0 & !o.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates member register indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_ranges() {
        assert!(x(0).is_zero());
        assert!(x(31).is_int());
        assert!(f(0).is_fp());
        assert_eq!(f(31).index(), 63);
    }

    #[test]
    fn display_names() {
        assert_eq!(x(7).to_string(), "x7");
        assert_eq!(f(9).to_string(), "f9");
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let _ = Reg::new(64);
    }

    #[test]
    fn ordering_is_flat_index() {
        assert!(x(31) < f(0));
    }

    /// Property test pinning [`RegSet`] to `HashSet<usize>` semantics under
    /// a random insert/remove/contains/clear schedule over all 64
    /// registers, including `insert`'s return value and ascending `iter`.
    #[test]
    fn reg_set_matches_hashset() {
        use std::collections::HashSet;
        let mut seed: u64 = 0x5E7_4E65;
        let mut rnd = move |m: u64| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for _trial in 0..50 {
            let mut rs = RegSet::empty();
            let mut model: HashSet<usize> = HashSet::new();
            for _ in 0..400 {
                let r = rnd(NUM_ARCH_REGS as u64) as usize;
                match rnd(16) {
                    0 => {
                        rs.clear();
                        model.clear();
                    }
                    1..=6 => assert_eq!(rs.insert(r), model.insert(r), "insert diverged on {r}"),
                    7..=10 => {
                        rs.remove(r);
                        model.remove(&r);
                    }
                    _ => assert_eq!(rs.contains(r), model.contains(&r), "contains diverged on {r}"),
                }
                assert_eq!(rs.len(), model.len());
                assert_eq!(rs.is_empty(), model.is_empty());
                let mut sorted: Vec<usize> = model.iter().copied().collect();
                sorted.sort_unstable();
                assert_eq!(rs.iter().collect::<Vec<_>>(), sorted, "iter must be ascending");
            }
        }
    }
}
