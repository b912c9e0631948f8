//! Architectural (virtual) registers.

use std::fmt;

/// Index of the hardwired zero register within each register class.
///
/// On the Alpha, `r31` always reads as integer zero and `f31` as
/// floating-point zero; writes to them are discarded. The paper notes that
/// "the zero register is not renamed", leaving 31 renameable virtual
/// registers per class.
pub const ZERO_REG_INDEX: u8 = 31;

/// Number of renameable architectural registers in each class (31: all of
/// `r0..=r30` / `f0..=f30`).
pub const RENAMEABLE_REGS_PER_CLASS: usize = 31;

/// The two architectural register classes.
///
/// The paper's machine has *separate* integer and floating-point physical
/// register files of equal, configurable size, so almost everything in the
/// simulator is parameterised by this class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// Integer register file (`r0..=r31`).
    Int,
    /// Floating-point register file (`f0..=f31`).
    Fp,
}

impl RegClass {
    /// Both register classes, in a fixed order convenient for per-class
    /// state arrays.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Fp];

    /// A dense index for per-class arrays: `Int == 0`, `Fp == 1`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Fp => 1,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => f.write_str("int"),
            RegClass::Fp => f.write_str("fp"),
        }
    }
}

/// An architectural ("virtual") register: a class plus an index in `0..=31`.
///
/// # Examples
///
/// ```
/// use rf_isa::{ArchReg, RegClass};
///
/// let r4 = ArchReg::int(4);
/// assert_eq!(r4.class(), RegClass::Int);
/// assert!(!r4.is_zero());
/// assert!(ArchReg::fp(31).is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg {
    class: RegClass,
    index: u8,
}

impl ArchReg {
    /// Creates an integer register `r<index>`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    #[inline]
    pub fn int(index: u8) -> Self {
        Self::new(RegClass::Int, index)
    }

    /// Creates a floating-point register `f<index>`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    #[inline]
    pub fn fp(index: u8) -> Self {
        Self::new(RegClass::Fp, index)
    }

    /// Creates a register from a class and an index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    #[inline]
    pub fn new(class: RegClass, index: u8) -> Self {
        assert!(index <= ZERO_REG_INDEX, "register index {index} out of range");
        Self { class, index }
    }

    /// As [`ArchReg::new`], for constant tables; `index` must be at most
    /// 31.
    pub(crate) const fn from_parts(class: RegClass, index: u8) -> Self {
        Self { class, index }
    }

    /// The register's class (integer or floating-point).
    #[inline]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The register's index within its class (`0..=31`).
    #[inline]
    pub fn index(self) -> u8 {
        self.index
    }

    /// Whether this is the hardwired zero register of its class.
    ///
    /// Zero registers are never renamed: reads of them need no physical
    /// register, and writes to them allocate nothing.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.index == ZERO_REG_INDEX
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.class {
            RegClass::Int => 'r',
            RegClass::Fp => 'f',
        };
        write!(f, "{prefix}{}", self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_detection() {
        assert!(ArchReg::int(31).is_zero());
        assert!(ArchReg::fp(31).is_zero());
        assert!(!ArchReg::int(0).is_zero());
        assert!(!ArchReg::fp(30).is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ArchReg::int(7).to_string(), "r7");
        assert_eq!(ArchReg::fp(31).to_string(), "f31");
        assert_eq!(RegClass::Int.to_string(), "int");
        assert_eq!(RegClass::Fp.to_string(), "fp");
    }

    #[test]
    fn class_indices_are_dense() {
        assert_eq!(RegClass::Int.index(), 0);
        assert_eq!(RegClass::Fp.index(), 1);
        assert_eq!(RegClass::ALL.len(), 2);
    }

    #[test]
    fn ordering_groups_by_class_then_index() {
        assert!(ArchReg::int(5) < ArchReg::int(6));
        assert!(ArchReg::int(31) < ArchReg::fp(0));
    }
}
