//! Issue classes and the per-cycle issue-width limits.

use std::fmt;
use std::ops::Index;

/// Issue classes for the per-cycle instruction-class limits.
///
/// The paper's 4-way issue machine may issue per cycle at most: four integer
/// operations, two floating-point operations, one floating-point divide, two
/// memory operations, and one control-flow operation. The 8-way machine
/// doubles every limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueClass {
    /// Integer ALU and multiply operations.
    Integer,
    /// Pipelined floating-point operations.
    FloatingPoint,
    /// Floating-point divides (also count against `FloatingPoint`? No — the
    /// paper lists them as a separate class: "one floating-point division
    /// operation, two floating-point operations").
    FpDivide,
    /// Loads and stores ("two loads, two stores, or one of each").
    Memory,
    /// Branches, calls, and returns.
    ControlFlow,
}

impl IssueClass {
    /// All issue classes, in dense-index order.
    pub const ALL: [IssueClass; 5] = [
        IssueClass::Integer,
        IssueClass::FloatingPoint,
        IssueClass::FpDivide,
        IssueClass::Memory,
        IssueClass::ControlFlow,
    ];

    /// Dense index for per-class counters.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            IssueClass::Integer => 0,
            IssueClass::FloatingPoint => 1,
            IssueClass::FpDivide => 2,
            IssueClass::Memory => 3,
            IssueClass::ControlFlow => 4,
        }
    }
}

impl fmt::Display for IssueClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IssueClass::Integer => "integer",
            IssueClass::FloatingPoint => "floating-point",
            IssueClass::FpDivide => "fp-divide",
            IssueClass::Memory => "memory",
            IssueClass::ControlFlow => "control-flow",
        };
        f.write_str(s)
    }
}

/// Per-cycle issue limits for each [`IssueClass`], plus the total width.
///
/// # Examples
///
/// ```
/// use rf_isa::{IssueClass, IssueLimits};
///
/// let four = IssueLimits::for_width(4);
/// assert_eq!(four.width(), 4);
/// assert_eq!(four[IssueClass::Integer], 4);
/// assert_eq!(four[IssueClass::Memory], 2);
///
/// let eight = IssueLimits::for_width(8);
/// assert_eq!(eight[IssueClass::FpDivide], 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueLimits {
    width: usize,
    per_class: [usize; 5],
}

impl IssueLimits {
    /// The paper's issue limits for a machine of the given total width.
    ///
    /// Width 4 yields the base limits (4 int / 2 fp / 1 fp-div / 2 mem /
    /// 1 ctrl); other widths scale each base limit by `width / 4`, rounding
    /// up so narrow configurations can still issue at least one of each.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn for_width(width: usize) -> Self {
        assert!(width > 0, "issue width must be positive");
        let scale = |base: usize| (base * width).div_ceil(4).max(1);
        Self {
            width,
            per_class: [scale(4), scale(2), scale(1), scale(2), scale(1)],
        }
    }

    /// The total number of instructions that may issue per cycle.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The per-cycle limit for one issue class.
    #[inline]
    pub fn limit(&self, class: IssueClass) -> usize {
        self.per_class[class.index()]
    }

    /// Insertion (dispatch) bandwidth: the paper inserts up to
    /// `1.5 x width` instructions into the dispatch queue per cycle.
    #[inline]
    pub fn insert_bandwidth(&self) -> usize {
        self.width * 3 / 2
    }

    /// Commit bandwidth: the paper commits at most `2 x width`
    /// instructions per cycle, "modeling probable hardware limitations".
    #[inline]
    pub fn commit_bandwidth(&self) -> usize {
        self.width * 2
    }
}

impl Index<IssueClass> for IssueLimits {
    type Output = usize;

    fn index(&self, class: IssueClass) -> &usize {
        &self.per_class[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_way_limits_match_paper() {
        let l = IssueLimits::for_width(4);
        assert_eq!(l[IssueClass::Integer], 4);
        assert_eq!(l[IssueClass::FloatingPoint], 2);
        assert_eq!(l[IssueClass::FpDivide], 1);
        assert_eq!(l[IssueClass::Memory], 2);
        assert_eq!(l[IssueClass::ControlFlow], 1);
        assert_eq!(l.insert_bandwidth(), 6);
        assert_eq!(l.commit_bandwidth(), 8);
    }

    #[test]
    fn eight_way_doubles_everything() {
        let four = IssueLimits::for_width(4);
        let eight = IssueLimits::for_width(8);
        for class in IssueClass::ALL {
            assert_eq!(eight[class], 2 * four[class], "{class}");
        }
        assert_eq!(eight.insert_bandwidth(), 12);
        assert_eq!(eight.commit_bandwidth(), 16);
    }

    #[test]
    fn narrow_widths_allow_at_least_one_of_each() {
        let one = IssueLimits::for_width(1);
        for class in IssueClass::ALL {
            assert!(one[class] >= 1, "{class}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = IssueLimits::for_width(0);
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for class in IssueClass::ALL {
            assert!(!seen[class.index()]);
            seen[class.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
