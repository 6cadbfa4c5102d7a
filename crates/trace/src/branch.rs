//! Branch and instruction classification types.

use std::fmt;

/// The four branch classes of §4 of the paper.
///
/// The M88100 instruction set groups its control-transfer instructions
/// into conditional branches, subroutine returns (predictable with a
/// return-address stack), immediate unconditional branches (target known
/// at decode), and unconditional branches through a register (target known
/// only when the register value is ready).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchClass {
    /// A conditional branch; the class the paper's predictors target.
    Conditional,
    /// A subroutine return (predicted with a return-address stack).
    Return,
    /// An unconditional branch whose target is an immediate offset.
    ImmediateUnconditional,
    /// An unconditional branch whose target comes from a register.
    RegisterUnconditional,
}

impl BranchClass {
    /// All branch classes, in a stable display order.
    pub const ALL: [BranchClass; 4] = [
        BranchClass::Conditional,
        BranchClass::Return,
        BranchClass::ImmediateUnconditional,
        BranchClass::RegisterUnconditional,
    ];

    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            BranchClass::Conditional => "cond",
            BranchClass::Return => "return",
            BranchClass::ImmediateUnconditional => "uncond-imm",
            BranchClass::RegisterUnconditional => "uncond-reg",
        }
    }

    pub(crate) fn code(self) -> u8 {
        match self {
            BranchClass::Conditional => 0,
            BranchClass::Return => 1,
            BranchClass::ImmediateUnconditional => 2,
            BranchClass::RegisterUnconditional => 3,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => BranchClass::Conditional,
            1 => BranchClass::Return,
            2 => BranchClass::ImmediateUnconditional,
            3 => BranchClass::RegisterUnconditional,
            _ => return None,
        })
    }
}

impl fmt::Display for BranchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Dynamic instruction categories, used for the Figure 3 instruction-mix
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstClass {
    /// Integer ALU operation.
    IntAlu,
    /// Floating-point operation.
    FpAlu,
    /// Memory load or store.
    Mem,
    /// Any branch (further classified by [`BranchClass`]).
    Branch,
    /// Anything else (moves, nops, immediates, halts).
    Other,
}

impl InstClass {
    /// All instruction categories, in a stable display order.
    pub const ALL: [InstClass; 5] = [
        InstClass::IntAlu,
        InstClass::FpAlu,
        InstClass::Mem,
        InstClass::Branch,
        InstClass::Other,
    ];

    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::IntAlu => "int-alu",
            InstClass::FpAlu => "fp-alu",
            InstClass::Mem => "mem",
            InstClass::Branch => "branch",
            InstClass::Other => "other",
        }
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One executed branch instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Address of the branch instruction.
    pub pc: u32,
    /// Address the branch transfers to when taken.
    pub target: u32,
    /// Branch class.
    pub class: BranchClass,
    /// Whether the branch was taken. Unconditional branches and returns
    /// are always taken.
    pub taken: bool,
    /// `true` when this branch is a subroutine call (it pushes a return
    /// address). The return-address-stack predictor pushes on calls and
    /// pops on [`BranchClass::Return`] branches.
    pub call: bool,
}

impl BranchRecord {
    /// Creates a conditional-branch record.
    ///
    /// # Examples
    ///
    /// ```
    /// use tlat_trace::BranchRecord;
    /// let b = BranchRecord::conditional(0x1000, 0x0ff0, true);
    /// assert!(b.taken);
    /// assert!(b.is_backward());
    /// ```
    pub fn conditional(pc: u32, target: u32, taken: bool) -> Self {
        BranchRecord {
            pc,
            target,
            class: BranchClass::Conditional,
            taken,
            call: false,
        }
    }

    /// Creates a subroutine-return record (always taken).
    pub fn subroutine_return(pc: u32, target: u32) -> Self {
        BranchRecord {
            pc,
            target,
            class: BranchClass::Return,
            taken: true,
            call: false,
        }
    }

    /// Creates an immediate unconditional branch record (always taken).
    pub fn unconditional_imm(pc: u32, target: u32) -> Self {
        BranchRecord {
            pc,
            target,
            class: BranchClass::ImmediateUnconditional,
            taken: true,
            call: false,
        }
    }

    /// Creates a register-indirect unconditional branch record
    /// (always taken).
    pub fn unconditional_reg(pc: u32, target: u32) -> Self {
        BranchRecord {
            pc,
            target,
            class: BranchClass::RegisterUnconditional,
            taken: true,
            call: false,
        }
    }

    /// Creates a direct subroutine-call record: an immediate
    /// unconditional branch that pushes a return address.
    pub fn call_imm(pc: u32, target: u32) -> Self {
        BranchRecord {
            call: true,
            ..BranchRecord::unconditional_imm(pc, target)
        }
    }

    /// Creates an indirect subroutine-call record: a register
    /// unconditional branch that pushes a return address.
    pub fn call_reg(pc: u32, target: u32) -> Self {
        BranchRecord {
            call: true,
            ..BranchRecord::unconditional_reg(pc, target)
        }
    }

    /// The fall-through address (the return address for calls).
    pub fn fall_through(&self) -> u32 {
        self.pc.wrapping_add(4)
    }

    /// `true` when the branch target precedes the branch itself — the
    /// "backward" case of the Backward-Taken/Forward-Not-taken static
    /// scheme.
    pub fn is_backward(&self) -> bool {
        self.target < self.pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_codes_roundtrip() {
        for class in BranchClass::ALL {
            assert_eq!(BranchClass::from_code(class.code()), Some(class));
        }
        assert_eq!(BranchClass::from_code(9), None);
    }

    #[test]
    fn backward_detection() {
        assert!(BranchRecord::conditional(100, 50, true).is_backward());
        assert!(!BranchRecord::conditional(100, 150, true).is_backward());
        assert!(!BranchRecord::conditional(100, 100, true).is_backward());
    }

    #[test]
    fn constructors_set_class_and_taken() {
        assert_eq!(
            BranchRecord::subroutine_return(4, 8).class,
            BranchClass::Return
        );
        assert!(BranchRecord::subroutine_return(4, 8).taken);
        assert_eq!(
            BranchRecord::unconditional_imm(4, 8).class,
            BranchClass::ImmediateUnconditional
        );
        assert_eq!(
            BranchRecord::unconditional_reg(4, 8).class,
            BranchClass::RegisterUnconditional
        );
    }

    #[test]
    fn call_constructors_mark_call() {
        let c = BranchRecord::call_imm(0x100, 0x200);
        assert!(c.call && c.taken);
        assert_eq!(c.class, BranchClass::ImmediateUnconditional);
        assert_eq!(c.fall_through(), 0x104);
        let cr = BranchRecord::call_reg(0x100, 0x200);
        assert!(cr.call);
        assert_eq!(cr.class, BranchClass::RegisterUnconditional);
        assert!(!BranchRecord::conditional(0, 4, true).call);
    }

    #[test]
    fn labels_are_nonempty_and_distinct() {
        let labels: Vec<_> = BranchClass::ALL.iter().map(|c| c.label()).collect();
        for l in &labels {
            assert!(!l.is_empty());
        }
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
