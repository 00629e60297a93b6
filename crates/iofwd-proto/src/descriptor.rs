//! Descriptor and operation identifiers.
//!
//! §IV: "we maintain a database of open I/O descriptors; for each, we
//! keep a list of completed and in-progress operations and their
//! associated status, including errors. We distinguish the various I/O
//! operations performed on a particular descriptor via a counter."
//!
//! [`Fd`] is the forwarded descriptor handle (the ION-side descriptor
//! table index, not the CN's kernel fd), and [`OpId`] is that
//! per-descriptor counter.

use std::fmt;

/// A forwarded file/socket descriptor, allocated by the ION daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Per-descriptor operation counter: the `n`-th data operation issued on
/// a descriptor. Used to match deferred completions/errors to the
/// operations that caused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

impl OpId {
    pub const FIRST: OpId = OpId(1);

    /// The next operation id on the same descriptor.
    pub fn next(self) -> OpId {
        OpId(self.0.checked_add(1).expect("OpId overflow"))
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opid_sequence() {
        let a = OpId::FIRST;
        let b = a.next();
        assert!(b > a);
        assert_eq!(b, OpId(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Fd(7).to_string(), "fd7");
        assert_eq!(OpId(3).to_string(), "op#3");
    }
}
