//! Value encodings.
//!
//! The tag-free encoding stores integers at full 64-bit width and pointers
//! as bare addresses — §1's first claimed advantage ("larger integers can
//! be represented without resorting to multi-word representations").
//!
//! The tagged baseline is the standard ML low-bit scheme: integers are
//! `(i << 1) | 1` (so only 63 bits wide), pointers are even words.
//! Arithmetic must strip and reinstate tags; [`Encoding::arith_tag_ops`]
//! reports the extra ALU operations per operator using the classic
//! strength-reduced forms (e.g. tagged add is `a + b - 1`), and the
//! encode/decode work is performed for real by the VM, so both the
//! counter-based and wall-clock measurements of §1's second advantage are
//! grounded.

use crate::word::{Addr, HeapMode, Word, HEAP_BASE};

/// Encoder/decoder for one heap mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoding {
    pub mode: HeapMode,
}

impl Encoding {
    /// Creates the encoding for `mode`.
    pub fn new(mode: HeapMode) -> Self {
        Encoding { mode }
    }

    /// Encodes an integer.
    ///
    /// In tagged mode the value is truncated to 63 bits (the overhead the
    /// paper's first advantage eliminates).
    pub fn int(&self, i: i64) -> Word {
        match self.mode {
            HeapMode::TagFree => i as Word,
            HeapMode::Tagged => ((i as Word) << 1) | 1,
        }
    }

    /// Decodes an integer.
    pub fn int_of(&self, w: Word) -> i64 {
        match self.mode {
            HeapMode::TagFree => w as i64,
            HeapMode::Tagged => (w as i64) >> 1,
        }
    }

    /// Encodes a boolean (`false` → int 0, `true` → int 1).
    pub fn bool(&self, b: bool) -> Word {
        self.int(i64::from(b))
    }

    /// Decodes a boolean.
    pub fn bool_of(&self, w: Word) -> bool {
        self.int_of(w) != 0
    }

    /// Encodes unit (int 0).
    pub fn unit(&self) -> Word {
        self.int(0)
    }

    /// Encodes a heap pointer.
    pub fn ptr(&self, a: Addr) -> Word {
        match self.mode {
            HeapMode::TagFree => a.0,
            HeapMode::Tagged => a.0 << 1,
        }
    }

    /// Decodes a heap pointer.
    pub fn addr_of(&self, w: Word) -> Addr {
        match self.mode {
            HeapMode::TagFree => Addr(w),
            HeapMode::Tagged => Addr(w >> 1),
        }
    }

    /// Is this datatype word an immediate (nullary) constructor rather
    /// than a pointer? Tag-free, immediates are the words below the heap
    /// base; tagged, they are the integer-tagged (odd) words.
    #[inline]
    pub fn is_imm(&self, w: Word) -> bool {
        match self.mode {
            HeapMode::TagFree => w < HEAP_BASE,
            HeapMode::Tagged => w & 1 == 1,
        }
    }

    /// Tagged mode only: is this word a (tagged) pointer? The tagged
    /// collector's entire root-identification logic (§1: the tags exist
    /// "to support garbage collection").
    pub fn is_tagged_ptr(&self, w: Word) -> bool {
        debug_assert_eq!(self.mode, HeapMode::Tagged);
        w & 1 == 0
    }

    /// Extra ALU operations tagged arithmetic performs over untagged, per
    /// operator, using the standard strength-reduced forms:
    /// add `a+b-1`, sub `a-b+1`, mul `(a>>1)*(b-1)+1`, div/mod full
    /// untag–op–retag, negation `2-a`.
    pub fn arith_tag_ops(&self, op: ArithKind) -> u64 {
        if self.mode == HeapMode::TagFree {
            return 0;
        }
        match op {
            ArithKind::Add | ArithKind::Sub | ArithKind::Neg => 1,
            ArithKind::Mul => 2,
            ArithKind::Div | ArithKind::Mod => 3,
            // Tagged integers compare directly (the encoding is
            // monotonic), so comparisons are free.
            ArithKind::Cmp => 0,
        }
    }
}

/// Operator classes for tag-overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithKind {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    Cmp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagfree_ints_are_identity() {
        let e = Encoding::new(HeapMode::TagFree);
        for i in [0i64, 1, -1, i64::MAX, i64::MIN] {
            assert_eq!(e.int_of(e.int(i)), i);
        }
    }

    #[test]
    fn tagged_ints_roundtrip_63_bits() {
        let e = Encoding::new(HeapMode::Tagged);
        for i in [0i64, 1, -1, (1 << 62) - 1, -(1 << 62)] {
            assert_eq!(e.int_of(e.int(i)), i);
        }
        // Tagged words are always odd.
        assert_eq!(e.int(7) & 1, 1);
    }

    #[test]
    fn tagged_ordering_is_preserved() {
        let e = Encoding::new(HeapMode::Tagged);
        assert!((e.int(-5) as i64) < (e.int(3) as i64));
        assert!((e.int(3) as i64) < (e.int(4) as i64));
    }

    #[test]
    fn pointers_roundtrip() {
        for mode in [HeapMode::TagFree, HeapMode::Tagged] {
            let e = Encoding::new(mode);
            let a = Addr(123456);
            assert_eq!(e.addr_of(e.ptr(a)), a);
        }
        let t = Encoding::new(HeapMode::Tagged);
        assert!(t.is_tagged_ptr(t.ptr(Addr(5000))));
        assert!(!t.is_tagged_ptr(t.int(5000)));
    }

    #[test]
    fn tag_op_costs() {
        let t = Encoding::new(HeapMode::Tagged);
        let f = Encoding::new(HeapMode::TagFree);
        assert_eq!(t.arith_tag_ops(ArithKind::Add), 1);
        assert_eq!(t.arith_tag_ops(ArithKind::Div), 3);
        assert_eq!(t.arith_tag_ops(ArithKind::Cmp), 0);
        assert_eq!(f.arith_tag_ops(ArithKind::Mul), 0);
    }

    #[test]
    fn bool_unit_encoding() {
        for mode in [HeapMode::TagFree, HeapMode::Tagged] {
            let e = Encoding::new(mode);
            assert!(e.bool_of(e.bool(true)));
            assert!(!e.bool_of(e.bool(false)));
            assert_eq!(e.int_of(e.unit()), 0);
        }
    }
}
