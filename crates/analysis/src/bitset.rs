//! A small fixed-capacity bit set over frame slots.

use tfgc_ir::Slot;

/// A set of frame slots, stored as a bit vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotSet {
    bits: Vec<u64>,
    len: usize,
}

impl SlotSet {
    /// An empty set with capacity for `len` slots.
    pub fn new(len: usize) -> Self {
        SlotSet {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of slots the set can hold.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts a slot; returns true if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of capacity.
    pub fn insert(&mut self, s: Slot) -> bool {
        let i = s.0 as usize;
        assert!(i < self.len, "slot {i} out of capacity {}", self.len);
        let w = i / 64;
        let m = 1u64 << (i % 64);
        let was = self.bits[w] & m != 0;
        self.bits[w] |= m;
        !was
    }

    /// Removes a slot.
    pub fn remove(&mut self, s: Slot) {
        let i = s.0 as usize;
        if i < self.len {
            self.bits[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Membership test.
    pub fn contains(&self, s: Slot) -> bool {
        let i = s.0 as usize;
        i < self.len && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &SlotSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Intersects `other` into `self`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &SlotSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            let new = *a & *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Makes `self` equal to `other` without reallocating.
    pub fn copy_from(&mut self, other: &SlotSet) {
        debug_assert_eq!(self.len, other.len);
        self.bits.copy_from_slice(&other.bits);
    }

    /// Removes every slot.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// True when `self ⊆ other`.
    pub fn is_subset(&self, other: &SlotSet) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Number of slots in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Iterates the member slots in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.len)
            .map(|i| Slot(i as u16))
            .filter(move |s| self.contains(*s))
    }

    /// A set containing every slot below `len`.
    pub fn full(len: usize) -> Self {
        let mut s = SlotSet::new(len);
        for i in 0..len {
            s.insert(Slot(i as u16));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = SlotSet::new(130);
        assert!(s.insert(Slot(0)));
        assert!(s.insert(Slot(129)));
        assert!(!s.insert(Slot(0)));
        assert!(s.contains(Slot(129)));
        s.remove(Slot(129));
        assert!(!s.contains(Slot(129)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn union_reports_change() {
        let mut a = SlotSet::new(10);
        let mut b = SlotSet::new(10);
        b.insert(Slot(3));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(b.is_subset(&a));
    }

    #[test]
    fn iter_ascending() {
        let mut s = SlotSet::new(80);
        s.insert(Slot(70));
        s.insert(Slot(2));
        let v: Vec<u16> = s.iter().map(|x| x.0).collect();
        assert_eq!(v, vec![2, 70]);
    }

    #[test]
    fn full_and_intersect() {
        let mut f = SlotSet::full(5);
        assert_eq!(f.count(), 5);
        let mut g = SlotSet::new(5);
        g.insert(Slot(1));
        assert!(f.intersect_with(&g));
        assert!(!f.intersect_with(&g));
        assert_eq!(f.count(), 1);
        assert!(f.contains(Slot(1)));
    }

    #[test]
    fn copy_from_and_clear() {
        let mut a = SlotSet::new(70);
        let mut b = SlotSet::new(70);
        b.insert(Slot(69));
        a.copy_from(&b);
        assert_eq!(a, b);
        a.clear();
        assert_eq!(a, SlotSet::new(70));
    }
}
