//! Per-register tables over a function: a register bitset, per-register
//! lists in compressed-sparse-row form, and SSA definition sites.

use crate::ir::{BlockId, Function, Op, VReg};

/// A dense bitset over virtual registers.
#[derive(Debug, Clone)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// Empty set sized for `n` registers.
    pub fn new(n: usize) -> RegSet {
        RegSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts `r`; returns `true` if newly inserted.
    pub fn insert(&mut self, r: VReg) -> bool {
        let (w, b) = (r.index() / 64, r.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }
}

/// One list of items per register, in compressed-sparse-row form: every
/// list lives in one flat array, and register `r`'s list is the slice
/// between two offsets. Building it costs two allocations however many
/// registers there are, where a `Vec` per register costs one each.
#[derive(Debug)]
pub struct RegLists<T> {
    /// `off[r]..off[r + 1]` is register `r`'s slice of `flat`.
    off: Vec<u32>,
    flat: Vec<T>,
}

/// What [`RegLists::build`]'s enumeration pushes `(register, item)` pairs
/// into.
pub struct RegListsSink<'a, T> {
    off: &'a mut [u32],
    /// `None` while counting, the flat array while filling.
    flat: Option<&'a mut [T]>,
}

impl<T> RegListsSink<'_, T> {
    /// Appends `item` to the list of `r`; registers outside the table are
    /// ignored.
    #[inline]
    pub fn push(&mut self, r: VReg, item: T) {
        let i = r.index();
        if i + 1 >= self.off.len() {
            return;
        }
        match &mut self.flat {
            None => self.off[i + 1] += 1,
            Some(flat) => {
                if let Some(slot) = flat.get_mut(self.off[i] as usize) {
                    *slot = item;
                }
                self.off[i] += 1;
            }
        }
    }
}

impl<T: Copy + Default> RegLists<T> {
    /// The lists of registers `0..n`. `each` enumerates the `(register,
    /// item)` pairs into its sink; it runs twice, once to count and once to
    /// fill, and must push the same pairs both times. Each list keeps the
    /// order its items were pushed in.
    pub fn build(n: usize, mut each: impl FnMut(&mut RegListsSink<'_, T>)) -> RegLists<T> {
        let mut off = vec![0u32; n + 1];
        each(&mut RegListsSink {
            off: &mut off,
            flat: None,
        });
        for i in 1..=n {
            off[i] += off[i - 1];
        }
        let mut flat = vec![T::default(); off[n] as usize];
        // Filling advances each `off[r]` from its list's start to its end,
        // which is the next list's start: shift the offsets back by one.
        each(&mut RegListsSink {
            off: &mut off,
            flat: Some(&mut flat),
        });
        off.rotate_right(1);
        off[0] = 0;
        RegLists { off, flat }
    }

    /// The list of `r`; empty for registers outside the table.
    pub fn of(&self, r: VReg) -> &[T] {
        match (self.off.get(r.index()), self.off.get(r.index() + 1)) {
            (Some(&lo), Some(&hi)) => self.flat.get(lo as usize..hi as usize).unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// The definition site of every register: the one table the decompiler's
/// def-chasing analyses share (alias analysis, strength promotion and
/// induction recovery each walk definitions, never uses).
///
/// Sites are `(block, op index)` pairs, so building the table copies no op.
/// It is meaningful on SSA functions, where each register has at most one
/// definition; elsewhere the last definition in block order wins.
#[derive(Debug, Clone)]
pub struct DefSites {
    site: Vec<Option<(BlockId, u32)>>,
}

impl DefSites {
    /// Records the defining op of every register of `f`.
    pub fn compute(f: &Function) -> DefSites {
        let mut site = vec![None; f.vreg_count() as usize];
        for b in f.block_ids() {
            for (k, inst) in f.block(b).ops.iter().enumerate() {
                if let Some(slot) = inst.op.dst().and_then(|d| site.get_mut(d.index())) {
                    *slot = Some((b, k as u32));
                }
            }
        }
        DefSites { site }
    }

    /// The op defining `r` in `f`, the function the table was built from;
    /// `None` for live-ins and registers the table does not cover.
    pub fn def_of<'f>(&self, f: &'f Function, r: VReg) -> Option<&'f Op> {
        let (b, k) = self.site.get(r.index()).copied().flatten()?;
        Some(&f.block(b).ops[k as usize].op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Operand, Terminator};

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(4);
        assert!(s.insert(VReg(3)));
        assert!(!s.insert(VReg(3)));
        assert!(s.insert(VReg(100))); // grows
        assert!(!s.insert(VReg(100)));
        assert!(s.insert(VReg(64)));
    }

    #[test]
    fn reg_lists_keep_push_order_per_register() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (9, 'x'), (3, 'd'), (0, 'e')];
        let lists = RegLists::build(4, |sink| {
            for &(r, c) in &pairs {
                sink.push(VReg(r), c);
            }
        });
        assert_eq!(lists.of(VReg(0)), ['b', 'e']);
        assert_eq!(lists.of(VReg(1)), [] as [char; 0]);
        assert_eq!(lists.of(VReg(2)), ['a', 'c']);
        assert_eq!(lists.of(VReg(3)), ['d']);
        // Register 9 is outside the table: dropped, and reads as empty.
        assert!(lists.of(VReg(9)).is_empty());
        assert!(RegLists::<u32>::build(0, |_| {}).of(VReg(0)).is_empty());
    }

    #[test]
    fn def_sites_locate_definitions() {
        let mut f = Function::new("du");
        let a = f.new_vreg();
        let b = f.new_vreg();
        let p = f.new_vreg(); // never defined: a live-in
        f.block_mut(f.entry).push(Op::Const { dst: a, value: 4 });
        f.block_mut(f.entry).push(Op::Bin {
            op: BinOp::Mul,
            dst: b,
            lhs: Operand::Reg(a),
            rhs: Operand::Reg(p),
        });
        f.block_mut(f.entry).term = Terminator::Return {
            value: Some(Operand::Reg(b)),
        };
        f.is_ssa = true;
        let sites = DefSites::compute(&f);
        assert!(matches!(
            sites.def_of(&f, a),
            Some(Op::Const { value: 4, .. })
        ));
        assert!(matches!(
            sites.def_of(&f, b),
            Some(Op::Bin { op: BinOp::Mul, .. })
        ));
        assert!(sites.def_of(&f, p).is_none());
        assert!(sites.def_of(&f, VReg(99)).is_none()); // outside the table
    }
}
