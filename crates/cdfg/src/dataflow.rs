//! Dataflow analyses: liveness and SSA definition sites.

use crate::cfg;
use crate::ir::{BlockId, Function, Op, Operand, VReg};

/// A dense bitset over virtual registers.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Removes `r`.
    pub fn remove(&mut self, r: VReg) {
        if let Some(w) = self.words.get_mut(r.index() / 64) {
            *w &= !(1 << (r.index() % 64));
        }
    }

    /// Membership test.
    pub fn contains(&self, r: VReg) -> bool {
        self.words
            .get(r.index() / 64)
            .is_some_and(|w| w & (1 << (r.index() % 64)) != 0)
    }

    /// Unions `other` into `self`; returns `true` if anything changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let nw = *a | b;
            changed |= nw != *a;
            *a = nw;
        }
        changed
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| VReg((wi * 64 + b) as u32))
        })
    }
}

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Live registers at block entry.
    pub live_in: Vec<RegSet>,
    /// Live registers at block exit.
    pub live_out: Vec<RegSet>,
}

impl Liveness {
    /// Computes backward liveness. Phi uses are attributed to the
    /// corresponding predecessor edge (standard SSA liveness).
    pub fn compute(f: &Function) -> Liveness {
        let n = f.blocks.len();
        let nv = f.vreg_count() as usize;
        let mut use_sets = vec![RegSet::new(nv); n];
        let mut def_sets = vec![RegSet::new(nv); n];
        // Per-edge phi uses: (pred, reg)
        let mut phi_uses: Vec<Vec<(BlockId, VReg)>> = vec![Vec::new(); n];
        for b in f.block_ids() {
            let bi = b.index();
            for inst in &f.block(b).ops {
                match &inst.op {
                    Op::Phi { dst, args } => {
                        for (p, a) in args {
                            if let Operand::Reg(r) = a {
                                phi_uses[bi].push((*p, *r));
                            }
                        }
                        def_sets[bi].insert(*dst);
                    }
                    op => {
                        op.for_each_use(|o| {
                            if let Operand::Reg(r) = o {
                                if !def_sets[bi].contains(*r) {
                                    use_sets[bi].insert(*r);
                                }
                            }
                        });
                        if let Some(d) = op.dst() {
                            def_sets[bi].insert(d);
                        }
                    }
                }
            }
            f.block(b).term.for_each_use(|o| {
                if let Operand::Reg(r) = o {
                    if !def_sets[bi].contains(*r) {
                        use_sets[bi].insert(*r);
                    }
                }
            });
        }
        let mut live_in = vec![RegSet::new(nv); n];
        let mut live_out = vec![RegSet::new(nv); n];
        let po = cfg::postorder(f);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &po {
                let bi = b.index();
                // out[b] = union over succ s of (in[s] minus s's phi defs,
                // plus phi args flowing along edge b->s)
                let mut out = RegSet::new(nv);
                for s in f.block(b).term.successors() {
                    let si = s.index();
                    out.union_with(&live_in[si]);
                    // phi destinations are not live on the edge; their args are
                    for inst in &f.block(s).ops {
                        if let Op::Phi { dst, .. } = &inst.op {
                            out.remove(*dst);
                        } else {
                            break;
                        }
                    }
                    for (p, r) in &phi_uses[si] {
                        if *p == b {
                            out.insert(*r);
                        }
                    }
                }
                // in[b] = use[b] | (out[b] - def[b])
                let mut inp = use_sets[bi].clone();
                for r in out.iter() {
                    if !def_sets[bi].contains(r) {
                        inp.insert(r);
                    }
                }
                if out != live_out[bi] {
                    live_out[bi] = out;
                    changed = true;
                }
                if inp != live_in[bi] {
                    live_in[bi] = inp;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
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
    use crate::ir::{BinOp, Terminator};
    use crate::ssa;

    #[test]
    fn regset_basics() {
        let mut s = RegSet::new(4);
        assert!(s.is_empty());
        assert!(s.insert(VReg(3)));
        assert!(!s.insert(VReg(3)));
        assert!(s.insert(VReg(100))); // grows
        assert!(s.contains(VReg(3)));
        assert!(s.contains(VReg(100)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![VReg(3), VReg(100)]);
        s.remove(VReg(3));
        assert!(!s.contains(VReg(3)));
        let mut t = RegSet::new(0);
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s));
        assert!(t.contains(VReg(100)));
    }

    #[test]
    fn liveness_through_loop() {
        // i=0; while (i<10) i++; return i
        let mut f = Function::new("l");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let i = f.new_vreg();
        let c = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: i, value: 0 });
        f.block_mut(f.entry).term = Terminator::Jump(header);
        f.block_mut(header).push(Op::Bin {
            op: BinOp::LtS,
            dst: c,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(10),
        });
        f.block_mut(header).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t: body,
            f: exit,
        };
        f.block_mut(body).push(Op::Bin {
            op: BinOp::Add,
            dst: i,
            lhs: Operand::Reg(i),
            rhs: Operand::Const(1),
        });
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return {
            value: Some(Operand::Reg(i)),
        };
        ssa::construct(&mut f);
        let live = Liveness::compute(&f);
        // The phi result is live into the body and the exit.
        let phi_dst = f
            .block(header)
            .ops
            .iter()
            .find_map(|x| match &x.op {
                Op::Phi { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        assert!(live.live_in[body.index()].contains(phi_dst));
        assert!(live.live_in[exit.index()].contains(phi_dst));
        // Nothing is live into the entry.
        assert!(live.live_in[f.entry.index()].is_empty());
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
