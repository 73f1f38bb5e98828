//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy).

use crate::cfg;
use crate::ir::{BlockId, Function};

/// Immediate-dominator tree plus dominance frontiers.
///
/// # Example
///
/// ```
/// use binpart_cdfg::ir::{Function, Operand, Terminator};
/// use binpart_cdfg::dom::Dominators;
/// let mut f = Function::new("t");
/// let a = f.add_block();
/// let b = f.add_block();
/// let j = f.add_block();
/// f.block_mut(f.entry).term = Terminator::Branch { cond: Operand::Const(1), t: a, f: b };
/// f.block_mut(a).term = Terminator::Jump(j);
/// f.block_mut(b).term = Terminator::Jump(j);
/// f.block_mut(j).term = Terminator::Return { value: None };
/// let dom = Dominators::compute(&f);
/// assert_eq!(dom.idom(j), Some(f.entry));
/// assert!(dom.dominates(f.entry, j));
/// assert!(!dom.dominates(a, j));
/// ```
#[derive(Debug, Clone)]
pub struct Dominators {
    idom: Vec<Option<BlockId>>,
    /// Reverse post-order used internally; exposed for passes that want a
    /// consistent iteration order.
    pub rpo: Vec<BlockId>,
    frontier: Vec<Vec<BlockId>>,
    children: Vec<Vec<BlockId>>,
    rpo_index: Vec<usize>,
    /// Euler-tour interval of each block in the dominator tree:
    /// `a` dominates `b` iff `tin[a] <= tin[b] < tout[a]`, making
    /// [`Dominators::dominates`] O(1) instead of an idom-chain walk.
    tin: Vec<u32>,
    tout: Vec<u32>,
}

impl Dominators {
    /// Computes dominators for all blocks reachable from the entry.
    pub fn compute(f: &Function) -> Dominators {
        let n = f.blocks.len();
        let rpo = cfg::reverse_postorder(f);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let preds = cfg::predecessors(f);
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[f.entry.index()] = Some(f.entry);

        // Both walks stay on processed blocks: they start at predecessors
        // whose idom is set, every such idom is itself processed, and the
        // entry (its own idom, RPO index 0) ends both walks. So `None` is
        // never met; should it be, the walk gives up instead of panicking.
        let intersect =
            |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> Option<BlockId> {
                while a != b {
                    while rpo_index[a.index()] > rpo_index[b.index()] {
                        a = idom[a.index()]?;
                    }
                    while rpo_index[b.index()] > rpo_index[a.index()] {
                        b = idom[b.index()]?;
                    }
                }
                Some(a)
            };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if rpo_index[p.index()] == usize::MAX {
                        continue; // unreachable predecessor
                    }
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = match new_idom {
                        None => Some(p),
                        Some(cur) => intersect(&idom, cur, p).or(Some(cur)),
                    };
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Dominance frontiers (Cytron et al. on the computed idoms).
        let mut frontier = vec![Vec::new(); n];
        for &b in &rpo {
            let ps = &preds[b.index()];
            if ps.len() >= 2 {
                for &p in ps {
                    if rpo_index[p.index()] == usize::MAX {
                        continue;
                    }
                    let mut runner = p;
                    while Some(runner) != idom[b.index()] {
                        if !frontier[runner.index()].contains(&b) {
                            frontier[runner.index()].push(b);
                        }
                        match idom[runner.index()] {
                            Some(next) if next != runner => runner = next,
                            _ => break,
                        }
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); n];
        for &b in &rpo {
            if b != f.entry {
                if let Some(p) = idom[b.index()] {
                    children[p.index()].push(b);
                }
            }
        }

        // Euler tour of the dominator tree for O(1) ancestor queries.
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(BlockId, bool)> = vec![(f.entry, false)];
        while let Some((b, exiting)) = stack.pop() {
            if exiting {
                tout[b.index()] = clock;
                continue;
            }
            tin[b.index()] = clock;
            clock += 1;
            stack.push((b, true));
            for &c in &children[b.index()] {
                stack.push((c, false));
            }
        }

        Dominators {
            idom,
            rpo,
            frontier,
            children,
            rpo_index,
            tin,
            tout,
        }
    }

    /// Immediate dominator of `b`; `None` for the entry or unreachable
    /// blocks.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.index()] {
            Some(d) if d != b => Some(d),
            Some(_) => None, // entry
            None => None,
        }
    }

    /// Returns `true` if `a` dominates `b` (reflexive). O(1) via the
    /// Euler-tour numbering of the dominator tree.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        self.tin[a.index()] <= self.tin[b.index()] && self.tin[b.index()] < self.tout[a.index()]
    }

    /// Dominance frontier of `b`.
    pub fn frontier(&self, b: BlockId) -> &[BlockId] {
        &self.frontier[b.index()]
    }

    /// Children of `b` in the dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// Returns `true` if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Operand, Terminator};

    /// Builds the classic CFG from the Cooper-Harvey-Kennedy paper figure.
    fn chk_graph() -> (Function, Vec<BlockId>) {
        // 5 -> {4,3}; 4 -> 1; 3 -> 2; 1 -> 2; 2 -> {1, exit}
        // We index: entry=5, b4, b3, b1, b2, exit
        let mut f = Function::new("chk");
        let b4 = f.add_block();
        let b3 = f.add_block();
        let b1 = f.add_block();
        let b2 = f.add_block();
        let ex = f.add_block();
        f.block_mut(f.entry).term = Terminator::Branch {
            cond: Operand::Const(1),
            t: b4,
            f: b3,
        };
        f.block_mut(b4).term = Terminator::Jump(b1);
        f.block_mut(b3).term = Terminator::Jump(b2);
        f.block_mut(b1).term = Terminator::Jump(b2);
        f.block_mut(b2).term = Terminator::Branch {
            cond: Operand::Const(1),
            t: b1,
            f: ex,
        };
        f.block_mut(ex).term = Terminator::Return { value: None };
        (f, vec![b4, b3, b1, b2, ex])
    }

    #[test]
    fn chk_example_idoms() {
        let (f, ids) = chk_graph();
        let dom = Dominators::compute(&f);
        let (b4, b3, b1, b2, ex) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        assert_eq!(dom.idom(b4), Some(f.entry));
        assert_eq!(dom.idom(b3), Some(f.entry));
        // both b1 and b2 merge paths: idom is the entry
        assert_eq!(dom.idom(b1), Some(f.entry));
        assert_eq!(dom.idom(b2), Some(f.entry));
        assert_eq!(dom.idom(ex), Some(b2));
        assert_eq!(dom.idom(f.entry), None);
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let (f, ids) = chk_graph();
        let dom = Dominators::compute(&f);
        let ex = ids[4];
        assert!(dom.dominates(ex, ex));
        assert!(dom.dominates(f.entry, ex));
        assert!(dom.dominates(ids[3], ex)); // b2 dominates exit
        assert!(!dom.dominates(ids[0], ex)); // b4 does not
    }

    #[test]
    fn frontier_of_straight_line_is_empty() {
        let mut f = Function::new("line");
        let b = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(b);
        f.block_mut(b).term = Terminator::Return { value: None };
        let dom = Dominators::compute(&f);
        assert!(dom.frontier(f.entry).is_empty());
        assert!(dom.frontier(b).is_empty());
    }

    #[test]
    fn frontier_at_merge_points() {
        let (f, ids) = chk_graph();
        let dom = Dominators::compute(&f);
        let (b4, b3, b1, b2, _ex) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        // b4's frontier contains b1 and (transitively through b1) b2.
        assert!(dom.frontier(b4).contains(&b1));
        assert!(dom.frontier(b3).contains(&b2));
        // b2's frontier contains b1 (back edge merge).
        assert!(dom.frontier(b2).contains(&b1));
    }

    #[test]
    fn euler_tour_dominates_matches_idom_chain_walk() {
        // The O(1) interval test must agree with the definitional chain
        // walk on every pair, including unreachable blocks.
        let (mut f, _) = chk_graph();
        let dead = f.add_block();
        f.block_mut(dead).term = Terminator::Return { value: None };
        let dom = Dominators::compute(&f);
        let chain_walk = |a: BlockId, b: BlockId| -> bool {
            let mut cur = b;
            loop {
                if cur == a {
                    return true;
                }
                match dom.idom(cur) {
                    Some(d) => cur = d,
                    None => return false,
                }
            }
        };
        for a in f.block_ids() {
            for b in f.block_ids() {
                assert_eq!(
                    dom.dominates(a, b),
                    chain_walk(a, b),
                    "disagree on {a:?} dom {b:?}"
                );
            }
        }
    }

    #[test]
    fn dom_tree_children_partition_blocks() {
        let (f, _) = chk_graph();
        let dom = Dominators::compute(&f);
        let mut count = 0;
        for b in f.block_ids() {
            count += dom.children(b).len();
        }
        // every block except entry has exactly one tree parent
        assert_eq!(count, f.blocks.len() - 1);
    }
}
