//! CFG utilities: predecessors, orderings, reachability, and cleanup.

use crate::ir::{BlockId, Function, Op};

/// Predecessor lists for every block.
///
/// # Example
///
/// ```
/// use binpart_cdfg::ir::{Function, Terminator};
/// use binpart_cdfg::cfg;
/// let mut f = Function::new("t");
/// let b = f.add_block();
/// f.block_mut(f.entry).term = Terminator::Jump(b);
/// f.block_mut(b).term = Terminator::Return { value: None };
/// let preds = cfg::predecessors(&f);
/// assert_eq!(preds[b.index()], vec![f.entry]);
/// ```
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for id in f.block_ids() {
        for s in f.block(id).term.successors() {
            // A block may appear twice as a successor (e.g. a branch with
            // both edges to the same target); record it once per edge kind.
            if !preds[s.index()].contains(&id) {
                preds[s.index()].push(id);
            }
        }
    }
    preds
}

/// Blocks in post-order starting from the entry (unreachable blocks absent).
pub fn postorder(f: &Function) -> Vec<BlockId> {
    let mut order = Vec::with_capacity(f.blocks.len());
    let mut state = vec![0u8; f.blocks.len()]; // 0 unseen, 1 open, 2 done
    let mut stack = vec![(f.entry, 0usize)];
    state[f.entry.index()] = 1;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = f.block(b).term.successors();
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            order.push(b);
            stack.pop();
        }
    }
    order
}

/// Blocks in reverse post-order (entry first).
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut po = postorder(f);
    po.reverse();
    po
}

/// `true` for every block reachable from the entry.
pub fn reachable(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    for b in postorder(f) {
        seen[b.index()] = true;
    }
    seen
}

/// Removes unreachable blocks, compacting ids and fixing terminators and
/// phi argument lists. Returns the number of blocks removed.
pub fn remove_unreachable(f: &mut Function) -> usize {
    let keep = reachable(f);
    if keep.iter().all(|&k| k) {
        return 0;
    }
    let mut remap = vec![BlockId(u32::MAX); f.blocks.len()];
    let mut next = 0u32;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            remap[i] = BlockId(next);
            next += 1;
        }
    }
    let removed = f.blocks.len() - next as usize;
    let old_blocks = std::mem::take(&mut f.blocks);
    for (i, mut b) in old_blocks.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        b.term.map_successors(|s| remap[s.index()]);
        for inst in &mut b.ops {
            if let Op::Phi { args, .. } = &mut inst.op {
                args.retain(|(p, _)| keep[p.index()]);
                for (p, _) in args.iter_mut() {
                    *p = remap[p.index()];
                }
            }
        }
        f.blocks.push(b);
    }
    f.entry = remap[f.entry.index()];
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Operand, Terminator};

    fn diamond() -> Function {
        // entry -> a, b ; a -> join ; b -> join ; join -> ret
        let mut f = Function::new("d");
        let a = f.add_block();
        let b = f.add_block();
        let join = f.add_block();
        f.block_mut(f.entry).term = Terminator::Branch {
            cond: Operand::Const(1),
            t: a,
            f: b,
        };
        f.block_mut(a).term = Terminator::Jump(join);
        f.block_mut(b).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Return { value: None };
        f
    }

    #[test]
    fn preds_of_diamond() {
        let f = diamond();
        let preds = predecessors(&f);
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
        assert_eq!(preds[0], Vec::<BlockId>::new());
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let f = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), 4);
        // join must come after both a and b
        let pos = |id: BlockId| rpo.iter().position(|&b| b == id).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn unreachable_blocks_removed_and_ids_compacted() {
        let mut f = diamond();
        let dead = f.add_block();
        f.block_mut(dead).term = Terminator::Return { value: None };
        assert_eq!(remove_unreachable(&mut f), 1);
        assert_eq!(f.blocks.len(), 4);
        // graph still intact
        let preds = predecessors(&f);
        assert_eq!(preds[3].len(), 2);
    }
}
