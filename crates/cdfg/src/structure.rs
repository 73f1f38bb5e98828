//! Control-structure recovery ("structural analysis"): classifies the CFG
//! into sequences, if/if-else regions, pre-test (`while`) and post-test
//! (`do-while`) loops, self-loops, and switches.
//!
//! This is the paper's *control structure recovery* decompilation stage. The
//! partitioner and synthesizer mostly consume the loop forest directly;
//! the control tree provides the high-level-construct statistics reported in
//! experiment E4 and drives structured FSM generation.

use crate::cfg;
use crate::ir::{BlockId, Function, Terminator};

/// A node of the recovered control tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlNode {
    /// A leaf basic block.
    Block(BlockId),
    /// Sequential composition.
    Seq(Vec<ControlNode>),
    /// `if (c) { then }` with fall-through join.
    IfThen {
        /// Block computing the condition.
        cond: Box<ControlNode>,
        /// Taken region.
        then: Box<ControlNode>,
    },
    /// `if (c) { then } else { els }`.
    IfThenElse {
        /// Block computing the condition.
        cond: Box<ControlNode>,
        /// True region.
        then: Box<ControlNode>,
        /// False region.
        els: Box<ControlNode>,
    },
    /// Pre-test loop: header evaluates the condition, body loops back.
    While {
        /// Header region (condition).
        header: Box<ControlNode>,
        /// Loop body.
        body: Box<ControlNode>,
    },
    /// Post-test loop: body ends with the back-edge test.
    DoWhile {
        /// Loop body (includes the test).
        body: Box<ControlNode>,
    },
    /// Single block looping to itself.
    SelfLoop(Box<ControlNode>),
    /// Multi-way branch recovered from a jump table.
    Switch {
        /// Region computing the index.
        head: Box<ControlNode>,
        /// One region per distinct target.
        arms: Vec<ControlNode>,
    },
    /// Region that did not match any schema (irreducible or exotic).
    Unstructured(Vec<ControlNode>),
}

/// Counts of recovered constructs, used for the E4 report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructureStats {
    /// Leaf blocks.
    pub blocks: usize,
    /// `if` without `else`.
    pub ifs: usize,
    /// `if/else`.
    pub if_elses: usize,
    /// Pre-test loops.
    pub whiles: usize,
    /// Post-test loops.
    pub do_whiles: usize,
    /// Single-block loops.
    pub self_loops: usize,
    /// Switch regions.
    pub switches: usize,
    /// Unstructured regions (0 for fully structured functions).
    pub unstructured: usize,
}

impl StructureStats {
    /// Total recovered loops of any kind.
    pub fn loops(&self) -> usize {
        self.whiles + self.do_whiles + self.self_loops
    }
}

/// The recovered control tree of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlTree {
    /// Root node.
    pub root: ControlNode,
}

impl ControlTree {
    /// Walks the tree and tallies construct counts.
    pub fn stats(&self) -> StructureStats {
        let mut s = StructureStats::default();
        fn walk(n: &ControlNode, s: &mut StructureStats) {
            match n {
                ControlNode::Block(_) => s.blocks += 1,
                ControlNode::Seq(v) => v.iter().for_each(|c| walk(c, s)),
                ControlNode::IfThen { cond, then } => {
                    s.ifs += 1;
                    walk(cond, s);
                    walk(then, s);
                }
                ControlNode::IfThenElse { cond, then, els } => {
                    s.if_elses += 1;
                    walk(cond, s);
                    walk(then, s);
                    walk(els, s);
                }
                ControlNode::While { header, body } => {
                    s.whiles += 1;
                    walk(header, s);
                    walk(body, s);
                }
                ControlNode::DoWhile { body } => {
                    s.do_whiles += 1;
                    walk(body, s);
                }
                ControlNode::SelfLoop(b) => {
                    s.self_loops += 1;
                    walk(b, s);
                }
                ControlNode::Switch { head, arms } => {
                    s.switches += 1;
                    walk(head, s);
                    arms.iter().for_each(|a| walk(a, s));
                }
                ControlNode::Unstructured(v) => {
                    s.unstructured += 1;
                    v.iter().for_each(|c| walk(c, s));
                }
            }
        }
        walk(&self.root, &mut s);
        s
    }
}

#[derive(Debug, Clone)]
struct ANode {
    payload: ControlNode,
    succs: Vec<usize>,
    alive: bool,
    is_switch_head: bool,
}

/// Recovers the control tree of `f` by iterative region reduction.
pub fn recover(f: &Function) -> ControlTree {
    // Build the abstract graph in RPO so reductions see forward order.
    let rpo = cfg::reverse_postorder(f);
    let mut index_of = vec![usize::MAX; f.blocks.len()];
    let mut nodes: Vec<ANode> = Vec::with_capacity(rpo.len());
    for (i, &b) in rpo.iter().enumerate() {
        index_of[b.index()] = i;
    }
    for &b in &rpo {
        let mut succs: Vec<usize> = f
            .block(b)
            .term
            .successors()
            .into_iter()
            .map(|s| index_of[s.index()])
            .collect();
        succs.dedup();
        // A branch with both arms to the same block degenerates to a jump.
        if let Terminator::Branch { t, f: fl, .. } = f.block(b).term {
            if t == fl {
                succs.dedup();
            }
        }
        nodes.push(ANode {
            payload: ControlNode::Block(b),
            succs,
            alive: true,
            is_switch_head: matches!(f.block(b).term, Terminator::Switch { .. }),
        });
    }
    let entry = 0usize;

    // The predecessor lists are refilled in place between reductions (one
    // allocation up front instead of one set per reduction step).
    //
    // Fuel: every reduction kills at least one node, so `nodes.len()`
    // rounds suffice for any well-formed graph; the margin covers
    // degenerate single-node rewrites. On exhaustion (an adversarial CFG
    // that keeps "reducing" without shrinking) the remainder is reported
    // as `Unstructured` instead of looping forever.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut fuel = 4 * nodes.len() as u64 + 16;
    loop {
        if fuel == 0 {
            break;
        }
        fuel -= 1;
        compute_preds(&nodes, &mut preds);
        if reduce_once(&mut nodes, &preds, entry) {
            continue;
        }
        break;
    }

    let remaining: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].alive).collect();
    let root = if remaining.len() == 1 {
        std::mem::replace(&mut nodes[remaining[0]].payload, ControlNode::Seq(vec![]))
    } else {
        ControlNode::Unstructured(
            remaining
                .into_iter()
                .map(|i| std::mem::replace(&mut nodes[i].payload, ControlNode::Seq(vec![])))
                .collect(),
        )
    };
    ControlTree { root }
}

fn compute_preds(nodes: &[ANode], preds: &mut [Vec<usize>]) {
    for p in preds.iter_mut() {
        p.clear();
    }
    for (i, n) in nodes.iter().enumerate() {
        if !n.alive {
            continue;
        }
        for &s in &n.succs {
            if nodes[s].alive && !preds[s].contains(&i) {
                preds[s].push(i);
            }
        }
    }
}

fn seq(a: ControlNode, b: ControlNode) -> ControlNode {
    match (a, b) {
        (ControlNode::Seq(mut v), ControlNode::Seq(w)) => {
            v.extend(w);
            ControlNode::Seq(v)
        }
        (ControlNode::Seq(mut v), b) => {
            v.push(b);
            ControlNode::Seq(v)
        }
        (a, ControlNode::Seq(mut w)) => {
            w.insert(0, a);
            ControlNode::Seq(w)
        }
        (a, b) => ControlNode::Seq(vec![a, b]),
    }
}

/// Applies one reduction; returns `true` if the graph changed.
fn reduce_once(nodes: &mut [ANode], preds: &[Vec<usize>], entry: usize) -> bool {
    let n = nodes.len();
    // 1. Self-loop / do-while.
    for i in 0..n {
        if !nodes[i].alive {
            continue;
        }
        if nodes[i].succs.contains(&i) {
            let other: Vec<usize> = nodes[i].succs.iter().copied().filter(|&s| s != i).collect();
            let payload = std::mem::replace(&mut nodes[i].payload, ControlNode::Seq(vec![]));
            nodes[i].payload = if (other.is_empty() && preds[i].iter().all(|&p| p == i))
                || matches!(payload, ControlNode::Block(_))
            {
                ControlNode::SelfLoop(Box::new(payload))
            } else {
                ControlNode::DoWhile {
                    body: Box::new(payload),
                }
            };
            nodes[i].succs = other;
            return true;
        }
    }
    // 2. Sequence.
    for i in 0..n {
        if !nodes[i].alive || nodes[i].succs.len() != 1 {
            continue;
        }
        let s = nodes[i].succs[0];
        if s == i || s == entry || !nodes[s].alive {
            continue;
        }
        if preds[s].len() != 1 || nodes[s].is_switch_head {
            continue;
        }
        let spayload = std::mem::replace(&mut nodes[s].payload, ControlNode::Seq(vec![]));
        let ipayload = std::mem::replace(&mut nodes[i].payload, ControlNode::Seq(vec![]));
        nodes[i].payload = seq(ipayload, spayload);
        nodes[i].succs = nodes[s].succs.clone();
        nodes[i].is_switch_head = nodes[s].is_switch_head;
        nodes[s].alive = false;
        return true;
    }
    // 3. If-then / if-then-else / while.
    for i in 0..n {
        if !nodes[i].alive || nodes[i].succs.len() != 2 || nodes[i].is_switch_head {
            continue;
        }
        let (a, b) = (nodes[i].succs[0], nodes[i].succs[1]);
        if !nodes[a].alive || !nodes[b].alive || a == i || b == i {
            continue;
        }
        let single_entry = |x: usize| preds[x].len() == 1 && preds[x][0] == i;
        let succ_of = |x: usize| -> Option<usize> {
            match nodes[x].succs.len() {
                0 => None,
                1 => Some(nodes[x].succs[0]),
                _ => Some(usize::MAX),
            }
        };
        // While: arm loops straight back to i.
        for (arm, exit) in [(a, b), (b, a)] {
            if single_entry(arm) && succ_of(arm) == Some(i) && !preds[i].is_empty() {
                let header = std::mem::replace(&mut nodes[i].payload, ControlNode::Seq(vec![]));
                let body = std::mem::replace(&mut nodes[arm].payload, ControlNode::Seq(vec![]));
                nodes[i].payload = ControlNode::While {
                    header: Box::new(header),
                    body: Box::new(body),
                };
                nodes[i].succs = vec![exit];
                nodes[arm].alive = false;
                return true;
            }
        }
        // If-then: one arm falls through to the other.
        for (then, join) in [(a, b), (b, a)] {
            if single_entry(then) && succ_of(then) == Some(join) {
                let cond = std::mem::replace(&mut nodes[i].payload, ControlNode::Seq(vec![]));
                let t = std::mem::replace(&mut nodes[then].payload, ControlNode::Seq(vec![]));
                nodes[i].payload = ControlNode::IfThen {
                    cond: Box::new(cond),
                    then: Box::new(t),
                };
                nodes[i].succs = vec![join];
                nodes[then].alive = false;
                return true;
            }
        }
        // If-then-else: both arms single-entry with equal successor sets
        // (either both return, or both join at the same node).
        if single_entry(a) && single_entry(b) {
            let (sa, sb) = (succ_of(a), succ_of(b));
            let joinable = sa == sb && sa != Some(usize::MAX);
            if joinable {
                let cond = std::mem::replace(&mut nodes[i].payload, ControlNode::Seq(vec![]));
                let t = std::mem::replace(&mut nodes[a].payload, ControlNode::Seq(vec![]));
                let e = std::mem::replace(&mut nodes[b].payload, ControlNode::Seq(vec![]));
                nodes[i].payload = ControlNode::IfThenElse {
                    cond: Box::new(cond),
                    then: Box::new(t),
                    els: Box::new(e),
                };
                nodes[i].succs = match sa {
                    Some(j) => vec![j],
                    None => vec![],
                };
                nodes[a].alive = false;
                nodes[b].alive = false;
                return true;
            }
        }
    }
    // 4. Switch: all arms single-entry from i with a common join (or return).
    for i in 0..n {
        if !nodes[i].alive || !nodes[i].is_switch_head {
            continue;
        }
        let arms: Vec<usize> = nodes[i].succs.clone();
        if arms.iter().any(|&x| !nodes[x].alive || x == i) {
            continue;
        }
        let all_single = arms
            .iter()
            .all(|&x| preds[x].len() == 1 && preds[x][0] == i);
        if !all_single {
            continue;
        }
        let mut join: Option<Option<usize>> = None;
        let mut ok = true;
        for &x in &arms {
            let s = match nodes[x].succs.len() {
                0 => None,
                1 => Some(nodes[x].succs[0]),
                _ => {
                    ok = false;
                    break;
                }
            };
            match &join {
                None => join = Some(s),
                Some(j) if *j == s => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let head = std::mem::replace(&mut nodes[i].payload, ControlNode::Seq(vec![]));
        let mut arm_nodes = Vec::new();
        for &x in &arms {
            arm_nodes.push(std::mem::replace(
                &mut nodes[x].payload,
                ControlNode::Seq(vec![]),
            ));
            nodes[x].alive = false;
        }
        nodes[i].payload = ControlNode::Switch {
            head: Box::new(head),
            arms: arm_nodes,
        };
        nodes[i].is_switch_head = false;
        nodes[i].succs = match join {
            Some(Some(j)) => vec![j],
            _ => vec![],
        };
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, Operand, VReg};

    fn branch(f: &mut Function, b: BlockId, t: BlockId, fl: BlockId) {
        let c = f.new_vreg();
        f.block_mut(b).push(Op::Const { dst: c, value: 1 });
        f.block_mut(b).term = Terminator::Branch {
            cond: Operand::Reg(c),
            t,
            f: fl,
        };
    }

    #[test]
    fn straight_line_is_seq() {
        let mut f = Function::new("s");
        let b = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(b);
        f.block_mut(b).term = Terminator::Return { value: None };
        let t = recover(&f);
        let s = t.stats();
        assert_eq!(s.blocks, 2);
        assert_eq!(s.unstructured, 0);
        assert!(matches!(t.root, ControlNode::Seq(_)));
    }

    #[test]
    fn if_then_recovered() {
        let mut f = Function::new("it");
        let then = f.add_block();
        let join = f.add_block();
        let e = f.entry;
        branch(&mut f, e, then, join);
        f.block_mut(then).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Return { value: None };
        let s = recover(&f).stats();
        assert_eq!(s.ifs, 1);
        assert_eq!(s.if_elses, 0);
        assert_eq!(s.unstructured, 0);
    }

    #[test]
    fn if_then_else_recovered() {
        let mut f = Function::new("ite");
        let a = f.add_block();
        let b = f.add_block();
        let join = f.add_block();
        let e = f.entry;
        branch(&mut f, e, a, b);
        f.block_mut(a).term = Terminator::Jump(join);
        f.block_mut(b).term = Terminator::Jump(join);
        f.block_mut(join).term = Terminator::Return { value: None };
        let s = recover(&f).stats();
        assert_eq!(s.if_elses, 1);
        assert_eq!(s.unstructured, 0);
    }

    #[test]
    fn while_loop_recovered() {
        let mut f = Function::new("w");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        branch(&mut f, header, body, exit);
        f.block_mut(body).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return { value: None };
        let s = recover(&f).stats();
        assert_eq!(s.whiles, 1);
        assert_eq!(s.loops(), 1);
        assert_eq!(s.unstructured, 0);
    }

    #[test]
    fn do_while_recovered() {
        // entry -> body; body -> body | exit
        let mut f = Function::new("dw");
        let body = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(body);
        branch(&mut f, body, body, exit);
        f.block_mut(exit).term = Terminator::Return { value: None };
        let s = recover(&f).stats();
        // single-block post-test loop is recovered as a self-loop
        assert_eq!(s.loops(), 1);
        assert_eq!(s.unstructured, 0);
    }

    #[test]
    fn multi_block_do_while_recovered() {
        // entry -> b1 -> b2; b2 -> b1 | exit  (post-test, 2-block body)
        let mut f = Function::new("dw2");
        let b1 = f.add_block();
        let b2 = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(b1);
        f.block_mut(b1).term = Terminator::Jump(b2);
        branch(&mut f, b2, b1, exit);
        f.block_mut(exit).term = Terminator::Return { value: None };
        let s = recover(&f).stats();
        assert_eq!(s.do_whiles, 1);
        assert_eq!(s.unstructured, 0);
    }

    #[test]
    fn nested_if_in_loop() {
        let mut f = Function::new("nested");
        let header = f.add_block();
        let then = f.add_block();
        let join = f.add_block();
        let exit = f.add_block();
        f.block_mut(f.entry).term = Terminator::Jump(header);
        branch(&mut f, header, then, exit); // loop test
        branch(&mut f, then, join, join); // degenerate branch -> single succ
        f.block_mut(join).term = Terminator::Jump(header);
        f.block_mut(exit).term = Terminator::Return { value: None };
        let s = recover(&f).stats();
        assert!(s.loops() >= 1);
        assert_eq!(s.unstructured, 0);
    }

    #[test]
    fn switch_recovered() {
        let mut f = Function::new("sw");
        let a = f.add_block();
        let b = f.add_block();
        let c = f.add_block();
        let join = f.add_block();
        let idx = f.new_vreg();
        f.block_mut(f.entry).push(Op::Const { dst: idx, value: 0 });
        f.block_mut(f.entry).term = Terminator::Switch {
            index: Operand::Reg(idx),
            targets: vec![a, b],
            default: c,
        };
        for arm in [a, b, c] {
            f.block_mut(arm).term = Terminator::Jump(join);
        }
        f.block_mut(join).term = Terminator::Return { value: None };
        let s = recover(&f).stats();
        assert_eq!(s.switches, 1);
        assert_eq!(s.unstructured, 0);
    }

    #[test]
    fn irreducible_graph_reports_unstructured() {
        // Two blocks jumping into each other with two entries (irreducible).
        let mut f = Function::new("irr");
        let a = f.add_block();
        let b = f.add_block();
        let e = f.entry;
        branch(&mut f, e, a, b);
        branch(&mut f, a, b, a); // a -> {b, a}
        branch(&mut f, b, a, b); // b -> {a, b}
        let s = recover(&f).stats();
        assert!(s.unstructured >= 1);
        let _ = VReg(0);
    }
}
