//! Baseline hardware/software partitioning algorithms, used as comparison
//! points and ablations for the paper's fast 90-10 greedy heuristic
//! (ablation A1: `binpart_bench::run_a1`, printed by `tables a1`).
//!
//! The paper argues its simple profile-driven greedy is preferable to
//! "standard hardware/software partitioning approaches" (Henkel's
//! low-power simulated annealing; Kalavade & Lee's GCLP) because
//! partitioning time matters for dynamic/JIT synthesis. This crate
//! implements those baselines over an abstract candidate model so the
//! bench harness can compare solution quality *and* runtime.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An abstract hardware candidate: cycles saved if moved to hardware, and
/// area cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Profiled software cycles this region accounts for.
    pub sw_cycles: u64,
    /// Estimated cycles when implemented in hardware (same time base).
    pub hw_cycles: u64,
    /// Area in gate equivalents.
    pub area: u64,
}

impl Item {
    /// Cycles saved by moving this item to hardware.
    pub fn gain(&self) -> u64 {
        self.sw_cycles.saturating_sub(self.hw_cycles)
    }
}

/// A partitioning decision: which items go to hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Selected item indices.
    pub chosen: Vec<usize>,
    /// Total gain (cycles saved).
    pub gain: u64,
    /// Total area used.
    pub area: u64,
}

fn evaluate(items: &[Item], chosen: &[usize]) -> Selection {
    let gain = chosen.iter().map(|&i| items[i].gain()).sum();
    let area = chosen.iter().map(|&i| items[i].area).sum();
    Selection {
        chosen: chosen.to_vec(),
        gain,
        area,
    }
}

/// The paper's greedy: rank by profiled cycles, take while area lasts.
pub fn greedy_90_10(items: &[Item], area_budget: u64) -> Selection {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(items[i].sw_cycles));
    let mut chosen = Vec::new();
    let mut area = 0;
    for i in order {
        if area + items[i].area <= area_budget && items[i].gain() > 0 {
            area += items[i].area;
            chosen.push(i);
        }
    }
    chosen.sort_unstable();
    evaluate(items, &chosen)
}

/// Exact 0/1-knapsack dynamic program (area discretized to `grain` gates).
/// The oracle the greedy is measured against.
pub fn knapsack_optimal(items: &[Item], area_budget: u64, grain: u64) -> Selection {
    let grain = grain.max(1);
    let cap = (area_budget / grain) as usize;
    let n = items.len();
    // dp[w] = best gain with area <= w*grain ; keep choice bits
    let mut dp = vec![0u64; cap + 1];
    let mut take = vec![vec![false; cap + 1]; n];
    for (i, item) in items.iter().enumerate() {
        let w = (item.area.div_ceil(grain)) as usize;
        let g = item.gain();
        if g == 0 {
            continue;
        }
        for c in (w..=cap).rev() {
            if dp[c - w] + g > dp[c] {
                dp[c] = dp[c - w] + g;
                take[i][c] = true;
            }
        }
    }
    // reconstruct
    let mut chosen = Vec::new();
    let mut c = cap;
    for i in (0..n).rev() {
        if c < take[i].len() && take[i][c] {
            chosen.push(i);
            c -= (items[i].area.div_ceil(grain)) as usize;
        }
    }
    chosen.sort_unstable();
    evaluate(items, &chosen)
}

/// Kalavade & Lee's Global Criticality / Local Phase heuristic, adapted to
/// the speedup objective: a global "criticality" (remaining time pressure)
/// steers each item's mapping; local phase deltas (area efficiency)
/// adjust per-item thresholds.
pub fn gclp(items: &[Item], area_budget: u64) -> Selection {
    let total_sw: u64 = items.iter().map(|i| i.sw_cycles).sum();
    if total_sw == 0 {
        return evaluate(items, &[]);
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    // schedule items by decreasing size (GCLP maps "critical" nodes first)
    order.sort_by_key(|&i| std::cmp::Reverse(items[i].sw_cycles));
    let mut chosen = Vec::new();
    let mut area = 0u64;
    let mut moved: u64 = 0;
    for i in order {
        // global criticality: fraction of time still in software
        let gc = 1.0 - moved as f64 / total_sw as f64;
        // local phase: area efficiency of this node vs the average
        let eff = items[i].gain() as f64 / items[i].area.max(1) as f64;
        let avg_eff: f64 = items
            .iter()
            .map(|it| it.gain() as f64 / it.area.max(1) as f64)
            .sum::<f64>()
            / items.len() as f64;
        let threshold = 0.5 - 0.25 * (eff / avg_eff.max(1e-9) - 1.0).clamp(-1.0, 1.0);
        if gc > threshold && area + items[i].area <= area_budget && items[i].gain() > 0 {
            area += items[i].area;
            moved += items[i].sw_cycles;
            chosen.push(i);
        }
    }
    chosen.sort_unstable();
    evaluate(items, &chosen)
}

/// Henkel-style simulated annealing over the mapping vector.
pub fn simulated_annealing(items: &[Item], area_budget: u64, seed: u64, iters: u32) -> Selection {
    let n = items.len();
    if n == 0 {
        return evaluate(items, &[]);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = vec![false; n];
    let score = |state: &[bool]| -> (i64, u64) {
        let mut gain = 0i64;
        let mut area = 0u64;
        for (i, &s) in state.iter().enumerate() {
            if s {
                gain += items[i].gain() as i64;
                area += items[i].area;
            }
        }
        if area > area_budget {
            gain -= (area - area_budget) as i64 * 4; // infeasibility penalty
        }
        (gain, area)
    };
    let (mut cur, _) = score(&state);
    let mut best_state = state.clone();
    let mut best = cur;
    let mut temp = (items.iter().map(|i| i.gain()).max().unwrap_or(1) as f64).max(1.0);
    for _ in 0..iters {
        let flip = rng.gen_range(0..n);
        state[flip] = !state[flip];
        let (next, _) = score(&state);
        let accept = next >= cur || {
            let d = (next - cur) as f64;
            rng.gen::<f64>() < (d / temp).exp()
        };
        if accept {
            cur = next;
            if cur > best {
                best = cur;
                best_state = state.clone();
            }
        } else {
            state[flip] = !state[flip];
        }
        temp *= 0.995;
    }
    let chosen: Vec<usize> = best_state
        .iter()
        .enumerate()
        .filter(|(_, &s)| s)
        .map(|(i, _)| i)
        .collect();
    // drop items if infeasible (greedy repair by worst efficiency)
    let mut sel = evaluate(items, &chosen);
    let efficiency = |i: usize| items[i].gain() as f64 / items[i].area.max(1) as f64;
    while sel.area > area_budget {
        let Some(&worst) = sel
            .chosen
            .iter()
            .min_by(|&&a, &&b| efficiency(a).total_cmp(&efficiency(b)))
        else {
            break;
        };
        sel.chosen.retain(|&i| i != worst);
        sel = evaluate(items, &sel.chosen);
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items() -> Vec<Item> {
        vec![
            Item { sw_cycles: 900, hw_cycles: 90, area: 50 },
            Item { sw_cycles: 500, hw_cycles: 50, area: 40 },
            Item { sw_cycles: 300, hw_cycles: 30, area: 10 },
            Item { sw_cycles: 200, hw_cycles: 40, area: 10 },
            Item { sw_cycles: 100, hw_cycles: 90, area: 45 },
        ]
    }

    #[test]
    fn greedy_respects_budget() {
        let sel = greedy_90_10(&items(), 60);
        assert!(sel.area <= 60);
        // takes the biggest first
        assert!(sel.chosen.contains(&0));
    }

    #[test]
    fn knapsack_at_least_as_good_as_greedy() {
        for budget in [20, 50, 60, 100, 155] {
            let g = greedy_90_10(&items(), budget);
            let k = knapsack_optimal(&items(), budget, 1);
            assert!(k.gain >= g.gain, "budget {budget}: {k:?} vs {g:?}");
            assert!(k.area <= budget);
        }
    }

    #[test]
    fn knapsack_finds_better_combination_when_greedy_fails() {
        // Greedy takes the big item; optimal takes the two smaller ones.
        let tricky = vec![
            Item { sw_cycles: 1000, hw_cycles: 100, area: 100 },
            Item { sw_cycles: 600, hw_cycles: 50, area: 60 },
            Item { sw_cycles: 550, hw_cycles: 50, area: 50 },
        ];
        let g = greedy_90_10(&tricky, 110);
        let k = knapsack_optimal(&tricky, 110, 1);
        assert_eq!(g.chosen, vec![0]);
        assert_eq!(k.chosen, vec![1, 2]);
        assert!(k.gain > g.gain);
    }

    #[test]
    fn gclp_respects_budget_and_selects_hot_items() {
        let sel = gclp(&items(), 100);
        assert!(sel.area <= 100);
        assert!(sel.chosen.contains(&0));
    }

    #[test]
    fn annealing_is_deterministic_per_seed_and_feasible() {
        let a = simulated_annealing(&items(), 60, 42, 4000);
        let b = simulated_annealing(&items(), 60, 42, 4000);
        assert_eq!(a, b);
        assert!(a.area <= 60);
        let c = simulated_annealing(&items(), 60, 7, 4000);
        assert!(c.area <= 60);
    }

    #[test]
    fn annealing_close_to_optimal_on_small_instances() {
        let k = knapsack_optimal(&items(), 60, 1);
        let a = simulated_annealing(&items(), 60, 1, 20_000);
        assert!(
            a.gain as f64 >= 0.9 * k.gain as f64,
            "SA {} vs optimal {}",
            a.gain,
            k.gain
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(greedy_90_10(&[], 100).gain, 0);
        assert_eq!(knapsack_optimal(&[], 100, 10).gain, 0);
        assert_eq!(gclp(&[], 100).gain, 0);
        assert_eq!(simulated_annealing(&[], 100, 1, 100).gain, 0);
    }
}
