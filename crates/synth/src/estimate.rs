//! Per-kernel synthesis-estimate caching.
//!
//! Behavioral synthesis is the most expensive step of the partitioning
//! flow's inner loop: every candidate region is scheduled, bound, and
//! priced each time the partitioner considers it — and a
//! design-space sweep considers the *same* regions at every (clock, area
//! budget) point, because neither affects the synthesis result. This
//! module memoizes [`synthesize`] per kernel.
//!
//! # Keying and sharing rules
//!
//! Lookups go through a [`MemoView`], which fixes one configuration; a
//! cache entry is keyed by that configuration and a [`KernelKey`].
//! Together they name everything [`synthesize`] reads, and both are
//! `Copy`, so a lookup allocates nothing:
//!
//! * `region` — the kernel's dense **region id**: its index in the
//!   candidate list of the program the cache belongs to. The cache does not
//!   fingerprint function bodies or block lists, so a cache must only be
//!   shared across calls that pass the *same* program (same CDFG, same
//!   block counts, same inferred widths, same candidate list). The staged
//!   flow owns one cache per `EstimatedProgram` artifact, next to that
//!   artifact's `CandidateSet`, which guarantees this by construction: an
//!   id cannot alias a different region.
//! * the view's configuration — an **interned** (resource budget,
//!   technology library) pair, from [`EstimateCache::view`]. Each distinct
//!   pair is stored once and compared exactly (float fields by bit
//!   pattern, the library name included), so two different configurations
//!   never share an id and no hash fingerprint stands in for equality.
//! * the block-RAM placement (`mem_in_bram`, `bram_bytes`).
//!
//! The [`SynthesisInput`] is built by a caller-supplied closure that runs
//! only on a miss; it must describe the same kernel as the key.
//!
//! # Lookup cost
//!
//! A caller takes one view per batch of lookups — the partitioner takes
//! one per evaluated design point — so a batch touches memory other
//! threads write a constant number of times, however many kernels it
//! looks up: the view takes the memo's read lock and interns its
//! configuration under it, counts its hits locally and adds them to
//! [`EstimateCache::hits`] once, when it is dropped. A hit then costs a
//! hash probe and an index: it borrows the shared result, and the caller
//! clones the `Arc` only for a kernel it keeps. The map is a [`KeyMap`]:
//! a `HashMap` over [`KeyHasher`], a multiplicative hasher for keys made
//! of a few integers. Keys here are dense ids chosen by the program, not
//! by an adversary, so SipHash's flooding resistance buys nothing; the
//! staged flow's artifact maps use the same [`KeyMap`] for the same
//! reason.
//!
//! Synthesis is deterministic, so a cached result is bit-identical to a
//! fresh run — sweeps that share a cache produce exactly the numbers of the
//! uncached flow. Results are shared as `Arc<SynthesisResult>`, never as
//! copies of the kept schedules.
//!
//! # Sharing across threads
//!
//! Views on any number of threads hold the read lock together, so
//! concurrent sweep points never serialize on hits. A miss releases its
//! view's lock, takes the write lock only to add the key's entry (a
//! [`OnceLock`]), synthesizes through that entry with no lock held, and
//! re-takes the read lock: points asking for *different* kernels never
//! wait on each other's synthesis, and points asking for the *same* kernel
//! run it once (the one that runs it counts a miss, the others a hit, so
//! `hits() + misses()` is exactly the number of lookups). A panic while a
//! lock is held cannot leave the memo half-updated (every update is one
//! statement), so a poisoned lock is recovered, not propagated.

use crate::{synthesize, ResourceBudget, SynthError, SynthesisInput, SynthesisResult, TechLibrary};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// A multiplicative hasher for keys made of a few integers (the
/// FxHash scheme: fold each word in with a rotate, an xor and a multiply
/// by an odd constant). Much cheaper than SipHash and not
/// flood-resistant, so only for keys the program chooses; see the module
/// docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its best mixed; rotate them down to
    /// where the table takes its bucket index.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`KeyHasher`]; build one with `KeyMap::default()`.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Cache key for one kernel-synthesis call under a [`MemoView`]'s
/// configuration, which completes it. See the module docs for the sharing
/// rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Dense region id: the kernel's index in the owning program's
    /// candidate list.
    pub region: usize,
    /// Whether arrays live in block RAM.
    pub mem_in_bram: bool,
    /// Bytes of array data in block RAM.
    pub bram_bytes: u64,
}

/// Everything of a configuration that synthesis reads, floats as bit
/// patterns: two configurations are equal exactly when these are.
type ConfigBits<'a> = (u32, u32, u64, &'a str, [u64; 6], u64, u32, u32);

/// The [`ConfigBits`] of (`budget`, `library`). The patterns name every
/// field, so a field added to either type must be added here.
fn config_bits<'a>(budget: &ResourceBudget, library: &'a TechLibrary) -> ConfigBits<'a> {
    let ResourceBudget {
        multipliers,
        mem_ports,
        target_period_ns,
    } = *budget;
    let TechLibrary {
        name,
        lut_delay_ns,
        ff_overhead_ns,
        gates_per_lut,
        gates_per_ff,
        gates_per_mult,
        gates_per_bram,
        bram_block_bits,
        div_cycles,
        ext_mem_cycles,
    } = library;
    (
        multipliers,
        mem_ports,
        target_period_ns.to_bits(),
        &**name,
        [
            lut_delay_ns.to_bits(),
            ff_overhead_ns.to_bits(),
            gates_per_lut.to_bits(),
            gates_per_ff.to_bits(),
            gates_per_mult.to_bits(),
            gates_per_bram.to_bits(),
        ],
        *bram_block_bits,
        *div_cycles,
        *ext_mem_cycles,
    )
}

type Outcome = Result<Arc<SynthesisResult>, SynthError>;
type Entry = Arc<OnceLock<Outcome>>;

/// The memo proper, guarded as one by the cache's lock: the interned
/// configurations and one entry per (configuration id, kernel key).
#[derive(Debug, Default)]
struct Memo {
    configs: Vec<(ResourceBudget, TechLibrary)>,
    /// Index into `entries` of each key.
    slots: KeyMap<(usize, KernelKey), usize>,
    /// Append-only, so an index stays valid while the lock is released.
    entries: Vec<Entry>,
}

/// Locks `m` for reading, recovering the guard if a panicking holder
/// poisoned it (writers recover theirs the same way).
fn read<T>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(PoisonError::into_inner)
}

/// A shareable memo of [`synthesize`] results, read through a
/// [`MemoView`]. Cloneable `Arc`-style sharing is left to the caller
/// (wrap in `Arc` to share across threads); the memo is already
/// thread-safe.
#[derive(Debug, Default)]
pub struct EstimateCache {
    memo: RwLock<Memo>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EstimateCache {
    /// Empty cache.
    pub fn new() -> EstimateCache {
        EstimateCache::default()
    }

    /// A read view of the memo for lookups under the (`budget`,
    /// `library`) configuration, interned on the way in: equal
    /// configurations (exactly; see the module docs) share an id, and the
    /// first view of a new one stores a copy. Hold one view per batch of
    /// lookups (the partitioner holds one per evaluation) and drop it
    /// before taking another on the same thread.
    pub fn view(&self, budget: &ResourceBudget, library: &TechLibrary) -> MemoView<'_> {
        let wanted = config_bits(budget, library);
        let find = |memo: &Memo| {
            let mut configs = memo.configs.iter();
            configs.position(|(b, l)| config_bits(b, l) == wanted)
        };
        let mut memo = read(&self.memo);
        let config = match find(&memo) {
            Some(id) => id,
            None => {
                drop(memo);
                let mut w = self.memo.write().unwrap_or_else(PoisonError::into_inner);
                let id = find(&w).unwrap_or(w.configs.len());
                if id == w.configs.len() {
                    w.configs.push((*budget, library.clone()));
                }
                drop(w);
                memo = read(&self.memo);
                id
            }
        };
        MemoView {
            cache: self,
            memo: Some(memo),
            config,
            hits: 0,
        }
    }

    /// Number of cache hits so far (observability for benches and tests).
    /// A view adds its hits when it is dropped.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of synthesis runs actually performed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct kernels cached.
    pub fn len(&self) -> usize {
        read(&self.memo).entries.len()
    }

    /// Returns `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One batch of lookups in an [`EstimateCache`] under one configuration,
/// from [`EstimateCache::view`]. It holds the memo's read lock, so hits
/// on any number of threads share it without serializing; it counts its
/// hits locally and adds them to the cache once, when dropped.
#[derive(Debug)]
pub struct MemoView<'c> {
    cache: &'c EstimateCache,
    /// The read guard; released only while a miss synthesizes.
    memo: Option<RwLockReadGuard<'c, Memo>>,
    config: usize,
    hits: u64,
}

impl MemoView<'_> {
    fn memo(&self) -> &Memo {
        match &self.memo {
            Some(memo) => memo,
            None => unreachable!("a view holds its guard between lookups"),
        }
    }

    /// Memoized [`synthesize`]: the cached result for `key` under this
    /// view's configuration, or `input()` synthesized (exactly once per
    /// key, even under concurrency) and cached. `input` runs only on a
    /// miss and must describe the kernel `key` names. A hit borrows the
    /// shared result; clone the `Arc` only to keep it.
    ///
    /// A miss releases the view's lock, adds the key's entry under the
    /// write lock, synthesizes through the entry's [`OnceLock`] with no
    /// lock held, so other threads' lookups and misses proceed, and
    /// re-takes the read lock.
    ///
    /// # Errors
    ///
    /// Propagates (and caches) [`SynthError`] like the uncached call.
    pub fn synthesize<'f>(
        &mut self,
        key: KernelKey,
        input: impl FnOnce() -> SynthesisInput<'f>,
    ) -> Result<&Arc<SynthesisResult>, SynthError> {
        let key = (self.config, key);
        let memo = self.memo();
        let done = memo.slots.get(&key).copied();
        let slot = match done.filter(|&slot| memo.entries[slot].get().is_some()) {
            Some(slot) => {
                self.hits += 1;
                slot
            }
            None => {
                self.memo = None;
                let (slot, entry) = {
                    let mut guard = self
                        .cache
                        .memo
                        .write()
                        .unwrap_or_else(PoisonError::into_inner);
                    let memo = &mut *guard;
                    let slot = *memo.slots.entry(key).or_insert_with(|| {
                        memo.entries.push(Entry::default());
                        memo.entries.len() - 1
                    });
                    (slot, Arc::clone(&memo.entries[slot]))
                };
                let mut built = false;
                entry.get_or_init(|| {
                    built = true;
                    synthesize(&input()).map(Arc::new)
                });
                if built {
                    self.cache.misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.hits += 1;
                }
                self.memo = Some(read(&self.cache.memo));
                slot
            }
        };
        match self.memo().entries[slot].get() {
            Some(outcome) => outcome.as_ref().map_err(Clone::clone),
            None => unreachable!("a filled entry is set"),
        }
    }
}

impl Drop for MemoView<'_> {
    fn drop(&mut self) {
        self.cache.hits.fetch_add(self.hits, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binpart_cdfg::ir::{
        BinOp, BlockCounts, BlockId, Function, MemWidth, Op, Operand, Terminator,
    };
    use binpart_cdfg::loops::LoopForest;
    use binpart_cdfg::ssa;

    // `KernelKey` is `Copy`: a lookup never clones anything.
    const _: fn() = || {
        fn assert_copy<T: Copy>() {}
        assert_copy::<KernelKey>();
    };

    fn kernel() -> (Function, BlockCounts) {
        let mut f = Function::new("k");
        let x = f.new_vreg();
        let y = f.new_vreg();
        let e = f.entry;
        f.block_mut(e).push(Op::Load {
            dst: x,
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
            signed: false,
        });
        f.block_mut(e).push(Op::Bin {
            op: BinOp::Add,
            dst: y,
            lhs: Operand::Reg(x),
            rhs: Operand::Const(3),
        });
        f.block_mut(e).push(Op::Store {
            src: Operand::Reg(y),
            addr: Operand::Const(0x1000),
            width: MemWidth::W,
        });
        f.block_mut(e).term = Terminator::Return { value: None };
        ssa::construct(&mut f);
        // The one block ran 10 times.
        let counts = f.block_ids().map(|_| 10).collect();
        (f, counts)
    }

    /// The key of region 0 under `input`'s placement.
    fn key_of(input: &SynthesisInput<'_>) -> KernelKey {
        KernelKey {
            region: 0,
            mem_in_bram: input.mem_in_bram,
            bram_bytes: input.bram_bytes,
        }
    }

    /// One lookup of `input` through a view of its own configuration.
    fn cached(cache: &EstimateCache, input: &SynthesisInput<'_>) -> Outcome {
        cache
            .view(&input.budget, &input.library)
            .synthesize(key_of(input), || input.clone())
            .cloned()
    }

    /// The interned configuration id of (`budget`, `library`).
    fn config(cache: &EstimateCache, budget: &ResourceBudget, library: &TechLibrary) -> usize {
        cache.view(budget, library).config
    }

    #[test]
    fn cached_result_matches_fresh_synthesis() {
        let (f, counts) = kernel();
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let input = SynthesisInput::new(&f, &counts, &forest, &region);
        let fresh = synthesize(&input).unwrap();
        let cache = EstimateCache::new();
        let first = cached(&cache, &input).unwrap();
        let second = cached(&cache, &input).unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(first.area.gate_equivalents, fresh.area.gate_equivalents);
        assert_eq!(first.timing.hw_cycles, fresh.timing.hw_cycles);
        assert_eq!(
            first.timing.clock_mhz.to_bits(),
            fresh.timing.clock_mhz.to_bits()
        );
        assert_eq!(first.vhdl(&f, &counts), fresh.vhdl(&f, &counts));
        assert!(
            Arc::ptr_eq(&first, &second),
            "a hit shares the cached result"
        );
        let third = cached(&cache, &input).unwrap();
        assert!(
            Arc::ptr_eq(&second, &third),
            "every hit shares the cached result"
        );
        let mut view = cache.view(&input.budget, &input.library);
        let fourth = view
            .synthesize(key_of(&input), || panic!("a hit must not build its input"))
            .unwrap();
        assert!(Arc::ptr_eq(&third, fourth));
        assert_eq!(cache.hits(), 2, "a view adds its hits when dropped");
        drop(view);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn different_bram_placement_is_a_different_entry() {
        let (f, counts) = kernel();
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let mut input = SynthesisInput::new(&f, &counts, &forest, &region);
        let cache = EstimateCache::new();
        let bram = cached(&cache, &input).unwrap();
        input.mem_in_bram = false;
        let ext = cached(&cache, &input).unwrap();
        assert_eq!(cache.misses(), 2);
        assert!(ext.timing.hw_cycles > bram.timing.hw_cycles);
    }

    #[test]
    fn different_library_is_a_different_entry() {
        let (f, counts) = kernel();
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let mut input = SynthesisInput::new(&f, &counts, &forest, &region);
        let cache = EstimateCache::new();
        let _ = cached(&cache, &input).unwrap();
        input.library.gates_per_lut *= 2.0;
        let _ = cached(&cache, &input).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn configs_intern_exactly() {
        let cache = EstimateCache::new();
        let budget = ResourceBudget::default();
        let lib = TechLibrary::virtex2();
        let base = config(&cache, &budget, &lib);
        assert_eq!(
            config(&cache, &budget, &lib.clone()),
            base,
            "equal configs share an id"
        );
        // Same numbers, different library name.
        let renamed = TechLibrary {
            name: "virtex2-copy".into(),
            ..lib.clone()
        };
        let by_name = config(&cache, &budget, &renamed);
        assert_ne!(by_name, base);
        // One float differing only in its bit pattern: 0.0 == -0.0, but the
        // ids must differ.
        let pos = TechLibrary {
            ff_overhead_ns: 0.0,
            ..lib.clone()
        };
        let neg = TechLibrary {
            ff_overhead_ns: -0.0,
            ..lib.clone()
        };
        let (p, n) = (config(&cache, &budget, &pos), config(&cache, &budget, &neg));
        assert_ne!(p, n);
        let neg_budget = ResourceBudget {
            target_period_ns: -0.0,
            ..budget
        };
        let pos_budget = ResourceBudget {
            target_period_ns: 0.0,
            ..budget
        };
        assert_ne!(
            config(&cache, &pos_budget, &lib),
            config(&cache, &neg_budget, &lib)
        );
        let ids = [base, by_name, p, n];
        for (i, a) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|b| b != a), "{ids:?}");
        }
    }

    #[test]
    fn errors_are_cached_too() {
        let mut f = Function::new("e");
        f.block_mut(f.entry).term = Terminator::Return { value: None };
        let counts = BlockCounts::default();
        let forest = LoopForest::compute(&f);
        let region: Vec<BlockId> = f.block_ids().collect();
        let input = SynthesisInput::new(&f, &counts, &forest, &region);
        let cache = EstimateCache::new();
        assert_eq!(cached(&cache, &input).unwrap_err(), SynthError::EmptyRegion);
        assert_eq!(cached(&cache, &input).unwrap_err(), SynthError::EmptyRegion);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }
}
