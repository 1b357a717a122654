//! A fully-associative LRU cache over block ids (the ideal-cache model).
//!
//! Resident blocks live in a slab-backed intrusive doubly-linked list
//! (MRU at the head) and are found through a [`BlockMap`]: an
//! open-addressed table from block id to slab position, hashed
//! multiplicatively, probed linearly, kept at most half full and grown
//! lazily, so a cold cache costs a few words whatever its capacity. Blocks
//! leave only by eviction from a full cache, and the evicted node is reused
//! in place for the incoming block, so the slab is dense and needs no free
//! list. Probe, promote, insert and evict are O(1); a hit on the MRU block
//! touches nothing but its dirty bit.

const NIL: u32 = u32::MAX;

/// Open-addressed map from block ids to `u32` values other than `NIL`.
#[derive(Debug, Clone)]
pub(crate) struct BlockMap {
    /// `(block, value)`, the value `NIL` where empty; the length is a
    /// power of two, at least twice `len`.
    slots: Vec<(u64, u32)>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl BlockMap {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![(0, NIL); 8],
            len: 0,
            shift: 61,
        }
    }

    fn home(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot holding `block`, or else the empty slot ending its probe run.
    fn slot_of(&self, block: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(block);
        loop {
            match self.slots[slot] {
                (_, NIL) => return Err(slot),
                (b, _) if b == block => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The value stored for `block`, if any.
    pub(crate) fn get_mut(&mut self, block: u64) -> Option<&mut u32> {
        let slot = self.slot_of(block).ok()?;
        Some(&mut self.slots[slot].1)
    }

    /// Store `value` for `block`, which must be absent.
    pub(crate) fn insert(&mut self, block: u64, value: u32) {
        debug_assert_ne!(value, NIL);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let doubled = vec![(0, NIL); self.slots.len() * 2];
            self.shift -= 1;
            for (b, v) in std::mem::replace(&mut self.slots, doubled) {
                if v != NIL {
                    self.place(b, v);
                }
            }
        }
        self.place(block, value);
    }

    fn place(&mut self, block: u64, value: u32) {
        let slot = self.slot_of(block).expect_err("inserted block is absent");
        self.slots[slot] = (block, value);
    }

    /// Forget `block`, which must be present, by backward-shift deletion:
    /// later entries of its probe run move up, so no tombstone is left.
    pub(crate) fn remove(&mut self, block: u64) {
        let mask = self.slots.len() - 1;
        let mut hole = self.slot_of(block).expect("removed block is present");
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let (b, v) = self.slots[slot];
            if v == NIL {
                break;
            }
            // An entry may fill the hole unless its home lies cyclically
            // after the hole (it would then be probed for past itself).
            if (slot.wrapping_sub(self.home(b)) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.slots[hole] = (b, v);
                hole = slot;
            }
        }
        self.slots[hole].1 = NIL;
        self.len -= 1;
    }

    /// Empty the map, keeping its table.
    pub(crate) fn clear(&mut self) {
        self.slots.fill((0, NIL));
        self.len = 0;
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    prev: u32,
    next: u32,
    dirty: bool,
}

/// Outcome of an [`LruCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Block was resident.
    Hit,
    /// Block was not resident; it has been brought in. If the insertion
    /// evicted a dirty block, `writeback` is true (a block transfer *out*
    /// of the cache in the model's accounting).
    Miss {
        /// Whether a dirty block was evicted to make room.
        writeback: bool,
    },
}

/// A fully-associative LRU cache holding up to `capacity` blocks.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    /// The resident blocks, densely packed.
    nodes: Vec<Node>,
    index: BlockMap,
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl LruCache {
    /// Create an empty cache with room for `capacity` blocks
    /// (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache must hold at least one block");
        assert!(capacity < NIL as usize, "block positions are 32-bit");
        Self {
            capacity,
            nodes: Vec::new(),
            index: BlockMap::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no block is resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `block` is currently resident (does not touch LRU order).
    pub fn contains(&self, block: u64) -> bool {
        self.index.slot_of(block).is_ok()
    }

    /// Access `block`; `write` marks it dirty. Returns hit/miss and whether
    /// a dirty eviction (write-back) occurred.
    pub fn access(&mut self, block: u64, write: bool) -> Probe {
        if let Some(mru) = self.nodes.get_mut(self.head as usize) {
            if mru.block == block {
                mru.dirty |= write;
                return Probe::Hit;
            }
        }
        if let Some(&mut idx) = self.index.get_mut(block) {
            self.unlink(idx);
            self.push_front(idx);
            self.nodes[idx as usize].dirty |= write;
            return Probe::Hit;
        }
        let fresh = Node {
            block,
            prev: NIL,
            next: NIL,
            dirty: write,
        };
        let mut writeback = false;
        let idx = if self.nodes.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let evicted = std::mem::replace(&mut self.nodes[victim as usize], fresh);
            writeback = evicted.dirty;
            self.index.remove(evicted.block);
            victim
        } else {
            self.nodes.push(fresh);
            (self.nodes.len() - 1) as u32
        };
        self.index.insert(block, idx);
        self.push_front(idx);
        Probe::Miss { writeback }
    }

    /// Drop all resident blocks, returning the number that were dirty
    /// (write-backs the model would charge when flushing).
    pub fn flush(&mut self) -> u64 {
        let dirty = self.nodes.iter().filter(|n| n.dirty).count() as u64;
        self.nodes.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        dirty
    }

    /// Resident blocks from most to least recently used (for tests and
    /// debugging; O(len)).
    pub fn blocks_mru_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            out.push(n.block);
            cur = n.next;
        }
        out
    }

    /// Take the linked node `idx` out of the list.
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Link the unlinked node `idx` in as the MRU.
    fn push_front(&mut self, idx: u32) {
        let old = std::mem::replace(&mut self.head, idx);
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = old;
        match old {
            NIL => self.tail = idx,
            h => self.nodes[h as usize].prev = idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_then_hits() {
        let mut c = LruCache::new(4);
        for b in 0..4 {
            assert_eq!(c.access(b, false), Probe::Miss { writeback: false });
        }
        for b in 0..4 {
            assert_eq!(c.access(b, false), Probe::Hit);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.access(1, false);
        c.access(2, false);
        c.access(1, false); // 1 is now MRU
        assert_eq!(c.access(3, false), Probe::Miss { writeback: false }); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.blocks_mru_order(), vec![3, 1]);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = LruCache::new(1);
        c.access(7, true);
        assert_eq!(c.access(8, false), Probe::Miss { writeback: true });
        assert_eq!(c.access(9, false), Probe::Miss { writeback: false });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = LruCache::new(2);
        c.access(1, false);
        assert_eq!(c.access(1, true), Probe::Hit);
        c.access(2, false);
        // Evicting 1 must report a write-back even though it was inserted
        // clean and only dirtied by a later hit.
        assert_eq!(c.access(3, false), Probe::Miss { writeback: true });
    }

    #[test]
    fn flush_counts_dirty_blocks() {
        let mut c = LruCache::new(8);
        for b in 0..6 {
            c.access(b, b % 2 == 0);
        }
        assert_eq!(c.flush(), 3);
        assert!(c.is_empty());
        // Reusable after flush.
        assert_eq!(c.access(0, false), Probe::Miss { writeback: false });
    }

    #[test]
    fn sequential_scan_with_capacity_one() {
        let mut c = LruCache::new(1);
        for b in 0..100 {
            assert!(matches!(c.access(b, false), Probe::Miss { .. }));
            assert_eq!(c.access(b, false), Probe::Hit);
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn matches_naive_reference_on_random_trace() {
        // Cross-check against a straightforward Vec-based LRU.
        struct Naive {
            cap: usize,
            v: Vec<u64>, // MRU first
        }
        impl Naive {
            fn access(&mut self, b: u64) -> bool {
                if let Some(pos) = self.v.iter().position(|&x| x == b) {
                    self.v.remove(pos);
                    self.v.insert(0, b);
                    true
                } else {
                    if self.v.len() == self.cap {
                        self.v.pop();
                    }
                    self.v.insert(0, b);
                    false
                }
            }
        }
        let mut c = LruCache::new(16);
        let mut n = Naive {
            cap: 16,
            v: Vec::new(),
        };
        // Deterministic pseudo-random trace.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) % 48;
            let hit = matches!(c.access(b, false), Probe::Hit);
            assert_eq!(hit, n.access(b));
        }
        assert_eq!(c.blocks_mru_order(), n.v);
    }

    /// Same `Probe` for every access and the same observable state as the
    /// `HashMap`-indexed cache this one replaced, across evictions, index
    /// growth and a mid-trace flush.
    #[test]
    fn differential_against_hashmap_reference() {
        use crate::reference::{stream, RefLru};
        let steps = if cfg!(miri) { 1_500 } else { 40_000 };
        for capacity in [1usize, 2, 7, 128, 8192] {
            for kind in 0..4 {
                let universe = 3 * capacity as u64 + 5;
                let (mut lru, mut reference) = (LruCache::new(capacity), RefLru::new(capacity));
                let mut rng = 0x9e3779b97f4a7c15 ^ (capacity as u64) << 8 ^ kind as u64;
                let same_state = |lru: &LruCache, reference: &RefLru, probe: u64| {
                    assert_eq!(lru.len(), reference.len());
                    assert_eq!(lru.is_empty(), reference.len() == 0);
                    assert_eq!(lru.blocks_mru_order(), reference.blocks_mru_order());
                    for b in [probe, probe + 1, probe << 40, 0] {
                        assert_eq!(lru.contains(b), reference.contains(b), "block {b}");
                    }
                };
                for i in 0..steps {
                    let block = stream(kind, universe, i, &mut rng);
                    let write = rng >> 60 < 5;
                    assert_eq!(
                        lru.access(block, write),
                        reference.access(block, write),
                        "capacity {capacity} stream {kind} access {i}"
                    );
                    if i % (steps / 8) == 0 {
                        same_state(&lru, &reference, block);
                    }
                    if i == steps / 2 {
                        assert_eq!(lru.flush(), reference.flush());
                        same_state(&lru, &reference, block);
                    }
                }
                same_state(&lru, &reference, 1);
                assert_eq!(lru.flush(), reference.flush());
            }
        }
    }
}
