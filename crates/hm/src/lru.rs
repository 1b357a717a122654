//! A fully-associative LRU cache over block ids (the ideal-cache model).
//!
//! Resident blocks live in a slab-backed intrusive doubly-linked list
//! (MRU at the head) of 16-byte nodes, the dirty bit kept in the top bit
//! of the block word, and are found through a [`BlockMap`]: an
//! open-addressed table from block id to slab position, hashed
//! multiplicatively, probed linearly, kept at most a quarter full and
//! grown lazily, so a cold cache costs a few words whatever its capacity.
//! Blocks leave only by eviction from a full cache, and the evicted node is
//! reused in place for the incoming block, so the slab is dense and needs
//! no free list. A miss walks the incoming block's probe run once: the
//! empty slot that ends its failed lookup takes the block, and the
//! victim's entry then leaves by backward shift, so a full cache's table
//! never grows. Probe, promote, insert and evict are O(1); a hit on the
//! MRU block touches nothing but its dirty bit.

const NIL: u32 = u32::MAX;

/// The bit of a node's block word that marks the block dirty; block ids
/// must leave it clear.
const DIRTY: u64 = 1 << 63;

/// [`LruCache::access`]'s refusal of a block id that sets [`DIRTY`],
/// kept out of its miss path.
#[cold]
#[inline(never)]
fn top_bit_set(block: u64) -> ! {
    panic!("block id {block:#x} has its top bit set")
}

/// Open-addressed map from block ids to `u32` values other than `NIL`.
#[derive(Debug, Clone)]
pub(crate) struct BlockMap {
    /// `(block, value)`, the value `NIL` where empty; the length is a
    /// power of two, at least four times `len`.
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

    /// The slot holding `block`, or else the empty slot ending its probe
    /// run, where [`insert_at`](Self::insert_at) and
    /// [`replace`](Self::replace) put it.
    pub(crate) fn slot_of(&self, block: u64) -> Result<usize, usize> {
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

    /// The value in the occupied `slot`.
    pub(crate) fn value_mut(&mut self, slot: usize) -> &mut u32 {
        &mut self.slots[slot].1
    }

    /// Store `value` for the absent `block`, whose lookup ended at the
    /// empty slot `empty`; the table doubles first if it would be more
    /// than a quarter full.
    pub(crate) fn insert_at(&mut self, empty: usize, block: u64, value: u32) {
        debug_assert_ne!(value, NIL);
        self.len += 1;
        if self.len * 4 <= self.slots.len() {
            self.slots[empty] = (block, value);
            return;
        }
        self.grow(block, value);
    }

    /// Double the table and place every entry again, `(block, value)`
    /// with them. Rare, so kept out of the miss path.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, block: u64, value: u32) {
        let doubled = vec![(0, NIL); self.slots.len() * 2];
        self.shift -= 1;
        let old = std::mem::replace(&mut self.slots, doubled);
        for (b, v) in old.into_iter().chain([(block, value)]) {
            if v != NIL {
                let slot = self.slot_of(b).expect_err("entries are distinct");
                self.slots[slot] = (b, v);
            }
        }
    }

    /// Store `value` for the absent `block`, whose lookup ended at the
    /// empty slot `empty`, and forget the present `old`: the count stays,
    /// so the table never grows here.
    pub(crate) fn replace(&mut self, empty: usize, block: u64, value: u32, old: u64) {
        debug_assert_ne!(value, NIL);
        // Written before `old` leaves: its backward shift may then move
        // the new entry up, but never strands it behind a hole.
        self.slots[empty] = (block, value);
        let mask = self.slots.len() - 1;
        let mut hole = self.slot_of(old).expect("replaced block is present");
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
    }

    /// Empty the map, keeping its table.
    pub(crate) fn clear(&mut self) {
        self.slots.fill((0, NIL));
        self.len = 0;
    }
}

/// A list node: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The block id, with [`DIRTY`] set once the block has been written.
    word: u64,
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn block(&self) -> u64 {
        self.word & !DIRTY
    }
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
    ///
    /// # Panics
    ///
    /// If `block` has its top bit set: the nodes keep the dirty bit there.
    pub fn access(&mut self, block: u64, write: bool) -> Probe {
        let dirty = (write as u64) << 63;
        if let Some(mru) = self.nodes.get_mut(self.head as usize) {
            if mru.block() == block {
                mru.word |= dirty;
                return Probe::Hit;
            }
        }
        let empty = match self.index.slot_of(block) {
            Ok(slot) => {
                let idx = *self.index.value_mut(slot);
                self.unlink(idx);
                self.push_front(idx);
                self.nodes[idx as usize].word |= dirty;
                return Probe::Hit;
            }
            Err(empty) => empty,
        };
        // A block with the top bit set is never resident, so it always
        // gets here and is refused before it can alias a dirty node.
        if block & DIRTY != 0 {
            top_bit_set(block);
        }
        let fresh = Node {
            word: block | dirty,
            prev: NIL,
            next: NIL,
        };
        let (idx, writeback) = if self.nodes.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let evicted = std::mem::replace(&mut self.nodes[victim as usize], fresh);
            self.index.replace(empty, block, victim, evicted.block());
            (victim, evicted.word & DIRTY != 0)
        } else {
            self.nodes.push(fresh);
            let idx = (self.nodes.len() - 1) as u32;
            self.index.insert_at(empty, block, idx);
            (idx, false)
        };
        self.push_front(idx);
        Probe::Miss { writeback }
    }

    /// Access `block`, which must be among the `depth` most recently used
    /// blocks, by following the list from its head instead of hashing.
    /// The recency window settles its blocks this way (`system.rs`).
    pub(crate) fn access_recent(&mut self, block: u64, depth: usize, write: bool) {
        let mut cur = self.head;
        for _ in 0..depth {
            if cur == NIL {
                break;
            }
            let node = self.nodes[cur as usize];
            if node.block() == block {
                if cur != self.head {
                    self.unlink(cur);
                    self.push_front(cur);
                }
                self.nodes[cur as usize].word |= (write as u64) << 63;
                return;
            }
            cur = node.next;
        }
        debug_assert!(
            false,
            "block {block:#x} is not among the {depth} most recent"
        );
        self.access(block, write);
    }

    /// Drop all resident blocks, returning the number that were dirty
    /// (write-backs the model would charge when flushing).
    pub fn flush(&mut self) -> u64 {
        let dirty = self.nodes.iter().filter(|n| n.word & DIRTY != 0).count() as u64;
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
            out.push(n.block());
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
impl LruCache {
    /// Slots in the block index's table.
    pub(crate) fn index_slots(&self) -> usize {
        self.index.slots.len()
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

    /// `count` block ids whose home in `cache`'s current table is `slot`.
    fn homed_at(cache: &LruCache, slot: usize, count: usize) -> Vec<u64> {
        (1..)
            .filter(|&b| cache.index.home(b) == slot)
            .take(count)
            .collect()
    }

    /// Drive `lru` and the reference with the same accesses, comparing
    /// every probe, the order and membership after each.
    fn lockstep(
        lru: &mut LruCache,
        reference: &mut crate::reference::RefLru,
        trace: &[(u64, bool)],
    ) {
        for &(block, write) in trace {
            assert_eq!(
                lru.access(block, write),
                reference.access(block, write),
                "block {block}"
            );
            assert_eq!(lru.blocks_mru_order(), reference.blocks_mru_order());
            for &(b, _) in trace {
                assert_eq!(lru.contains(b), reference.contains(b), "block {b}");
            }
        }
    }

    /// Blocks whose probe runs start at the table's last slot continue
    /// at its first: inserts, hits, evictions and lookups across the end.
    #[test]
    fn probe_runs_wrap_the_tables_end() {
        use crate::reference::RefLru;
        let (mut lru, mut reference) = (LruCache::new(2), RefLru::new(2));
        let last = lru.index_slots() - 1;
        let b = homed_at(&lru, last, 4);
        let trace = [(b[0], true), (b[1], false), (b[1], true), (b[0], false)];
        lockstep(&mut lru, &mut reference, &trace);
        assert_eq!(lru.index.slots[0].0, b[1], "the second block wrapped");
        // Each miss now evicts the block in the last slot, and the one
        // that wrapped moves back across the end.
        lockstep(
            &mut lru,
            &mut reference,
            &[(b[2], false), (b[3], true), (b[1], false), (b[3], false)],
        );
        assert_eq!(lru.index_slots(), last + 1);
        assert_eq!(lru.flush(), reference.flush());
    }

    /// A miss writes the new block at the end of its probe run before the
    /// victim leaves, so the victim's backward shift walks over it.
    #[test]
    fn an_evictions_backward_shift_passes_the_new_block() {
        use crate::reference::RefLru;
        let (mut lru, mut reference) = (LruCache::new(2), RefLru::new(2));
        let b = homed_at(&lru, 2, 3);
        lockstep(&mut lru, &mut reference, &[(b[0], true), (b[1], false)]);
        // `b[0]`, the LRU, sits in slot 2 and `b[1]` in slot 3: `b[2]` is
        // written to slot 4, then both shift up over the hole at 2.
        lockstep(&mut lru, &mut reference, &[(b[2], false)]);
        let slots: Vec<u64> = lru.index.slots[2..5].iter().map(|&(b, _)| b).collect();
        assert_eq!(&slots[..2], &b[1..], "both shifted");
        assert_eq!(
            lru.index.slots[4].1, NIL,
            "the last slot of the run emptied"
        );
        assert_eq!(lru.access(b[0], false), Probe::Miss { writeback: false });
        assert_eq!(
            reference.access(b[0], false),
            Probe::Miss { writeback: false }
        );
        lockstep(
            &mut lru,
            &mut reference,
            &[(b[1], true), (b[2], false), (b[0], true)],
        );
        assert_eq!(lru.flush(), reference.flush());
    }

    /// An eviction replaces the victim's entry, so a full cache's table
    /// keeps the size it had when it filled, whatever the traffic.
    #[test]
    fn a_full_cache_never_grows_its_table() {
        use crate::reference::{stream, RefLru};
        for capacity in [1usize, 3, 64, 100] {
            let (mut lru, mut reference) = (LruCache::new(capacity), RefLru::new(capacity));
            for b in 0..capacity as u64 {
                lru.access(b << 20, false);
                reference.access(b << 20, false);
            }
            let at_capacity = lru.index_slots();
            assert!(at_capacity >= 4 * capacity, "at most a quarter full");
            let mut rng = capacity as u64;
            for i in 0..10_000 {
                let block = stream(3, 3 * capacity as u64, i, &mut rng);
                let write = rng >> 62 == 0;
                assert_eq!(lru.access(block, write), reference.access(block, write));
                assert_eq!(
                    lru.index_slots(),
                    at_capacity,
                    "capacity {capacity} access {i}"
                );
            }
            assert_eq!(lru.blocks_mru_order(), reference.blocks_mru_order());
            assert_eq!(lru.flush(), reference.flush());
        }
    }

    /// The top bit of a node's block word is its dirty bit: a block id
    /// that sets it is refused, never taken for the clean block below it.
    #[test]
    #[should_panic(expected = "top bit set")]
    fn a_block_id_with_the_dirty_bit_set_panics() {
        let mut c = LruCache::new(4);
        c.access(5, true);
        c.access(5 | 1 << 63, false);
    }
}
