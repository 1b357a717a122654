//! Test-only reference models the rebuilt structures are compared against:
//! the `HashMap` + free-list LRU cache that [`crate::LruCache`] replaced,
//! kept verbatim, and a machine that probes it level by level, recomputing
//! block and cache for every access, with the writer map a `HashMap`; plus
//! the seeded block streams both differential tests draw from.

use std::collections::HashMap;

use crate::{Addr, CacheCounters, CoreId, MachineSpec, Probe, Topology};

/// The four block streams of the differential tests, over a universe
/// of `universe` blocks: sequential, strided (with ids that use the
/// high bits), skewed towards small ids, and uniform.
pub(crate) fn stream(kind: usize, universe: u64, i: u64, rng: &mut u64) -> u64 {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let r = *rng >> 24;
    match kind {
        0 => i % universe,
        1 => (i % universe) << 40,
        2 => r % (r / universe % universe + 1),
        _ => r % universe,
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    prev: u32,
    next: u32,
    dirty: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct RefLru {
    capacity: usize,
    map: HashMap<u64, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl RefLru {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        Self {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn contains(&self, block: u64) -> bool {
        self.map.contains_key(&block)
    }

    pub(crate) fn access(&mut self, block: u64, write: bool) -> Probe {
        if let Some(&idx) = self.map.get(&block) {
            self.unlink(idx);
            self.push_front(idx);
            if write {
                self.nodes[idx as usize].dirty = true;
            }
            return Probe::Hit;
        }
        let mut writeback = false;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let node = self.nodes[victim as usize];
            writeback = node.dirty;
            self.map.remove(&node.block);
            self.free.push(victim);
        }
        let node = Node {
            block,
            prev: NIL,
            next: NIL,
            dirty: write,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(block, idx);
        self.push_front(idx);
        Probe::Miss { writeback }
    }

    pub(crate) fn flush(&mut self) -> u64 {
        let dirty = self
            .map
            .values()
            .filter(|&&i| self.nodes[i as usize].dirty)
            .count() as u64;
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        dirty
    }

    pub(crate) fn blocks_mru_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            out.push(n.block);
            cur = n.next;
        }
        out
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// The machine, naively: `caches[i-1][j]` and `counters[i-1][j]` belong to
/// cache `j` of level `i`.
pub(crate) struct RefSystem {
    spec: MachineSpec,
    topo: Topology,
    caches: Vec<Vec<RefLru>>,
    pub(crate) counters: Vec<Vec<CacheCounters>>,
    last_writer: HashMap<u64, CoreId>,
    pub(crate) pingpongs: u64,
}

impl RefSystem {
    pub(crate) fn new(spec: &MachineSpec) -> Self {
        let per_level = |i: usize| 0..spec.caches_at(i);
        Self {
            spec: spec.clone(),
            topo: Topology::new(spec),
            caches: (1..=spec.cache_levels())
                .map(|i| {
                    per_level(i)
                        .map(|_| RefLru::new(spec.level(i).blocks()))
                        .collect()
                })
                .collect(),
            counters: (1..=spec.cache_levels())
                .map(|i| per_level(i).map(|_| CacheCounters::default()).collect())
                .collect(),
            last_writer: HashMap::new(),
            pingpongs: 0,
        }
    }

    pub(crate) fn access(&mut self, core: CoreId, addr: Addr, write: bool) {
        for level in 1..=self.spec.cache_levels() {
            let block = addr / self.spec.level(level).block as u64;
            let j = self.topo.cache_of(core, level).index;
            let ctr = &mut self.counters[level - 1][j];
            match self.caches[level - 1][j].access(block, write) {
                Probe::Hit => ctr.hits += 1,
                Probe::Miss { writeback } => {
                    ctr.misses += 1;
                    ctr.writebacks += writeback as u64;
                }
            }
        }
        if write {
            let b1 = addr / self.spec.level(1).block as u64;
            if self.last_writer.insert(b1, core).is_some_and(|w| w != core) {
                self.pingpongs += 1;
            }
        }
    }

    pub(crate) fn flush(&mut self) {
        for (caches, counters) in self.caches.iter_mut().zip(&mut self.counters) {
            for (cache, ctr) in caches.iter_mut().zip(counters) {
                ctr.writebacks += cache.flush();
            }
        }
        self.last_writer.clear();
    }

    pub(crate) fn reset_metrics(&mut self) {
        for ctr in self.counters.iter_mut().flatten() {
            *ctr = CacheCounters::default();
        }
        self.pingpongs = 0;
    }
}
