//! Cache-hierarchy detection from Linux sysfs.
//!
//! Linux exposes the per-cpu cache topology under
//! `/sys/devices/system/cpu/cpu*/cache/index*/` as one directory per
//! (cpu, cache) pair with the files
//!
//! * `type` — `Data`, `Instruction` or `Unified` (instruction caches are
//!   irrelevant to the space-bound model and skipped);
//! * `level` — 1, 2, 3, …;
//! * `size` — human-readable capacity (`48K`, `2048K`, `8M`, …);
//! * `shared_cpu_list` — the cpus sharing this physical cache instance
//!   (`0`, `0-3`, `0,4`, …).
//!
//! [`probe`] folds those files into the [`HwHierarchy`] shape the pool
//! wants: one [`HwLevel`] per cache level, capacity in words, fanout =
//! how many level-`i−1` units share one level-`i` cache. The number of
//! *distinct* caches per level is recovered by deduplicating the
//! `shared_cpu_list` strings, so SMT siblings sharing an L1 count as one
//! scheduling unit, matching the pool's one-thread-per-unit permits. If
//! the topmost probed level still has several instances (multi-socket,
//! AMD CCX), a synthetic top level with their aggregate capacity is
//! appended so the hierarchy spans the whole machine and
//! `HwHierarchy::cores()` counts every unit.
//!
//! Everything is best-effort: any missing or malformed file skips that
//! entry, and an empty result returns `None` so the caller can fall back
//! to a static guess. The probe root is a parameter, so tests exercise
//! the parser against a fixture tree instead of the live machine.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use super::{HwHierarchy, HwLevel};

/// Parse a sysfs cache `size` string (`"48K"`, `"2M"`, `"1G"`, plain
/// bytes) into **words** (8-byte units). Returns `None` on malformed
/// input or a zero size.
fn parse_size_words(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1024usize),
        'M' | 'm' => (&s[..s.len() - 1], 1024 * 1024),
        'G' | 'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    let bytes = digits.trim().parse::<usize>().ok()?.checked_mul(mult)?;
    let words = bytes / 8;
    (words > 0).then_some(words)
}

fn read_trimmed(path: &Path) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Probe a sysfs cpu tree (normally `/sys/devices/system/cpu`) and build
/// the hierarchy. `None` when nothing usable was found.
pub fn probe(root: &Path) -> Option<HwHierarchy> {
    // level → (shared_cpu_list → capacity in words). BTreeMap keeps the
    // levels ordered L1-first and the groups deduplicated.
    let mut per_level: BTreeMap<u32, BTreeMap<String, usize>> = BTreeMap::new();
    for entry in fs::read_dir(root).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(rest) = name.strip_prefix("cpu") else {
            continue;
        };
        if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let cache_dir = entry.path().join("cache");
        let Ok(indices) = fs::read_dir(&cache_dir) else {
            continue;
        };
        for idx in indices.flatten() {
            let iname = idx.file_name();
            if !iname.to_string_lossy().starts_with("index") {
                continue;
            }
            let dir = idx.path();
            let Some(ty) = read_trimmed(&dir.join("type")) else {
                continue;
            };
            if ty.eq_ignore_ascii_case("Instruction") {
                continue;
            }
            let Some(level) = read_trimmed(&dir.join("level")).and_then(|s| s.parse().ok()) else {
                continue;
            };
            let Some(words) = read_trimmed(&dir.join("size")).and_then(|s| parse_size_words(&s))
            else {
                continue;
            };
            let Some(shared) = read_trimmed(&dir.join("shared_cpu_list")) else {
                continue;
            };
            per_level.entry(level).or_default().insert(shared, words);
        }
    }
    let mut levels = Vec::new();
    let mut prev_groups: Option<usize> = None;
    let mut last = (0usize, 0usize); // (instances, capacity) of topmost level
    for groups in per_level.values() {
        let count = groups.len();
        let capacity = *groups.values().max()?;
        let fanout = match prev_groups {
            None => 1,
            // Children per cache; non-uniform topologies round down but
            // never below 1 so `cores()` stays a product of integers.
            Some(pg) => (pg / count).max(1),
        };
        levels.push(HwLevel { capacity, fanout });
        prev_groups = Some(count);
        last = (count, capacity);
    }
    if levels.is_empty() {
        return None;
    }
    if last.0 > 1 {
        // Several top-level caches (sockets / CCX complexes): append a
        // synthetic machine level with their aggregate capacity.
        levels.push(HwLevel {
            capacity: last.0 * last.1,
            fanout: last.0,
        });
    }
    Some(HwHierarchy::new(levels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    /// A scratch sysfs fixture tree, removed on drop.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("mo-sysfs-{}-{}", std::process::id(), tag));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            Self { root }
        }

        /// Add one cache entry for `cpu`: `(index, type, level, size,
        /// shared_cpu_list)`.
        fn cache(&self, cpu: usize, index: usize, ty: &str, level: u32, size: &str, shared: &str) {
            let dir = self
                .root
                .join(format!("cpu{cpu}"))
                .join("cache")
                .join(format!("index{index}"));
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("type"), ty).unwrap();
            fs::write(dir.join("level"), level.to_string()).unwrap();
            fs::write(dir.join("size"), size).unwrap();
            fs::write(dir.join("shared_cpu_list"), shared).unwrap();
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn parses_size_suffixes() {
        assert_eq!(parse_size_words("48K"), Some(48 * 1024 / 8));
        assert_eq!(parse_size_words("2M"), Some(2 * 1024 * 1024 / 8));
        assert_eq!(parse_size_words("1G"), Some(1 << 27));
        assert_eq!(parse_size_words("4096"), Some(512));
        assert_eq!(parse_size_words("0K"), None);
        assert_eq!(parse_size_words("junk"), None);
        assert_eq!(parse_size_words(""), None);
    }

    #[test]
    fn three_level_fixture_builds_full_hierarchy() {
        // 4 cpus: private 32K L1d (plus an L1i that must be ignored),
        // pairwise-shared 512K L2, one 8M L3.
        let fx = Fixture::new("three-level");
        for cpu in 0..4 {
            fx.cache(cpu, 0, "Data", 1, "32K", &cpu.to_string());
            fx.cache(cpu, 1, "Instruction", 1, "32K", &cpu.to_string());
            let pair = if cpu < 2 { "0-1" } else { "2-3" };
            fx.cache(cpu, 2, "Unified", 2, "512K", pair);
            fx.cache(cpu, 3, "Unified", 3, "8M", "0-3");
        }
        let h = probe(&fx.root).expect("fixture should parse");
        let levels = h.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].capacity, 32 * 1024 / 8);
        assert_eq!(levels[0].fanout, 1);
        assert_eq!(levels[1].capacity, 512 * 1024 / 8);
        assert_eq!(levels[1].fanout, 2);
        assert_eq!(levels[2].capacity, 8 * 1024 * 1024 / 8);
        assert_eq!(levels[2].fanout, 2);
        assert_eq!(h.cores(), 4);
        assert_eq!(h.l1_capacity(), 32 * 1024 / 8);
    }

    #[test]
    fn smt_siblings_collapse_to_one_unit() {
        // 4 hyperthreads = 2 physical cores: threads {0,2} and {1,3}
        // share an L1; one shared L2. Cores must come out as 2.
        let fx = Fixture::new("smt");
        for cpu in 0..4 {
            let pair = if cpu % 2 == 0 { "0,2" } else { "1,3" };
            fx.cache(cpu, 0, "Data", 1, "48K", pair);
            fx.cache(cpu, 2, "Unified", 2, "4M", "0-3");
        }
        let h = probe(&fx.root).expect("fixture should parse");
        assert_eq!(h.levels().len(), 2);
        assert_eq!(h.cores(), 2);
        assert_eq!(h.levels()[1].fanout, 2);
    }

    #[test]
    fn split_llc_gets_synthetic_top_level() {
        // Two CCX-style complexes of 2 cores, each with its own 4M L3
        // and no cache spanning the machine: a synthetic 8M top level
        // must be appended so cores() = 4.
        let fx = Fixture::new("ccx");
        for cpu in 0..4 {
            fx.cache(cpu, 0, "Data", 1, "32K", &cpu.to_string());
            let ccx = if cpu < 2 { "0-1" } else { "2-3" };
            fx.cache(cpu, 3, "Unified", 3, "4M", ccx);
        }
        let h = probe(&fx.root).expect("fixture should parse");
        let levels = h.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[1].capacity, 4 * 1024 * 1024 / 8);
        assert_eq!(levels[2].capacity, 2 * 4 * 1024 * 1024 / 8);
        assert_eq!(levels[2].fanout, 2);
        assert_eq!(h.cores(), 4);
    }

    #[test]
    fn detection_is_no_wider_than_the_usable_cpus() {
        // The three-level tree above (4 cpus, pairwise L2s, one L3) seen
        // by a process that may use fewer cpus: an affinity mask or a
        // cgroup quota trims the fanouts, innermost first.
        let fx = Fixture::new("capped");
        for cpu in 0..4 {
            fx.cache(cpu, 0, "Data", 1, "32K", &cpu.to_string());
            let pair = if cpu < 2 { "0-1" } else { "2-3" };
            fx.cache(cpu, 2, "Unified", 2, "512K", pair);
            fx.cache(cpu, 3, "Unified", 3, "8M", "0-3");
        }
        let one = HwHierarchy::detect_in(&fx.root, 1);
        assert_eq!(one.cores(), 1);
        assert_eq!(one.levels().len(), 3, "capacities are kept");
        assert_eq!(one.levels()[2].capacity, 8 * 1024 * 1024 / 8);
        let fanouts = |h: &HwHierarchy| h.levels().iter().map(|l| l.fanout).collect::<Vec<_>>();
        assert_eq!(fanouts(&HwHierarchy::detect_in(&fx.root, 2)), [1, 2, 1]);
        assert_eq!(fanouts(&HwHierarchy::detect_in(&fx.root, 3)), [1, 2, 1]);
        assert_eq!(HwHierarchy::detect_in(&fx.root, 4).cores(), 4);
        assert_eq!(HwHierarchy::detect_in(&fx.root, 64).cores(), 4);
        // No sysfs tree: the fallback is exactly as wide as allowed.
        assert_eq!(HwHierarchy::detect_in(&fx.root.join("none"), 3).cores(), 3);
    }

    #[test]
    fn absent_or_empty_tree_probes_none() {
        let fx = Fixture::new("empty");
        assert!(probe(&fx.root).is_none());
        assert!(probe(&fx.root.join("no-such-dir")).is_none());
    }

    #[test]
    fn malformed_entries_are_skipped() {
        let fx = Fixture::new("malformed");
        fx.cache(0, 0, "Data", 1, "not-a-size", "0");
        fx.cache(0, 1, "Data", 1, "32K", "0");
        let h = probe(&fx.root).expect("good entry should survive");
        assert_eq!(h.levels().len(), 1);
        assert_eq!(h.l1_capacity(), 32 * 1024 / 8);
    }

    #[test]
    fn live_machine_probe_is_sane_if_present() {
        // On a real Linux host this exercises the actual sysfs tree; on
        // anything else it must simply return None, never panic.
        if let Some(h) = probe(Path::new("/sys/devices/system/cpu")) {
            assert!(h.cores() >= 1);
            assert!(h.l1_capacity() > 0);
        }
    }
}
