//! Certification over the kernel registry ([`crate::real::registry`]):
//! the recorded MO program of each registry kernel, and a lint pass over
//! the registry's declared metadata.
//!
//! Each registry row records its kernel at a given size with
//! *independently seeded input values* ([`record_kernel`]) — the knob
//! the value-obliviousness certifier (`mo_core::certify`) turns: record
//! the same `(kernel, n)` under several seeds and diff the canonical
//! traces. The lint pass checks the row's grain hint against the
//! recorded leaves ([`lint_kernel`]) and its data-dependence marker
//! against the classification those recordings certify to
//! ([`lint_marker`]).

use mo_core::certify::Classification;
use mo_core::{Program, Segment};

pub use crate::real::registry::record_kernel;
use crate::real::registry::Kernel;

/// A registry-metadata lint finding (warning severity: these weaken
/// constants or documentation honesty, not the scheduler theorems —
/// races and footprint lies are `mo_core::verify`'s errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryLint {
    /// A forked leaf task's working set exceeds the kernel's declared
    /// serial-grain hint: the base case is bigger than advertised.
    GrainExceeded {
        /// The offending kernel.
        kernel: Kernel,
        /// Declared grain hint ([`Kernel::grain_words`]).
        declared_grain: usize,
        /// Largest recorded leaf working set (words).
        max_leaf: usize,
        /// Task id of that leaf.
        leaf_task: usize,
    },
    /// Two sibling subtrees of one fork write into the same
    /// 64-word-aligned block: false sharing that breaks the per-task
    /// block-disjointness the transfer analyses assume. (Word-level
    /// overlap would be a determinacy race and is reported by
    /// `mo_core::verify` instead.)
    SiblingScratchAliasing {
        /// The offending kernel.
        kernel: Kernel,
        /// The forking task.
        parent: usize,
        /// First shared block's base word address.
        block_addr: u64,
        /// Number of distinct blocks written by two or more siblings.
        shared_blocks: usize,
    },
    /// The kernel's recordings certify `data-dependent` but it is not
    /// marked [`Kernel::is_data_dependent`]: the registry
    /// under-documents a value leak.
    MissingDataDependentMarker {
        /// The offending kernel.
        kernel: Kernel,
    },
    /// The kernel carries the data-dependent marker but its recordings
    /// certify `oblivious`: the marker is stale.
    SpuriousDataDependentMarker {
        /// The offending kernel.
        kernel: Kernel,
    },
}

impl std::fmt::Display for RegistryLint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryLint::GrainExceeded {
                kernel,
                declared_grain,
                max_leaf,
                leaf_task,
            } => write!(
                f,
                "{kernel}: leaf task {leaf_task} touches {max_leaf} words, \
                 above the declared grain hint of {declared_grain}"
            ),
            RegistryLint::SiblingScratchAliasing {
                kernel,
                parent,
                block_addr,
                shared_blocks,
            } => write!(
                f,
                "{kernel}: fork of task {parent} has {shared_blocks} block(s) \
                 written by multiple siblings (first: word {block_addr:#x})"
            ),
            RegistryLint::MissingDataDependentMarker { kernel } => write!(
                f,
                "{kernel}: recordings certify data-dependent but the registry \
                 row lacks the data-dependent marker"
            ),
            RegistryLint::SpuriousDataDependentMarker { kernel } => write!(
                f,
                "{kernel}: carries the data-dependent marker but its \
                 recordings certify oblivious"
            ),
        }
    }
}

/// Block length (words) at which sibling write aliasing is judged: the
/// recorder's default allocation alignment, which is also the largest
/// block size the stock machine specs use.
const ALIAS_BLOCK_WORDS: u64 = 64;

/// Lint one kernel's data-dependence marker against the
/// classification its paired recordings certified to
/// (`mo_core::certify::classify`).
pub fn lint_marker(kernel: Kernel, certified: Classification) -> Option<RegistryLint> {
    match (kernel.is_data_dependent(), certified) {
        (false, Classification::DataDependent) => {
            Some(RegistryLint::MissingDataDependentMarker { kernel })
        }
        (true, Classification::Oblivious) => {
            Some(RegistryLint::SpuriousDataDependentMarker { kernel })
        }
        _ => None,
    }
}

/// Lint one kernel's grain hint and sibling block-sharing against one of
/// its recordings.
pub fn lint_kernel(kernel: Kernel, prog: &Program) -> Vec<RegistryLint> {
    let mut findings = Vec::new();
    let fp = mo_core::verify::task_footprints(prog);
    // Grain honesty: forked leaves must fit the declared grain.
    let grain = kernel.grain_words();
    let mut worst: Option<(usize, usize)> = None; // (footprint, task)
    for (tid, task) in prog.tasks().iter().enumerate() {
        let is_leaf = task.parent.is_some()
            && !task
                .segments
                .iter()
                .any(|s| matches!(s, Segment::Fork { .. }));
        if is_leaf && fp[tid] > grain && worst.is_none_or(|(w, _)| fp[tid] > w) {
            worst = Some((fp[tid], tid));
        }
    }
    if let Some((max_leaf, leaf_task)) = worst {
        findings.push(RegistryLint::GrainExceeded {
            kernel,
            declared_grain: grain,
            max_leaf,
            leaf_task,
        });
    }
    // Sibling write aliasing at block granularity.
    findings.extend(sibling_aliasing(kernel, prog));
    findings
}

/// Per-fork check that sibling subtrees write disjoint 64-word blocks.
fn sibling_aliasing(kernel: Kernel, prog: &Program) -> Vec<RegistryLint> {
    use std::collections::{HashMap, HashSet};
    let trace = prog.trace();
    let ntasks = prog.tasks().len();
    // Written blocks per task's own strands.
    let mut own: Vec<HashSet<u64>> = vec![HashSet::new(); ntasks];
    for (tid, task) in prog.tasks().iter().enumerate() {
        for seg in &task.segments {
            let (lo, hi) = match seg {
                Segment::Compute { start, end } => (*start, *end),
                Segment::CgcLoop { start, iter_ends } => {
                    (*start, iter_ends.last().copied().unwrap_or(*start))
                }
                Segment::Fork { .. } => continue,
            };
            for e in &trace[lo..hi] {
                if e.is_write() {
                    own[tid].insert(e.addr() / ALIAS_BLOCK_WORDS);
                }
            }
        }
    }
    // Subtree sets by bottom-up small-to-large merge (children have
    // larger ids than parents).
    let mut sub = own;
    for t in (1..ntasks).rev() {
        let p = prog.tasks()[t].parent.expect("non-root has a parent");
        let child = std::mem::take(&mut sub[t]);
        if sub[p].len() < child.len() {
            let parent = std::mem::replace(&mut sub[p], child.clone());
            sub[p].extend(parent);
        } else {
            sub[p].extend(child.iter().copied());
        }
        sub[t] = child;
    }
    let mut findings = Vec::new();
    for (tid, task) in prog.tasks().iter().enumerate() {
        for seg in &task.segments {
            let Segment::Fork { children, .. } = seg else {
                continue;
            };
            let mut seen: HashMap<u64, usize> = HashMap::new();
            let mut shared: Vec<u64> = Vec::new();
            for &c in children {
                for &b in &sub[c] {
                    let count = seen.entry(b).or_insert(0);
                    *count += 1;
                    if *count == 2 {
                        shared.push(b);
                    }
                }
            }
            if !shared.is_empty() {
                shared.sort_unstable();
                findings.push(RegistryLint::SiblingScratchAliasing {
                    kernel,
                    parent: tid,
                    block_addr: shared[0] * ALIAS_BLOCK_WORDS,
                    shared_blocks: shared.len(),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::registry::footprint_words;
    use mo_core::certify::classify;
    use mo_core::{spawn, ForkHint, Recorder};

    #[test]
    fn deterministic_kernels_certify_oblivious_at_small_sizes() {
        for kernel in [Kernel::Transpose, Kernel::Scan] {
            let n = 16;
            let runs: Vec<(u64, Program)> =
                (0..3).map(|s| (s, record_kernel(kernel, n, s))).collect();
            let (c, w) = classify(&runs);
            assert_eq!(c, Classification::Oblivious, "{kernel}: {w:?}");
        }
    }

    #[test]
    fn sort_certifies_data_dependent_with_witness() {
        let runs: Vec<(u64, Program)> = (0..2)
            .map(|s| (s, record_kernel(Kernel::Sort, 256, s)))
            .collect();
        let (c, w) = classify(&runs);
        assert_eq!(c, Classification::DataDependent);
        let w = w.expect("data-dependent needs a witness");
        assert_eq!((w.seed_a, w.seed_b), (0, 1));
    }

    #[test]
    fn registry_kernels_pass_their_own_lint() {
        for kernel in Kernel::ALL {
            let prog = record_kernel(kernel, kernel.recorded_n(), 7);
            let findings = lint_kernel(kernel, &prog);
            // The grain lint must be clean on the shipped
            // registry; block-level aliasing of shared outputs is
            // tolerated (reported, not asserted) for kernels whose
            // siblings tile one output array.
            for f in &findings {
                assert!(
                    matches!(f, RegistryLint::SiblingScratchAliasing { .. }),
                    "{kernel}: unexpected lint {f}"
                );
            }
        }
    }

    #[test]
    fn grain_lint_flags_oversized_leaves() {
        // A fork whose leaf touches more words than a tiny grain hint.
        let prog = Recorder::record(4096, |rec| {
            let a = rec.alloc(2048);
            rec.fork(
                ForkHint::Sb,
                vec![spawn(1024, move |rec: &mut Recorder| {
                    for k in 0..1024 {
                        rec.write(a, k, k as u64);
                    }
                })],
            );
        });
        // Borrow Transpose's metadata (grain 512) against the synthetic
        // program.
        let findings = lint_kernel(Kernel::Transpose, &prog);
        assert!(findings.iter().any(|f| matches!(
            f,
            RegistryLint::GrainExceeded {
                declared_grain: 512,
                max_leaf: 1024,
                leaf_task: 1,
                ..
            }
        )));
    }

    #[test]
    fn aliasing_lint_flags_block_sharing_siblings() {
        // Siblings write adjacent words of one block: no race, but the
        // block is shared.
        let prog = Recorder::record(4096, |rec| {
            let a = rec.alloc(64);
            rec.fork2(
                ForkHint::Sb,
                64,
                |rec| rec.write(a, 0, 1),
                64,
                |rec| rec.write(a, 1, 2),
            );
        });
        let findings = lint_kernel(Kernel::Transpose, &prog);
        assert!(findings.iter().any(|f| matches!(
            f,
            RegistryLint::SiblingScratchAliasing {
                parent: 0,
                shared_blocks: 1,
                ..
            }
        )));
        // Siblings on distinct blocks are clean.
        let prog = Recorder::record(4096, |rec| {
            let a = rec.alloc(128);
            rec.fork2(
                ForkHint::Sb,
                64,
                |rec| rec.write(a, 0, 1),
                64,
                |rec| rec.write(a, 64, 2),
            );
        });
        assert!(lint_kernel(Kernel::Transpose, &prog).is_empty());
    }

    #[test]
    fn marker_lint_reports_a_flag_that_disagrees_with_the_recordings() {
        let certified = |kernel, n| {
            let runs: Vec<(u64, Program)> =
                (0..2).map(|s| (s, record_kernel(kernel, n, s))).collect();
            classify(&runs).0
        };
        let (scan, sort) = (certified(Kernel::Scan, 16), certified(Kernel::Sort, 256));
        // Each row's own flag agrees with its own recordings…
        assert_eq!(lint_marker(Kernel::Scan, scan), None);
        assert_eq!(lint_marker(Kernel::Sort, sort), None);
        // …and a row whose flag is the other way round is reported:
        // sort's marker over scan's oblivious recordings is stale,
        // scan's clear flag over sort's recordings hides a leak.
        assert_eq!(
            lint_marker(Kernel::Sort, scan),
            Some(RegistryLint::SpuriousDataDependentMarker {
                kernel: Kernel::Sort
            })
        );
        assert_eq!(
            lint_marker(Kernel::Scan, sort),
            Some(RegistryLint::MissingDataDependentMarker {
                kernel: Kernel::Scan
            })
        );
    }

    #[test]
    fn footprint_audit_declared_covers_recorded() {
        // certify/exceptions.json is the reviewed list of kernels whose
        // recorded MO program keeps temporaries live that the served
        // real kernel does not (the `mo_certify --gate` input).
        let exceptions =
            mo_core::certify::json::parse(include_str!("../../../certify/exceptions.json"))
                .expect("certify/exceptions.json parses");
        let excused: Vec<&str> = exceptions
            .get("exceptions")
            .and_then(|e| e.as_arr())
            .expect("exceptions array")
            .iter()
            .filter_map(|e| e.get("kernel")?.as_str())
            .collect();
        for kernel in Kernel::ALL {
            let n = kernel.recorded_n();
            let prog = record_kernel(kernel, n, 3);
            let recorded = mo_core::certify::max_working_set(&prog);
            let declared = footprint_words(kernel, kernel.effective_n(n));
            if excused.contains(&kernel.name()) {
                // The auditor must *see* the gap — an exception whose gap
                // has closed is stale and must be removed…
                assert!(declared < recorded, "{kernel}: exception became stale");
                // …but the gap stays within the recording's own declared
                // root space bound.
                let cap = prog.tasks()[prog.root()].space;
                assert!(
                    recorded <= cap,
                    "{kernel}: recorded {recorded} exceeds its root space bound {cap}"
                );
            } else {
                assert!(
                    declared >= recorded,
                    "{kernel}: declared {declared} < recorded {recorded}"
                );
            }
        }
    }
}
