//! Value-obliviousness certifier, footprint auditor, and registry lint
//! driver — the static-analysis pass suite over the recorded kernel
//! registry (`mo_core::certify` + `mo_algorithms::certify`).
//!
//! For every registry kernel the certifier:
//!
//! 1. records the kernel under `--runs` paired inputs — same size,
//!    independently seeded *values* — canonicalizes the address traces
//!    modulo base-pointer relocation, and diffs them: every pair
//!    indistinguishable certifies `oblivious`; any divergence certifies
//!    `data-dependent` with the seed pair and first divergent entry as
//!    a machine-checkable witness;
//! 2. audits the footprint: the true max working set over all
//!    SP-consistent schedules of the recorded DAG (subtree footprints
//!    are schedule-invariant, so the root's distinct-word count is the
//!    max) against the analytic words admission control charges;
//! 3. verifies schedule-obliviousness: the SP-order race sweep plus the
//!    hint invariants (`mo_core::verify`) must come back clean;
//! 4. lints registry metadata: grain hints vs recorded leaf footprints,
//!    sibling scratch block-sharing, and the row's data-dependent
//!    marker vs the classification step 1 certified.
//!
//! The certificates are written as a JSON artifact (`--out`, default
//! `certify/certificates.json`) which `mo-serve` loads to gate its
//! `--secure` mode and `obs_report` renders as a summary table.
//!
//! `--gate` turns the run into a CI acceptance check, exiting nonzero
//! when:
//!
//! * any kernel's classification drifts from the checked-in
//!   `certify/expected.json`;
//! * any kernel understates its footprint (declared < recorded) without
//!   a justified entry in `certify/exceptions.json` — or holds an entry
//!   whose gap has closed (stale exception);
//! * any registry lint other than the tolerated sibling block-sharing
//!   fires, or the race/hint verification is not clean.

use std::process::ExitCode;

use mo_algorithms::certify::{lint_kernel, lint_marker, record_kernel, RegistryLint};
use mo_algorithms::real::registry::{footprint_words, Kernel};
use mo_core::certify::{classify, json, json::Json, max_working_set};
use mo_core::{Certificate, CertificateSet, Classification};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Load `{"version":1,"expected":[{"kernel":..,"classification":..}]}`.
fn load_expected(path: &str) -> Result<Vec<(String, Classification)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = j
        .get("expected")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing \"expected\" array"))?;
    rows.iter()
        .map(|r| {
            let kernel = r
                .get("kernel")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: row missing \"kernel\""))?;
            let class = r
                .get("classification")
                .and_then(Json::as_str)
                .and_then(Classification::parse)
                .ok_or_else(|| format!("{path}: bad classification for {kernel}"))?;
            Ok((kernel.to_string(), class))
        })
        .collect()
}

/// Load `{"version":1,"exceptions":[{"kernel":..,"justification":..}]}`.
fn load_exceptions(path: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = j
        .get("exceptions")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing \"exceptions\" array"))?;
    rows.iter()
        .map(|r| {
            let kernel = r
                .get("kernel")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: row missing \"kernel\""))?;
            let why = r
                .get("justification")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: {kernel} missing justification"))?;
            Ok((kernel.to_string(), why.to_string()))
        })
        .collect()
}

struct KernelResult {
    cert: Certificate,
    lints: Vec<RegistryLint>,
    verify_clean: bool,
}

fn certify_kernel(kernel: Kernel, runs: u64) -> KernelResult {
    let n = kernel.recorded_n();
    let recordings: Vec<(u64, mo_core::Program)> = (1..=runs)
        .map(|seed| (seed, record_kernel(kernel, n, seed)))
        .collect();
    let (classification, witness) = classify(&recordings);
    let base = &recordings[0].1;
    let recorded_words = max_working_set(base);
    let declared = footprint_words(kernel, kernel.effective_n(n));
    let report = mo_core::verify(base);
    let verify_clean = report.races.is_empty() && report.is_clean();
    let mut lints = lint_kernel(kernel, base);
    lints.extend(lint_marker(kernel, classification));
    KernelResult {
        cert: Certificate {
            kernel: kernel.name().to_string(),
            n,
            runs: runs as usize,
            classification,
            witness,
            declared_words: declared,
            recorded_words,
            footprint_sound: declared >= recorded_words,
            schedule_clean: verify_clean,
        },
        lints,
        verify_clean,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let out_path =
        flag_value(&args, "--out").unwrap_or_else(|| "certify/certificates.json".to_string());
    let expected_path =
        flag_value(&args, "--expected").unwrap_or_else(|| "certify/expected.json".to_string());
    let exceptions_path =
        flag_value(&args, "--exceptions").unwrap_or_else(|| "certify/exceptions.json".to_string());
    let runs: u64 = flag_value(&args, "--runs")
        .map(|v| v.parse().expect("--runs takes a positive integer"))
        .unwrap_or(3);
    assert!(runs >= 2, "--runs must be at least 2 to form a pair");

    let mut results = Vec::new();
    println!("== mo-certify: {runs} paired runs per kernel ==\n");
    for kernel in Kernel::ALL {
        let r = certify_kernel(kernel, runs);
        println!("{}", r.cert);
        // Block-sharing advisories come one per fork; a count keeps the
        // report readable. Everything else prints in full.
        let advisories = r
            .lints
            .iter()
            .filter(|l| matches!(l, RegistryLint::SiblingScratchAliasing { .. }))
            .count();
        if advisories > 0 {
            println!(
                "  advisory: {advisories} fork(s) have cache blocks written by multiple \
                 sibling subtrees (false sharing; word-level overlap would be a race)"
            );
        }
        for l in &r.lints {
            if !matches!(l, RegistryLint::SiblingScratchAliasing { .. }) {
                println!("  lint: {l}");
            }
        }
        results.push(r);
    }

    // Write the artifact.
    let set = CertificateSet {
        certs: results.iter().map(|r| r.cert.clone()).collect(),
    };
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, set.to_json_string()).expect("write certificate artifact");
    println!("\nwrote {out_path} ({} certificates)", set.certs.len());

    if !gate {
        return ExitCode::SUCCESS;
    }

    // --gate: fail CI on classification drift, unjustified or stale
    // footprint exceptions, sanitizer findings, or unexpected lints.
    let mut breaches: Vec<String> = Vec::new();

    match load_expected(&expected_path) {
        Ok(expected) => {
            for (kernel, want) in &expected {
                match set.get(kernel) {
                    Some(c) if c.classification == *want => {}
                    Some(c) => breaches.push(format!(
                        "classification drift: {kernel} expected {}, got {}",
                        want.name(),
                        c.classification.name()
                    )),
                    None => breaches.push(format!("expected kernel {kernel} was not certified")),
                }
            }
            for c in &set.certs {
                if !expected.iter().any(|(k, _)| k == &c.kernel) {
                    breaches.push(format!(
                        "kernel {} has no entry in {expected_path}: update the expected set",
                        c.kernel
                    ));
                }
            }
        }
        Err(e) => breaches.push(format!("cannot load expected classifications: {e}")),
    }

    match load_exceptions(&exceptions_path) {
        Ok(exceptions) => {
            for (kernel, _) in &exceptions {
                if Kernel::parse(kernel).is_none() {
                    breaches.push(format!(
                        "{exceptions_path} excuses {kernel}, which is not a registry kernel"
                    ));
                }
            }
            for r in &results {
                let excused = exceptions.iter().any(|(k, _)| k == &r.cert.kernel);
                if !r.cert.footprint_sound && !excused {
                    breaches.push(format!(
                        "footprint understated: {} declares {} words but the recording \
                         touches {} — add a justified entry to {exceptions_path} or fix \
                         the registry bound",
                        r.cert.kernel, r.cert.declared_words, r.cert.recorded_words
                    ));
                }
                if r.cert.footprint_sound && excused {
                    breaches.push(format!(
                        "stale exception: {} is listed in {exceptions_path} but declared \
                         ({}) now covers recorded ({})",
                        r.cert.kernel, r.cert.declared_words, r.cert.recorded_words
                    ));
                }
            }
        }
        Err(e) => breaches.push(format!("cannot load footprint exceptions: {e}")),
    }

    for r in &results {
        if !r.verify_clean {
            breaches.push(format!(
                "sanitizer: {} recording has races or hint violations",
                r.cert.kernel
            ));
        }
        for l in &r.lints {
            // Block-level sibling sharing is a false-sharing advisory,
            // expected for kernels tiling one output array; everything
            // else gates.
            if !matches!(l, RegistryLint::SiblingScratchAliasing { .. }) {
                breaches.push(format!("lint: {l}"));
            }
        }
    }

    if breaches.is_empty() {
        println!("gate: classifications match {expected_path}, footprints sound modulo {exceptions_path}, lints clean");
        ExitCode::SUCCESS
    } else {
        for b in &breaches {
            eprintln!("gate BREACH: {b}");
        }
        ExitCode::FAILURE
    }
}
