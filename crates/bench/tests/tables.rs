//! The paper's evaluation is pinned: every experiment of the `tables`
//! binary must print its committed fixture byte for byte, so a change
//! that moves any count in any of the paper's tables has to move
//! `fixtures/tables/<name>.txt` in the same diff. Regenerate one with
//!
//! ```sh
//! cargo run --release -p mo-bench --bin tables -- <name> \
//!     > crates/bench/tests/fixtures/tables/<name>.txt
//! ```
//!
//! The fixtures were captured from the 17 `table_*` binaries this
//! binary replaced (release build); the only lines that differ from
//! that capture are the `speed-up vs p` rows, which gained two decimals.
//!
//! A debug build runs the experiments that take under 0.1 s in release
//! and ignores the rest; `cargo test --release -p mo-bench --test tables`
//! (CI) runs all of them in about five seconds.

use mo_bench::experiments::EXPERIMENTS;
use std::path::PathBuf;
use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("spawn the tables binary")
}

fn stdout_of(out: Output) -> String {
    String::from_utf8(out.stdout).expect("tables prints UTF-8")
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tables")
}

fn fixture(name: &str) -> String {
    let path = fixture_dir().join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Byte equality, reported as the first differing line.
fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let (mut g, mut w) = (got.lines(), want.lines());
    for line in 1.. {
        let (gl, wl) = (g.next(), w.next());
        if gl != wl || gl.is_none() {
            panic!(
                "`tables {what}` differs from its fixture at line {line}:\n  printed: {gl:?}\n  fixture: {wl:?}\n\
                 (equal lines throughout mean a trailing-newline difference)"
            );
        }
    }
}

fn check(name: &str) {
    let out = tables(&[name]);
    assert!(
        out.status.success(),
        "`tables {name}` exited {}",
        out.status
    );
    assert_same(name, &stdout_of(out), &fixture(name));
}

macro_rules! pinned {
    (every_build: $($fast:ident)*; release_only: $($slow:ident)*) => {
        $(#[test]
        fn $fast() {
            check(stringify!($fast));
        })*
        $(#[test]
        #[cfg_attr(debug_assertions, ignore = "over 0.1 s in release; run with --release")]
        fn $slow() {
            check(stringify!($slow));
        })*
        const PINNED: &[&str] = &[$(stringify!($fast),)* $(stringify!($slow),)*];
    };
}

pinned! {
    every_build: model transpose spmdv dstar ngep nolr nocc;
    release_only: fft sort gep listrank cc slice_vs_mo summary ablations scaling verify
}

#[test]
fn no_arguments_lists_exactly_the_17_experiments_and_each_has_a_test_and_a_fixture() {
    let out = tables(&[]);
    assert!(out.status.success());
    let listed: Vec<String> = stdout_of(out)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, names);
    assert_eq!(names.len(), 17);

    let mut pinned = PINNED.to_vec();
    pinned.sort_unstable();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(pinned, sorted, "every experiment has a test above");

    let mut on_disk: Vec<String> = std::fs::read_dir(fixture_dir())
        .unwrap()
        .map(|f| f.unwrap().file_name().into_string().unwrap())
        .collect();
    on_disk.sort_unstable();
    let want: Vec<String> = sorted.iter().map(|n| format!("{n}.txt")).collect();
    assert_eq!(on_disk, want, "one fixture per experiment, no strays");
}

#[test]
fn an_unknown_name_exits_non_zero_and_names_the_valid_ones() {
    let out = tables(&["model", "table_model"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the names check");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`table_model`"), "{err}");
    for e in &EXPERIMENTS {
        assert!(err.contains(e.name), "{} missing from: {err}", e.name);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs every experiment; run with --release")]
fn all_is_the_17_fixtures_concatenated_in_table_order() {
    let out = tables(&["all"]);
    assert!(out.status.success(), "`tables all` exited {}", out.status);
    let want: String = EXPERIMENTS.iter().map(|e| fixture(e.name)).collect();
    assert_same("all", &stdout_of(out), &want);
}

/// The listing's id and heading are EXPERIMENTS.md's: every experiment
/// has a `## <id> — <heading> — `tables <name>`` section there.
#[test]
fn every_experiment_has_its_section_in_experiments_md() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).unwrap();
    for e in &EXPERIMENTS {
        let heading = format!("## {} — {} — `tables {}`", e.id, e.heading, e.name);
        assert!(
            doc.lines().any(|l| l == heading),
            "EXPERIMENTS.md lacks {heading:?}"
        );
    }
}
