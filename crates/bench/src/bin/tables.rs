//! The paper's tables, figures and theorems behind one binary: one
//! sub-command per row of `mo_bench::experiments::EXPERIMENTS`.
//!
//! ```sh
//! cargo run --release -p mo-bench --bin tables                  # list the experiments
//! cargo run --release -p mo-bench --bin tables -- fft summary   # run those, in that order
//! cargo run --release -p mo-bench --bin tables -- all           # every one, EXPERIMENTS.md order
//! ```
//!
//! Exits 1 when `verify` finds something (it is last in `all`), 2 on
//! an unknown name.

use mo_bench::experiments::{find, Experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        for e in &EXPERIMENTS {
            println!("{:<12} {} — {}", e.name, e.id, e.heading);
        }
        return;
    }
    let mut selected: Vec<&Experiment> = Vec::new();
    for arg in &args {
        match find(arg) {
            Some(e) => selected.push(e),
            None if arg == "all" => selected.extend(&EXPERIMENTS),
            None => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                eprintln!(
                    "tables: unknown experiment `{arg}`; valid names: all {}",
                    names.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    for e in selected {
        (e.run)();
    }
}
