//! The fleet programs, each defined once.
//!
//! A fleet program is a network-oblivious M(N) driver plus what the
//! machinery around it has to know: how many PEs it runs on and how many
//! output words each PE keeps ([`DistAlg::shape`]), which seeded input it
//! regenerates and which driver call runs it over any [`Comm`] backend
//! ([`DistAlg::run`]), and how the PE memories become the output in
//! problem order ([`DistAlg::gather`]). The worker, the router, `mo_dist`
//! and the sim ≡ sockets tests read those facts here and nowhere else;
//! the simulator reference is the same `run` on [`NoMachine`]
//! ([`DistAlg::reference`]), and [`DistOutcome::mismatches`] is the one
//! comparison of a fleet run against it.

use std::io;

use no_framework::algs::{ngep, sort};
use no_framework::{gep, Comm, NoMachine};

use crate::data;
use crate::frame::invalid;
use crate::router::DistOutcome;
use crate::trace::level_table;

/// The fleet-wide distributed kernels (run across *all* shards). The
/// discriminant is the wire code of [`Ctl::RunDist`](crate::Ctl::RunDist).
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistAlg {
    /// N-GEP `𝒜(x,x,x,x)` with the Floyd–Warshall update, `𝒟*` order,
    /// on the `n × n` matrix of [`gep::fw_instance`] in `κ × κ` blocks.
    Ngep = 0,
    /// The column-sort-based NO sort of [`data::sort_input`], one key
    /// per PE.
    Sort = 1,
}

impl DistAlg {
    /// Every fleet program, in report order.
    pub const ALL: [DistAlg; 2] = [DistAlg::Sort, DistAlg::Ngep];

    /// Stable display name (used in metrics labels and reports).
    pub fn name(self) -> &'static str {
        match self {
            DistAlg::Ngep => "ngep",
            DistAlg::Sort => "no_sort",
        }
    }

    /// The wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code); an unknown code is `InvalidData`.
    pub fn from_code(c: u8) -> io::Result<Self> {
        Self::ALL
            .into_iter()
            .find(|a| a.code() == c)
            .ok_or_else(|| invalid(format!("unknown dist alg code {c}")))
    }

    /// `(n_pes, out_words_per_pe)` of a run at size `n` with block side
    /// `kappa` (ignored by sort).
    pub fn shape(self, n: usize, kappa: usize) -> (usize, usize) {
        match self {
            DistAlg::Ngep => ((n / kappa) * (n / kappa), kappa * kappa),
            DistAlg::Sort => (n, 1),
        }
    }

    /// Regenerate the seeded input and run the driver on `comm`, a
    /// backend with [`shape`](Self::shape)`.0` PEs. Every backend loads
    /// only the PEs it owns.
    pub fn run<C: Comm>(self, comm: &mut C, n: usize, kappa: usize, seed: u64) {
        self.run_with(comm, n, kappa, seed, &mut Vec::new());
    }

    /// [`run`](Self::run), regenerating N-GEP's `n × n` input into
    /// `input`, a buffer the caller keeps across jobs. At the fleet's
    /// 128 × 128 it is 128 KiB, glibc's mmap threshold: a fresh one
    /// would be mapped, faulted in and unmapped on every job.
    pub fn run_with<C: Comm>(
        self,
        comm: &mut C,
        n: usize,
        kappa: usize,
        seed: u64,
        input: &mut Vec<f64>,
    ) {
        match self {
            DistAlg::Ngep => {
                gep::fw_instance_into(n, seed, input);
                ngep::ngep_program_on(
                    comm,
                    input,
                    n,
                    kappa,
                    gep::fw_update,
                    gep::UpdateSet::All,
                    ngep::DOrder::DStar,
                );
            }
            DistAlg::Sort => sort::sort_program(comm, &data::sort_input(n, seed)),
        }
    }

    /// The output in problem order — sort keys, or the row-major `f64`
    /// bit patterns of the N-GEP matrix — from `pe_mem(pe)`, each PE's
    /// first [`shape`](Self::shape)`.1` words.
    pub fn gather<'a>(
        self,
        n: usize,
        kappa: usize,
        pe_mem: impl Fn(usize) -> &'a [u64],
    ) -> Vec<u64> {
        match self {
            DistAlg::Ngep => ngep::gather_blocks(n, kappa, pe_mem),
            DistAlg::Sort => (0..n).map(|pe| pe_mem(pe)[0]).collect(),
        }
    }

    /// The simulator's run of the program: [`run`](Self::run) on a
    /// [`NoMachine`], then [`gather`](Self::gather).
    pub fn reference(self, n: usize, kappa: usize, seed: u64) -> (NoMachine, Vec<u64>) {
        let mut sim = NoMachine::new(self.shape(n, kappa).0);
        self.run(&mut sim, n, kappa, seed);
        let out = self.gather(n, kappa, |pe| sim.mem(pe));
        (sim, out)
    }
}

impl DistOutcome {
    /// Every way this fleet run differs from `sim`, the simulator's run
    /// of the same program, whose gathered output is `want`: one named
    /// problem per failed check — output words, checksum, superstep
    /// count, the first diverging signature superstep, send == recv per
    /// level, and any [`level_table`] row whose wire words diverge from
    /// the signature. Empty means sim ≡ sockets.
    pub fn mismatches(&self, sim: &NoMachine, want: &[u64]) -> Vec<String> {
        let mut problems = Vec::new();
        if self.output != want {
            problems.push("output words diverge".to_string());
        }
        let checksum = data::checksum_words(want.iter().copied());
        if self.checksum != checksum {
            problems.push(format!(
                "checksum: fleet {:#x} vs sim {checksum:#x}",
                self.checksum
            ));
        }
        if self.supersteps != sim.supersteps() {
            problems.push(format!(
                "supersteps: fleet {} vs sim {}",
                self.supersteps,
                sim.supersteps()
            ));
        }
        let sig = sim.traffic_signature();
        if self.signature != sig {
            let at = self
                .signature
                .steps()
                .zip(&sig)
                .position(|(a, b)| !a.eq(b.iter().copied()))
                .map_or_else(|| "length".to_string(), |s| s.to_string());
            problems.push(format!("traffic signature diverges at superstep {at}"));
        }
        if self.socket_words_per_level != self.recv_words_per_level {
            problems.push(format!(
                "send != recv per level: sent {:?}, delivered {:?}",
                self.socket_words_per_level, self.recv_words_per_level
            ));
        }
        // One exchange-round count per worker: its length is the fleet.
        let workers = self.exchange_rounds.len();
        for row in level_table(self, sim.n_pes(), workers) {
            if row.divergent {
                problems.push(format!(
                    "level {}: wire words sent {} / delivered {} != signature-implied {}",
                    row.level, row.send_words, row.recv_words, row.signature_words
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Signature;

    #[test]
    fn every_alg_round_trips_its_name_and_code() {
        let mut names: Vec<&str> = DistAlg::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DistAlg::ALL.len(), "names are distinct");
        for alg in DistAlg::ALL {
            assert_eq!(DistAlg::from_code(alg.code()).unwrap(), alg);
        }
        let err = DistAlg::from_code(DistAlg::ALL.len() as u8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Each check of `mismatches` names its own problem: a clean
    /// outcome — the reference's output and signature, and the
    /// per-level words that signature implies on four workers — has
    /// none, and each damaged copy has the one its damage names.
    #[test]
    fn mismatches_names_each_failed_check() {
        type Damage = fn(&mut DistOutcome);
        let cases: [(Damage, &str); 6] = [
            (|o| o.output[3] ^= 1, "output words diverge"),
            (|o| o.checksum ^= 1, "checksum"),
            (|o| o.supersteps += 1, "supersteps"),
            (
                |o| {
                    let mut steps = o.signature.to_vecs();
                    steps.iter_mut().find(|r| !r.is_empty()).unwrap().pop();
                    o.signature = Signature::from_rows(&steps);
                },
                "traffic signature diverges",
            ),
            (|o| o.recv_words_per_level[0] += 1, "send != recv"),
            // Both sides agree with each other, not with the signature.
            (
                |o| {
                    o.socket_words_per_level[0] += 1;
                    o.recv_words_per_level[0] += 1;
                },
                "level 0: wire words",
            ),
        ];
        for (alg, n, kappa) in [(DistAlg::Sort, 64, 0), (DistAlg::Ngep, 16, 4)] {
            let (sim, want) = alg.reference(n, kappa, 5);
            let mut clean = DistOutcome {
                checksum: data::checksum_words(want.iter().copied()),
                supersteps: sim.supersteps(),
                signature: Signature::from_rows(&sim.traffic_signature()),
                output: want.clone(),
                socket_words_per_level: Vec::new(),
                recv_words_per_level: Vec::new(),
                ops: 0,
                exchange_rounds: vec![0; 4],
                job: 1,
            };
            let rows = level_table(&clean, sim.n_pes(), 4);
            clean.socket_words_per_level = rows.iter().map(|r| r.signature_words).collect();
            clean
                .recv_words_per_level
                .clone_from(&clean.socket_words_per_level);
            assert_eq!(clean.mismatches(&sim, &want), Vec::<String>::new());
            for (damage, named) in cases {
                let mut got = clean.clone();
                damage(&mut got);
                let problems = got.mismatches(&sim, &want);
                assert!(
                    problems.iter().any(|p| p.starts_with(named)),
                    "{}: {named:?} missing from {problems:?}",
                    alg.name()
                );
            }
        }
    }
}
