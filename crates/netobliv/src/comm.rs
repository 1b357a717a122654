//! The [`Comm`] abstraction: one M(N) kernel source, many backends.
//!
//! The paper's network-oblivious claim is that an M(N) program is
//! written once and *evaluated* on any M(p,B)/D-BSP machine. This trait
//! makes the claim operational for execution too: an NO algorithm is a
//! driver over an abstract superstep machine, and the same driver runs
//! on
//!
//! * the in-process [`NoMachine`](crate::NoMachine) simulator (owns
//!   every PE, executes them sequentially, logs traffic for the cost
//!   models), and
//! * the socket-backed D-BSP tier (`mo-dist`), where each worker
//!   process owns a contiguous PE range and cross-worker messages
//!   travel over real TCP connections.
//!
//! The contract that makes this sound: NO drivers are *deterministic
//! functions of the input size* — every routing table they build
//! host-side is the same on every worker — so each backend can execute
//! the per-PE closures for just the PEs it owns and exchange the rest.
//! Backends must preserve the simulator's delivery semantics exactly:
//! messages sent in superstep `s` are visible in superstep `s + 1`,
//! ordered by source PE and, within a source, in send order.
//!
//! The same contract carries the D-BSP cluster structure: a driver
//! declares each superstep's [`Scope`] — the disjoint PE groups its
//! messages stay inside, again a function of the input size alone — and
//! a distributed backend synchronises only the workers that share a
//! group. Every backend checks every send against the declaration.

use std::ops::Range;

use crate::machine::Pe;

/// The communication scope of one superstep: where its messages may go.
///
/// A D-BSP *i*-superstep is charged to its *i*-cluster only; the scope
/// is how a driver names that cluster structure. It must be computed
/// identically on every worker (the contract routing tables already
/// obey), and a send that leaves it is a checked error on every
/// backend, never a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope<'a> {
    /// The whole machine is one group: a PE may send anywhere.
    All,
    /// No PE sends (a receive-only or purely local superstep).
    None,
    /// Messages stay inside the groups `[s, s + size)`, `s ∈ starts`.
    /// `starts` is ascending and the groups are disjoint; a PE outside
    /// every group sends nothing.
    Groups {
        /// First PE of each group, ascending.
        starts: &'a [usize],
        /// PEs per group.
        size: usize,
    },
}

impl Scope<'_> {
    /// The group `pe` may send within on an `n_pes`-PE machine, if any.
    pub fn group_of(&self, pe: usize, n_pes: usize) -> Option<Range<usize>> {
        match *self {
            Scope::All => Some(0..n_pes),
            Scope::None => None,
            Scope::Groups { starts, size } => {
                let lo = *starts.get(starts.partition_point(|&s| s <= pe).checked_sub(1)?)?;
                (pe < lo + size).then_some(lo..(lo + size).min(n_pes))
            }
        }
    }
}

/// An abstract M(N) superstep machine.
///
/// Implementations own some subset of the `N` PEs. Memory accessors
/// return `None` for PEs the backend does not own; drivers loading
/// input or reading output must skip those (the owning backend handles
/// them). [`step_dyn`](Comm::step_dyn) must invoke the closure exactly
/// once per *owned* PE, in increasing PE order, and complete the
/// exchange with every backend in the declared scope before returning.
pub trait Comm {
    /// Total number of PEs `N` (machine-wide, not just owned).
    fn n_pes(&self) -> usize;

    /// Whether this backend owns `pe`'s memory and execution.
    fn owns(&self, pe: usize) -> bool;

    /// Mutable access to an owned PE's memory (input marshalling; not
    /// communication). `None` when the PE is owned by another backend.
    fn pe_mem_mut(&mut self, pe: usize) -> Option<&mut Vec<u64>>;

    /// Read access to an owned PE's memory (output marshalling).
    fn pe_mem(&self, pe: usize) -> Option<&[u64]>;

    /// Execute one superstep whose messages stay inside `scope`: run
    /// `f` for every owned PE in index order, then deliver all messages
    /// (local and cross-backend) so they are visible in the next
    /// superstep's inboxes.
    fn step_dyn(&mut self, scope: Scope<'_>, f: &mut dyn FnMut(usize, &mut Pe<'_>));

    /// One superstep that may send anywhere ([`Scope::All`]).
    fn step<F: FnMut(usize, &mut Pe<'_>)>(&mut self, f: F)
    where
        Self: Sized,
    {
        self.step_in(Scope::All, f);
    }

    /// One superstep confined to `scope`.
    fn step_in<F: FnMut(usize, &mut Pe<'_>)>(&mut self, scope: Scope<'_>, mut f: F)
    where
        Self: Sized,
    {
        self.step_dyn(scope, &mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoMachine;

    /// A driver written against `Comm` behaves identically to direct
    /// `NoMachine` use.
    #[test]
    fn nomachine_implements_comm() {
        fn ring_shift<C: Comm>(m: &mut C) {
            let n = m.n_pes();
            for pe in 0..n {
                if let Some(mem) = m.pe_mem_mut(pe) {
                    mem.push(pe as u64 * 100);
                }
            }
            m.step(|pe, ctx| {
                let v = ctx.mem[0];
                ctx.send((pe + 1) % ctx.n_pes(), v);
            });
            m.step(|_, ctx| {
                let v = ctx.inbox[0];
                ctx.mem.push(v);
            });
        }
        let mut m = NoMachine::new(4);
        assert!((0..4).all(|pe| m.owns(pe)));
        ring_shift(&mut m);
        for pe in 0..4 {
            assert_eq!(m.pe_mem(pe).unwrap()[1], (((pe + 3) % 4) * 100) as u64);
        }
        assert_eq!(m.supersteps(), 2);
    }

    #[test]
    fn group_of_finds_the_enclosing_group() {
        let scope = Scope::Groups {
            starts: &[2, 6],
            size: 3,
        };
        assert_eq!(scope.group_of(1, 10), None);
        assert_eq!(scope.group_of(2, 10), Some(2..5));
        assert_eq!(scope.group_of(4, 10), Some(2..5));
        assert_eq!(scope.group_of(5, 10), None);
        assert_eq!(scope.group_of(8, 10), Some(6..9));
        assert_eq!(scope.group_of(9, 10), None);
        assert_eq!(Scope::All.group_of(3, 10), Some(0..10));
        assert_eq!(Scope::None.group_of(3, 10), None);
    }

    /// A send that leaves the declared scope is a checked violation on
    /// the simulator (and a typed error on the socket backend).
    #[test]
    #[should_panic(expected = "PE 1 sent to PE 2 outside its declared scope")]
    fn nomachine_checks_sends_against_the_scope() {
        let mut m = NoMachine::new(4);
        let pairs = Scope::Groups {
            starts: &[0, 2],
            size: 2,
        };
        m.step_in(pairs, |pe, ctx| ctx.send(pe ^ 1, 7)); // stays inside
        m.step_in(pairs, |pe, ctx| ctx.send((pe + 1) % 4, 7)); // 1 → 2 leaves
    }
}
