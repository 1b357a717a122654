//! `mo-dist`: a real multi-process D-BSP tier with network-oblivious
//! kernels over sockets.
//!
//! The `no-framework` simulator executes M(N) programs in one process
//! and *accounts* for D-BSP(P, g, B) communication analytically. This
//! crate makes the machine real: `W` worker processes connected by a
//! full TCP mesh form the recursive-subnetwork hierarchy (each of the
//! `log₂ W` cluster levels halves the worker set), and the *same*
//! kernel sources — N-GEP and the column-sort-based NO sort — run
//! across them through the [`no_framework::Comm`] trait, one backend
//! being the in-process [`no_framework::NoMachine`], the other
//! [`SocketComm`]. Each such program is one [`DistAlg`] ([`alg`]): its
//! PE shape, seeded driver, output gather and simulator reference.
//!
//! Because the kernels are network-oblivious, every worker derives the
//! whole superstep schedule from the input size alone; the sockets
//! carry only payload words, framed per superstep with an explicit
//! barrier (see [`comm`]). The outputs are bit-identical to the
//! simulator's and the per-superstep traffic signature — logged
//! src-side by each worker and kept compact by the router
//! ([`Signature`]) — equals
//! [`NoMachine::traffic_signature`](no_framework::NoMachine::traffic_signature)
//! exactly.
//!
//! On top of the kernel tier sits a serving tier: each worker embeds a
//! full `mo-serve` server (SB admission, batching, typed shedding); the
//! [`Router`] consistent-hashes single-shard jobs over a [`HashRing`]
//! and serves the one fleet `/metrics` view, every shard's exposition
//! merged under a `shard` label.
//!
//! With tracing on ([`WorkerConfig::trace`]) every worker stamps its
//! supersteps, XOR-round exchanges, and barrier waits into a local
//! `mo-obs` sink; the router calibrates each worker's clock NTP-style
//! ([`Router::calibrate_clocks`]), ships the streams home
//! ([`Router::collect_trace`]), and the [`trace`] module sets the
//! measured per-level wire traffic against the analytic D-BSP
//! `h`-relation charge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg;
pub mod comm;
pub mod data;
pub mod frame;
pub mod router;
pub mod signature;
pub mod topology;
pub mod trace;
pub mod worker;

pub use alg::DistAlg;
pub use comm::{Link, MeshBuffers, SocketComm};
pub use frame::{Ctl, DistDone, Msg};
pub use no_framework::{pair_level, Partition};
pub use router::{ClockCal, DistOutcome, FleetExposition, FleetPoisoned, Router};
pub use signature::Signature;
pub use topology::{job_key, HashRing};
pub use trace::{format_level_table, level_table, straggler_report, LevelRow};
pub use worker::{establish_mesh, run_worker, WorkerConfig, MESH_IO_TIMEOUT};

use std::io;
use std::net::TcpListener;
use std::thread;

/// A complete local fleet: `W` workers on their own threads, talking to
/// a connected [`Router`] over real loopback TCP — the full wire
/// protocol without process-spawn overhead. The `mo_dist` bench binary
/// runs the same components as separate OS processes.
pub struct LocalFleet {
    router: Router,
    handles: Vec<thread::JoinHandle<io::Result<()>>>,
}

impl std::fmt::Debug for LocalFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalFleet")
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl LocalFleet {
    /// Spawn `workers` (a power of two) with default configuration.
    pub fn spawn(workers: usize) -> io::Result<Self> {
        Self::spawn_with(workers, |_| {})
    }

    /// Spawn `workers`, letting `configure` adjust each
    /// [`WorkerConfig`] (hierarchy injection, serve limits) first.
    pub fn spawn_with(
        workers: usize,
        mut configure: impl FnMut(&mut WorkerConfig),
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let coord = listener.local_addr()?.to_string();
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let mut cfg = WorkerConfig::new(w, workers, coord.clone());
            configure(&mut cfg);
            handles.push(
                thread::Builder::new()
                    .name(format!("mo-dist-worker-{w}"))
                    .spawn(move || run_worker(cfg))?,
            );
        }
        let router = Router::accept_fleet(&listener, workers)?;
        Ok(Self { router, handles })
    }

    /// The connected router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Stop every worker and wait for clean exits.
    pub fn shutdown(self) -> io::Result<()> {
        self.router.shutdown();
        for h in self.handles {
            h.join()
                .map_err(|_| io::Error::other("worker thread panicked"))??;
        }
        Ok(())
    }
}
