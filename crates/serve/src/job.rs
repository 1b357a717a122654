//! Job descriptions and typed outcomes.

use std::sync::mpsc;
use std::time::Duration;

pub use mo_algorithms::real::registry::Kernel;

/// One request to the server: a kernel, a problem size, a seed for the
/// deterministic input generator, and an optional per-job deadline
/// overriding the server default. The job's space bound is *derived*
/// from `(kernel, n)` by the registry's analytic footprint function —
/// clients never place themselves; they only declare what they need,
/// exactly like the paper's algorithms declare `s(τ)` per fork.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Which kernel to run.
    pub kernel: Kernel,
    /// Problem size (kernel-specific: matrix dimension, element count…).
    pub n: usize,
    /// Seed for the deterministic input generator.
    pub seed: u64,
    /// Maximum time the job may wait in the queue before it is shed;
    /// `None` uses the server's default.
    pub deadline: Option<Duration>,
    /// Fleet-unique request id carried by jobs that already belong to a
    /// trace — the dist router stamps one before forwarding so a routed
    /// job keeps a single span across shards. `None` lets the server
    /// mint a fresh id (`(shard << 48) | seq`) at arrival.
    pub trace_id: Option<u64>,
}

impl JobSpec {
    /// A job with the default deadline and a server-minted trace id.
    pub fn new(kernel: Kernel, n: usize, seed: u64) -> Self {
        Self {
            kernel,
            n,
            seed,
            deadline: None,
            trace_id: None,
        }
    }
}

/// Why a job was not served. Every rejection is typed and accounted —
/// under overload the server sheds with these, it never panics or
/// grows without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue was full at submission (backpressure).
    QueueFull {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The declared footprint exceeds every cache level of the machine:
    /// no level could ever admit it.
    TooLarge {
        /// The job's footprint in words.
        footprint: usize,
        /// The largest per-instance level capacity available.
        largest: usize,
    },
    /// The job waited in the queue past its deadline and was shed.
    DeadlineExpired {
        /// How long the job had waited when it was shed.
        waited: Duration,
    },
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The server is in secure mode ([`crate::ServeConfig::certificates`])
    /// and the kernel lacks an `oblivious` value-obliviousness
    /// certificate, so its address trace is not provably
    /// value-independent and it must not run next to secrets.
    NotCertified {
        /// What the loaded certificate set says about the kernel.
        gap: CertifyGap,
    },
    /// The kernel panicked while running the job's batch. Every job of
    /// that batch fails with it; the server, its pool and every other
    /// batch are unaffected.
    KernelPanicked,
}

/// Why a kernel fails the secure-mode certificate gate
/// ([`Rejected::NotCertified`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyGap {
    /// No certificate for this kernel was loaded into the server.
    NoCertificate,
    /// The kernel is certified `data-dependent`: the certifier holds a
    /// concrete witness pair of equal-size inputs whose address traces
    /// diverge, so the trace leaks information about the values.
    DataDependent,
}

/// A successfully served job.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Checksum of the kernel output (deterministic in the spec).
    pub checksum: u64,
    /// Time spent queued before execution started.
    pub queued: Duration,
    /// Execution time (shared with batch mates when batched).
    pub service: Duration,
    /// Cache level the job (or its batch) was admitted against.
    pub anchor_level: usize,
    /// Number of jobs in the batch this job ran in (1 = solo).
    pub batch_size: usize,
}

/// Terminal outcome of a submitted job.
#[derive(Debug, Clone, Copy)]
pub enum Outcome {
    /// The job ran to completion.
    Done(Done),
    /// The job was shed after admission to the queue.
    Rejected(Rejected),
}

impl Outcome {
    /// `true` for [`Outcome::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, Outcome::Done(_))
    }
}

/// Handle to a queued job's eventual [`Outcome`].
///
/// Every admitted job resolves exactly once — at completion, at a
/// kernel panic, at deadline shedding, or during drain — so `wait`
/// cannot hang on a running server; a disconnected channel (the server
/// was dropped with the job unresolved) surfaces as a
/// [`Rejected::ShuttingDown`] outcome rather than a panic.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Outcome>,
}

impl Ticket {
    /// Block until the job resolves.
    pub fn wait(self) -> Outcome {
        self.rx
            .recv()
            .unwrap_or(Outcome::Rejected(Rejected::ShuttingDown))
    }

    /// Block up to `timeout`; `None` if the job is still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        match self.rx.recv_timeout(timeout) {
            Ok(o) => Some(o),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Some(Outcome::Rejected(Rejected::ShuttingDown))
            }
        }
    }
}
