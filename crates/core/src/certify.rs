//! Value-obliviousness certification and footprint auditing of recorded
//! programs — the static-analysis layer above [`crate::verify`].
//!
//! [`crate::verify`] checks *schedule*-obliviousness: a race-free
//! fork–join program with honest hints behaves identically under every
//! SP-consistent schedule. This module checks the stronger property the
//! paper's algorithms are designed for (and which Ramachandran–Shi's
//! data-oblivious line makes explicit): *value*-obliviousness — the task
//! DAG, the declared space bounds, and the entire address trace are
//! independent of the input **values**, not just of the schedule.
//!
//! The certifier records one kernel several times at the same size `n`
//! with independently seeded values, rewrites each address trace into
//! canonical `(allocation, offset)` form (so two runs whose bump
//! allocator placed arrays at different bases still compare equal —
//! "modulo base-pointer relocation"), and diffs the runs pairwise. The
//! first divergence — a differing DAG node, allocation size, trace
//! length, or trace entry — becomes the machine-readable *witness* that
//! the kernel is data-dependent.
//!
//! The companion footprint audit replays a recorded DAG and reports the
//! true maximum working set any SB task can pin under any SP-consistent
//! schedule (the per-task subtree footprint is schedule-invariant, so
//! the root's distinct-word count is the exact bound), for comparison
//! against the analytic footprint that admission control keys on.
//!
//! Certificates serialize to JSON ([`CertificateSet`]); `mo-serve` loads
//! them to gate its `--secure` mode on an `oblivious` classification.

use std::fmt;

use crate::record::{Program, Segment};
use crate::trace::TraceEntry;

/// A trace entry rewritten relative to its allocation: which region of
/// the allocation table it falls in, the word offset inside that
/// region, and the access direction. Two recordings of a
/// value-oblivious kernel produce identical canonical traces even when
/// data-dependent allocation *placement* moved the raw addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonEntry {
    /// Index into [`Program::allocs`]; `usize::MAX` for an address
    /// outside every recorded allocation (cannot happen for programs
    /// recorded through [`crate::Recorder`]).
    pub alloc: usize,
    /// Word offset from the allocation's base.
    pub offset: u64,
    /// Whether the access is a write.
    pub write: bool,
}

impl fmt::Display for CanonEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.write { "W" } else { "R" };
        write!(f, "{dir} alloc {}+{}", self.alloc, self.offset)
    }
}

/// Rewrite one raw trace entry against the allocation table (sorted by
/// base, as the bump allocator emits it).
fn canon_entry(allocs: &[crate::Arr], e: TraceEntry) -> CanonEntry {
    let addr = e.addr();
    // Last allocation with base <= addr; partition_point gives the first
    // with base > addr.
    let idx = allocs.partition_point(|a| a.base() <= addr);
    if idx > 0 {
        let a = allocs[idx - 1];
        if addr < a.base() + a.len() as u64 {
            return CanonEntry {
                alloc: idx - 1,
                offset: addr - a.base(),
                write: e.is_write(),
            };
        }
    }
    CanonEntry {
        alloc: usize::MAX,
        offset: addr,
        write: e.is_write(),
    }
}

/// The full canonical trace of a recorded program.
pub fn canonical_trace(prog: &Program) -> Vec<CanonEntry> {
    let allocs = prog.allocs();
    prog.trace()
        .iter()
        .map(|&e| canon_entry(allocs, e))
        .collect()
}

/// Which layer of the recording two runs first disagreed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The task DAGs differ: task count, parentage, declared space
    /// bounds, or segment structure.
    DagShape,
    /// The allocation tables differ in count or region length.
    AllocTable,
    /// One trace is a strict prefix of the other.
    TraceLength,
    /// A canonical trace entry differs.
    TraceEntry,
}

impl DivergenceKind {
    /// Stable label used in JSON certificates.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::DagShape => "dag-shape",
            DivergenceKind::AllocTable => "alloc-table",
            DivergenceKind::TraceLength => "trace-length",
            DivergenceKind::TraceEntry => "trace-entry",
        }
    }

    /// Parse a [`name`](Self::name).
    pub fn parse(s: &str) -> Option<DivergenceKind> {
        [
            DivergenceKind::DagShape,
            DivergenceKind::AllocTable,
            DivergenceKind::TraceLength,
            DivergenceKind::TraceEntry,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// The first point at which two recordings of one kernel disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// The layer that diverged.
    pub kind: DivergenceKind,
    /// Position of the divergence: a trace index for
    /// [`DivergenceKind::TraceEntry`] / [`DivergenceKind::TraceLength`],
    /// a task id for [`DivergenceKind::DagShape`], an allocation index
    /// for [`DivergenceKind::AllocTable`].
    pub pos: usize,
    /// First run's canonical entry at `pos` (trace divergences only).
    pub a: Option<CanonEntry>,
    /// Second run's canonical entry at `pos` (trace divergences only).
    pub b: Option<CanonEntry>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DivergenceKind::DagShape => write!(f, "task DAGs diverge at task {}", self.pos),
            DivergenceKind::AllocTable => {
                write!(f, "allocation tables diverge at allocation {}", self.pos)
            }
            DivergenceKind::TraceLength => {
                write!(f, "one trace ends at entry {} (strict prefix)", self.pos)
            }
            DivergenceKind::TraceEntry => {
                let none = "∅".to_string();
                let fa = self
                    .a
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| none.clone());
                let fb = self.b.map(|e| e.to_string()).unwrap_or(none);
                write!(f, "traces diverge at entry {}: {fa} vs {fb}", self.pos)
            }
        }
    }
}

/// Structural equality of two recordings' task DAGs; `Some(task)` names
/// the first task at which they disagree.
fn dag_divergence(a: &Program, b: &Program) -> Option<usize> {
    let (ta, tb) = (a.tasks(), b.tasks());
    for (tid, (x, y)) in ta.iter().zip(tb.iter()).enumerate() {
        if x.parent != y.parent || x.space != y.space || x.segments.len() != y.segments.len() {
            return Some(tid);
        }
        let same = x
            .segments
            .iter()
            .zip(&y.segments)
            .all(|(s, t)| match (s, t) {
                (
                    Segment::Compute { start: s0, end: e0 },
                    Segment::Compute { start: s1, end: e1 },
                ) => s0 == s1 && e0 == e1,
                (
                    Segment::CgcLoop {
                        start: s0,
                        iter_ends: i0,
                    },
                    Segment::CgcLoop {
                        start: s1,
                        iter_ends: i1,
                    },
                ) => s0 == s1 && i0 == i1,
                (
                    Segment::Fork {
                        hint: h0,
                        children: c0,
                    },
                    Segment::Fork {
                        hint: h1,
                        children: c1,
                    },
                ) => h0 == h1 && c0 == c1,
                _ => false,
            });
        if !same {
            return Some(tid);
        }
    }
    (ta.len() != tb.len()).then(|| ta.len().min(tb.len()))
}

/// Diff two recordings of one kernel (same `n`, different input
/// values). `None` means the runs are indistinguishable — DAG,
/// allocation shapes, and canonical address trace all identical — i.e.
/// this *pair* is evidence for value-obliviousness.
pub fn diff(a: &Program, b: &Program) -> Option<Divergence> {
    if let Some(task) = dag_divergence(a, b) {
        return Some(Divergence {
            kind: DivergenceKind::DagShape,
            pos: task,
            a: None,
            b: None,
        });
    }
    let (aa, ab) = (a.allocs(), b.allocs());
    for (i, (x, y)) in aa.iter().zip(ab.iter()).enumerate() {
        if x.len() != y.len() {
            return Some(Divergence {
                kind: DivergenceKind::AllocTable,
                pos: i,
                a: None,
                b: None,
            });
        }
    }
    if aa.len() != ab.len() {
        return Some(Divergence {
            kind: DivergenceKind::AllocTable,
            pos: aa.len().min(ab.len()),
            a: None,
            b: None,
        });
    }
    for (i, (&x, &y)) in a.trace().iter().zip(b.trace().iter()).enumerate() {
        let (cx, cy) = (canon_entry(aa, x), canon_entry(ab, y));
        if cx != cy {
            return Some(Divergence {
                kind: DivergenceKind::TraceEntry,
                pos: i,
                a: Some(cx),
                b: Some(cy),
            });
        }
    }
    if a.trace().len() != b.trace().len() {
        return Some(Divergence {
            kind: DivergenceKind::TraceLength,
            pos: a.trace().len().min(b.trace().len()),
            a: None,
            b: None,
        });
    }
    None
}

/// Verdict of the value-obliviousness certifier for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Every recorded pair was indistinguishable: DAG, allocation
    /// shapes, and canonical trace are (empirically) value-independent.
    Oblivious,
    /// Some pair diverged; the certificate carries the witness.
    DataDependent,
}

impl Classification {
    /// Stable label used in JSON certificates and gate files.
    pub fn name(self) -> &'static str {
        match self {
            Classification::Oblivious => "oblivious",
            Classification::DataDependent => "data-dependent",
        }
    }

    /// Parse a [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Classification> {
        match s {
            "oblivious" => Some(Classification::Oblivious),
            "data-dependent" => Some(Classification::DataDependent),
            _ => None,
        }
    }
}

/// A concrete divergence between two seeded runs — the proof carried by
/// a `data-dependent` certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// Seed of the baseline run.
    pub seed_a: u64,
    /// Seed of the diverging run.
    pub seed_b: u64,
    /// Where and how the runs diverged.
    pub divergence: Divergence,
}

/// Classify a kernel from `runs` of `(seed, recording)` at one size:
/// diff every run against the first and return the first divergence
/// found (with its seed pair) or [`Classification::Oblivious`].
pub fn classify(runs: &[(u64, Program)]) -> (Classification, Option<Witness>) {
    if let Some(((s0, base), rest)) = runs.split_first() {
        for (s, prog) in rest {
            if let Some(d) = diff(base, prog) {
                return (
                    Classification::DataDependent,
                    Some(Witness {
                        seed_a: *s0,
                        seed_b: *s,
                        divergence: d,
                    }),
                );
            }
        }
    }
    (Classification::Oblivious, None)
}

/// Per-task subtree footprints (distinct words touched by the task and
/// its descendants). This is schedule-invariant — under every
/// SP-consistent schedule an SB task can pin at most its subtree's
/// distinct words — so element 0 (the root) is the true maximum working
/// set of the whole program, the number the footprint auditor holds
/// against the analytic admission-control bound.
pub fn max_working_set(prog: &Program) -> usize {
    crate::verify::task_footprints(prog)
        .first()
        .copied()
        .unwrap_or(0)
}

/// One kernel's certificate: the certifier's verdict plus the footprint
/// audit, as written to (and read back from) the JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Registry name of the kernel.
    pub kernel: String,
    /// Problem size the kernel was recorded at.
    pub n: usize,
    /// Number of independently seeded recordings compared.
    pub runs: usize,
    /// The certifier's verdict.
    pub classification: Classification,
    /// Divergence witness; present iff `classification` is
    /// [`Classification::DataDependent`].
    pub witness: Option<Witness>,
    /// Analytic footprint (words) admission control charges for size `n`.
    pub declared_words: usize,
    /// Maximum recorded working set (words) over the compared runs.
    pub recorded_words: usize,
    /// Whether `declared_words >= recorded_words` — the soundness
    /// condition SB admission control relies on.
    pub footprint_sound: bool,
    /// Whether every recording passed [`crate::verify`] clean (no races,
    /// no error-severity hint violations) — schedule-obliviousness.
    pub schedule_clean: bool,
}

impl Certificate {
    /// Whether `mo-serve --secure` may run this kernel: certified
    /// value-oblivious, with a sound footprint, race-free.
    pub fn is_secure(&self) -> bool {
        self.classification == Classification::Oblivious
            && self.footprint_sound
            && self.schedule_clean
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (n={}, {} runs; footprint {}/{} declared{}; verify {})",
            self.kernel,
            self.classification.name(),
            self.n,
            self.runs,
            self.recorded_words,
            self.declared_words,
            if self.footprint_sound { "" } else { " UNSOUND" },
            if self.schedule_clean {
                "clean"
            } else {
                "DIRTY"
            },
        )?;
        if let Some(w) = &self.witness {
            write!(
                f,
                "; witness seeds ({}, {}): {}",
                w.seed_a, w.seed_b, w.divergence
            )?;
        }
        Ok(())
    }
}

/// A set of per-kernel certificates — the JSON artifact `mo_certify`
/// emits and `mo-serve --secure` loads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CertificateSet {
    /// One certificate per kernel, in registry order.
    pub certs: Vec<Certificate>,
}

impl CertificateSet {
    /// The certificate for `kernel`, if present.
    pub fn get(&self, kernel: &str) -> Option<&Certificate> {
        self.certs.iter().find(|c| c.kernel == kernel)
    }

    /// Whether `kernel` holds an `oblivious`, footprint-sound,
    /// race-free certificate (the `--secure` admission condition).
    pub fn is_secure(&self, kernel: &str) -> bool {
        self.get(kernel).is_some_and(Certificate::is_secure)
    }

    /// Serialize to the JSON artifact format.
    pub fn to_json_string(&self) -> String {
        let certs: Vec<json::Json> = self.certs.iter().map(cert_to_json).collect();
        let root = json::Json::obj([
            ("version", json::Json::Num(1.0)),
            ("certificates", json::Json::Arr(certs)),
        ]);
        let mut out = String::new();
        json::write(&root, &mut out, 0);
        out.push('\n');
        out
    }

    /// Parse a JSON artifact produced by [`to_json_string`](Self::to_json_string).
    pub fn from_json_str(s: &str) -> Result<CertificateSet, String> {
        let root = json::parse(s)?;
        let version = root
            .get("version")
            .and_then(json::Json::as_u64)
            .ok_or("missing certificate version")?;
        if version != 1 {
            return Err(format!("unsupported certificate version {version}"));
        }
        let arr = root
            .get("certificates")
            .and_then(json::Json::as_arr)
            .ok_or("missing certificates array")?;
        let certs = arr.iter().map(cert_from_json).collect::<Result<_, _>>()?;
        Ok(CertificateSet { certs })
    }
}

fn canon_to_json(e: &CanonEntry) -> json::Json {
    let alloc = if e.alloc == usize::MAX {
        json::Json::Null
    } else {
        json::Json::Num(e.alloc as f64)
    };
    json::Json::obj([
        ("alloc", alloc),
        ("offset", json::Json::Num(e.offset as f64)),
        ("write", json::Json::Bool(e.write)),
    ])
}

fn canon_from_json(j: &json::Json) -> Result<CanonEntry, String> {
    Ok(CanonEntry {
        alloc: match j.get("alloc") {
            Some(json::Json::Null) | None => usize::MAX,
            Some(v) => v.as_u64().ok_or("bad alloc index")? as usize,
        },
        offset: j
            .get("offset")
            .and_then(json::Json::as_u64)
            .ok_or("bad entry offset")?,
        write: j
            .get("write")
            .and_then(json::Json::as_bool)
            .ok_or("bad entry direction")?,
    })
}

fn cert_to_json(c: &Certificate) -> json::Json {
    let witness = match &c.witness {
        None => json::Json::Null,
        Some(w) => {
            let mut wf = vec![
                ("seed_a".into(), json::Json::Num(w.seed_a as f64)),
                ("seed_b".into(), json::Json::Num(w.seed_b as f64)),
                (
                    "kind".into(),
                    json::Json::Str(w.divergence.kind.name().into()),
                ),
                ("pos".into(), json::Json::Num(w.divergence.pos as f64)),
            ];
            if let Some(a) = &w.divergence.a {
                wf.push(("a".into(), canon_to_json(a)));
            }
            if let Some(b) = &w.divergence.b {
                wf.push(("b".into(), canon_to_json(b)));
            }
            json::Json::Obj(wf)
        }
    };
    json::Json::obj([
        ("kernel", json::Json::Str(c.kernel.clone())),
        ("n", json::Json::Num(c.n as f64)),
        ("runs", json::Json::Num(c.runs as f64)),
        (
            "classification",
            json::Json::Str(c.classification.name().into()),
        ),
        ("declared_words", json::Json::Num(c.declared_words as f64)),
        ("recorded_words", json::Json::Num(c.recorded_words as f64)),
        ("footprint_sound", json::Json::Bool(c.footprint_sound)),
        ("schedule_clean", json::Json::Bool(c.schedule_clean)),
        ("witness", witness),
    ])
}

fn cert_from_json(j: &json::Json) -> Result<Certificate, String> {
    let str_field = |name: &str| -> Result<String, String> {
        j.get(name)
            .and_then(json::Json::as_str)
            .map(str::to_string)
            .ok_or(format!("missing certificate field `{name}`"))
    };
    let num_field = |name: &str| -> Result<usize, String> {
        j.get(name)
            .and_then(json::Json::as_u64)
            .map(|v| v as usize)
            .ok_or(format!("missing certificate field `{name}`"))
    };
    let bool_field = |name: &str| -> Result<bool, String> {
        j.get(name)
            .and_then(json::Json::as_bool)
            .ok_or(format!("missing certificate field `{name}`"))
    };
    let classification =
        Classification::parse(&str_field("classification")?).ok_or("unknown classification")?;
    let witness = match j.get("witness") {
        Some(json::Json::Null) | None => None,
        Some(w) => {
            let kind = w
                .get("kind")
                .and_then(json::Json::as_str)
                .and_then(DivergenceKind::parse)
                .ok_or("unknown witness kind")?;
            Some(Witness {
                seed_a: w
                    .get("seed_a")
                    .and_then(json::Json::as_u64)
                    .ok_or("missing witness seed_a")?,
                seed_b: w
                    .get("seed_b")
                    .and_then(json::Json::as_u64)
                    .ok_or("missing witness seed_b")?,
                divergence: Divergence {
                    kind,
                    pos: w
                        .get("pos")
                        .and_then(json::Json::as_u64)
                        .ok_or("missing witness pos")? as usize,
                    a: w.get("a").map(canon_from_json).transpose()?,
                    b: w.get("b").map(canon_from_json).transpose()?,
                },
            })
        }
    };
    if (classification == Classification::DataDependent) != witness.is_some() {
        return Err(format!(
            "certificate for `{}` pairs classification `{}` with witness: {}",
            str_field("kernel")?,
            classification.name(),
            witness.is_some(),
        ));
    }
    Ok(Certificate {
        kernel: str_field("kernel")?,
        n: num_field("n")?,
        runs: num_field("runs")?,
        classification,
        witness,
        declared_words: num_field("declared_words")?,
        recorded_words: num_field("recorded_words")?,
        footprint_sound: bool_field("footprint_sound")?,
        schedule_clean: bool_field("schedule_clean")?,
    })
}

/// A dependency-free JSON reader/writer, just big enough for the
/// certificate artifacts (the repo deliberately carries no external
/// crates; cf. the hand-rolled Prometheus parser in `mo-obs`).
///
/// Numbers are held as `f64`; every integer the certificates store
/// (sizes, trace positions, 48-bit addresses) is well inside the 2⁵³
/// exactly-representable range.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, in insertion order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// An object of `fields`, in the order given.
        pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
            Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
        }

        /// Member `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(v) => Some(*v),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if exactly representable.
        pub fn as_u64(&self) -> Option<u64> {
            let v = self.as_f64()?;
            (v >= 0.0 && v <= (1u64 << 53) as f64 && v.fract() == 0.0).then_some(v as u64)
        }

        /// The boolean value, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The element list, if this is an array.
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    /// Serialize `j` onto `out`, indented two spaces per level.
    pub fn write(j: &Json, out: &mut String, level: usize) {
        match j {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() < (1u64 << 53) as f64 {
                    out.push_str(&format!("{}", *v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, level + 1);
                    write(item, out, level + 1);
                }
                out.push('\n');
                indent(out, level);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, level + 1);
                    write_string(k, out);
                    out.push_str(": ");
                    write(v, out, level + 1);
                }
                out.push('\n');
                indent(out, level);
                out.push('}');
            }
        }
    }

    fn indent(out: &mut String, level: usize) {
        for _ in 0..level {
            out.push_str("  ");
        }
    }

    fn write_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Deepest array/object nesting [`parse`] accepts. The parser
    /// recurses once per level, so without a cap a document of `[`s
    /// overflows the stack instead of returning `Err`; the certificate
    /// artifacts nest five deep.
    pub(crate) const MAX_DEPTH: usize = 128;

    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects open around `pos`.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b'[') => self.nested(Self::array),
                Some(b'{') => self.nested(Self::object),
                Some(b'-') | Some(b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected byte at {}", self.pos)),
            }
        }

        fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let v = body(self);
            self.depth -= 1;
            v
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                                self.pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Copy the run up to the next `"` or `\` as one
                        // slice: both are ASCII and the input is a &str,
                        // so the run starts and ends on UTF-8 boundaries,
                        // and each byte is validated once (re-validating
                        // the rest of the document per character made
                        // parsing quadratic).
                        let start = self.pos;
                        while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                            self.pos += 1;
                        }
                        let run = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?;
                        out.push_str(run);
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while let Some(b) = self.peek() {
                if b.is_ascii_digit()
                    || b == b'.'
                    || b == b'e'
                    || b == b'E'
                    || b == b'+'
                    || b == b'-'
                {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ForkHint, Recorder};

    /// A little oblivious program: DAG and trace depend only on `n`.
    fn oblivious_prog(n: usize, values: &[u64]) -> Program {
        Recorder::record(4 * n, |rec| {
            let a = rec.alloc_init(values);
            let b = rec.alloc(n);
            rec.cgc_for(n, |rec, k| {
                let v = rec.read(a, k);
                rec.write(b, k, v.wrapping_mul(3));
            });
        })
    }

    /// A value-dependent program: the branch decides which word to touch.
    fn leaky_prog(values: &[u64]) -> Program {
        Recorder::record(64, |rec| {
            let a = rec.alloc_init(values);
            let b = rec.alloc(8);
            let v = rec.read(a, 0);
            let slot = if v % 2 == 0 { 0 } else { 7 };
            rec.write(b, slot, v);
        })
    }

    #[test]
    fn identical_patterns_have_no_divergence() {
        let p1 = oblivious_prog(8, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let p2 = oblivious_prog(8, &[9, 9, 9, 9, 9, 9, 9, 9]);
        assert_eq!(diff(&p1, &p2), None);
        let (c, w) = classify(&[(1, p1), (2, p2)]);
        assert_eq!(c, Classification::Oblivious);
        assert!(w.is_none());
    }

    #[test]
    fn canonicalization_survives_base_relocation() {
        // Same logical program under different allocator alignments: raw
        // addresses differ, canonical traces agree.
        let body = |rec: &mut Recorder| {
            let a = rec.alloc(5);
            let b = rec.alloc(3);
            rec.write(a, 4, 1);
            rec.write(b, 2, 2);
            let _ = rec.read(a, 0);
        };
        let p1 = Recorder::record_aligned(64, 64, body);
        let p2 = Recorder::record_aligned(64, 8, body);
        assert_ne!(p2.allocs()[1].base(), p1.allocs()[1].base());
        assert_eq!(canonical_trace(&p1), canonical_trace(&p2));
        assert_eq!(diff(&p1, &p2), None);
    }

    #[test]
    fn value_dependent_address_yields_trace_witness() {
        let p1 = leaky_prog(&[2]);
        let p2 = leaky_prog(&[3]);
        let d = diff(&p1, &p2).expect("must diverge");
        assert_eq!(d.kind, DivergenceKind::TraceEntry);
        assert_eq!(d.pos, 1); // entry 0 is the shared read
        let (a, b) = (d.a.unwrap(), d.b.unwrap());
        assert_eq!(a.alloc, b.alloc);
        assert_ne!(a.offset, b.offset);
        assert!(a.write && b.write);
        let (c, w) = classify(&[(10, p1), (20, p2)]);
        assert_eq!(c, Classification::DataDependent);
        let w = w.unwrap();
        assert_eq!((w.seed_a, w.seed_b), (10, 20));
    }

    #[test]
    fn value_dependent_dag_yields_shape_witness() {
        let prog = |values: &[u64]| {
            Recorder::record(64, |rec| {
                let a = rec.alloc_init(values);
                let v = rec.read(a, 0);
                if v > 5 {
                    let b = rec.alloc(2);
                    rec.fork2(
                        ForkHint::Sb,
                        1,
                        |r| r.write(b, 0, 1),
                        1,
                        |r| r.write(b, 1, 1),
                    );
                }
            })
        };
        let d = diff(&prog(&[1]), &prog(&[9])).expect("must diverge");
        assert_eq!(d.kind, DivergenceKind::DagShape);
    }

    #[test]
    fn value_dependent_alloc_size_yields_alloc_witness() {
        let prog = |values: &[u64]| {
            Recorder::record(64, |rec| {
                let a = rec.alloc_init(values);
                let v = rec.read(a, 0) as usize;
                let _ = rec.alloc(v); // data-dependent reservation
            })
        };
        let d = diff(&prog(&[3]), &prog(&[5])).expect("must diverge");
        assert_eq!(d.kind, DivergenceKind::AllocTable);
        assert_eq!(d.pos, 1);
    }

    #[test]
    fn trace_prefix_yields_length_witness() {
        let prog = |extra: bool| {
            Recorder::record(64, |rec| {
                let a = rec.alloc(4);
                rec.write(a, 0, 1);
                if extra {
                    rec.write(a, 1, 2);
                }
            })
        };
        // Same DAG shape requires equal segment bounds, so build the
        // programs by hand-diffing traces directly: a prefix difference
        // inside one compute segment shows as DagShape here (segment
        // bounds are trace indices), so exercise TraceLength through
        // canonical comparison of raw traces instead.
        let p1 = prog(false);
        let p2 = prog(true);
        let d = diff(&p1, &p2).expect("must diverge");
        // Segment end indices differ first.
        assert_eq!(d.kind, DivergenceKind::DagShape);
    }

    #[test]
    fn max_working_set_counts_distinct_words() {
        let p = oblivious_prog(8, &[0; 8]);
        assert_eq!(max_working_set(&p), 16); // a (8) + b (8)
    }

    #[test]
    fn certificates_round_trip_through_json() {
        let set = CertificateSet {
            certs: vec![
                Certificate {
                    kernel: "matmul".into(),
                    n: 64,
                    runs: 3,
                    classification: Classification::Oblivious,
                    witness: None,
                    declared_words: 12288,
                    recorded_words: 12288,
                    footprint_sound: true,
                    schedule_clean: true,
                },
                Certificate {
                    kernel: "sort".into(),
                    n: 4096,
                    runs: 3,
                    classification: Classification::DataDependent,
                    witness: Some(Witness {
                        seed_a: 1,
                        seed_b: 2,
                        divergence: Divergence {
                            kind: DivergenceKind::TraceEntry,
                            pos: 777,
                            a: Some(CanonEntry {
                                alloc: 4,
                                offset: 12,
                                write: true,
                            }),
                            b: Some(CanonEntry {
                                alloc: 4,
                                offset: 15,
                                write: false,
                            }),
                        },
                    }),
                    declared_words: 8192,
                    recorded_words: 8190,
                    footprint_sound: true,
                    schedule_clean: true,
                },
            ],
        };
        let text = set.to_json_string();
        let back = CertificateSet::from_json_str(&text).expect("round trip");
        assert_eq!(back, set);
        assert!(back.is_secure("matmul"));
        assert!(!back.is_secure("sort"));
        assert!(!back.is_secure("no-such-kernel"));
    }

    #[test]
    fn mismatched_witness_and_classification_is_rejected() {
        let mut set = CertificateSet {
            certs: vec![Certificate {
                kernel: "fft".into(),
                n: 1024,
                runs: 2,
                classification: Classification::DataDependent,
                witness: None, // inconsistent on purpose
                declared_words: 4096,
                recorded_words: 4096,
                footprint_sound: true,
                schedule_clean: true,
            }],
        };
        let text = set.to_json_string();
        assert!(CertificateSet::from_json_str(&text).is_err());
        // And an unsound certificate is not secure.
        set.certs[0].classification = Classification::Oblivious;
        set.certs[0].footprint_sound = false;
        let back = CertificateSet::from_json_str(&set.to_json_string()).unwrap();
        assert!(!back.is_secure("fft"));
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let j =
            json::parse(r#"{"a": [1, 2.5, -3], "s": "x\"\\\nA", "t": true, "z": null}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(j.get("s").unwrap().as_str(), Some("x\"\\\nA"));
        assert_eq!(j.get("t").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("z"), Some(&json::Json::Null));
        assert!(json::parse("{\"a\": }").is_err());
        assert!(json::parse("[1, 2,]").is_err());
        assert!(json::parse("[1] trailing").is_err());
    }

    /// A seeded random document for the property test below: a
    /// container at the top (so that every strict prefix is incomplete),
    /// strings over the characters the writer escapes, multi-byte UTF-8
    /// and the two escapes only the parser knows (`\b`, `\f` arrive as
    /// `\u0008`, `\u000c`), integers below 2^53 and floats that print
    /// with a fraction.
    fn random_json(x: &mut u64, depth: usize) -> json::Json {
        use json::Json;
        fn next(x: &mut u64) -> u64 {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x >> 33
        }
        fn string(x: &mut u64) -> String {
            const ALPHABET: [char; 16] = [
                'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1f}',
                'é', '𝒟', '\u{fffd}',
            ];
            (0..next(x) % 12)
                .map(|_| ALPHABET[(next(x) % 16) as usize])
                .collect()
        }
        let container = depth == 0 || (depth < 4 && next(x).is_multiple_of(3));
        if container {
            let len = next(x) % 5;
            return if next(x).is_multiple_of(2) {
                Json::Arr((0..len).map(|_| random_json(x, depth + 1)).collect())
            } else {
                Json::Obj(
                    (0..len)
                        .map(|_| (string(x), random_json(x, depth + 1)))
                        .collect(),
                )
            };
        }
        match next(x) % 6 {
            0 => Json::Null,
            1 => Json::Bool(next(x).is_multiple_of(2)),
            2 => Json::Num((next(x) << 22 | next(x) >> 9) as f64),
            3 => Json::Num(-((next(x) % 4096) as f64)),
            4 => {
                Json::Num((next(x) as f64 - 1e9) / 1024.0 * 10f64.powi((next(x) % 40) as i32 - 20))
            }
            _ => Json::Str(string(x)),
        }
    }

    /// ROADMAP 1(d), the JSON third: `parse(write(x)) == x` over seeded
    /// random documents; every truncation of a written document is a
    /// typed `Err` (its top level is an unclosed container) and no
    /// single-byte corruption makes the parser panic — each is `Ok` or
    /// `Err`. The same shape as `mo_obs::prom`'s
    /// `random_documents_round_trip_and_mutations_never_panic`.
    #[test]
    fn json_random_documents_round_trip_and_mutations_never_panic() {
        let mut x = 0x6d6f_2d63_6572_7469u64;
        // Miri (CI runs this module under it) interprets ~100x slower.
        for case in 0..if cfg!(miri) { 8 } else { 600 } {
            let want = random_json(&mut x, 0);
            let mut text = String::new();
            json::write(&want, &mut text, 0);
            let got = json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(got, want, "case {case}:\n{text}");

            let mut bytes = text.into_bytes();
            for at in 0..bytes.len() {
                let cut = String::from_utf8_lossy(&bytes[..at]).into_owned();
                assert!(
                    json::parse(&cut).is_err(),
                    "case {case}: cut at {at} parsed:\n{cut}"
                );
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let intact = std::mem::replace(&mut bytes[at], (x >> 56) as u8);
                let _ = json::parse(&String::from_utf8_lossy(&bytes));
                bytes[at] = intact;
            }
        }
    }

    /// The two inputs that used to take the parser down: nesting past
    /// the stack (the process aborted at 100 000 `[`) and one long
    /// string (every character re-validated the rest of the document:
    /// 4 s for 512 KiB in a release build, now under 1 ms).
    #[test]
    fn json_parser_caps_nesting_and_reads_a_long_string() {
        for open in ["[", "{\"k\":"] {
            let err = json::parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        let at_cap = "[".repeat(json::MAX_DEPTH) + &"]".repeat(json::MAX_DEPTH);
        assert!(json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(json::parse(&past_cap).is_err());
        // Siblings do not accumulate depth.
        assert!(json::parse(&format!("[{}1]", "[[]],".repeat(1_000))).is_ok());

        let long = "aé𝒟\u{1}\"\\".repeat(if cfg!(miri) { 64 } else { 64 << 10 });
        let mut text = String::new();
        json::write(&json::Json::Str(long.clone()), &mut text, 0);
        assert!(text.len() >= if cfg!(miri) { 512 } else { 512 << 10 });
        assert_eq!(json::parse(&text).unwrap().as_str(), Some(long.as_str()));
    }
}
