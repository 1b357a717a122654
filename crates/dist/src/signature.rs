//! A fleet job's machine-wide traffic signature, kept as the shards
//! sent it.
//!
//! Each shard's result frame carries its src-side rows as its engine
//! logged them, varints in [`no_framework::codec`]'s form, about three
//! bytes a row. The router checks them in one pass and keeps the bytes:
//! a [`Signature`] is one buffer of row bytes plus one segment per
//! (shard, superstep), and builds no `(src, dst, words)` row until it is
//! read. Shards own ascending PE ranges and each one's rows ascend, so
//! superstep `s`'s segments read in shard order are the machine-wide
//! rows of `s` in ascending `(src, dst)` order — what
//! [`NoMachine::traffic_signature`](no_framework::NoMachine::traffic_signature)
//! returns, and equal to it row for row.

use std::fmt;
use std::io;
use std::iter::StepBy;
use std::ops::Range;
use std::slice;

use no_framework::codec::{known_row_at, row_at, row_count_at};

use crate::frame::{invalid, Dec, Msg};

/// One shard's rows of one superstep: `bytes[start..end]`, `rows` rows,
/// the first `src` coded from `lo`.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: usize,
    end: usize,
    lo: u32,
    rows: u32,
}

/// The per-superstep `(src, dst, words)` traffic rows of a fleet job,
/// same-PE messages excluded, stored compactly ([module docs](self)).
/// Read a superstep with [`step`](Self::step) or every one with
/// [`steps`](Self::steps); compare with another `Signature` or with the
/// `Vec<Vec<Msg>>` the simulator logs, row by row.
#[derive(Clone, Default)]
pub struct Signature {
    /// Every shard's checked row bytes, shard after shard.
    bytes: Vec<u8>,
    /// Shard-major: shard `k`'s superstep `s` is `segs[k * steps + s]`.
    segs: Vec<Seg>,
    steps: usize,
}

impl Signature {
    /// Supersteps.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// `true` with no supersteps.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Superstep `s`'s rows, ascending by `(src, dst)`.
    ///
    /// # Panics
    ///
    /// If `s >= self.len()`.
    pub fn step(&self, s: usize) -> Rows<'_> {
        assert!(s < self.steps, "superstep {s} of {}", self.steps);
        let segs = self.segs[s..].iter().step_by(self.steps);
        Rows {
            bytes: &self.bytes,
            left: segs.clone().map(|seg| seg.rows as usize).sum(),
            segs,
            pos: 0,
            end: 0,
            prev: 0,
        }
    }

    /// Every superstep's rows, in superstep order.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = Rows<'_>> {
        (0..self.steps).map(|s| self.step(s))
    }

    /// The rows as vectors, one a superstep — for tests and diagnostics;
    /// they take 16 bytes a row where the signature takes about three.
    pub fn to_vecs(&self) -> Vec<Vec<Msg>> {
        self.steps().map(Iterator::collect).collect()
    }

    /// Heap bytes held: row bytes and segments, at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.segs.capacity() * std::mem::size_of::<Seg>()
    }

    /// Check `steps` supersteps of worker `w`'s rows from `d` — each
    /// [`no_framework::codec::put_rows`] from `pes.start` — in one pass
    /// and keep their bytes with one copy. Every row must have its `src` in
    /// `pes` and its `dst` below `n_pes`, and follow the row before it
    /// in strictly ascending `(src, dst)` order; one that does not is
    /// `InvalidData` naming the worker and the superstep. On any error
    /// the signature is left as it was.
    ///
    /// The first shard of a job of `shards`, once checked, reserves room
    /// for them all at its own size, its bytes an eighth more (a sort's
    /// first shard has one neighbour, an inner one two: 7 % more rows),
    /// so each buffer is allocated once a job and not grown shard by
    /// shard.
    ///
    /// # Panics
    ///
    /// If an earlier shard had another superstep count.
    pub(crate) fn push_shard(
        &mut self,
        d: &mut Dec<'_>,
        w: usize,
        pes: Range<u32>,
        n_pes: u32,
        steps: usize,
        shards: usize,
    ) -> io::Result<()> {
        let first = self.segs.is_empty();
        assert!(
            first || steps == self.steps,
            "a shard of {steps} supersteps joins shards of {}",
            self.steps
        );
        let (kept, base, buf) = (self.segs.len(), self.bytes.len(), d.rest());
        let mut pos = 0;
        let checked = (0..steps).try_for_each(|s| {
            let rows = row_count_at(buf, &mut pos)?;
            let start = pos;
            let (mut prev, mut next) = (pes.start, 0u64);
            for _ in 0..rows {
                let (src, dst, _) = row_at(buf, &mut pos, prev)?;
                let key = u64::from(src) << 32 | u64::from(dst);
                if !pes.contains(&src) || dst >= n_pes || key < next {
                    return Err(invalid(format!(
                        "worker {w} superstep {s}: signature row {src} → {dst} is out of \
                         order or outside PEs {}..{} → 0..{n_pes}",
                        pes.start, pes.end
                    )));
                }
                // `src < pes.end`, so the key leaves room for one more.
                (prev, next) = (src, key + 1);
            }
            self.segs.push(Seg {
                start: base + start,
                end: base + pos,
                lo: pes.start,
                // A frame of at most `MAX_FRAME` bytes holds fewer than
                // `u32::MAX` rows of three bytes or more.
                rows: rows as u32,
            });
            Ok(())
        });
        if let Err(e) = checked {
            self.segs.truncate(kept);
            return Err(e);
        }
        if first {
            // Only now: a shard's superstep count is checked by its rows.
            self.segs.reserve_exact(steps * shards.saturating_sub(1));
            self.bytes.reserve_exact(pos * shards + pos * shards / 8);
        }
        self.bytes.extend_from_slice(&buf[..pos]);
        self.steps = steps;
        d.skip(pos);
        Ok(())
    }

    /// A signature of one shard from PE 0 holding `rows`, which must
    /// ascend by `(src, dst)` in each superstep.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<Msg>]) -> Self {
        let mut bytes = Vec::new();
        for step in rows {
            no_framework::codec::put_rows(&mut bytes, 0, step);
        }
        let mut sig = Signature::default();
        sig.push_shard(
            &mut Dec::new(&bytes),
            0,
            0..u32::MAX,
            u32::MAX,
            rows.len(),
            1,
        )
        .expect("ascending rows");
        sig
    }
}

/// One superstep's rows of a [`Signature`] ([`Signature::step`]),
/// decoded as they are read.
#[derive(Clone)]
pub struct Rows<'a> {
    bytes: &'a [u8],
    /// The superstep's segments not yet started, in shard order.
    segs: StepBy<slice::Iter<'a, Seg>>,
    /// The next row of the segment being read, and where it ends.
    pos: usize,
    end: usize,
    /// The `src` the next row is coded from.
    prev: u32,
    /// Rows not yet read.
    left: usize,
}

impl Iterator for Rows<'_> {
    type Item = Msg;

    fn next(&mut self) -> Option<Msg> {
        if self.left == 0 {
            return None;
        }
        while self.pos == self.end {
            let seg = self.segs.next().expect("rows left in a later segment");
            (self.pos, self.end, self.prev) = (seg.start, seg.end, seg.lo);
        }
        let mut pos = self.pos;
        let row = known_row_at(self.bytes, &mut pos, self.prev);
        (self.pos, self.prev, self.left) = (pos, row.0, self.left - 1);
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.steps()).finish()
    }
}

impl PartialEq for Signature {
    fn eq(&self, other: &Signature) -> bool {
        self.len() == other.len()
            && self
                .steps()
                .zip(other.steps())
                .all(|(a, b)| a.len() == b.len() && a.eq(b))
    }
}

impl Eq for Signature {}

/// Segment by segment, each against the rows of `other` it must hold —
/// the benchmark's and `mismatches`' comparison with the simulator.
impl PartialEq<Vec<Vec<Msg>>> for Signature {
    fn eq(&self, other: &Vec<Vec<Msg>>) -> bool {
        self.len() == other.len()
            && other.iter().enumerate().all(|(s, rows)| {
                let mut rest = &rows[..];
                self.segs[s..].iter().step_by(self.steps).all(|seg| {
                    let Some((mine, tail)) = rest.split_at_checked(seg.rows as usize) else {
                        return false;
                    };
                    rest = tail;
                    let (mut pos, mut prev) = (seg.start, seg.lo);
                    mine.iter().all(|&want| {
                        let got = known_row_at(&self.bytes, &mut pos, prev);
                        prev = got.0;
                        got == want
                    })
                }) && rest.is_empty()
            })
    }
}

impl PartialEq<Signature> for Vec<Vec<Msg>> {
    fn eq(&self, other: &Signature) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use no_framework::codec::put_rows;

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut x = self.0;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The rows of `steps` from PEs `lo..hi`.
    fn shard_rows(steps: &[Vec<Msg>], lo: u32, hi: u32) -> Vec<Vec<Msg>> {
        steps
            .iter()
            .map(|rows| {
                let from = rows.partition_point(|r| r.0 < lo);
                let to = rows.partition_point(|r| r.0 < hi);
                rows[from..to].to_vec()
            })
            .collect()
    }

    /// `steps` as a shard from PE `lo` codes them in its result frame.
    fn shard_bytes(steps: &[Vec<Msg>], lo: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        for rows in steps {
            put_rows(&mut bytes, lo, rows);
        }
        bytes
    }

    /// A three-byte row whose `src` or `dst` leaves `u32` is refused with
    /// `row_at`'s own words, and the signature is left as it was.
    #[test]
    fn a_short_row_out_of_u32_is_refused_as_row_at_refuses_it() {
        // One superstep of one row: `src` one below `lo`, then `dst` one
        // above `u32::MAX`.
        for (lo, row) in [(0, [1, 0, 1]), (u32::MAX, [0, 2, 1])] {
            let bytes = [1, row[0], row[1], row[2]];
            let want = row_at(&bytes, &mut 1, lo).expect_err("out of u32");
            let mut sig = Signature::default();
            let err = sig
                .push_shard(&mut Dec::new(&bytes), 0, lo..u32::MAX, u32::MAX, 1, 1)
                .expect_err("out of u32");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), want.to_string());
            assert!(err.to_string().ends_with("leaves u32"), "{err}");
            assert_eq!(sig, Signature::default());
        }
    }

    /// For random splits of random machine-wide rows into shards, the
    /// signature the shards' bytes build equals those rows, in both
    /// directions and against a differently segmented copy — with empty
    /// supersteps, shards with no rows, multi-byte varints and `dst`
    /// below `src` — and a shard with a foreign row leaves it unchanged.
    #[test]
    fn a_signature_equals_the_rows_it_was_built_from() {
        let mut rng = Rng(0x516e);
        for round in 0..400 {
            let n_pes = match rng.below(3) {
                0 => 1 + rng.below(64),
                1 => 1 + rng.below(1 << 20),
                _ => u64::from(u32::MAX),
            } as u32;
            let steps: Vec<Vec<Msg>> = (0..rng.below(5))
                .map(|_| {
                    let mut rows: Vec<Msg> = (0..rng.below(3) * rng.below(12))
                        .map(|_| {
                            let words = match rng.below(4) {
                                0 => 1,
                                1 => u64::MAX,
                                _ => {
                                    let bits = 1 + rng.below(40);
                                    rng.below(1 << bits)
                                }
                            };
                            let src = rng.below(n_pes.into()) as u32;
                            (src, rng.below(n_pes.into()) as u32, words)
                        })
                        .collect();
                    rows.sort_unstable_by_key(|r| (r.0, r.1));
                    rows.dedup_by_key(|r| (r.0, r.1));
                    rows
                })
                .collect();
            let mut cuts: Vec<u32> = (0..rng.below(5))
                .map(|_| rng.below(n_pes.into()) as u32)
                .chain([0, n_pes])
                .collect();
            cuts.sort_unstable();
            let shards = cuts.len() - 1;
            let mut sig = Signature::default();
            for (w, pes) in cuts.windows(2).enumerate() {
                let (lo, hi) = (pes[0], pes[1]);
                let mine = shard_rows(&steps, lo, hi);
                if let Some(outside) = [lo.checked_sub(1), (hi < n_pes).then_some(hi)]
                    .into_iter()
                    .flatten()
                    .next()
                {
                    let mut forged = mine.clone();
                    // In the last superstep, so the ones before it are
                    // checked and must be taken back.
                    let last = steps.len().saturating_sub(1);
                    if let Some(rows) = forged.last_mut() {
                        rows.push((outside, 0, 1));
                        rows.sort_unstable_by_key(|r| (r.0, r.1));
                        let bytes = shard_bytes(&forged, lo);
                        let before = sig.clone();
                        let err = sig
                            .push_shard(
                                &mut Dec::new(&bytes),
                                w,
                                lo..hi,
                                n_pes,
                                steps.len(),
                                shards,
                            )
                            .expect_err("a row from a PE the shard does not own");
                        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
                        assert!(err
                            .to_string()
                            .starts_with(&format!("worker {w} superstep {last}:")));
                        assert_eq!(sig, before);
                    }
                }
                let bytes = shard_bytes(&mine, lo);
                let mut d = Dec::new(&bytes);
                sig.push_shard(&mut d, w, lo..hi, n_pes, steps.len(), shards)
                    .expect("honest shard");
                assert!(d.rest().is_empty(), "round {round}: the shard is used up");
            }
            assert_eq!(sig, steps, "round {round}");
            assert_eq!(steps, sig, "round {round}");
            assert_eq!(sig.to_vecs(), steps);
            assert_eq!(sig, Signature::from_rows(&steps));
            assert_eq!(format!("{sig:?}"), format!("{steps:?}"));
            for (s, rows) in steps.iter().enumerate() {
                assert_eq!(sig.step(s).len(), rows.len());
            }
            if let Some(s) = steps.iter().position(|rows| !rows.is_empty()) {
                let mut other = steps.clone();
                other[s][0].2 ^= 1;
                assert_ne!(sig, other);
                assert_ne!(other, sig);
                assert_ne!(sig, Signature::from_rows(&other));
                other[s].remove(0);
                assert_ne!(sig, other);
            }
            if !steps.is_empty() {
                let mut more = steps.clone();
                more[0].push((u32::MAX - 1, u32::MAX - 1, 1));
                assert_ne!(sig, more);
                assert_ne!(sig, Signature::from_rows(&more));
            }
            let mut longer = steps.clone();
            longer.push(Vec::new());
            assert_ne!(sig, longer);
            assert_ne!(longer, sig);
        }
    }
}
