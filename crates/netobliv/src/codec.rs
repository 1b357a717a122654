//! The one code of traffic-signature rows, from the engine's log to the
//! fleet router: per superstep a LEB128 varint row count, then per row
//! the zigzag delta of `src` from the row before it (from `lo`, the
//! coder's first PE, for the first row), the zigzag `dst − src` and
//! `words` — about 3 bytes a row of the NO sort instead of 16.
//! [`row_count_at`] and [`row_at`] check bytes from outside; [`rows_at`]
//! and [`known_row_at`] read bytes already written or checked.

use std::io;

use crate::engine::Msg;

fn eof(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, format!("truncated {what}"))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Append `v` as a LEB128 varint: seven bits a byte, low bits first,
/// the top bit set on every byte but the last.
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Append the row `(src, dst, words)` that follows a row from `prev`
/// (`lo` for a superstep's first). A row of three one-byte varints,
/// almost every row of the NO sort, is one three-byte append.
#[inline]
pub(crate) fn put_row(buf: &mut Vec<u8>, prev: u32, (src, dst, words): Msg) {
    let src64 = i64::from(src);
    let (from_prev, from_src) = (
        zigzag(src64 - i64::from(prev)),
        zigzag(i64::from(dst) - src64),
    );
    if (from_prev | from_src | words) < 0x80 {
        buf.extend_from_slice(&[from_prev as u8, from_src as u8, words as u8]);
    } else {
        put_varint(buf, from_prev);
        put_varint(buf, from_src);
        put_varint(buf, words);
    }
}

/// Append one superstep's `rows` coded from `lo`: their count, then
/// each row.
pub fn put_rows(buf: &mut Vec<u8>, lo: u32, rows: &[Msg]) {
    put_varint(buf, rows.len() as u64);
    let mut prev = lo;
    for &row in rows {
        put_row(buf, prev, row);
        prev = row.0;
    }
}

/// The varint at `*pos` in `buf`, moving `*pos` past it. A one-byte
/// varint, most of a signature's, costs one branch.
#[inline]
fn varint_at(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    match buf.get(*pos) {
        Some(&b) if b < 0x80 => {
            *pos += 1;
            Ok(u64::from(b))
        }
        _ => long_varint_at(buf, pos),
    }
}

fn long_varint_at(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    for i in 0..10 {
        let &b = buf.get(*pos).ok_or_else(|| eof("varint"))?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            if i == 9 && b > 1 {
                return Err(invalid("varint overflows u64".into()));
            }
            return Ok(v);
        }
    }
    Err(invalid("varint longer than 10 bytes".into()))
}

/// A superstep's row count at `*pos` in `buf`, checked against the
/// bytes left: every row takes at least three.
pub fn row_count_at(buf: &[u8], pos: &mut usize) -> io::Result<usize> {
    let rows = varint_at(buf, pos)?;
    if rows > ((buf.len() - *pos) / 3) as u64 {
        return Err(eof("signature rows"));
    }
    Ok(rows as usize)
}

/// The three varints of the row at `*pos` in `buf`, if each is one
/// byte — the row moved `src` by less than 64, its `dst` is within 64
/// of its `src` and it carries fewer than 128 words, as almost every
/// row of the NO sort does — moving `*pos` past them. Three loads with
/// no chain between them, where [`varint_at`] would make each wait on
/// the one before.
#[inline]
fn short_row_at(buf: &[u8], pos: &mut usize) -> Option<[u64; 3]> {
    match buf.get(*pos..*pos + 3) {
        Some(&[a, b, c]) if (a | b | c) < 0x80 => {
            *pos += 3;
            Some([a, b, c].map(u64::from))
        }
        _ => None,
    }
}

/// The row at `*pos` in `buf` that follows a row from `prev` (`lo` for
/// a superstep's first), moving `*pos` past it. A row whose `src` or
/// `dst` leaves `u32` is `InvalidData`.
#[inline]
pub fn row_at(buf: &[u8], pos: &mut usize, prev: u32) -> io::Result<Msg> {
    let short = short_row_at(buf, pos);
    let (from_prev, from_src) = match short {
        Some([from_prev, from_src, _]) => (from_prev, from_src),
        None => (varint_at(buf, pos)?, varint_at(buf, pos)?),
    };
    let src = offset(prev, from_prev).ok_or_else(|| {
        invalid(format!(
            "signature row source {prev} + {} leaves u32",
            unzigzag(from_prev)
        ))
    })?;
    let dst = offset(src, from_src).ok_or_else(|| {
        invalid(format!(
            "signature row destination {src} + {} leaves u32",
            unzigzag(from_src)
        ))
    })?;
    let words = match short {
        Some([_, _, words]) => words,
        None => varint_at(buf, pos)?,
    };
    Ok((src, dst, words))
}

/// [`row_at`] of a row already written or checked; panics on others.
#[inline(always)]
pub fn known_row_at(bytes: &[u8], pos: &mut usize, prev: u32) -> Msg {
    let varint = |pos: &mut usize| varint_at(bytes, pos).expect("a checked varint");
    let [from_prev, from_src, words] = match short_row_at(bytes, pos) {
        Some(row) => row,
        None => [varint(pos), varint(pos), varint(pos)],
    };
    let src = (i64::from(prev) + unzigzag(from_prev)) as u32;
    let dst = (i64::from(src) + unzigzag(from_src)) as u32;
    (src, dst, words)
}

/// Signed `v` as an unsigned varint value: small magnitudes of either
/// sign stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// `base` moved by the zigzag-coded delta `z`, if it stays in `u32`.
fn offset(base: u32, z: u64) -> Option<u32> {
    let v = i64::from(base).checked_add(unzigzag(z))?;
    u32::try_from(v).ok()
}

/// The rows of the superstep at the front of `bytes` — its count, then
/// its rows coded from `lo` — decoded as they are read ([`known_row_at`]).
pub fn rows_at(bytes: &[u8], lo: u32) -> impl Iterator<Item = Msg> + '_ {
    let mut pos = 0;
    let rows = varint_at(bytes, &mut pos).expect("a checked row count");
    let mut prev = lo;
    (0..rows).map(move |_| {
        let row = known_row_at(bytes, &mut pos, prev);
        prev = row.0;
        row
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sort-shaped step (sources ascending by at most one, short hops,
    /// one word each) costs about three bytes a row, not sixteen, and
    /// reads back as it was written, by both readers.
    #[test]
    fn sorted_rows_take_about_three_bytes() {
        let rows: Vec<Msg> = (0..256u32)
            .map(|s| (s + 256, 256 + (s * 7) % 256, 1))
            .collect();
        let mut buf = Vec::new();
        put_rows(&mut buf, 256, &rows);
        assert!(buf.len() <= 2 + 4 * rows.len(), "{} bytes", buf.len());
        assert_eq!(rows_at(&buf, 256).collect::<Vec<_>>(), rows);
        let mut pos = 0;
        assert_eq!(row_count_at(&buf, &mut pos).unwrap(), rows.len());
        let mut prev = 256;
        for &want in &rows {
            let got = row_at(&buf, &mut pos, prev).unwrap();
            assert_eq!(got, want);
            prev = got.0;
        }
        assert_eq!(pos, buf.len());
    }
}
