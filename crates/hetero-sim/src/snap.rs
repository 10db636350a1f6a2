//! Hand-rolled versioned binary snapshots (serde-free, like [`export`]).
//!
//! Checkpoint/restore needs every stateful struct in the workspace to round
//! trip through bytes **exactly** — a resumed run must be byte-identical to
//! one that never stopped. This module provides the substrate:
//!
//! * [`SnapWriter`] / [`SnapReader`] — little-endian primitive encoding
//!   over a plain `Vec<u8>` with length-prefixed containers,
//! * the [`Snap`] trait — `snap` into a writer, `unsnap` back out — with
//!   blanket impls for primitives, tuples, arrays, `Option`, `Vec`,
//!   `VecDeque`, and `BTreeMap`; a `Vec` of fixed-width values is one
//!   slice pass each way ([`Snap::snap_slice`] / [`Snap::unsnap_vec`]),
//!   with the bytes and errors of a value-by-value pass,
//! * the [`impl_snap!`](crate::impl_snap) macro — field-by-field struct impls and tag-byte
//!   enum impls without per-type boilerplate (usable from any crate:
//!   `$crate` paths resolve back here),
//! * a magic/version/layer header ([`write_header`] / [`read_header`])
//!   that fails loud on any mismatch instead of misinterpreting bytes.
//!
//! Format rules (see DESIGN.md §15): integers are little-endian
//! fixed-width; `usize` travels as `u64`; `f64` travels as its IEEE-754
//! bit pattern (NaN payloads survive); containers are a `u64` length
//! followed by the elements; `Option` is a presence byte; enums are a
//! tag byte followed by the variant's fields. The format captures *all*
//! state, derived caches included — recomputing on restore would be a
//! second code path that could drift from the live one.
//!
//! [`export`]: crate::export

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// First bytes of every snapshot file.
pub const SNAP_MAGIC: [u8; 4] = *b"HSNP";

/// Current snapshot format version. Bump on ANY layout change — there is
/// no migration path by design: a snapshot is a resume token for the exact
/// build that wrote it, and a loud [`SnapshotError::BadVersion`] beats a
/// silently diverging resume.
pub const SNAP_VERSION: u32 = 2;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// The input does not start with [`SNAP_MAGIC`] — not a snapshot.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The snapshot was written by a different format version.
    BadVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The snapshot captures a different simulation layer (e.g. a cluster
    /// snapshot fed to a single-VM resume).
    WrongLayer {
        /// Layer tag recorded in the file.
        found: u8,
        /// Layer tag the caller expected.
        expected: u8,
    },
    /// Bytes remained after the value was fully decoded.
    TrailingBytes {
        /// How many were left over.
        remaining: usize,
    },
    /// The bytes decoded but violated an invariant (bad enum tag, invalid
    /// UTF-8, impossible length).
    Corrupt(String),
}

impl SnapshotError {
    /// Shorthand for [`SnapshotError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        SnapshotError::Corrupt(msg.into())
    }

    /// The error for an enum tag byte that names no variant of `ty`.
    #[cold]
    #[inline(never)]
    pub fn bad_tag(ty: &str, tag: u8) -> Self {
        SnapshotError::corrupt(format!("invalid {ty} tag {tag}"))
    }

    /// The error for an `Option` presence byte other than 0 or 1.
    #[cold]
    #[inline(never)]
    pub fn bad_presence(byte: u8) -> Self {
        SnapshotError::corrupt(format!("invalid Option presence byte {byte}"))
    }

    #[cold]
    #[inline(never)]
    fn bad_bool(byte: u8) -> Self {
        SnapshotError::corrupt(format!("invalid bool byte {byte}"))
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} more byte(s), {remaining} remain"
            ),
            SnapshotError::BadMagic { found } => write!(
                f,
                "not a snapshot: expected magic {:?}, found {:?}",
                SNAP_MAGIC, found
            ),
            SnapshotError::BadVersion { found, expected } => write!(
                f,
                "snapshot version mismatch: file has v{found}, this build reads v{expected}"
            ),
            SnapshotError::WrongLayer { found, expected } => write!(
                f,
                "snapshot layer mismatch: file captures layer {found}, expected layer {expected}"
            ),
            SnapshotError::TrailingBytes { remaining } => {
                write!(
                    f,
                    "snapshot has {remaining} trailing byte(s) after the state"
                )
            }
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Byte sink for [`Snap::snap`].
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    #[inline]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the on-disk width is fixed).
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (byte-exact, NaN
    /// payloads included).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix: header fields, and the
    /// encodings that array codecs assemble themselves.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a record of at most `N` bytes in place: `encode` fills the
    /// front of a zeroed `N`-byte window and returns how many it used.
    #[inline]
    pub fn put_record<const N: usize>(&mut self, encode: impl FnOnce(&mut [u8; N]) -> usize) {
        let start = self.buf.len();
        self.buf.resize(start + N, 0);
        let window: &mut [u8; N] = (&mut self.buf[start..]).try_into().expect("N bytes");
        let n = encode(window);
        self.buf.truncate(start + n);
    }

    /// Appends each item's fixed `W`-byte encoding in one pass over
    /// `items`, with no length prefix: the writer counterpart of
    /// [`SnapReader::take_array`].
    #[inline]
    pub fn put_array<T, const W: usize>(&mut self, items: &[T], encode: impl Fn(&T) -> [u8; W]) {
        self.buf.reserve(items.len() * W);
        for item in items {
            self.buf.extend_from_slice(&encode(item));
        }
    }
}

/// Cursor over snapshot bytes for [`Snap::unsnap`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader { rest: bytes }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The error a read of `n` bytes past the input returns.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> SnapshotError {
        SnapshotError::Truncated {
            needed: n - self.remaining(),
            remaining: self.remaining(),
        }
    }

    /// Consumes the next `n` bytes and returns them as one slice: the
    /// bounds check array codecs make once per array, or once per
    /// fixed-width record, instead of once per field.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.rest.len() < n {
            return Err(self.truncated(n));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Reads `len` values of a fixed `W`-byte encoding in one pass over
    /// the byte slice: the reader counterpart of [`SnapWriter::put_array`].
    ///
    /// # Errors
    ///
    /// The [`SnapshotError::Truncated`] a value-by-value read would return:
    /// at the first value that runs past the input.
    #[inline]
    pub fn take_array<T, const W: usize>(
        &mut self,
        len: usize,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let whole = len.min(self.remaining() / W);
        let bytes = self.take_bytes(whole * W)?;
        if whole < len {
            return Err(self.truncated(W));
        }
        Ok(bytes
            .chunks_exact(W)
            .map(|b| decode(b.try_into().expect("chunks are W bytes")))
            .collect())
    }

    /// Consumes the next `N` bytes as an array.
    #[inline]
    fn take_fixed<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self
            .take_bytes(N)?
            .try_into()
            .expect("take_bytes returns N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take_fixed()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_fixed()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_fixed()?))
    }

    /// Reads a little-endian `u128`.
    #[inline]
    pub fn take_u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take_fixed()?))
    }

    /// Reads a `usize` (stored as `u64`).
    #[inline]
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::corrupt(format!("usize value {v} overflows this platform")))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is corrupt.
    #[inline]
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::bad_bool(other)),
        }
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn take_string(&mut self) -> Result<String, SnapshotError> {
        let len = self.take_usize()?;
        let bytes = self.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::corrupt("string is not valid UTF-8"))
    }

    /// Fails with [`SnapshotError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// Writes the snapshot header: magic, format version, layer tag.
pub fn write_header(w: &mut SnapWriter, layer: u8) {
    w.put_bytes(&SNAP_MAGIC);
    w.put_u32(SNAP_VERSION);
    w.put_u8(layer);
}

/// Validates the snapshot header, failing loud on any mismatch.
///
/// # Errors
///
/// [`SnapshotError::Truncated`] when shorter than a header,
/// [`SnapshotError::BadMagic`] / [`SnapshotError::BadVersion`] /
/// [`SnapshotError::WrongLayer`] on the respective field mismatch.
pub fn read_header(r: &mut SnapReader<'_>, expected_layer: u8) -> Result<(), SnapshotError> {
    let magic = r.take_bytes(4)?;
    if magic != SNAP_MAGIC {
        return Err(SnapshotError::BadMagic {
            found: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let version = r.take_u32()?;
    if version != SNAP_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            expected: SNAP_VERSION,
        });
    }
    let layer = r.take_u8()?;
    if layer != expected_layer {
        return Err(SnapshotError::WrongLayer {
            found: layer,
            expected: expected_layer,
        });
    }
    Ok(())
}

/// Interns a restored string as `&'static str`.
///
/// Several structs carry `&'static str` names (workload specs, slab
/// classes, run reports) that normally point into the binary's rodata.
/// Restore leaks a heap copy instead — a few bytes per restore, bounded by
/// checkpoint frequency, and byte-identical to the original in every
/// comparison and export.
pub fn leak_str(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// A value that round-trips through snapshot bytes exactly.
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from the underlying reads, or
    /// [`SnapshotError::Corrupt`] when the bytes violate an invariant.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;

    /// Appends `items` back to back, with no length prefix: the body of a
    /// `Vec`. Types with a fixed-width encoding override it with one pass
    /// over the slice ([`SnapWriter::put_array`]); the bytes are the same.
    fn snap_slice(items: &[Self], w: &mut SnapWriter) {
        for item in items {
            item.snap(w);
        }
    }

    /// Decodes `len` values written by [`Snap::snap_slice`], failing with
    /// the error the first failing [`Snap::unsnap`] would return. The
    /// up-front reservation is bounded by the bytes left, not by `len`
    /// alone, so a corrupt length cannot ask for more memory than the
    /// input could fill; growth covers the rest.
    fn unsnap_vec(r: &mut SnapReader<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
        let cap = len.min(r.remaining() / std::mem::size_of::<Self>().max(1));
        let mut out = Vec::with_capacity(cap);
        for _ in 0..len {
            out.push(Self::unsnap(r)?);
        }
        Ok(out)
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_usize()
    }
}

/// Fixed-width little-endian primitives: one slice pass per array.
macro_rules! snap_fixed {
    ($($ty:ty => $put:ident / $take:ident),* $(,)?) => {
        $(impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
            fn snap_slice(items: &[Self], w: &mut SnapWriter) {
                w.put_array(items, |v| v.to_le_bytes());
            }
            fn unsnap_vec(r: &mut SnapReader<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
                r.take_array(len, <$ty>::from_le_bytes)
            }
        })*
    };
}

snap_fixed! {
    u8 => put_u8 / take_u8,
    u16 => put_u16 / take_u16,
    u32 => put_u32 / take_u32,
    u64 => put_u64 / take_u64,
    u128 => put_u128 / take_u128,
    f64 => put_f64 / take_f64,
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_bool()
    }
    fn snap_slice(items: &[Self], w: &mut SnapWriter) {
        w.put_array(items, |&b| [u8::from(b)]);
    }
    /// One pass over the bytes present; the first byte other than 0 or 1
    /// fails before a short input does, as a value-by-value read would.
    fn unsnap_vec(r: &mut SnapReader<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
        let whole = len.min(r.remaining());
        let bytes = r.take_bytes(whole)?;
        if bytes.iter().fold(0, |max, &b| max.max(b)) > 1 {
            let bad = bytes
                .iter()
                .find(|&&b| b > 1)
                .expect("the maximum is past 1");
            return Err(SnapshotError::bad_bool(*bad));
        }
        if whole < len {
            return Err(r.truncated(1));
        }
        Ok(bytes.iter().map(|&b| b == 1).collect())
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.take_string()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            other => Err(SnapshotError::bad_presence(other)),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn snap(&self, w: &mut SnapWriter) {
        (**self).snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::unsnap(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        T::snap_slice(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        T::unsnap_vec(r, len)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        let (front, back) = self.as_slices();
        T::snap_slice(front, w);
        T::snap_slice(back, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<T>::unsnap(r)?.into())
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::unsnap(r)?);
        }
        out.try_into()
            .map_err(|_| SnapshotError::corrupt("array length mismatch"))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

impl Snap for std::ops::Range<u64> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.start);
        w.put_u64(self.end);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_u64()?..r.take_u64()?)
    }
}

impl Snap for crate::time::Nanos {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::time::Nanos::from_nanos(r.take_u64()?))
    }
}

/// Implements [`Snap`] for a struct (field by field, declaration order) or
/// an enum (tag byte + variant fields; unit, tuple, and struct variants).
///
/// ```
/// use hetero_sim::impl_snap;
///
/// struct Point { x: u64, y: u64 }
/// impl_snap!(struct Point { x, y });
///
/// enum Shape { Dot, Line(u64), Rect { w: u64, h: u64 } }
/// impl_snap!(enum Shape {
///     0 => Dot {},
///     1 => Line(a),
///     2 => Rect { w, h },
/// });
/// ```
///
/// Enum tags are explicit so a reordered declaration cannot silently
/// change the format; reusing a tag is a compile error (unreachable match
/// arm aside, the decoder match would be ambiguous — keep them unique).
///
/// A struct arm may end in `validate <fn(&Self) -> Result<(), SnapshotError>>`:
/// decode then returns that check's error for a value whose fields decoded
/// but do not fit together.
///
/// ```
/// use hetero_sim::impl_snap;
/// use hetero_sim::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
///
/// struct Span { start: u64, end: u64 }
/// impl_snap!(struct Span { start, end } validate |s: &Span| {
///     if s.start <= s.end { Ok(()) } else { Err(SnapshotError::corrupt("reversed span")) }
/// });
///
/// let mut w = SnapWriter::new();
/// Span { start: 9, end: 2 }.snap(&mut w);
/// let bytes = w.into_bytes();
/// assert!(Span::unsnap(&mut SnapReader::new(&bytes)).is_err());
/// ```
#[macro_export]
macro_rules! impl_snap {
    (struct $ty:ty { $($field:ident),* $(,)? }) => {
        $crate::impl_snap!(struct $ty { $($field),* } validate |_: &Self| ::std::result::Result::Ok(()));
    };
    (struct $ty:ty { $($field:ident),* $(,)? } validate $check:expr) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::snap(&self.$field, w); )*
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapshotError> {
                let value = Self {
                    $( $field: $crate::snap::Snap::unsnap(r)?, )*
                };
                let check: fn(&Self) -> ::std::result::Result<(), $crate::snap::SnapshotError> =
                    $check;
                check(&value)?;
                ::std::result::Result::Ok(value)
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal => $variant:ident
            $( { $($nf:ident),* $(,)? } )?
            $( ( $($tf:ident),* $(,)? ) )?
        ),* $(,)?
    }) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $( $ty::$variant $( { $($nf),* } )? $( ( $($tf),* ) )? => {
                        w.put_u8($tag);
                        $( $( $crate::snap::Snap::snap($nf, w); )* )?
                        $( $( $crate::snap::Snap::snap($tf, w); )* )?
                    } )*
                }
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snap::SnapshotError> {
                match r.take_u8()? {
                    $( $tag => ::std::result::Result::Ok($ty::$variant
                        $( { $($nf: $crate::snap::Snap::unsnap(r)?),* } )?
                        $( ( $( {
                            let _ = ::std::stringify!($tf);
                            $crate::snap::Snap::unsnap(r)?
                        } ),* ) )?
                    ), )*
                    other => ::std::result::Result::Err(
                        $crate::snap::SnapshotError::bad_tag(::std::stringify!($ty), other),
                    ),
                }
            }
        }
    };
}

/// `&'static str` snapshots as its contents; restore leaks a boxed copy.
///
/// Static strings in simulator state are class/app/policy names that
/// normally point into rodata. A restored run cannot recover the original
/// pointer, so it interns an equal-by-content leaked copy instead — see
/// [`leak_str`]. The handful of names in a snapshot makes the leak
/// negligible.
impl Snap for &'static str {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(leak_str(r.take_string()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Nanos;

    fn round_trip<T: Snap + PartialEq + fmt::Debug>(v: &T) -> T {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("round trip decodes");
        r.finish().expect("no trailing bytes");
        assert_eq!(&back, v);
        back
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0x1234u16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&u128::MAX);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&3.25f64);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&String::from("héllo"));
        round_trip(&Nanos::from_millis(7));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        weird.snap(&mut w);
        let bytes = w.into_bytes();
        let back = f64::unsnap(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Some(42u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&VecDeque::from(vec![9u32, 8, 7]));
        round_trip(&BTreeMap::from([
            (1u64, "a".to_string()),
            (2, "b".to_string()),
        ]));
        round_trip(&[1u64, 2, 3]);
        round_trip(&(1u64, true, 2.5f64));
        round_trip(&(3u64..9u64));
        round_trip(&Box::new(11u64));
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut w = SnapWriter::new();
        12345u64.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(matches!(
            u64::unsnap(&mut r),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapWriter::new();
        7u64.snap(&mut w);
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        u64::unsnap(&mut r).unwrap();
        assert_eq!(
            r.finish(),
            Err(SnapshotError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn bad_bool_and_option_bytes_are_corrupt() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(
            bool::unsnap(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(
            Option::<u64>::unsnap(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn header_round_trips() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 3);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        read_header(&mut r, 3).unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn header_rejects_bad_magic() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 1);
        let mut bytes = w.into_bytes();
        bytes[0] = b'X';
        let err = read_header(&mut SnapReader::new(&bytes), 1).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn header_rejects_flipped_version_byte() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 1);
        let mut bytes = w.into_bytes();
        bytes[4] ^= 0x01; // low byte of the little-endian version field
        let err = read_header(&mut SnapReader::new(&bytes), 1).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::BadVersion {
                found: SNAP_VERSION ^ 0x01,
                expected: SNAP_VERSION,
            }
        );
        // The message names both versions so the failure is actionable.
        let msg = err.to_string();
        assert!(msg.contains("version mismatch"), "{msg}");
    }

    #[test]
    fn header_rejects_wrong_layer() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 2);
        let bytes = w.into_bytes();
        let err = read_header(&mut SnapReader::new(&bytes), 1).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongLayer {
                found: 2,
                expected: 1
            }
        );
    }

    #[test]
    fn header_rejects_truncation() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 1);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = read_header(&mut SnapReader::new(&bytes[..cut]), 1).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn macro_handles_all_variant_shapes() {
        #[derive(Debug, PartialEq)]
        struct Point {
            x: u64,
            y: f64,
        }
        impl_snap!(struct Point { x, y });

        #[derive(Debug, PartialEq)]
        enum Shape {
            Dot,
            Line(u64, u64),
            Rect { w: u64, h: u64 },
        }
        impl_snap!(enum Shape {
            0 => Dot {},
            1 => Line(a, b),
            2 => Rect { w, h },
        });

        round_trip(&Point { x: 4, y: -1.5 });
        round_trip(&Shape::Dot);
        round_trip(&Shape::Line(10, 20));
        round_trip(&Shape::Rect { w: 3, h: 9 });
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(
            Shape::unsnap(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// Recorded with the per-element `Vec` decoder before its one-pass
    /// rewrite.
    const VEC_ERROR_DIGEST: u64 = 0xb116_6b57_2ad7_c637;

    #[test]
    fn vec_decode_errors_match_the_pinned_digest() {
        fn encode<T: Snap>(v: &T) -> Vec<u8> {
            let mut w = SnapWriter::new();
            v.snap(&mut w);
            w.into_bytes()
        }
        /// The `Display` string (or "ok") of decoding every proper prefix
        /// of `v`'s encoding, then each `(offset, byte)` mutation.
        fn errors<T: Snap>(v: &T, mutations: &[(usize, u8)], seen: &mut String) {
            let bytes = encode(v);
            let mut record = |input: &[u8]| {
                let mut r = SnapReader::new(input);
                match T::unsnap(&mut r).and_then(|_| r.finish()) {
                    Ok(()) => seen.push_str("ok"),
                    Err(e) => seen.push_str(&e.to_string()),
                }
                seen.push('\n');
            };
            for cut in 0..bytes.len() {
                record(&bytes[..cut]);
            }
            for &(at, value) in mutations {
                let mut m = bytes.clone();
                m[at] = value;
                record(&m);
            }
        }
        let mut seen = String::new();
        errors(&vec![7u8, 0, 255], &[], &mut seen);
        errors(&vec![0x1234u16, 9], &[], &mut seen);
        errors(&vec![0xDEAD_BEEFu32, 1, 2], &[], &mut seen);
        errors(&vec![u64::MAX, 3], &[(0, 5)], &mut seen);
        errors(&vec![u128::MAX, 5], &[], &mut seen);
        errors(&vec![usize::MAX, 6], &[(0, 3)], &mut seen);
        errors(&vec![-2.5f64, f64::NAN], &[], &mut seen);
        errors(
            &vec![true, false, true],
            &[(0, 9), (8, 2), (9, 7), (10, 255)],
            &mut seen,
        );
        errors(&VecDeque::from(vec![4u64, 8]), &[], &mut seen);
        errors(&vec![vec![1u64], vec![]], &[(8, 3)], &mut seen);
        let digest = fnv1a(seen.as_bytes());
        assert_eq!(
            digest, VEC_ERROR_DIGEST,
            "Vec decode errors moved: {digest:#018x}"
        );
    }

    /// 64-bit FNV-1a digest of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn inflated_length_prefix_fails_without_a_huge_reservation() {
        // A 2^40 length before 4 MiB of 4 KiB elements: reserving
        // min(len, remaining bytes) elements asked for 16 GiB and aborted
        // the process instead of returning `Truncated`.
        let mut bytes = (1u64 << 40).to_le_bytes().to_vec();
        bytes.resize(8 + (4 << 20), 0);
        let err = Vec::<[u64; 512]>::unsnap(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Truncated {
                needed: 8,
                remaining: 0
            }
        );
    }

    #[test]
    fn leak_str_preserves_content() {
        let s = leak_str("redis".to_string());
        assert_eq!(s, "redis");
    }
}
