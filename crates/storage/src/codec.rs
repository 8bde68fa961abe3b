//! Little-endian field helpers for on-page layouts, plus a fallible
//! variable-length record codec for metadata blobs.
//!
//! The tree crates serialize node contents by hand so that the on-page
//! layout — and therefore the fan-out that drives the experimental curves —
//! is explicit and matches the paper's sizing (4-byte keys and pointers).
//! The fixed-offset `put_*`/`get_*` helpers serve that purpose and panic on
//! out-of-bounds offsets (a layout bug, not a data error).
//!
//! Catalog records read back from disk are a different regime: the bytes
//! may be torn or overwritten, so decoding must *fail*, not panic.
//! [`RecordWriter`]/[`RecordReader`] provide a length-prefixed sequential
//! codec whose every read returns a [`CodecError`] on truncation, and
//! [`crc32`] provides the checksum that detects silent corruption.

/// Writes a `u16` at `off`.
#[inline]
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u16` at `off`.
#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Writes a `u32` at `off`.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` at `off`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Writes an `f32` at `off` (the paper's 4-byte stored values).
#[inline]
pub fn put_f32(buf: &mut [u8], off: usize, v: f32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads an `f32` at `off`.
#[inline]
pub fn get_f32(buf: &[u8], off: usize) -> f32 {
    f32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Writes an `f64` at `off` (used by handicap slots, which need the full
/// precision of the computed surface values).
#[inline]
pub fn put_f64(buf: &mut [u8], off: usize, v: f64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads an `f64` at `off`.
#[inline]
pub fn get_f64(buf: &[u8], off: usize) -> f64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    f64::from_le_bytes(b)
}

/// Error produced when decoding a variable-length record fails.
///
/// Decoding failures are expected events (torn writes, bit rot, stale
/// software reading a newer format), so they are reported, never panicked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field could be read.
    Truncated,
    /// A field was read but its value is impossible (bad magic, bad tag,
    /// an inner length larger than the remaining buffer, …).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::Invalid(what) => write!(f, "invalid record field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Sequential little-endian record writer used for metadata blobs.
///
/// Unlike the fixed-offset helpers above, the writer owns a growable
/// buffer, so encoding can never fail; all layout decisions live in the
/// order of `put_*` calls, mirrored exactly by the [`RecordReader`].
#[derive(Debug, Default)]
pub struct RecordWriter {
    buf: Vec<u8>,
}

impl RecordWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("record field over 4 GiB"));
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Sequential fallible reader over bytes produced by [`RecordWriter`].
#[derive(Clone, Copy, Debug)]
pub struct RecordReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(f64::from_le_bytes(b))
    }

    /// Reads a length-prefixed byte slice. A prefix larger than the
    /// remaining buffer reads as [`CodecError::Truncated`] — from the
    /// reader's side it is indistinguishable from a cut-off record.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }
}

// -------------------------------------------------------------------- Wire

/// A type's byte layout, declared once: `put` appends it to a record and
/// `get` reads it back. `get` fails — it never panics, and never sizes an
/// allocation from a count it has not yet seen the bytes for — on torn,
/// forged or version-skewed input, and hands out only values the type's
/// constructors would have accepted.
///
/// Structs and enums declare their layout with
/// [`wire_struct!`](crate::wire_struct) and
/// [`wire_enum!`](crate::wire_enum); a hand-written impl is for a `get`
/// that validates.
pub trait Wire: Sized {
    /// Appends `self` to the record.
    fn put(&self, w: &mut RecordWriter);
    /// Reads one value off the record.
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError>;
}

/// Encodes one value as a whole record.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = RecordWriter::new();
    v.put(&mut w);
    w.into_bytes()
}

/// Decodes a whole record as one value; bytes left over are an error.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T, CodecError> {
    let mut r = RecordReader::new(buf);
    let v = T::get(&mut r)?;
    r.finish()?;
    Ok(v)
}

impl RecordWriter {
    /// Appends the items back to back, without a count.
    pub fn put_seq<T: Wire>(&mut self, items: &[T]) {
        for item in items {
            item.put(self);
        }
    }

    /// Appends a `u32` count, then the items — the layout of `Vec<T>`.
    pub fn put_counted<T: Wire>(&mut self, items: &[T]) {
        items.len().put(self);
        self.put_seq(items)
    }
}

impl RecordReader<'_> {
    /// Reads `n` items written by [`RecordWriter::put_seq`]. `n` is not
    /// trusted for allocation: the vector grows as items actually decode,
    /// so a forged count fails with `Truncated` once the real bytes run out.
    pub fn get_seq<T: Wire>(&mut self, n: usize) -> Result<Vec<T>, CodecError> {
        let mut v = Vec::new();
        for _ in 0..n {
            v.push(T::get(self)?);
        }
        Ok(v)
    }

    /// Fails unless every byte has been read.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CodecError::Invalid("trailing bytes")),
        }
    }
}

macro_rules! wire_primitive {
    ($($t:ty: $put:ident / $get:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut RecordWriter) {
                w.$put(*self)
            }
            fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    )*};
}
wire_primitive!(u8: put_u8 / get_u8, u16: put_u16 / get_u16, u32: put_u32 / get_u32);
wire_primitive!(u64: put_u64 / get_u64, f64: put_f64 / get_f64);

/// One byte, `0` or `1`.
impl Wire for bool {
    fn put(&self, w: &mut RecordWriter) {
        w.put_u8(u8::from(*self))
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool flag")),
        }
    }
}

/// Counts and dimensions travel as `u32`.
impl Wire for usize {
    fn put(&self, w: &mut RecordWriter) {
        w.put_u32(u32::try_from(*self).expect("count over u32::MAX"))
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_u32()? as usize)
    }
}

impl Wire for String {
    fn put(&self, w: &mut RecordWriter) {
        w.put_str(self)
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        Ok(r.get_str()?.to_string())
    }
}

/// A presence byte, then the value when it is `1`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut RecordWriter) {
        put_option(self.as_ref(), w, T::put)
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        get_option(r, T::get)
    }
}

/// [`Option`]'s layout over an explicit element codec (the `field as module`
/// of [`wire_struct!`](crate::wire_struct)).
pub fn put_option<T>(v: Option<&T>, w: &mut RecordWriter, put: impl FnOnce(&T, &mut RecordWriter)) {
    match v {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            put(v, w)
        }
    }
}

/// Mirror of [`put_option`].
pub fn get_option<'a, T>(
    r: &mut RecordReader<'a>,
    get: impl FnOnce(&mut RecordReader<'a>) -> Result<T, CodecError>,
) -> Result<Option<T>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        _ => Err(CodecError::Invalid("option presence")),
    }
}

/// A `u32` count, then the items (see [`RecordReader::get_seq`]).
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut RecordWriter) {
        w.put_counted(self)
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        let n = usize::get(r)?;
        r.get_seq(n)
    }
}

macro_rules! wire_tuple {
    ($($i:tt $T:ident),+) => {
        /// The members back to back.
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            fn put(&self, w: &mut RecordWriter) {
                $(self.$i.put(w);)+
            }
            fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
                Ok(($($T::get(r)?,)+))
            }
        }
    };
}
wire_tuple!(0 A, 1 B);
wire_tuple!(0 A, 1 B, 2 C);

/// A `0` byte then `T`, or `E` alone — so `E`'s first byte (its enum tag)
/// must never be `0`.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn put(&self, w: &mut RecordWriter) {
        match self {
            Ok(v) => {
                w.put_u8(0);
                v.put(w)
            }
            Err(e) => e.put(w),
        }
    }
    fn get(r: &mut RecordReader<'_>) -> Result<Self, CodecError> {
        let mut ahead = *r;
        Ok(if ahead.get_u8()? == 0 {
            *r = ahead;
            Ok(T::get(r)?)
        } else {
            Err(E::get(r)?)
        })
    }
}

/// Values made of `f64`s that constructors require to be finite.
pub trait Finite {
    /// Whether every `f64` inside is finite.
    fn all_finite(&self) -> bool;
}

impl Finite for f64 {
    fn all_finite(&self) -> bool {
        self.is_finite()
    }
}

impl<T: Finite> Finite for Vec<T> {
    fn all_finite(&self) -> bool {
        self.iter().all(T::all_finite)
    }
}

/// Field codec (`field as finite`): the type's own layout, refused on
/// decode unless every `f64` in it is finite.
pub mod finite {
    use super::{CodecError, Finite, RecordReader, RecordWriter, Wire};

    /// Same bytes as `T::put`.
    pub fn put<T: Wire>(v: &T, w: &mut RecordWriter) {
        v.put(w)
    }

    /// `T::get`, then the finiteness check.
    pub fn get<T: Wire + Finite>(r: &mut RecordReader<'_>) -> Result<T, CodecError> {
        let v = T::get(r)?;
        if v.all_finite() {
            Ok(v)
        } else {
            Err(CodecError::Invalid("non-finite coefficient"))
        }
    }
}

/// Field codec (`field as ascending`): a `Vec`'s own layout, refused on
/// decode unless strictly ascending — sorted and duplicate-free.
pub mod ascending {
    use super::{CodecError, RecordReader, RecordWriter, Wire};

    /// Same bytes as `Vec::put`.
    pub fn put<T: Wire>(v: &Vec<T>, w: &mut RecordWriter) {
        v.put(w)
    }

    /// `Vec::get`, then the order check.
    pub fn get<T: Wire + PartialOrd>(r: &mut RecordReader<'_>) -> Result<Vec<T>, CodecError> {
        let v = Vec::<T>::get(r)?;
        if v.windows(2).all(|w| w[0] < w[1]) {
            Ok(v)
        } else {
            Err(CodecError::Invalid("list not sorted-unique"))
        }
    }
}

/// Implements [`Wire`] for a struct from one field list, written and read
/// in the order listed: `wire_struct!(T { a, b as codec, c })`.
///
/// `field as module` swaps the field type's own `Wire` impl for the
/// module's `put(&F, &mut RecordWriter)` / `get(&mut RecordReader) ->
/// Result<F, CodecError>` pair — for a foreign type, or a `get` that
/// validates (e.g. [`finite`]).
#[macro_export]
macro_rules! wire_struct {
    ($t:ty { $($f:ident $(as $($c:ident)::+)?),* $(,)? }) => {
        impl $crate::codec::Wire for $t {
            fn put(&self, w: &mut $crate::codec::RecordWriter) {
                $($crate::wire_struct!(@put w, &self.$f $(, $($c)::+)?);)*
            }
            fn get(
                r: &mut $crate::codec::RecordReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $($f: $crate::wire_struct!(@get r $(, $($c)::+)?)),* })
            }
        }
    };
    (@put $w:ident, $v:expr) => { $crate::codec::Wire::put($v, $w) };
    (@put $w:ident, $v:expr, $($c:ident)::+) => { $($c)::+::put($v, $w) };
    (@get $r:ident) => { $crate::codec::Wire::get($r)? };
    (@get $r:ident, $($c:ident)::+) => { $($c)::+::get($r)? };
}

/// Implements [`Wire`] for an enum from one tag list — a `u8` tag, then the
/// variant's fields as in [`wire_struct!`](crate::wire_struct):
/// `wire_enum!(E { 0 => Unit, 1 => Newtype(x), 2 => Struct { a, b as codec } })`.
/// An unknown tag is a decode error.
#[macro_export]
macro_rules! wire_enum {
    ($t:ty { $($tag:literal => $v:ident
        $(($x:ident $(as $($xc:ident)::+)?))?
        $({ $($f:ident $(as $($c:ident)::+)?),* $(,)? })?
    ),* $(,)? }) => {
        impl $crate::codec::Wire for $t {
            fn put(&self, w: &mut $crate::codec::RecordWriter) {
                match self {$(
                    Self::$v $(($x))? $({ $($f),* })? => {
                        w.put_u8($tag);
                        $($crate::wire_struct!(@put w, $x $(, $($xc)::+)?);)?
                        $($($crate::wire_struct!(@put w, $f $(, $($c)::+)?);)*)?
                    }
                )*}
            }
            fn get(
                r: &mut $crate::codec::RecordReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match r.get_u8()? {
                    $($tag => Self::$v
                        $(({ let $x = $crate::wire_struct!(@get r $(, $($xc)::+)?); $x }))?
                        $({ $($f: $crate::wire_struct!(@get r $(, $($c)::+)?)),* })?,
                    )*
                    _ => {
                        return Err($crate::codec::CodecError::Invalid(concat!(
                            stringify!($t),
                            " tag"
                        )))
                    }
                })
            }
        }
    };
}

// ----------------------------------------------------------- frame streaming

/// Largest frame payload [`read_frame`] accepts unless the caller tightens
/// the limit: 16 MiB, far above any catalog blob or wire message the engine
/// produces, far below anything that could exhaust memory.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Granularity of the incremental payload reads in [`read_frame`]: memory is
/// committed as bytes actually arrive, so a length prefix lying about a huge
/// payload costs at most one chunk before the stream runs dry.
const FRAME_CHUNK: usize = 64 << 10;

/// Why a streamed frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (no bytes of a next
    /// frame had arrived) — a peer hanging up politely, not corruption.
    Closed,
    /// The frame is structurally bad: truncated mid-frame, a length prefix
    /// over the limit, or a checksum mismatch. The stream is out of sync
    /// and must be dropped.
    Corrupt(CodecError),
    /// The underlying reader failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            FrameError::Io(e) => write!(f, "i/o error reading frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Corrupt(e)
    }
}

/// Writes one length-prefixed, checksummed frame:
/// `[len: u32][payload: len bytes][crc32(payload): u32]`.
///
/// One `write_all` of the assembled frame: one send on an unbuffered
/// socket. The payload is typically [`RecordWriter`] output; the mirror
/// image is [`read_frame`]. The caller flushes when message boundaries matter.
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame payload over 4 GiB");
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame)
}

/// Reads one frame written by [`write_frame`], incrementally and with an
/// explicit size limit, so a malicious or truncated stream yields
/// [`FrameError::Corrupt`] — never a panic or an attacker-sized allocation.
///
/// * A clean EOF *before any byte* of the frame reads as
///   [`FrameError::Closed`] (peer done).
/// * EOF anywhere inside the frame reads as `Corrupt(Truncated)`.
/// * A length prefix above `max_len` reads as `Corrupt(Invalid)` without
///   buffering a single payload byte.
/// * Memory is committed in 64 KiB steps as bytes actually arrive.
///
/// Payload and checksum are read by one loop after the length prefix, and
/// nothing past the frame is consumed, so the reader can be handed on bare.
///
/// `ErrorKind::Interrupted` is retried; every other I/O error (including
/// read timeouts — `WouldBlock`/`TimedOut`) is surfaced as
/// [`FrameError::Io`] with whatever was consumed discarded, so callers that
/// poll with timeouts should only do so *between* frames.
pub fn read_frame<R: std::io::Read>(r: &mut R, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::Eof0 => return Err(FrameError::Closed),
        ReadOutcome::EofPartial => return Err(FrameError::Corrupt(CodecError::Truncated)),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return Err(FrameError::Corrupt(CodecError::Invalid(
            "frame length exceeds the configured limit",
        )));
    }
    let mut payload = Vec::new();
    while payload.len() < len + 4 {
        let start = payload.len();
        payload.resize(start + FRAME_CHUNK.min(len + 4 - start), 0);
        match read_exact_or_eof(r, &mut payload[start..])? {
            ReadOutcome::Full => {}
            _ => return Err(FrameError::Corrupt(CodecError::Truncated)),
        }
    }
    let crc = get_u32(&payload, len);
    payload.truncate(len);
    if crc32(&payload) != crc {
        return Err(FrameError::Corrupt(CodecError::Invalid(
            "frame checksum mismatch",
        )));
    }
    Ok(payload)
}

enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// EOF before a single byte landed.
    Eof0,
    /// EOF after some bytes landed.
    EofPartial,
}

/// `read_exact`, but distinguishing clean EOF (0 bytes) from a torn one and
/// retrying `Interrupted`.
fn read_exact_or_eof<R: std::io::Read>(
    r: &mut R,
    buf: &mut [u8],
) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof0
                } else {
                    ReadOutcome::EofPartial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

/// IEEE CRC-32 (the ubiquitous reflected 0xEDB88320 polynomial).
///
/// Used to checksum the catalog blob, the pager's metadata descriptors, WAL
/// records and wire frames, so that torn or bit-flipped bytes are detected
/// instead of deserialized.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends the CRC-32 `crc` of some bytes over `bytes` that follow them:
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, and `crc32_update(0, b)`
/// is `crc32(b)`.
///
/// Slicing-by-16: 16 bytes per step through 16 tables, ≈ 5.5× the
/// byte-at-a-time loop. The register is mixed into a block's first four
/// bytes, so no load needs alignment or `unsafe`; the tail goes bytewise.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut b: [u8; 16] = block.try_into().expect("16-byte block");
        for (b, r) in b.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= r;
        }
        crc = b
            .iter()
            .zip(t.iter().rev())
            .fold(0, |acc, (&b, t)| acc ^ t[b as usize]);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC32_TABLES[0]` is the byte-at-a-time table; `CRC32_TABLES[k][b]` is
/// the register contribution of byte `b` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Size in bytes of the integrity trailer sealed onto every on-disk page:
/// `[epoch: u32][crc32: u32]`.
///
/// The trailer is *out of band*: [`FilePager`](crate::FilePager) stores
/// `page_size + PAGE_TRAILER` bytes per physical page, so the logical page
/// the index structures see — and therefore node fan-out and every I/O
/// count in the experiments — is unchanged by checksumming.
pub const PAGE_TRAILER: usize = 8;

/// Seals a physical page image: writes `[epoch][crc32(data ‖ epoch)]` into
/// the last [`PAGE_TRAILER`] bytes of `page`, where `data` is everything
/// before the trailer.
///
/// # Panics
/// Panics if `page` is shorter than the trailer (a layout bug).
pub fn seal_page(page: &mut [u8], epoch: u32) {
    let body = page.len() - PAGE_TRAILER;
    let crc = trailer_crc(&page[..body], epoch);
    put_u32(page, body, epoch);
    put_u32(page, body + 4, crc);
}

/// Verifies a sealed page image and returns the epoch stamped in its
/// trailer. A checksum mismatch — a torn write, bit rot, or a page that was
/// never sealed — reads as [`CodecError::Invalid`].
pub fn check_page(page: &[u8]) -> Result<u32, CodecError> {
    if page.len() < PAGE_TRAILER {
        return Err(CodecError::Truncated);
    }
    let body = page.len() - PAGE_TRAILER;
    let epoch = get_u32(page, body);
    let stored = get_u32(page, body + 4);
    if trailer_crc(&page[..body], epoch) != stored {
        return Err(CodecError::Invalid("page checksum mismatch"));
    }
    Ok(epoch)
}

/// CRC over a page body plus its epoch, so a stale page recycled from an
/// older epoch can never masquerade as current even if its bytes are intact.
fn trailer_crc(body: &[u8], epoch: u32) -> u32 {
    crc32_update(crc32(body), &epoch.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut buf = vec![0u8; 32];
        put_u16(&mut buf, 0, 0xBEEF);
        put_u32(&mut buf, 2, 0xDEAD_BEEF);
        put_f32(&mut buf, 6, -1.5);
        put_f64(&mut buf, 10, std::f64::consts::PI);
        assert_eq!(get_u16(&buf, 0), 0xBEEF);
        assert_eq!(get_u32(&buf, 2), 0xDEAD_BEEF);
        assert_eq!(get_f32(&buf, 6), -1.5);
        assert_eq!(get_f64(&buf, 10), std::f64::consts::PI);
    }

    #[test]
    fn infinities_round_trip() {
        let mut buf = vec![0u8; 16];
        put_f32(&mut buf, 0, f32::INFINITY);
        put_f32(&mut buf, 4, f32::NEG_INFINITY);
        put_f64(&mut buf, 8, f64::INFINITY);
        assert_eq!(get_f32(&buf, 0), f32::INFINITY);
        assert_eq!(get_f32(&buf, 4), f32::NEG_INFINITY);
        assert_eq!(get_f64(&buf, 8), f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let mut buf = vec![0u8; 4];
        put_u32(&mut buf, 2, 1);
    }

    #[test]
    fn record_round_trips() {
        let mut w = RecordWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.125);
        w.put_str("relation-name");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = RecordReader::new(&bytes);
        assert_eq!(r.get_u8(), Ok(7));
        assert_eq!(r.get_u16(), Ok(0xBEEF));
        assert_eq!(r.get_u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Ok(u64::MAX - 3));
        assert_eq!(r.get_f64(), Ok(-0.125));
        assert_eq!(r.get_str(), Ok("relation-name"));
        assert_eq!(r.get_bytes(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn wire_conformance_of_primitives_and_containers() {
        use crate::conformance::wire_conformance;
        wire_conformance(&[0u8, 7, u8::MAX]);
        wire_conformance(&[0xBEEFu16, 0]);
        wire_conformance(&[0xDEAD_BEEFu32, 1]);
        wire_conformance(&[u64::MAX - 3, 0]);
        wire_conformance(&[-0.125f64, f64::INFINITY]);
        wire_conformance(&[true, false]);
        wire_conformance(&[0usize, 1 << 20]);
        wire_conformance(&[String::new(), "relation-name".to_string()]);
        wire_conformance(&[None, Some(9u32)]);
        wire_conformance(&[vec![], vec![(1u64, vec![1u8, 2, 3]), (2, vec![])]]);
        wire_conformance(&[(1u8, "a".to_string(), vec![Some(false)])]);
        wire_conformance::<Result<u16, u8>>(&[Ok(0), Ok(513), Err(1), Err(255)]);
    }

    #[test]
    fn wire_conformance_of_storage_types() {
        use crate::conformance::wire_conformance;
        use crate::{EpochStats, IoStats, PagerRecovery, RecordId};
        wire_conformance(&[
            IoStats::default(),
            IoStats {
                reads: 1,
                writes: 2,
                allocations: 3,
                frees: 4,
            },
        ]);
        wire_conformance(&[EpochStats {
            current_epoch: 9,
            pinned_epochs: 2,
            quarantined_pages: 5,
        }]);
        wire_conformance(&[
            PagerRecovery::Clean,
            PagerRecovery::FellBack {
                recovered_epoch: 4,
                lost_epoch: 5,
            },
        ]);
        wire_conformance(&[RecordId { page: 77, slot: 3 }]);
    }

    #[test]
    fn forged_counts_fail_without_allocating() {
        // u32::MAX elements claimed, four bytes present.
        let forged = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4];
        assert_eq!(decode::<Vec<u64>>(&forged), Err(CodecError::Truncated));
        assert_eq!(decode::<Vec<String>>(&forged), Err(CodecError::Truncated));
    }

    #[test]
    fn validating_field_codecs_refuse_what_they_name() {
        let mut r = RecordReader::new(&[0u8; 0]);
        assert_eq!(finite::get::<f64>(&mut r), Err(CodecError::Truncated));
        let nan = encode(&vec![1.0, f64::NAN]);
        assert!(finite::get::<Vec<f64>>(&mut RecordReader::new(&nan)).is_err());
        assert!(Vec::<f64>::get(&mut RecordReader::new(&nan)).is_ok());
        for (ids, ok) in [
            (vec![1u32, 4, 9], true),
            (vec![9, 3], false),
            (vec![2, 2], false),
        ] {
            let bytes = encode(&ids);
            assert_eq!(
                ascending::get::<u32>(&mut RecordReader::new(&bytes)).is_ok(),
                ok
            );
        }
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut w = RecordWriter::new();
        w.put_str("abcdef");
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 2);
        let mut r = RecordReader::new(&bytes);
        assert_eq!(r.get_str(), Err(CodecError::Truncated));
    }

    #[test]
    fn oversized_length_prefix_is_truncation() {
        let mut bytes = vec![0u8; 8];
        put_u32(&mut bytes, 0, 1_000_000);
        let mut r = RecordReader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(CodecError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time loop the slicing kernel replaced, kept as the
    /// reference it must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let t = &CRC32_TABLES[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic non-repeating bytes (an LCG's high byte).
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491u32;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let buf = noise(6_164 + 16);
        let lengths = (0..=80).chain([1_032, 6_164]);
        for len in lengths {
            for start in 0..16 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
            }
        }
    }

    #[test]
    fn crc32_update_chains_across_every_split() {
        let image = noise(1_032);
        let whole = crc32(&image);
        for split in 0..=image.len() {
            let (a, b) = image.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {split}");
        }
    }

    #[test]
    fn seal_page_matches_the_bytewise_reference() {
        for epoch in [0, 1, 7, u32::MAX] {
            let mut page = noise(1_032);
            seal_page(&mut page, epoch);
            let body = page.len() - PAGE_TRAILER;
            let mut expected = page[..body].to_vec();
            expected.extend_from_slice(&epoch.to_le_bytes());
            let crc = crc32_bytewise(&expected);
            expected.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(page, expected, "epoch {epoch}");
        }
    }

    #[test]
    fn sealed_page_round_trips() {
        let mut page = vec![0u8; 64];
        page[..10].copy_from_slice(b"node bytes");
        seal_page(&mut page, 7);
        assert_eq!(check_page(&page), Ok(7));
    }

    #[test]
    fn sealed_page_detects_body_and_trailer_flips() {
        let mut page = vec![3u8; 64];
        seal_page(&mut page, 12);
        for pos in [0, 30, 55, 56, 60, 63] {
            page[pos] ^= 0x40;
            assert!(check_page(&page).is_err(), "flip at {pos} undetected");
            page[pos] ^= 0x40;
        }
        assert_eq!(check_page(&page), Ok(12));
    }

    #[test]
    fn sealed_page_binds_the_epoch() {
        let mut a = vec![9u8; 64];
        let mut b = vec![9u8; 64];
        seal_page(&mut a, 1);
        seal_page(&mut b, 2);
        assert_ne!(a, b, "identical bodies at different epochs must differ");
        assert_eq!(check_page(&a), Ok(1));
        assert_eq!(check_page(&b), Ok(2));
    }

    #[test]
    fn unsealed_page_is_invalid() {
        let page = vec![0xA5u8; 64];
        assert!(check_page(&page).is_err());
        assert!(check_page(&[1, 2, 3]).is_err(), "shorter than a trailer");
    }

    #[test]
    fn frames_round_trip_in_sequence() {
        let mut buf = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1; 200_000], b"catalog".to_vec()];
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for p in &payloads {
            assert_eq!(&read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), p);
        }
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_before_buffering() {
        // A length prefix claiming 1 GiB over an empty stream: the reader
        // must refuse on the prefix alone, without trying to allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let mut r = std::io::Cursor::new(&buf);
        assert!(matches!(
            read_frame(&mut r, 1 << 20),
            Err(FrameError::Corrupt(CodecError::Invalid(_)))
        ));
        assert_eq!(r.position(), 4, "no payload bytes were consumed");
    }

    #[test]
    fn truncated_frames_are_corrupt_not_closed() {
        let mut full = Vec::new();
        write_frame(&mut full, b"some payload").unwrap();
        for cut in 1..full.len() {
            let mut r = std::io::Cursor::new(&full[..cut]);
            assert!(
                matches!(
                    read_frame(&mut r, DEFAULT_MAX_FRAME),
                    Err(FrameError::Corrupt(CodecError::Truncated))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn frame_bit_flips_fail_the_checksum() {
        let mut full = Vec::new();
        write_frame(&mut full, b"wire message body").unwrap();
        // Flip bits in the payload and crc regions (offsets 4..) — every
        // one must surface as a checksum mismatch.
        for pos in 4..full.len() {
            full[pos] ^= 0x10;
            let mut r = std::io::Cursor::new(&full);
            assert!(
                matches!(
                    read_frame(&mut r, DEFAULT_MAX_FRAME),
                    Err(FrameError::Corrupt(_))
                ),
                "flip at {pos} undetected"
            );
            full[pos] ^= 0x10;
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = b"catalog page payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base);
                data[byte] ^= 1 << bit;
            }
        }
    }
}
