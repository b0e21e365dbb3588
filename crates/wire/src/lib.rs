//! Compact, deterministic binary codec used by every protocol message in the
//! `setupfree` workspace.
//!
//! The paper's headline metric is *communication complexity*: the number of
//! bits exchanged among honest parties.  To measure that exactly, every
//! message that crosses the simulated network is charged to its sender at
//! its encoded length in this codec ([`Encode::encoded_len`]), and the
//! socket transport ships exactly those bytes.  The format is intentionally
//! simple (little-endian fixed-width integers, length-prefixed sequences) so
//! encoded sizes are easy to reason about when comparing against the
//! paper's O(λ·nᵏ) bounds.
//!
//! # Message layouts
//!
//! A type's *layout* is the order in which its encoding writes its parts.
//! A message enum writes one tag byte for its variant, then the variant's
//! fields in a fixed order; a plain struct writes its fields in a fixed
//! order, and a newtype its one field.  Every field is written by its own
//! type's [`Encode`], so the layout is all a type has to say.  The [`codec!`]
//! macro turns that list into the type's [`Encode`] and [`Decode`]; the
//! ABA's messages, for instance, are
//!
//! ```text
//! codec!(enum AbaMessage {
//!     0 => BVal { round, value },
//!     1 => Aux { round, value },
//!     2 => Finish { value },
//! });
//! ```
//!
//! Every protocol message and the plain crypto and session types it carries
//! are declared this way, so each decoder is the same checked code: a
//! truncated input, an unknown tag or trailing bytes is a [`WireError`],
//! never a panic.  Types that validate what they decode (group elements,
//! scalars, aggregate signatures, PVSS scripts, instance paths) or that
//! narrow a value on the wire (a `PartyId` travels as a `u32`) keep a
//! hand-written pair.  Changing a layout changes the bytes on the wire, and
//! the two ends of a run share one codec, so a round-trip test cannot see a
//! swapped pair of same-typed fields: change a call's tags or field order
//! only on purpose.
//!
//! # Example
//!
//! ```
//! use setupfree_wire::{to_bytes, from_bytes};
//!
//! # fn main() -> Result<(), setupfree_wire::WireError> {
//! let value: (u32, Vec<u8>, bool) = (7, vec![1, 2, 3], true);
//! let bytes = to_bytes(&value);
//! let decoded: (u32, Vec<u8>, bool) = from_bytes(&bytes)?;
//! assert_eq!(value, decoded);
//! # Ok(())
//! # }
//! ```

use std::fmt;

/// Error returned when decoding malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was fully decoded.
    UnexpectedEnd {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A tag/discriminant byte did not correspond to any variant.
    InvalidTag {
        /// The offending tag value.
        tag: u64,
        /// A human-readable name of the type being decoded.
        ty: &'static str,
    },
    /// A length prefix exceeded the configured sanity limit.
    LengthTooLarge {
        /// The decoded length.
        len: u64,
    },
    /// Trailing bytes remained after decoding a complete value.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// The bytes decoded correctly but the value failed a semantic check
    /// (e.g. a non-canonical field element).
    InvalidValue {
        /// A human-readable name of the type being decoded.
        ty: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd { needed, remaining } => {
                write!(f, "unexpected end of input: needed {needed} bytes, {remaining} remaining")
            }
            WireError::InvalidTag { tag, ty } => write!(f, "invalid tag {tag} while decoding {ty}"),
            WireError::LengthTooLarge { len } => write!(f, "length prefix {len} exceeds sanity limit"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoding value")
            }
            WireError::InvalidValue { ty } => write!(f, "invalid value while decoding {ty}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity limit on decoded collection lengths (protects tests against
/// adversarially huge length prefixes).
pub const MAX_SEQUENCE_LEN: u64 = 1 << 24;

/// Incremental writer used by [`Encode`] implementations.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Appends raw bytes verbatim.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length as a LEB128 varint.  Every Vec/String in
    /// the wire format funnels through here, so short collections (the
    /// overwhelming majority of protocol payloads) pay one prefix byte
    /// instead of eight.
    pub fn write_len(&mut self, v: usize) {
        let mut v = v as u64;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Incremental reader used by [`Decode`] implementations.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd { needed: n, remaining: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a LEB128 varint length prefix and validates it against
    /// [`MAX_SEQUENCE_LEN`].  Rejects non-minimal encodings so every length
    /// has exactly one byte representation (decode/encode stays a bijection).
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let mut len: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift > 0 && byte == 0 {
                // A zero continuation byte means the previous byte's high bit
                // was set for nothing: non-minimal encoding.
                return Err(WireError::LengthTooLarge { len: u64::MAX });
            }
            len |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift >= 64 {
                return Err(WireError::LengthTooLarge { len: u64::MAX });
            }
        }
        if len > MAX_SEQUENCE_LEN {
            return Err(WireError::LengthTooLarge { len });
        }
        Ok(len as usize)
    }

    /// Errors unless the entire input has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            Err(WireError::TrailingBytes { remaining: self.remaining() })
        } else {
            Ok(())
        }
    }
}

/// Types that can be serialized to the wire format.
pub trait Encode {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Encoded byte length of `self`, the length the simulator charges.
    /// The default encodes into a scratch buffer; a type that knows its
    /// length cheaply may override it, and must agree with [`Self::encode`]
    /// (debug-build simulations assert that on every send).
    fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.len()
    }
}

/// Types that can be deserialized from the wire format.
pub trait Decode: Sized {
    /// Reads a value of `Self` from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes `value` into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value of type `T` from `bytes`, requiring that all bytes are
/// consumed.
///
/// # Errors
///
/// Returns a [`WireError`] when the input is truncated, malformed, or has
/// trailing bytes.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Implementations for primitives and standard containers.
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($ty:ty, $write:ident, $read:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$write(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$read()
            }
        }
    };
}

impl_int!(u8, write_u8, read_u8);
impl_int!(u16, write_u16, read_u16);
impl_int!(u32, write_u32, read_u32);
impl_int!(u64, write_u64, read_u64);

impl Encode for usize {
    fn encode(&self, w: &mut Writer) {
        w.write_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.read_u64()? as usize)
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Writer) {
        w.write_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "bool" }),
        }
    }
}

impl Encode for () {
    fn encode(&self, _w: &mut Writer) {}
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, w: &mut Writer) {
        w.write_bytes(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.read_bytes(N)?;
        let mut arr = [0u8; N];
        arr.copy_from_slice(bytes);
        Ok(arr)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.write_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.write_len(self.len());
        w.write_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.read_len()?;
        let bytes = r.read_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidValue { ty: "String" })
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.write_u8(0),
            Some(v) => {
                w.write_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag { tag: u64::from(tag), ty: "Option" }),
        }
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (*self).encode(w);
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $( self.$idx.encode(w); )+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(( $( $name::decode(r)?, )+ ))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Implements [`Encode`] and [`Decode`] for a type from its message layout.
///
/// * `codec!(enum T { 0 => A { x, y }, 1 => B(v) })`: a variant is its tag
///   byte, then its fields in the listed order.  Named and tuple variants
///   both work; a tuple variant names its fields for the call only.  An
///   unknown tag decodes to [`WireError::InvalidTag`] with `ty: "T"`.
/// * `codec!(struct T { x, y })`: the fields in the listed order.
/// * `codec!(struct T(_))`: a newtype, encoded as its one field.
///
/// Each field uses its own type's `Encode` and `Decode`, found by
/// inference, so a call lists no types.  Struct patterns and literals are
/// exhaustive, so a call that leaves out or misnames a field does not
/// compile, and a repeated tag is an unreachable match arm.
///
/// ```
/// use setupfree_wire::{codec, from_bytes, to_bytes};
///
/// #[derive(Debug, PartialEq)]
/// enum Vote {
///     Cast { round: u32, value: bool },
///     Note(Vec<u8>),
/// }
/// codec!(enum Vote { 0 => Cast { round, value }, 1 => Note(note) });
///
/// let vote = Vote::Cast { round: 7, value: true };
/// assert_eq!(to_bytes(&vote), [0, 7, 0, 0, 0, 1]);
/// assert_eq!(from_bytes::<Vote>(&[1, 2, 0xaa, 0xbb]), Ok(Vote::Note(vec![0xaa, 0xbb])));
/// ```
#[macro_export]
macro_rules! codec {
    (enum $ty:ident {
        $($tag:literal => $variant:ident $({ $($named:ident),* })? $(( $($pos:ident),* ))?),+ $(,)?
    }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                match self {
                    $($ty::$variant $({ $($named),* })? $(( $($pos),* ))? => {
                        w.write_u8($tag);
                        $($($crate::Encode::encode($named, w);)*)?
                        $($($crate::Encode::encode($pos, w);)*)?
                    })+
                }
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                match r.read_u8()? {
                    $($tag => {
                        $($(let $named = $crate::Decode::decode(r)?;)*)?
                        $($(let $pos = $crate::Decode::decode(r)?;)*)?
                        Ok($ty::$variant $({ $($named),* })? $(( $($pos),* ))?)
                    })+
                    tag => Err($crate::WireError::InvalidTag {
                        tag: u64::from(tag),
                        ty: stringify!($ty),
                    }),
                }
            }
        }
    };
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                let $ty { $($field),+ } = self;
                $($crate::Encode::encode($field, w);)+
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                $(let $field = $crate::Decode::decode(r)?;)+
                Ok($ty { $($field),+ })
            }
        }
    };
    (struct $ty:ident(_)) => {
        impl $crate::Encode for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                let $ty(inner) = self;
                $crate::Encode::encode(inner, w);
            }
        }
        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok($ty($crate::Decode::decode(r)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(from_bytes::<u8>(&to_bytes(&17u8)).unwrap(), 17);
        assert_eq!(from_bytes::<u16>(&to_bytes(&1717u16)).unwrap(), 1717);
        assert_eq!(from_bytes::<u32>(&to_bytes(&0xdead_beefu32)).unwrap(), 0xdead_beef);
        assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)).unwrap(), u64::MAX);
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        assert!(!from_bytes::<bool>(&to_bytes(&false)).unwrap());
        assert_eq!(from_bytes::<usize>(&to_bytes(&42usize)).unwrap(), 42);
    }

    #[test]
    fn roundtrip_containers() {
        let v = vec![1u64, 2, 3, 4];
        assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v)).unwrap(), v);
        let s = String::from("hello, 世界");
        assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
        let o: Option<u32> = Some(9);
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&o)).unwrap(), o);
        let none: Option<u32> = None;
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&none)).unwrap(), none);
        let arr = [7u8; 32];
        assert_eq!(from_bytes::<[u8; 32]>(&to_bytes(&arr)).unwrap(), arr);
        let tup = (1u8, vec![2u16, 3], (true, 9u64));
        assert_eq!(from_bytes::<(u8, Vec<u16>, (bool, u64))>(&to_bytes(&tup)).unwrap(), tup);
    }

    #[test]
    fn truncated_input_fails() {
        let bytes = to_bytes(&0xdead_beefu32);
        let err = from_bytes::<u32>(&bytes[..3]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEnd { .. }));
    }

    #[test]
    fn trailing_bytes_fail() {
        let mut bytes = to_bytes(&7u8);
        bytes.push(0);
        let err = from_bytes::<u8>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn invalid_bool_tag_fails() {
        let err = from_bytes::<bool>(&[3]).unwrap_err();
        assert!(matches!(err, WireError::InvalidTag { tag: 3, ty: "bool" }));
    }

    #[test]
    fn huge_length_prefix_rejected() {
        let mut w = Writer::new();
        w.write_len((MAX_SEQUENCE_LEN + 1) as usize);
        let err = from_bytes::<Vec<u8>>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::LengthTooLarge { .. }));
    }

    #[test]
    fn varint_length_prefix_is_compact() {
        // Short collections — the overwhelming majority on the wire — pay a
        // single prefix byte.
        assert_eq!(to_bytes(&Vec::<u8>::new()).len(), 1);
        assert_eq!(to_bytes(&vec![0u8; 127]).len(), 1 + 127);
        assert_eq!(to_bytes(&vec![0u8; 128]).len(), 2 + 128);
        assert_eq!(to_bytes(&vec![0u8; 16_383]).len(), 2 + 16_383);
        assert_eq!(to_bytes(&vec![0u8; 16_384]).len(), 3 + 16_384);
    }

    #[test]
    fn varint_length_roundtrips_at_boundaries() {
        for len in [0usize, 1, 127, 128, 255, 256, 16_383, 16_384, 1 << 20] {
            let mut w = Writer::new();
            w.write_len(len);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.read_len().unwrap(), len);
            r.finish().unwrap();
        }
    }

    #[test]
    fn non_minimal_varint_length_rejected() {
        // 0x80 0x00 encodes 0 with a wasted continuation byte; the canonical
        // form is the single byte 0x00.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert!(matches!(r.read_len(), Err(WireError::LengthTooLarge { .. })));
    }

    #[test]
    fn encoded_len_matches_to_bytes() {
        let v = (vec![1u32, 2, 3], String::from("abc"), Some(7u64));
        assert_eq!(v.encoded_len(), to_bytes(&v).len());
    }

    #[derive(Debug, PartialEq)]
    enum Sample {
        Pair { first: u16, second: u16 },
        Bytes(Vec<u8>, bool),
    }
    crate::codec!(enum Sample { 3 => Pair { first, second }, 9 => Bytes(bytes, flag) });

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u8,
        y: u32,
    }
    crate::codec!(struct Point { y, x });

    #[derive(Debug, PartialEq)]
    struct Wrapped(Option<u8>);
    crate::codec!(struct Wrapped(_));

    #[test]
    fn codec_writes_the_tag_then_the_fields_in_listed_order() {
        let pair = Sample::Pair { first: 0x0102, second: 0x0304 };
        assert_eq!(to_bytes(&pair), [3, 0x02, 0x01, 0x04, 0x03]);
        let bytes = Sample::Bytes(vec![0xaa], true);
        assert_eq!(to_bytes(&bytes), [9, 1, 0xaa, 1]);
        // The call's order, not the declaration's: `y` goes first.
        let point = Point { x: 5, y: 0x0a0b_0c0d };
        assert_eq!(to_bytes(&point), [0x0d, 0x0c, 0x0b, 0x0a, 5]);
        assert_eq!(to_bytes(&Wrapped(Some(7))), [1, 7]);
        for value in [pair, bytes] {
            assert_eq!(from_bytes::<Sample>(&to_bytes(&value)), Ok(value));
        }
        assert_eq!(from_bytes::<Point>(&to_bytes(&point)), Ok(point));
        assert_eq!(from_bytes::<Wrapped>(&[0]), Ok(Wrapped(None)));
    }

    #[test]
    fn codec_rejects_unknown_tags_truncation_and_trailing_bytes() {
        let err = from_bytes::<Sample>(&[4, 0, 0, 0, 0]).unwrap_err();
        assert_eq!(err, WireError::InvalidTag { tag: 4, ty: "Sample" });
        let full = to_bytes(&Sample::Pair { first: 1, second: 2 });
        for cut in 0..full.len() {
            let err = from_bytes::<Sample>(&full[..cut]).unwrap_err();
            assert!(matches!(err, WireError::UnexpectedEnd { .. }), "cut {cut}: {err:?}");
        }
        assert!(matches!(from_bytes::<Point>(&[1, 2, 3]), Err(WireError::UnexpectedEnd { .. })));
        let mut long = to_bytes(&Wrapped(None));
        long.push(0);
        assert_eq!(from_bytes::<Wrapped>(&long), Err(WireError::TrailingBytes { remaining: 1 }));
        assert!(matches!(from_bytes::<Wrapped>(&[2]), Err(WireError::InvalidTag { tag: 2, .. })));
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let mut w = Writer::new();
        w.write_len(2);
        w.write_bytes(&[0xff, 0xfe]);
        let err = from_bytes::<String>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::InvalidValue { ty: "String" }));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_u64_vec(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            prop_assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn prop_roundtrip_bytes(v in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert_eq!(from_bytes::<Vec<u8>>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn prop_roundtrip_nested(v in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..32)) {
            prop_assert_eq!(from_bytes::<Vec<(u32, bool)>>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn prop_roundtrip_string(s in ".*") {
            prop_assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
        }

        #[test]
        fn prop_roundtrip_option(v in proptest::option::of(any::<u64>())) {
            prop_assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = from_bytes::<Vec<(u64, bool)>>(&bytes);
            let _ = from_bytes::<(u32, String)>(&bytes);
        }
    }
}
