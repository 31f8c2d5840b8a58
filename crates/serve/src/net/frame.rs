//! The frame codec: length-prefixed, checksummed byte frames.
//!
//! Everything on a mirage-serve connection travels inside a frame — the
//! one place the protocol touches raw bytes. The layout is fixed and
//! versionless (envelope versioning lives one layer up, in
//! [`proto`](super::proto)):
//!
//! ```text
//! offset  size  field
//!      0     2  magic  b"MF"             (frame sync / protocol check)
//!      2     4  len    u32 big-endian    (payload length in bytes)
//!      6     8  check  u64 big-endian    (FNV-1a 64 of the payload)
//!     14   len  payload
//! ```
//!
//! Decoding is defensive by construction, which is what the
//! fault-injection suite pins down:
//!
//! * the header is validated **before** any payload byte is read or any
//!   buffer is allocated — a hostile `len` can neither over-read the
//!   stream nor allocate unbounded memory ([`FrameError::Oversized`]);
//! * truncation at any byte position is a typed error, never a panic or a
//!   hang on more data than the peer will send;
//! * any corruption that survives the magic/length checks is caught by
//!   the checksum ([`FrameError::ChecksumMismatch`]).
//!
//! The integrity-checked-envelope shape follows the JACS transport-proxy
//! idiom: wrap *any* byte transport, verify at the boundary, hand clean
//! payloads up.

use mirage_math::hash::fnv1a;
use std::io::{Read, Write};

/// Frame sync marker, the first two bytes of every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"MF";

/// Bytes before the payload: magic + length + checksum.
pub const HEADER_LEN: usize = 2 + 4 + 8;

/// Default cap on payload length a reader accepts (16 MiB) — far above
/// any real QASM request, far below an allocation-of-death.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Why a frame could not be decoded. Every variant is a *typed* failure:
/// the codec never panics on wire input and never reads past the frame it
/// was asked to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not [`FRAME_MAGIC`] — not a mirage-serve
    /// peer, or the stream lost sync.
    BadMagic([u8; 2]),
    /// The declared payload length exceeds the reader's cap. Detected
    /// from the header alone; no payload bytes were consumed.
    Oversized {
        /// Length the header declared.
        len: u32,
        /// The reader's configured cap.
        max: u32,
    },
    /// The input ended mid-frame.
    Truncated {
        /// Bytes the frame section needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The payload arrived complete but its checksum disagrees.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum computed over the received payload.
        got: u64,
    },
    /// The stream closed cleanly at a frame boundary (zero bytes read) —
    /// a normal end of conversation, not corruption.
    Closed,
    /// An I/O error other than end-of-stream while reading.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02X?}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "frame truncated: needed {expected} bytes, got {got}")
            }
            FrameError::ChecksumMismatch { expected, got } => write!(
                f,
                "frame checksum mismatch: header says {expected:#018X}, payload hashes to {got:#018X}"
            ),
            FrameError::Closed => write!(f, "stream closed at frame boundary"),
            FrameError::Io(kind) => write!(f, "frame i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one payload into a self-contained frame.
///
/// # Panics
///
/// Panics if `payload` is longer than `u32::MAX` bytes (unrepresentable
/// in the header); real payloads are capped far lower by the reader.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        u32::try_from(payload.len()).is_ok(),
        "frame payload too long for a u32 length"
    );
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decode one frame from the front of `buf`. Returns the payload and the
/// number of bytes consumed (so callers can decode back-to-back frames
/// from one buffer).
///
/// # Errors
///
/// Any [`FrameError`] decoding variant; `buf.is_empty()` reports
/// [`FrameError::Closed`] to mirror the streaming reader.
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<(Vec<u8>, usize), FrameError> {
    if buf.is_empty() {
        return Err(FrameError::Closed);
    }
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            expected: HEADER_LEN,
            got: buf.len(),
        });
    }
    let (payload, consumed) = decode_after_header(
        [buf[0], buf[1]],
        buf[2..6].try_into().expect("slice is 4 bytes"),
        buf[6..14].try_into().expect("slice is 8 bytes"),
        max_payload,
        |len| {
            let body = &buf[HEADER_LEN..];
            if body.len() < len {
                return Err(FrameError::Truncated {
                    expected: len,
                    got: body.len(),
                });
            }
            Ok(body[..len].to_vec())
        },
    )?;
    Ok((payload, consumed))
}

/// Shared header validation + payload acquisition: `fetch` is only called
/// once the magic and length have passed, so an oversized or foreign
/// frame never causes a payload read or allocation.
fn decode_after_header(
    magic: [u8; 2],
    len_bytes: [u8; 4],
    check_bytes: [u8; 8],
    max_payload: u32,
    fetch: impl FnOnce(usize) -> Result<Vec<u8>, FrameError>,
) -> Result<(Vec<u8>, usize), FrameError> {
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    let expected = u64::from_be_bytes(check_bytes);
    let payload = fetch(len as usize)?;
    let got = fnv1a(&payload);
    if got != expected {
        return Err(FrameError::ChecksumMismatch { expected, got });
    }
    Ok((payload, HEADER_LEN + len as usize))
}

/// Write one frame (header + payload) to `w` and flush.
///
/// # Errors
///
/// Propagates the underlying I/O error.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes (see [`encode_frame`]).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Read one frame from `r`, enforcing `max_payload` before the payload is
/// touched.
///
/// A clean end-of-stream *before the first header byte* is
/// [`FrameError::Closed`]; end-of-stream anywhere later is
/// [`FrameError::Truncated`]. The reader consumes exactly one frame's
/// bytes on success and never reads payload bytes of a frame it has
/// already rejected.
///
/// # Errors
///
/// Any [`FrameError`] variant.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_counting(r, &mut header, HEADER_LEN).map_err(|e| match e {
        // Nothing read at all: the peer hung up between frames.
        FrameError::Truncated { got: 0, .. } => FrameError::Closed,
        other => other,
    })?;
    decode_after_header(
        [header[0], header[1]],
        header[2..6].try_into().expect("slice is 4 bytes"),
        header[6..14].try_into().expect("slice is 8 bytes"),
        max_payload,
        |len| {
            let mut payload = vec![0u8; len];
            read_exact_counting(r, &mut payload, len)?;
            Ok(payload)
        },
    )
    .map(|(payload, _)| payload)
}

/// `read_exact` with typed errors: reports how many bytes actually
/// arrived on truncation instead of a bare `UnexpectedEof`.
fn read_exact_counting<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    expected: usize,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn encode_decode_round_trip() {
        for payload in [&b""[..], b"x", b"hello frame", &[0u8; 4096]] {
            let frame = encode_frame(payload);
            assert_eq!(frame.len(), HEADER_LEN + payload.len());
            let (decoded, consumed) = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(decoded, payload);
            assert_eq!(consumed, frame.len());
        }
    }

    #[test]
    fn streaming_reader_matches_buffer_decoder() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"first"));
        stream.extend_from_slice(&encode_frame(b""));
        stream.extend_from_slice(&encode_frame(b"third"));
        let mut cursor = Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"first");
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), b"third");
        assert_eq!(read_frame(&mut cursor, 64), Err(FrameError::Closed));
    }

    #[test]
    fn oversized_header_is_rejected_before_payload() {
        let frame = encode_frame(&[7u8; 32]);
        assert_eq!(
            decode_frame(&frame, 31),
            Err(FrameError::Oversized { len: 32, max: 31 })
        );
        // The streaming reader rejects from the header alone: even with
        // zero payload bytes available it reports Oversized, not
        // Truncated — proof it never tried to read the payload.
        let mut header_only = Cursor::new(frame[..HEADER_LEN].to_vec());
        assert_eq!(
            read_frame(&mut header_only, 31),
            Err(FrameError::Oversized { len: 32, max: 31 })
        );
    }

    #[test]
    fn corrupted_payload_is_caught_by_checksum() {
        let mut frame = encode_frame(b"payload under test");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&frame, 64),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn foreign_bytes_fail_the_magic_check() {
        assert_eq!(
            decode_frame(b"GET / HTTP/1.1\r\n", 64),
            Err(FrameError::BadMagic(*b"GE"))
        );
    }
}
