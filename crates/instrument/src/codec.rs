//! Wire format for observer messages.
//!
//! JMPaX ships messages "via a socket to an external observer" (Section
//! 4.1). This module defines the one frame format on that socket: a
//! checksummed header around a fixed-width payload.
//!
//! ```text
//! frame   := magic:u8 version:u8 len:u32le crc:u32le payload
//! payload := thread:u32le kind:u8 body clock
//! body    := ε                         (kind 0, internal)
//!          | var:u32le                 (kind 1, read)
//!          | var:u32le value           (kind 2, write)
//! value   := 0:u8 v:i64le | 1:u8 b:u8 | 2:u8      (int / bool / unit)
//! clock   := n:u16le c_1:u32le … c_n:u32le
//! ```
//!
//! `magic` is [`MAGIC`], `version` is [`VERSION`], `len` is at most
//! [`MAX_FRAME_LEN`] and `crc` is the CRC-32 (IEEE) of the payload. The
//! format is hand-rolled (no serde data format crates are used by this
//! workspace).
//!
//! [`encode_frame_v2`] writes one frame. [`ResilientFrameDecoder`] is the
//! one decoder: it takes byte chunks as they arrive, hands out every
//! message whose frame is complete and intact, and counts the rest in a
//! [`ResilientDecode`]. A frame whose CRC or payload fails is lost in
//! place; bytes that are not a credible header are skipped up to the next
//! [`MAGIC`] boundary; a stream that ends on an unfinished frame is
//! flagged truncated. Decoding a whole buffer is one
//! [`ResilientFrameDecoder::push`] followed by
//! [`ResilientFrameDecoder::finish`].

use bytes::{BufMut, BytesMut};

use jmpax_core::{Event, EventKind, Message, ThreadId, Value, VarId, VectorClock};

/// First byte of every frame — the resynchronization point.
pub const MAGIC: u8 = 0xA5;

/// Wire-format version encoded in every frame header.
pub const VERSION: u8 = 2;

/// Upper bound on an encoded payload. The largest legitimate payload is a
/// write of an `i64` plus a full `u16::MAX`-component clock (≈ 256 KiB);
/// anything above this bound is a corrupt length prefix, rejected *before*
/// any buffer is reserved.
pub const MAX_FRAME_LEN: usize = 1 << 19;

/// Bytes in a frame header: magic + version + len + crc.
const HEADER_LEN: usize = 10;

/// Why a CRC-valid payload was rejected. The decoder counts each rejected
/// payload as one corrupt frame ([`ResilientDecode::frames_corrupt`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The payload ended inside a field.
    Truncated,
    /// An unknown kind or value tag was found.
    BadTag(u8),
    /// The clock's component for the message's own thread is 0. Algorithm
    /// A numbers each thread's messages from 1, so the message has no place
    /// in its thread's sequence.
    Unsequenced,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated payload"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Unsequenced => {
                write!(f, "own-thread clock component is 0 (no sequence number)")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), hand-rolled — no external dependency.
// ---------------------------------------------------------------------------

/// Slice-by-8 tables: `CRC32_TABLES[0]` is the classic byte table, and
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the CRC with eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data` — the checksum protecting every payload.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends one frame (magic + version + length + CRC-32 + payload) to
/// `out`. The payload is written in place after a header whose length
/// and CRC are filled in once it is complete.
pub fn encode_frame_v2(message: &Message, out: &mut BytesMut) {
    let start = out.len();
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
    out.put_u32_le(0);
    out.put_u32_le(0);
    encode_payload(message, out);
    let payload = &out[start + HEADER_LEN..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[start + 2..start + 6].copy_from_slice(&len);
    out[start + 6..start + HEADER_LEN].copy_from_slice(&crc);
}

fn encode_payload(message: &Message, payload: &mut BytesMut) {
    payload.put_u32_le(message.event.thread.0);
    match message.event.kind {
        EventKind::Internal => payload.put_u8(0),
        EventKind::Read { var } => {
            payload.put_u8(1);
            payload.put_u32_le(var.0);
        }
        EventKind::Write { var, value } => {
            payload.put_u8(2);
            payload.put_u32_le(var.0);
            match value {
                Value::Int(v) => {
                    payload.put_u8(0);
                    payload.put_i64_le(v);
                }
                Value::Bool(b) => {
                    payload.put_u8(1);
                    payload.put_u8(u8::from(b));
                }
                Value::Unit => payload.put_u8(2),
            }
        }
    }
    let clock = message.clock.as_slice();
    payload.put_u16_le(clock.len() as u16);
    for &c in clock {
        payload.put_u32_le(c);
    }
}

/// Fault accounting of one decoded stream, from
/// [`ResilientFrameDecoder::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilientDecode {
    /// Frames that passed magic, version, length, CRC and payload checks.
    pub frames_ok: u64,
    /// Frames whose header was credible but whose payload failed the CRC
    /// or the payload decode ([`CodecError`]) — each counts one message
    /// lost in place.
    pub frames_corrupt: u64,
    /// Garbage runs skipped before locking back onto a credible frame.
    pub frames_resynced: u64,
    /// Total bytes discarded: garbage plus an unfinished last frame.
    pub bytes_skipped: u64,
    /// The stream ended on bytes that did not complete a frame: a cut-off
    /// frame, or a garbage run that never reached another credible header
    /// (say, a last frame whose header was damaged).
    pub truncated: bool,
}

/// The `(len, crc)` of a credible header at `buf[at..]`: magic, version
/// and a bounded length must all hold. A header cut short is not credible.
fn credible_header(buf: &[u8], at: usize) -> Option<(usize, u32)> {
    let h: &[u8; HEADER_LEN] = buf.get(at..)?.first_chunk()?;
    if h[0] != MAGIC || h[1] != VERSION {
        return None;
    }
    let len = u32::from_le_bytes([h[2], h[3], h[4], h[5]]) as usize;
    (len <= MAX_FRAME_LEN).then(|| (len, u32::from_le_bytes([h[6], h[7], h[8], h[9]])))
}

/// The frame decoder for live transports and whole buffers alike: feed
/// byte chunks as they arrive with [`ResilientFrameDecoder::push`] and get
/// back every message completed by that chunk; call
/// [`ResilientFrameDecoder::finish`] at end-of-stream for the fault
/// accounting. Any chunking of a byte stream yields the same messages and
/// counters — the long-running `jmpax serve` daemon relies on this to
/// analyze tenants online without buffering their whole session.
#[derive(Clone, Debug, Default)]
pub struct ResilientFrameDecoder {
    /// Unconsumed tail: either empty or a credible prefix of the next
    /// frame, waiting for more bytes.
    buf: Vec<u8>,
    tally: ResilientDecode,
    /// True while inside a garbage run; the next complete credible frame
    /// closes it and counts one resync.
    scanning: bool,
}

impl ResilientFrameDecoder {
    /// A decoder at the start of a stream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one received chunk and returns every message whose frame is
    /// now complete and intact. Corrupt frames and garbage are counted and
    /// skipped; a partial frame at the end of the accumulated input is
    /// retained for the next push.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Message> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < self.buf.len() {
            if let Some((len, crc)) = credible_header(&self.buf, pos) {
                let body_at = pos + HEADER_LEN;
                let Some(payload) = self.buf.get(body_at..body_at + len) else {
                    break; // wait for the rest of the payload
                };
                if self.scanning {
                    self.scanning = false;
                    self.tally.frames_resynced += 1;
                }
                match decode_frame_payload(payload, crc) {
                    Some(m) => {
                        out.push(m);
                        self.tally.frames_ok += 1;
                    }
                    // The length field was credible, so step over the whole
                    // claimed frame — under isolated bit flips this keeps
                    // the loss accounting at exactly one frame.
                    None => self.tally.frames_corrupt += 1,
                }
                pos = body_at + len;
            } else if self.buf.len() - pos < HEADER_LEN && self.buf[pos] == MAGIC {
                break; // may become a credible header once more bytes arrive
            } else {
                self.scanning = true;
                self.tally.bytes_skipped += 1;
                pos += 1;
            }
        }
        self.buf.drain(..pos);
        out
    }

    /// Bytes retained while waiting for a frame to complete — bounded by
    /// one header plus [`MAX_FRAME_LEN`].
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Ends the stream and returns the fault accounting. A retained partial
    /// frame, or a garbage run still open, makes the stream `truncated`;
    /// the retained bytes count as skipped.
    #[must_use]
    pub fn finish(self) -> ResilientDecode {
        let residue = self.buf.len();
        ResilientDecode {
            bytes_skipped: self.tally.bytes_skipped + residue as u64,
            truncated: residue > 0 || self.scanning,
            ..self.tally
        }
    }
}

/// The message a credible frame carries, or `None` when its payload fails
/// the CRC or does not decode.
fn decode_frame_payload(payload: &[u8], crc: u32) -> Option<Message> {
    if crc32(payload) != crc {
        return None;
    }
    decode_payload(payload).ok()
}

/// Reads fixed-width little-endian fields off the front of a payload.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(CodecError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        self.take::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.take().map(u32::from_le_bytes)
    }
}

fn decode_payload(payload: &[u8]) -> Result<Message, CodecError> {
    let mut f = Fields(payload);
    let thread = ThreadId(f.u32()?);
    let kind = match f.u8()? {
        0 => EventKind::Internal,
        1 => EventKind::Read {
            var: VarId(f.u32()?),
        },
        2 => {
            let var = VarId(f.u32()?);
            let value = match f.u8()? {
                0 => Value::Int(i64::from_le_bytes(f.take()?)),
                1 => Value::Bool(f.u8()? != 0),
                2 => Value::Unit,
                t => return Err(CodecError::BadTag(t)),
            };
            EventKind::Write { var, value }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    let n = usize::from(u16::from_le_bytes(f.take()?));
    let clock = f.0.get(..n * 4).ok_or(CodecError::Truncated)?;
    // Collected straight into the clock: inline up to `INLINE_CAP`
    // components, one exactly sized buffer beyond.
    let clock: VectorClock = clock
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let message = Message {
        event: Event { thread, kind },
        clock,
    };
    if message.seq() == 0 {
        return Err(CodecError::Unsequenced);
    }
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An independent whole-buffer scanner, the test oracle: over any
    /// chunking, [`ResilientFrameDecoder`] must hand out the same messages
    /// and counters as this one pass.
    fn decode_frames_resilient(buf: &[u8]) -> (Vec<Message>, ResilientDecode) {
        let mut messages = Vec::new();
        let mut out = ResilientDecode::default();
        let mut pos = 0usize;
        // True while inside a garbage run; the first credible frame after
        // a run closes it and counts one resync.
        let mut scanning = false;
        while pos < buf.len() {
            match credible_header(buf, pos) {
                Some((len, _)) if buf.len() - (pos + HEADER_LEN) < len => {
                    // Credible header but the stream ends inside the
                    // payload: a cut-off tail.
                    out.truncated = true;
                    out.bytes_skipped += (buf.len() - pos) as u64;
                    return (messages, out);
                }
                Some((len, crc)) => {
                    if scanning {
                        scanning = false;
                        out.frames_resynced += 1;
                    }
                    let body_at = pos + HEADER_LEN;
                    match decode_frame_payload(&buf[body_at..body_at + len], crc) {
                        Some(m) => {
                            messages.push(m);
                            out.frames_ok += 1;
                        }
                        None => out.frames_corrupt += 1,
                    }
                    pos = body_at + len;
                }
                None => {
                    scanning = true;
                    out.bytes_skipped += 1;
                    pos += 1;
                }
            }
        }
        // A garbage run that reaches the end never resynced: whatever it
        // held did not complete a frame.
        out.truncated = scanning;
        (messages, out)
    }

    /// One push plus finish: the whole-buffer use of the decoder.
    fn decode_all(buf: &[u8]) -> (Vec<Message>, ResilientDecode) {
        let mut dec = ResilientFrameDecoder::new();
        let messages = dec.push(buf);
        (messages, dec.finish())
    }

    fn sample_messages() -> Vec<Message> {
        (0..12)
            .map(|i| Message {
                event: Event::write(ThreadId(i % 3), VarId(i), i64::from(i) - 5),
                // At least `thread + 1` components, so every message has a
                // nonzero sequence number.
                clock: VectorClock::from_components(vec![i + 1; (i % 3 + 1 + i % 2) as usize]),
            })
            .collect()
    }

    fn encode_all(msgs: &[Message]) -> BytesMut {
        let mut buf = BytesMut::new();
        for m in msgs {
            encode_frame_v2(m, &mut buf);
        }
        buf
    }

    /// A frame with a valid header and CRC around an arbitrary payload.
    fn frame_around(payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![MAGIC, VERSION];
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    fn unhex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frames_match_golden_bytes() {
        // header: magic version len crc | payload: thread kind body | clock
        let wide: Vec<u32> = (1..=16).collect();
        let cases = [
            (
                Event::write(ThreadId(1), VarId(7), -42i64),
                vec![1, 2],
                "a5 02 1c000000 2ad0f45f | 01000000 02 07000000 00 d6ffffffffffffff \
                 | 0200 01000000 02000000",
            ),
            (
                Event::write(ThreadId(0), VarId(3), true),
                vec![3],
                "a5 02 11000000 67e1196d | 00000000 02 03000000 01 01 | 0100 03000000",
            ),
            (
                Event::write(ThreadId(2), VarId(0), Value::Unit),
                vec![0, 0, 1],
                "a5 02 18000000 8c836fdc | 02000000 02 00000000 02 \
                 | 0300 00000000 00000000 01000000",
            ),
            (
                Event::read(ThreadId(0), VarId(5)),
                vec![2, 1],
                "a5 02 13000000 cfcc3c19 | 00000000 01 05000000 | 0200 02000000 01000000",
            ),
            (
                Event::internal(ThreadId(1)),
                vec![0, 4],
                "a5 02 0f000000 659fbfe5 | 01000000 00 | 0200 00000000 04000000",
            ),
            (
                Event::write(ThreadId(15), VarId(1), 1_000_000i64),
                wide,
                "a5 02 54000000 04e1a4eb | 0f000000 02 01000000 00 40420f0000000000 \
                 | 1000 01000000 02000000 03000000 04000000 05000000 06000000 07000000 \
                 08000000 09000000 0a000000 0b000000 0c000000 0d000000 0e000000 0f000000 \
                 10000000",
            ),
        ];
        for (event, clock, golden) in cases {
            let message = Message {
                event,
                clock: VectorClock::from_components(clock),
            };
            let mut out = BytesMut::new();
            encode_frame_v2(&message, &mut out);
            assert_eq!(&out[..], &unhex(golden)[..], "{message}");
        }
    }

    #[test]
    fn every_kind_and_value_round_trips() {
        let msgs = vec![
            Message {
                event: Event::write(ThreadId(3), VarId(7), -42i64),
                clock: VectorClock::from_components(vec![1, 0, 5, 1]),
            },
            Message {
                event: Event::write(ThreadId(0), VarId(0), true),
                clock: VectorClock::from_components(vec![1]),
            },
            Message {
                event: Event::write(ThreadId(0), VarId(1), Value::Unit),
                clock: VectorClock::from_components(vec![9]),
            },
            Message {
                event: Event::read(ThreadId(1), VarId(2)),
                clock: VectorClock::from_components(vec![0, 1]),
            },
            Message {
                event: Event::internal(ThreadId(3)),
                clock: VectorClock::from_components(vec![0, 0, 0, 4]),
            },
        ];
        let (decoded, tally) = decode_all(&encode_all(&msgs));
        assert_eq!(decoded, msgs);
        assert_eq!(
            tally,
            ResilientDecode {
                frames_ok: msgs.len() as u64,
                ..ResilientDecode::default()
            }
        );
        assert_eq!(decode_all(&[]), (vec![], ResilientDecode::default()));
    }

    #[test]
    fn malformed_payloads_count_as_corrupt() {
        let good = encode_all(&sample_messages()[..1]);
        let payload = &good[HEADER_LEN..];
        let bad_kind = {
            let mut p = payload.to_vec();
            p[4] = 9;
            p
        };
        let cut_clock = &payload[..payload.len() - 1];
        for bad in [&bad_kind[..], cut_clock, &payload[..3]] {
            let mut stream = frame_around(bad);
            stream.extend_from_slice(&good);
            let (decoded, tally) = decode_all(&stream);
            assert_eq!(decoded.len(), 1, "the next frame still decodes");
            assert_eq!((tally.frames_ok, tally.frames_corrupt), (1, 1));
            assert!(!tally.truncated);
        }
        assert_eq!(decode_payload(&bad_kind), Err(CodecError::BadTag(9)));
        assert_eq!(decode_payload(cut_clock), Err(CodecError::Truncated));
    }

    #[test]
    fn a_message_without_a_sequence_number_is_corrupt() {
        // CRC-valid, well-formed, but thread 1's own clock component is 0
        // (or missing): it cannot be placed in thread 1's sequence.
        for clock in [vec![1], vec![1, 0]] {
            let unplaceable = Message {
                event: Event::write(ThreadId(1), VarId(0), -1i64),
                clock: VectorClock::from_components(clock),
            };
            let frame = encode_all(&[unplaceable]);
            let (decoded, tally) = decode_all(&frame);
            assert!(decoded.is_empty());
            assert_eq!((tally.frames_ok, tally.frames_corrupt), (0, 1));
            let payload = &frame[HEADER_LEN..];
            assert_eq!(decode_payload(payload), Err(CodecError::Unsequenced));
        }
    }

    #[test]
    fn steps_over_corrupt_frame() {
        let msgs = sample_messages();
        let mut buf = encode_all(&msgs);
        // Flip one payload bit in the second frame; its length field stays
        // intact, so exactly one frame is lost and no resync is needed.
        let first_len = HEADER_LEN + u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
        buf[first_len + HEADER_LEN + 1] ^= 0x10;
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_corrupt, 1);
        assert_eq!(r.frames_resynced, 0);
        assert_eq!(r.frames_ok, msgs.len() as u64 - 1);
        assert_eq!(decoded.len(), msgs.len() - 1);
        assert!(!r.truncated);
    }

    #[test]
    fn resyncs_over_garbage() {
        let msgs = sample_messages();
        let mut buf = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut buf);
        buf.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02]);
        encode_frame_v2(&msgs[1], &mut buf);
        buf.extend_from_slice(&[0x42; 11]);
        encode_frame_v2(&msgs[2], &mut buf);
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 3);
        assert_eq!(r.frames_resynced, 2);
        assert_eq!(r.bytes_skipped, 18);
        assert_eq!(decoded, msgs[..3].to_vec());
    }

    #[test]
    fn reports_truncated_tail() {
        let msgs = sample_messages();
        let buf = encode_all(&msgs[..2]);
        let first_len = HEADER_LEN + u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
        for cut in 1..HEADER_LEN {
            // Cut inside the second frame's header.
            let (_, r) = decode_all(&buf[..first_len + cut]);
            assert!(r.truncated, "cut {cut} must look truncated");
            assert_eq!(r.frames_ok, 1);
            assert_eq!(r.frames_corrupt, 0);
        }
        // Cut inside the second payload.
        let (_, r) = decode_all(&buf[..buf.len() - 3]);
        assert!(r.truncated);
        assert_eq!(r.frames_ok, 1);
    }

    #[test]
    fn pure_garbage_is_skipped_and_flagged() {
        let (decoded, r) = decode_all(&[0x13, 0x37, 0xAB]);
        assert!(decoded.is_empty());
        assert_eq!(r.bytes_skipped, 3);
        assert_eq!(
            r.frames_resynced, 0,
            "a run that never recovers is not a resync"
        );
        assert!(r.truncated, "the stream ended without completing a frame");
    }

    #[test]
    fn rejects_absurd_length_as_garbage() {
        // A magic + version header whose length claims 4 GiB must be
        // treated as garbage (skipped), not allocated.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(0);
        buf.extend_from_slice(&[0u8; 16]);
        let (_, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 0);
        assert_eq!(r.bytes_skipped, buf.len() as u64);
    }

    #[test]
    fn steps_past_decoy_magic_in_garbage() {
        // Garbage between two frames that itself contains MAGIC bytes with
        // a wrong version — the scanner must not lock onto them.
        let msgs = sample_messages();
        let mut buf = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut buf);
        buf.extend_from_slice(&[
            MAGIC, 0x07, MAGIC, 0xFF, 0x00, MAGIC, 0x01, 0x02, 0x03, 0x04,
        ]);
        encode_frame_v2(&msgs[1], &mut buf);
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 2);
        assert_eq!(r.frames_resynced, 1);
        assert_eq!(r.bytes_skipped, 10);
        assert_eq!(decoded, msgs[..2].to_vec());
        assert!(!r.truncated);
    }

    #[test]
    fn a_garbage_tail_is_truncation() {
        // A last frame whose magic byte was hit reads as garbage up to the
        // end of the stream: that frame is lost, so the tail must not pass
        // for a clean end.
        let msgs = sample_messages();
        let mut buf = encode_all(&msgs[..2]);
        let first_len = HEADER_LEN + u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
        buf[first_len] ^= 0x01;
        let (decoded, r) = decode_all(&buf);
        assert_eq!(decoded, msgs[..1].to_vec());
        assert_eq!(r.bytes_skipped, (buf.len() - first_len) as u64);
        assert!(r.truncated);

        // A run ending on a MAGIC byte is the same garbage run.
        let mut buf = encode_all(&msgs[..1]);
        buf.extend_from_slice(&[0x99, 0x98, MAGIC, VERSION]);
        let (_, r) = decode_all(&buf);
        assert_eq!((r.frames_ok, r.bytes_skipped, r.frames_resynced), (1, 4, 0));
        assert!(r.truncated);
    }

    #[test]
    fn garbage_prefix_before_first_frame() {
        let msgs = sample_messages();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[0xFE, 0xFD, 0xFC]);
        encode_frame_v2(&msgs[0], &mut buf);
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 1);
        assert_eq!(r.frames_resynced, 1);
        assert_eq!(r.bytes_skipped, 3);
        assert_eq!(decoded, msgs[..1].to_vec());
    }

    /// Feeds `stream` through [`ResilientFrameDecoder`] in `chunks` and
    /// asserts the retained tail stays bounded and the messages and every
    /// counter match the whole-buffer oracle.
    fn assert_chunked_matches_oracle(stream: &[u8], chunks: impl IntoIterator<Item = usize>) {
        let oracle = decode_frames_resilient(stream);
        let mut dec = ResilientFrameDecoder::new();
        let mut msgs = Vec::new();
        let mut rest = stream;
        for size in chunks {
            let (part, tail) = rest.split_at(size.min(rest.len()));
            msgs.extend(dec.push(part));
            rest = tail;
            assert!(
                dec.buffered() <= HEADER_LEN + MAX_FRAME_LEN,
                "retained tail stays bounded"
            );
        }
        msgs.extend(dec.push(rest));
        assert_eq!((msgs, dec.finish()), oracle);
    }

    /// [`assert_chunked_matches_oracle`] at fixed granularities, including
    /// byte-at-a-time and one push.
    fn assert_incremental_parity(stream: &[u8]) {
        for chunk in [1usize, 2, 3, 5, 8, 13, stream.len().max(1)] {
            assert_chunked_matches_oracle(stream, std::iter::repeat_n(chunk, stream.len()));
        }
    }

    #[test]
    fn incremental_matches_whole_buffer_on_clean_stream() {
        assert_incremental_parity(&encode_all(&sample_messages()));
    }

    #[test]
    fn incremental_matches_whole_buffer_on_damaged_streams() {
        let msgs = sample_messages();
        // Interleaved garbage with decoy MAGIC bytes.
        let mut interleaved = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut interleaved);
        interleaved.extend_from_slice(&[MAGIC, 0x00, 0xAB, MAGIC, 0xCD]);
        encode_frame_v2(&msgs[1], &mut interleaved);
        interleaved.extend_from_slice(&[0x42; 7]);
        encode_frame_v2(&msgs[2], &mut interleaved);
        assert_incremental_parity(&interleaved);

        // A frame with a flipped payload bit (corrupt-in-place).
        let mut corrupt = encode_all(&msgs[..4]);
        corrupt[HEADER_LEN + 3] ^= 0x08;
        assert_incremental_parity(&corrupt);

        // Truncated mid-payload and mid-header.
        let clean = encode_all(&msgs[..3]);
        assert_incremental_parity(&clean[..clean.len() - 2]);
        let first_len =
            HEADER_LEN + u32::from_le_bytes([clean[2], clean[3], clean[4], clean[5]]) as usize;
        for cut in 1..HEADER_LEN {
            assert_incremental_parity(&clean[..first_len + cut]);
        }

        // Garbage-only, and garbage ending on a decoy MAGIC byte.
        assert_incremental_parity(&[0x10, 0x20, 0x30, 0x40]);
        assert_incremental_parity(&[0x10, 0x20, MAGIC]);
        assert_incremental_parity(&[MAGIC, 0xFF]);
    }

    #[test]
    fn incremental_emits_messages_as_frames_complete() {
        let msgs = sample_messages();
        let frame = encode_all(&msgs[..1]);
        let mut dec = ResilientFrameDecoder::new();
        // Everything but the last byte: nothing decodes, bytes retained.
        assert!(dec.push(&frame[..frame.len() - 1]).is_empty());
        assert_eq!(dec.buffered(), frame.len() - 1);
        // The final byte completes the frame.
        let out = dec.push(&frame[frame.len() - 1..]);
        assert_eq!(out, msgs[..1].to_vec());
        assert_eq!(dec.buffered(), 0);
        let tally = dec.finish();
        assert_eq!(tally.frames_ok, 1);
        assert_eq!(tally.bytes_skipped, 0);
        assert!(!tally.truncated);
    }

    /// Deterministic fuzzing of [`ResilientFrameDecoder`]: Algorithm A's
    /// frames mixed with garbage, bit flips and truncation, fed in random
    /// chunkings, with fixed seeds.
    mod fuzz {
        use super::*;
        use jmpax_core::gen::{random_execution, RandomExecutionConfig};
        use jmpax_core::Relevance;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, RngCore, SeedableRng};

        /// One stretch of a fuzzed stream: a (possibly damaged) frame or a
        /// garbage run.
        struct Piece {
            end: usize,
            damaged: bool,
        }

        struct Case {
            bytes: Vec<u8>,
            /// Whether any byte that survived the cut was damaged, or the
            /// cut fell inside a piece.
            damaged: bool,
            /// Undamaged frames wholly before the cut.
            intact: Vec<Message>,
        }

        fn case(seed: u64) -> Case {
            let mut rng = StdRng::seed_from_u64(seed);
            let messages = random_execution(RandomExecutionConfig {
                threads: rng.gen_range(1..=4),
                vars: 3,
                events: rng.gen_range(0..60),
                write_ratio: 0.7,
                internal_ratio: 0.1,
                seed: rng.next_u64(),
            })
            .instrument(Relevance::AllWrites);
            let mut bytes = Vec::new();
            let mut pieces = Vec::new();
            for m in &messages {
                if rng.gen_bool(0.08) {
                    // Garbage rich in decoy header bytes.
                    for _ in 0..rng.gen_range(1..24) {
                        let b = [MAGIC, VERSION, 0, rng.next_u64() as u8];
                        bytes.push(*b.choose(&mut rng).unwrap());
                    }
                    pieces.push((
                        Piece {
                            end: bytes.len(),
                            damaged: true,
                        },
                        None,
                    ));
                }
                let start = bytes.len();
                let mut frame = BytesMut::new();
                encode_frame_v2(m, &mut frame);
                bytes.extend_from_slice(&frame);
                let flip = rng.gen_bool(0.08);
                if flip {
                    let bit = rng.gen_range(0..frame.len() * 8);
                    bytes[start + bit / 8] ^= 1 << (bit % 8);
                }
                pieces.push((
                    Piece {
                        end: bytes.len(),
                        damaged: flip,
                    },
                    Some(m),
                ));
            }
            let cut = if rng.gen_bool(0.2) {
                rng.gen_range(0..=bytes.len())
            } else {
                bytes.len()
            };
            bytes.truncate(cut);
            let mut damaged = false;
            let mut intact = Vec::new();
            let mut start = 0;
            for (piece, message) in &pieces {
                if start >= cut {
                    break;
                }
                damaged |= piece.damaged || piece.end > cut;
                if let (false, Some(m)) = (damaged, message) {
                    intact.push((*m).clone());
                }
                start = piece.end;
            }
            Case {
                bytes,
                damaged,
                intact,
            }
        }

        fn random_chunks(rng: &mut StdRng, len: usize) -> Vec<usize> {
            let max = rng.gen_range(1..=len.max(1));
            (0..len).map(|_| rng.gen_range(1..=max)).collect()
        }

        fn run(seeds: std::ops::Range<u64>) {
            let mut damaged_cases = 0usize;
            let cases = seeds.end - seeds.start;
            for seed in seeds {
                let c = case(seed);
                damaged_cases += usize::from(c.damaged);
                let (messages, tally) = decode_frames_resilient(&c.bytes);
                assert_chunked_matches_oracle(&c.bytes, [c.bytes.len()]);
                let mut rng = StdRng::seed_from_u64(!seed);
                for _ in 0..3 {
                    assert_chunked_matches_oracle(&c.bytes, random_chunks(&mut rng, c.bytes.len()));
                }
                let faulted = tally.frames_corrupt + tally.frames_resynced > 0 || tally.truncated;
                assert_eq!(faulted, c.damaged, "seed {seed}: {tally:?}");
                if !c.damaged {
                    assert_eq!(messages, c.intact, "seed {seed}");
                }
            }
            // Both sides of the property must actually be exercised.
            assert!(
                damaged_cases > 0 && (damaged_cases as u64) < cases,
                "{damaged_cases}"
            );
        }

        #[test]
        fn decoder_fuzz_1k() {
            run(0..1_000);
        }

        #[test]
        #[ignore = "10^5 cases; run with --ignored"]
        fn decoder_fuzz_100k() {
            run(0..100_000);
        }
    }
}
