//! Wire format: the protocol's messages as bytes.
//!
//! Definition 1 makes the negotiation traffic "a single number" per message;
//! this module pins that down to actual octets. Rationals are encoded as two
//! zigzag LEB128 varints (numerator, denominator), so the values that occur
//! in practice — small fractions like `2/3` or `1/12` — cost 3 bytes
//! including the message tag. A whole `BW-First` round on the paper's
//! example tree is under 60 bytes of payload.
//!
//! [`write_frame`]/[`read_frame`] add a one-byte-tag + varint-length framing
//! suitable for any ordered byte stream; [`bridge`] pumps a channel pair
//! over such a stream, letting the session's links run across real sockets
//! (see the TCP test in `tests/`).

use crate::messages::{ControlMsg, DownMsg, UpMsg};
use bwfirst_platform::Weight;
use bwfirst_rational::Rat;
use std::fmt;
use std::io::{Read, Write};

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended inside a value.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A varint exceeded 128 bits, a denominator was invalid, or a value is
    /// out of range for its message (negative proposal, non-positive weight
    /// or link time).
    BadNumber,
    /// Underlying I/O failed (message text preserved).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated wire message"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadNumber => f.write_str("malformed number on the wire"),
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_uvarint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u128, WireError> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        if shift >= 128 {
            return Err(WireError::BadNumber);
        }
        v |= u128::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

fn put_rat(out: &mut Vec<u8>, r: Rat) {
    put_uvarint(out, zigzag(r.numer()));
    put_uvarint(out, zigzag(r.denom()));
}

fn get_rat(buf: &[u8], pos: &mut usize) -> Result<Rat, WireError> {
    let num = unzigzag(get_uvarint(buf, pos)?);
    let den = unzigzag(get_uvarint(buf, pos)?);
    Rat::checked_new(num, den).map_err(|_| WireError::BadNumber)
}

/// Reads a node id, refusing values that do not fit a `u32`.
fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, WireError> {
    u32::try_from(get_uvarint(buf, pos)?).map_err(|_| WireError::BadNumber)
}

/// Reads a rational that must pass `valid`. The sign checks keep values a
/// `NodeMachine` would panic on (`c ≤ 0`, `w ≤ 0`, `λ < 0`) off the wire.
fn get_rat_if(buf: &[u8], pos: &mut usize, valid: fn(Rat) -> bool) -> Result<Rat, WireError> {
    let r = get_rat(buf, pos)?;
    if valid(r) {
        Ok(r)
    } else {
        Err(WireError::BadNumber)
    }
}

const TAG_PROPOSAL: u8 = 0x01;
const TAG_ACK: u8 = 0x02;
const TAG_TASK: u8 = 0x03;
const TAG_SET_WEIGHT: u8 = 0x07;
const TAG_SET_WEIGHT_INF: u8 = 0x08;
const TAG_SET_LINK: u8 = 0x09;

/// Encodes a parent→child message.
#[must_use]
pub fn encode_down(msg: &DownMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    match msg {
        DownMsg::Proposal(beta) => {
            out.push(TAG_PROPOSAL);
            put_rat(&mut out, *beta);
        }
        DownMsg::Task(payload) => {
            out.push(TAG_TASK);
            put_uvarint(&mut out, payload.len() as u128);
            out.extend_from_slice(payload);
        }
        DownMsg::Control { target, change } => match change {
            ControlMsg::SetWeight(Weight::Time(w)) => {
                out.push(TAG_SET_WEIGHT);
                put_uvarint(&mut out, u128::from(*target));
                put_rat(&mut out, *w);
            }
            ControlMsg::SetWeight(Weight::Infinite) => {
                out.push(TAG_SET_WEIGHT_INF);
                put_uvarint(&mut out, u128::from(*target));
            }
            ControlMsg::SetLink { child, c } => {
                out.push(TAG_SET_LINK);
                put_uvarint(&mut out, u128::from(*target));
                put_uvarint(&mut out, u128::from(*child));
                put_rat(&mut out, *c);
            }
        },
    }
    out
}

/// Decodes a parent→child message.
pub fn decode_down(buf: &[u8]) -> Result<DownMsg, WireError> {
    let mut pos = 1;
    let &tag = buf.first().ok_or(WireError::Truncated)?;
    let msg = match tag {
        TAG_PROPOSAL => DownMsg::Proposal(get_rat_if(buf, &mut pos, |r| !r.is_negative())?),
        TAG_TASK => {
            let len = get_uvarint(buf, &mut pos)? as usize;
            let end = pos.checked_add(len).ok_or(WireError::BadNumber)?;
            let payload = buf.get(pos..end).ok_or(WireError::Truncated)?;
            pos = end;
            DownMsg::Task(payload.into())
        }
        TAG_SET_WEIGHT => {
            let target = get_u32(buf, &mut pos)?;
            let w = get_rat_if(buf, &mut pos, Rat::is_positive)?;
            DownMsg::Control { target, change: ControlMsg::SetWeight(Weight::Time(w)) }
        }
        TAG_SET_WEIGHT_INF => {
            let target = get_u32(buf, &mut pos)?;
            DownMsg::Control { target, change: ControlMsg::SetWeight(Weight::Infinite) }
        }
        TAG_SET_LINK => {
            let target = get_u32(buf, &mut pos)?;
            let child = get_u32(buf, &mut pos)?;
            let c = get_rat_if(buf, &mut pos, Rat::is_positive)?;
            DownMsg::Control { target, change: ControlMsg::SetLink { child, c } }
        }
        other => return Err(WireError::BadTag(other)),
    };
    if pos != buf.len() {
        return Err(WireError::Truncated); // trailing bytes
    }
    Ok(msg)
}

/// Encodes a child→parent message.
#[must_use]
pub fn encode_up(msg: &UpMsg) -> Vec<u8> {
    let UpMsg::Ack(theta) = msg;
    let mut out = vec![TAG_ACK];
    put_rat(&mut out, *theta);
    out
}

/// Decodes a child→parent message.
pub fn decode_up(buf: &[u8]) -> Result<UpMsg, WireError> {
    let mut pos = 1;
    match buf.first() {
        Some(&TAG_ACK) => {
            let theta = get_rat(buf, &mut pos)?;
            if pos != buf.len() {
                return Err(WireError::Truncated);
            }
            Ok(UpMsg::Ack(theta))
        }
        Some(&other) => Err(WireError::BadTag(other)),
        None => Err(WireError::Truncated),
    }
}

/// Writes one length-prefixed frame to any byte stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let mut header = Vec::with_capacity(5);
    put_uvarint(&mut header, payload.len() as u128);
    w.write_all(&header).map_err(|e| WireError::Io(e.to_string()))?;
    w.write_all(payload).map_err(|e| WireError::Io(e.to_string()))?;
    Ok(())
}

/// Reads one length-prefixed frame from any byte stream. The body is read as
/// it arrives, so a forged length allocates nothing up front.
///
/// # Errors
/// [`WireError::Io`] if the stream fails or ends before the length prefix,
/// [`WireError::Truncated`] if it ends inside the body.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    // Read the length varint byte by byte.
    let mut len: u128 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte).map_err(|e| WireError::Io(e.to_string()))?;
        if shift >= 64 {
            return Err(WireError::BadNumber);
        }
        len |= u128::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    let len = u64::try_from(len).map_err(|_| WireError::BadNumber)?;
    let mut payload = Vec::new();
    r.take(len).read_to_end(&mut payload).map_err(|e| WireError::Io(e.to_string()))?;
    if (payload.len() as u64) < len {
        return Err(WireError::Truncated);
    }
    Ok(payload)
}

/// Total encoded bytes of one negotiation round: every visited node's
/// proposal in and ack out, the root's pair on the virtual parent's edge.
#[must_use]
pub fn negotiation_wire_bytes(solution: &bwfirst_core::BwFirstSolution) -> usize {
    (solution.visits.iter())
        .map(|v| {
            encode_down(&DownMsg::Proposal(v.lambda)).len() + encode_up(&UpMsg::Ack(v.theta)).len()
        })
        .sum()
}

/// Channel-over-stream bridging: forwards every message arriving on `rx`
/// into `stream` as a frame. Returns when `rx` closes.
pub mod bridge {
    use super::{encode_down, read_frame, write_frame, WireError};
    use crate::messages::{DownMsg, UpMsg};
    use std::io::{Read, Write};
    use std::sync::mpsc::{Receiver, Sender};

    /// The four endpoints of one bidirectional parent->child link:
    /// `(down_tx, down_rx, up_tx, up_rx)`.
    pub type LinkEndpoints = (Sender<DownMsg>, Receiver<DownMsg>, Sender<UpMsg>, Receiver<UpMsg>);

    /// Pumps `DownMsg`s from a channel onto a byte stream. Returns when the
    /// channel closes (the session drops its senders).
    pub fn pump_down_out<W: Write>(
        rx: &Receiver<DownMsg>,
        stream: &mut W,
    ) -> Result<(), WireError> {
        for msg in rx.iter() {
            write_frame(stream, &encode_down(&msg))?;
        }
        Ok(())
    }

    /// Pumps `DownMsg` frames from a byte stream into a channel. Returns on
    /// stream close or when the receiving side is gone.
    pub fn pump_down_in<R: Read>(stream: &mut R, tx: &Sender<DownMsg>) -> Result<(), WireError> {
        loop {
            let frame = match read_frame(stream) {
                Ok(f) => f,
                Err(WireError::Io(_)) => return Ok(()), // peer closed
                Err(e) => return Err(e),
            };
            let msg = super::decode_down(&frame)?;
            if tx.send(msg).is_err() {
                return Ok(());
            }
        }
    }

    /// Pumps `UpMsg`s from a channel onto a byte stream. Returns when the
    /// channel closes (the session drops its senders).
    pub fn pump_up_out<W: Write>(rx: &Receiver<UpMsg>, stream: &mut W) -> Result<(), WireError> {
        for msg in rx.iter() {
            write_frame(stream, &super::encode_up(&msg))?;
        }
        Ok(())
    }

    /// Pumps `UpMsg` frames from a byte stream into a channel. Returns on
    /// stream close or when the receiving side is gone.
    pub fn pump_up_in<R: Read>(stream: &mut R, tx: &Sender<UpMsg>) -> Result<(), WireError> {
        loop {
            let frame = match read_frame(stream) {
                Ok(f) => f,
                Err(WireError::Io(_)) => return Ok(()), // peer closed
                Err(e) => return Err(e),
            };
            let msg = super::decode_up(&frame)?;
            if tx.send(msg).is_err() {
                return Ok(());
            }
        }
    }

    /// A bidirectional TCP link on localhost: returns `(down_tx, down_rx,
    /// up_tx, up_rx)` endpoints where everything written to `down_tx`
    /// re-materializes on `down_rx` after crossing a real socket (and
    /// symmetrically for the up direction on a second socket). The four
    /// pump threads run detached and end once the endpoints are dropped.
    pub fn tcp_link() -> Result<LinkEndpoints, WireError> {
        use std::net::{TcpListener, TcpStream};
        use std::sync::mpsc::channel;
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| WireError::Io(e.to_string()))?;
        let addr = listener.local_addr().map_err(|e| WireError::Io(e.to_string()))?;

        let (down_tx, down_mid_rx) = channel::<DownMsg>();
        let (down_mid_tx, down_rx) = channel::<DownMsg>();
        let (up_tx, up_mid_rx) = channel::<UpMsg>();
        let (up_mid_tx, up_rx) = channel::<UpMsg>();

        // One TCP connection per direction keeps the pumps single-purpose.
        let down_out = TcpStream::connect(addr).map_err(|e| WireError::Io(e.to_string()))?;
        let (down_in, _) = listener.accept().map_err(|e| WireError::Io(e.to_string()))?;
        let up_out = TcpStream::connect(addr).map_err(|e| WireError::Io(e.to_string()))?;
        let (up_in, _) = listener.accept().map_err(|e| WireError::Io(e.to_string()))?;

        std::thread::spawn(move || {
            let mut s = down_out;
            let _ = pump_down_out(&down_mid_rx, &mut s);
        });
        std::thread::spawn(move || {
            let mut s = down_in;
            let _ = pump_down_in(&mut s, &down_mid_tx);
        });
        std::thread::spawn(move || {
            let mut s = up_out;
            let _ = pump_up_out(&up_mid_rx, &mut s);
        });
        std::thread::spawn(move || {
            let mut s = up_in;
            let _ = pump_up_in(&mut s, &up_mid_tx);
        });
        Ok((down_tx, down_rx, up_tx, up_rx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    fn roundtrip_down(msg: DownMsg) -> DownMsg {
        decode_down(&encode_down(&msg)).expect("decodes")
    }

    #[test]
    fn rationals_roundtrip_compactly() -> Result<(), WireError> {
        for (n, d, max_len) in
            [(2i128, 3i128, 3usize), (1, 12, 3), (10, 9, 3), (-7, 2, 3), (0, 1, 3)]
        {
            // Acks carry any sign on the wire; the machine range-checks θ.
            let bytes = encode_up(&UpMsg::Ack(rat(n, d)));
            assert!(bytes.len() <= max_len, "{n}/{d} took {} bytes", bytes.len());
            let UpMsg::Ack(r) = decode_up(&bytes)?;
            assert_eq!(r, rat(n, d));
            if n >= 0 {
                match roundtrip_down(DownMsg::Proposal(rat(n, d))) {
                    DownMsg::Proposal(r) => assert_eq!(r, rat(n, d)),
                    other @ (DownMsg::Task(_) | DownMsg::Control { .. }) => {
                        panic!("unexpected {other:?}")
                    }
                }
            }
        }
        Ok(())
    }

    fn control(change: ControlMsg) -> DownMsg {
        DownMsg::Control { target: 3, change }
    }

    #[test]
    fn rejects_a_negative_proposal() {
        let bytes = encode_down(&DownMsg::Proposal(rat(-1, 3)));
        assert_eq!(decode_down(&bytes).err(), Some(WireError::BadNumber));
    }

    #[test]
    fn rejects_a_non_positive_weight() {
        for w in [Rat::ZERO, rat(-2, 1)] {
            let bytes = encode_down(&control(ControlMsg::SetWeight(Weight::Time(w))));
            assert_eq!(decode_down(&bytes).err(), Some(WireError::BadNumber), "w = {w}");
        }
    }

    #[test]
    fn rejects_a_non_positive_link_time() {
        for c in [Rat::ZERO, rat(-1, 2)] {
            let bytes = encode_down(&control(ControlMsg::SetLink { child: 4, c }));
            assert_eq!(decode_down(&bytes).err(), Some(WireError::BadNumber), "c = {c}");
        }
    }

    #[test]
    fn all_message_kinds_roundtrip() -> Result<(), WireError> {
        use bwfirst_platform::Weight;
        let msgs = vec![
            DownMsg::Proposal(rat(355, 113)),
            DownMsg::Task(b"payload bytes".as_slice().into()),
            DownMsg::Control { target: 7, change: ControlMsg::SetWeight(Weight::Time(rat(5, 2))) },
            DownMsg::Control { target: 9, change: ControlMsg::SetWeight(Weight::Infinite) },
            DownMsg::Control { target: 3, change: ControlMsg::SetLink { child: 4, c: rat(12, 1) } },
            // Boundary values the range checks must still accept.
            DownMsg::Proposal(Rat::ZERO),
            control(ControlMsg::SetWeight(Weight::Time(rat(1, 1_000_000)))),
            control(ControlMsg::SetLink { child: 4, c: rat(1, 1_000_000) }),
        ];
        for msg in msgs {
            let enc = encode_down(&msg);
            let dec = decode_down(&enc)?;
            assert_eq!(format!("{msg:?}"), format!("{dec:?}"));
        }
        let up = UpMsg::Ack(rat(-2, 3));
        let UpMsg::Ack(theta) = decode_up(&encode_up(&up))?;
        assert_eq!(theta, rat(-2, 3));
        Ok(())
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(decode_down(&[]), Err(WireError::Truncated)));
        assert!(matches!(decode_down(&[0xFF]), Err(WireError::BadTag(0xFF))));
        assert!(matches!(decode_down(&[TAG_PROPOSAL]), Err(WireError::Truncated)));
        // Zero denominator.
        let mut bad = vec![TAG_PROPOSAL];
        put_uvarint(&mut bad, zigzag(1));
        put_uvarint(&mut bad, zigzag(0));
        assert!(matches!(decode_down(&bad), Err(WireError::BadNumber)));
        // Trailing garbage.
        let mut trailing = encode_down(&DownMsg::Proposal(Rat::ONE));
        trailing.push(0);
        assert!(matches!(decode_down(&trailing), Err(WireError::Truncated)));
        assert!(matches!(decode_up(&[]), Err(WireError::Truncated)));
        assert!(matches!(decode_up(&[TAG_PROPOSAL, 0, 0]), Err(WireError::BadTag(TAG_PROPOSAL))));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() -> Result<(), WireError> {
        let mut stream = Vec::new();
        for msg in [
            DownMsg::Proposal(rat(10, 9)),
            DownMsg::Proposal(Rat::ZERO),
            DownMsg::Task(b"x".as_slice().into()),
        ] {
            write_frame(&mut stream, &encode_down(&msg))?;
        }
        let mut cursor = std::io::Cursor::new(stream);
        let a = decode_down(&read_frame(&mut cursor)?)?;
        assert!(matches!(a, DownMsg::Proposal(r) if r == rat(10, 9)));
        assert!(
            matches!(decode_down(&read_frame(&mut cursor)?)?, DownMsg::Proposal(r) if r.is_zero())
        );
        assert!(matches!(decode_down(&read_frame(&mut cursor)?)?, DownMsg::Task(_)));
        // Stream exhausted.
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
        Ok(())
    }

    #[test]
    fn a_forged_frame_length_is_truncated_not_allocated() {
        let mut stream = Vec::new();
        put_uvarint(&mut stream, 1u128 << 60);
        stream.extend_from_slice(b"short body");
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).err(), Some(WireError::Truncated));
    }

    #[test]
    fn control_ids_beyond_u32_are_refused() {
        let mut bad = vec![TAG_SET_WEIGHT_INF];
        put_uvarint(&mut bad, (1u128 << 32) + 3);
        assert_eq!(decode_down(&bad).err(), Some(WireError::BadNumber));
        let mut bad = vec![TAG_SET_LINK];
        put_uvarint(&mut bad, 3);
        put_uvarint(&mut bad, 1u128 << 32);
        put_rat(&mut bad, Rat::ONE);
        assert_eq!(decode_down(&bad).err(), Some(WireError::BadNumber));
    }

    #[test]
    fn example_negotiation_fits_in_tens_of_bytes() {
        let p = bwfirst_platform::examples::example_tree();
        let sol = bwfirst_core::bw_first(&p);
        let bytes = negotiation_wire_bytes(&sol);
        // 16 messages, each a tag + two tiny varints.
        assert!(bytes <= 60, "negotiation took {bytes} bytes");
        assert!(bytes >= 16 * 3 - 8);
    }

    #[test]
    fn zigzag_involution() {
        for v in [0i128, 1, -1, 63, -64, i64::MAX as i128, i64::MIN as i128, i128::MAX / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
