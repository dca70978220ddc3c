//! Wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 le body_len][body_len bytes]
//! ```
//!
//! Request body: `[u8 opcode][payload]`
//!
//! | opcode | payload          | meaning                                  |
//! |--------|------------------|------------------------------------------|
//! | 0      | —                | ping (health check)                      |
//! | 1–6    | —                | run Query N of the server's workload     |
//! | 7      | `u32 le page`    | raw `out_neighbors(page)` (forward graph)|
//! | 8      | —                | retired: answers error (status 2)        |
//!
//! Response body: `[u8 status][payload]`
//!
//! | status | meaning                         | payload                     |
//! |--------|---------------------------------|-----------------------------|
//! | 0      | ok                              | opcode-specific (below)     |
//! | 2      | error                           | utf-8 message               |
//! | 3      | degraded (partial answer)       | opcode-specific (below)     |
//! | 4      | overloaded (admission refused)  | empty                       |
//!
//! Status bytes 2 and 3 deliberately mirror the `wgr` process exit codes
//! (2 = unusable, 3 = degraded answers) so a client can forward them.
//!
//! Query payload: `[u64 le fingerprint][u32 le nrows][nrows × (u64 le key,
//! u64 le score_bits)]` — the fingerprint is [`fingerprint_rows`] over the
//! rows, the same FNV-1a `crates/query/tests/golden_queries.rs` pins, so
//! a client can both verify the frame and cross-check those constants.
//! Ping payload: empty. `out_neighbors` payload: `[u32 le n][n × u32 le]`.
//! Opcode 8 once returned a telemetry snapshot; it is retired, and any
//! opcode not in the table gets `Error` with the connection left open.

use std::io::{Read, Write};

/// Ping opcode.
pub const OP_PING: u8 = 0;
/// Raw forward-graph `out_neighbors` opcode.
pub const OP_OUT_NEIGHBORS: u8 = 7;
/// Largest accepted *request* body (requests are tiny; anything larger is
/// a protocol violation, not a big query).
pub const MAX_REQUEST: u32 = 4096;
/// Largest accepted *response* body (bounded by result rows / adjacency
/// size; 16 MiB is orders of magnitude above any 20k-corpus answer).
pub const MAX_RESPONSE: u32 = 16 << 20;

/// Response status byte. `Error`/`Degraded` use the same numbers as the
/// `wgr` exit-code contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Full answer.
    Ok,
    /// Request failed; payload is a message.
    Error,
    /// Partial answer: the representation has quarantined supernodes.
    Degraded,
    /// Admission queue full; retry later.
    Overloaded,
}

impl Status {
    /// Wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Error => 2,
            Status::Degraded => 3,
            Status::Overloaded => 4,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(Status::Ok),
            2 => Some(Status::Error),
            3 => Some(Status::Degraded),
            4 => Some(Status::Overloaded),
            _ => None,
        }
    }

    /// The process exit code this status maps to under the wg-fault
    /// contract (0 clean, 2 unusable, 3 degraded).
    pub fn exit_code(self) -> i32 {
        match self {
            Status::Ok => 0,
            Status::Error | Status::Overloaded => 2,
            Status::Degraded => 3,
        }
    }
}

/// Writes one frame: length prefix plus `body`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| std::io::Error::other("frame body exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame body. Returns `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed the connection between requests).
#[allow(clippy::disallowed_methods)] // A socket, not storage: no fault shim.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None), // clean EOF before a new frame
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_len {
        return Err(std::io::Error::other(format!(
            "frame of {len} bytes exceeds the {max_len}-byte limit"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Encodes a query response payload: fingerprint, row count, rows.
pub fn encode_rows(fingerprint: u64, rows: &[(u64, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + rows.len() * 16);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for &(k, score) in rows {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&score.to_bits().to_le_bytes());
    }
    out
}

/// Decodes a query response payload produced by [`encode_rows`].
pub fn decode_rows(payload: &[u8]) -> Option<(u64, Vec<(u64, f64)>)> {
    let fp = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let n = u32::from_le_bytes(payload.get(8..12)?.try_into().ok()?) as usize;
    let body = payload.get(12..)?;
    if body.len() != n * 16 {
        return None;
    }
    let mut rows = Vec::with_capacity(n);
    for chunk in body.chunks_exact(16) {
        let k = u64::from_le_bytes(chunk[..8].try_into().ok()?);
        let bits = u64::from_le_bytes(chunk[8..].try_into().ok()?);
        rows.push((k, f64::from_bits(bits)));
    }
    Some((fp, rows))
}

/// Encodes an adjacency-list response payload.
pub fn encode_pages(pages: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + pages.len() * 4);
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for &p in pages {
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// Decodes an adjacency-list response payload.
pub fn decode_pages(payload: &[u8]) -> Option<Vec<u32>> {
    let n = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let body = payload.get(4..)?;
    if body.len() != n * 4 {
        return None;
    }
    Some(
        body.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let rows = vec![(3u64, 0.25f64), (9, -1.5), (u64::MAX, f64::MIN_POSITIVE)];
        let enc = encode_rows(0xdead_beef, &rows);
        let (fp, back) = decode_rows(&enc).unwrap();
        assert_eq!(fp, 0xdead_beef);
        assert_eq!(back, rows);
    }

    #[test]
    fn pages_round_trip() {
        let pages = vec![0u32, 7, u32::MAX];
        assert_eq!(decode_pages(&encode_pages(&pages)).unwrap(), pages);
        assert_eq!(decode_pages(&encode_pages(&[])).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let enc = encode_rows(1, &[(1, 1.0)]);
        assert!(decode_rows(&enc[..enc.len() - 1]).is_none());
        assert!(decode_rows(&[]).is_none());
        let enc = encode_pages(&[1, 2]);
        assert!(decode_pages(&enc[..enc.len() - 1]).is_none());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        assert!(read_frame(&mut &buf[..], 10).is_err());
    }

    #[test]
    fn status_bytes_match_exit_contract() {
        for s in [
            Status::Ok,
            Status::Error,
            Status::Degraded,
            Status::Overloaded,
        ] {
            assert_eq!(Status::from_u8(s.as_u8()), Some(s));
        }
        assert_eq!(Status::Ok.exit_code(), 0);
        assert_eq!(Status::Error.exit_code(), 2);
        assert_eq!(Status::Degraded.exit_code(), 3);
        assert_eq!(Status::from_u8(1), None);
    }
}
