//! Blocking client for the wg-serve protocol, used by `wgr bench
//! --serve`, the CI smoke step, and the tests.

use crate::proto::{self, Status};
use std::io;
use std::net::TcpStream;
use wg_graph::PageId;

/// One decoded query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Response status (`Ok` or `Degraded` carry rows).
    pub status: Status,
    /// Server-computed FNV-1a fingerprint of the rows.
    pub fingerprint: u64,
    /// Result rows.
    pub rows: Vec<(u64, f64)>,
}

/// A connected client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

fn proto_err(what: &str) -> io::Error {
    io::Error::other(format!("protocol violation: {what}"))
}

impl Client {
    /// Connects to a server on `127.0.0.1:port`.
    pub fn connect(port: u16) -> io::Result<Self> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request frame and reads the response `(status, payload)`.
    fn round_trip(&mut self, body: &[u8]) -> io::Result<(Status, Vec<u8>)> {
        proto::write_frame(&mut self.stream, body)?;
        let resp = proto::read_frame(&mut self.stream, proto::MAX_RESPONSE)?
            .ok_or_else(|| proto_err("server closed before responding"))?;
        let (&status_byte, payload) = resp
            .split_first()
            .ok_or_else(|| proto_err("empty response frame"))?;
        let status =
            Status::from_u8(status_byte).ok_or_else(|| proto_err("unknown status byte"))?;
        Ok((status, payload.to_vec()))
    }

    /// Health check.
    pub fn ping(&mut self) -> io::Result<Status> {
        Ok(self.round_trip(&[proto::OP_PING])?.0)
    }

    /// Runs workload query `n` (1–6).
    pub fn query(&mut self, n: u8) -> io::Result<QueryReply> {
        let (status, payload) = self.round_trip(&[n])?;
        match status {
            Status::Ok | Status::Degraded => {
                let (fingerprint, rows) =
                    proto::decode_rows(&payload).ok_or_else(|| proto_err("bad query payload"))?;
                Ok(QueryReply {
                    status,
                    fingerprint,
                    rows,
                })
            }
            Status::Error => Err(io::Error::other(format!(
                "server error: {}",
                String::from_utf8_lossy(&payload)
            ))),
            Status::Overloaded => Err(io::Error::other("server overloaded")),
        }
    }

    /// Raw forward navigation: the sorted adjacency list of `p`.
    pub fn out_neighbors(&mut self, p: PageId) -> io::Result<(Status, Vec<PageId>)> {
        let mut body = vec![proto::OP_OUT_NEIGHBORS];
        body.extend_from_slice(&p.to_le_bytes());
        let (status, payload) = self.round_trip(&body)?;
        match status {
            Status::Ok | Status::Degraded => {
                let pages =
                    proto::decode_pages(&payload).ok_or_else(|| proto_err("bad nav payload"))?;
                Ok((status, pages))
            }
            Status::Error => Err(io::Error::other(format!(
                "server error: {}",
                String::from_utf8_lossy(&payload)
            ))),
            Status::Overloaded => Err(io::Error::other("server overloaded")),
        }
    }

    /// Reads a bare status frame — what an admission-refused connection
    /// receives instead of an answer.
    pub fn read_refusal(&mut self) -> io::Result<Option<Status>> {
        match proto::read_frame(&mut self.stream, proto::MAX_RESPONSE)? {
            None => Ok(None),
            Some(frame) => Ok(frame.first().copied().and_then(Status::from_u8)),
        }
    }
}
