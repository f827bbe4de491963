//! The load generator's side of the query wire protocol.
//!
//! A [`Conn`] is one Unix-socket connection with read and write
//! deadlines, so a stalled server shows up as a failed request instead of
//! a hung benchmark. Responses are kept as raw bytes: the digest folds the
//! exact bytes the server sent, and only the first byte is inspected to
//! tell an error reply from an answer.

use dynaddr_query::proto::{self, Request, Response};
use dynaddr_query::workload::splitmix64;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Longest a single request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

impl Conn {
    /// Connects with the request deadlines set.
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends an encoded request and returns the raw response body.
    pub fn call(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        proto::write_frame(&mut self.writer, body)?;
        self.writer.flush()?;
        proto::read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })
    }

    /// Sends a typed request and decodes the typed response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        let bytes = self.call(&proto::to_bytes(req))?;
        proto::from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))
    }
}

/// Polls `path` until the server behind it answers a `Ping`, or `timeout`
/// passes. Returns the ready connection.
pub fn wait_ready(path: &Path, timeout: Duration) -> Result<Conn, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut conn) = Conn::connect(path) {
            match conn.request(&Request::Ping) {
                Ok(Response::Pong) => return Ok(conn),
                Ok(other) => return Err(format!("Ping answered with {other:?}")),
                Err(_) => {}
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("{} not ready within {timeout:?}", path.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The tag byte every encoded `Response::Error` starts with.
pub fn error_tag() -> u8 {
    proto::to_bytes(&Response::Error(String::new()))[0]
}

/// FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One request's contribution to the order-independent response digest:
/// XOR of these over any set of requests is the same in any order.
pub fn fold(index: u64, reply: &[u8]) -> u64 {
    splitmix64(fnv1a64(reply) ^ index)
}
