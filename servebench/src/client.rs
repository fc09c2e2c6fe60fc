//! The benchmark's own minimal HTTP/1.1 client.
//!
//! One client holds at most one connection. It reuses that connection while
//! the server keeps it open and reconnects after a `connection: close`
//! reply, so a server that starts honouring keep-alive is measured as such
//! without changing the benchmark. A request that fails on a reused
//! connection before any reply byte arrived (the server closed an idle
//! connection) is retried once on a fresh one.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-read and per-write socket timeout: a wedged server fails the request
/// instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A request prepared before timing: everything but the request id header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    head: Vec<u8>,
    body: Vec<u8>,
}

impl Template {
    /// Prepare `method path` with a JSON `body` (empty for none).
    pub fn new(method: &str, path: &str, body: &str) -> Self {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: servebench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n",
            body.len()
        );
        Self {
            head: head.into_bytes(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Write the full request carrying `x-bench-id: id` into `buf`.
    pub fn render(&self, id: u64, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&self.head);
        // Writing to a Vec cannot fail.
        let _ = write!(buf, "x-bench-id: {id}\r\n\r\n");
        buf.extend_from_slice(&self.body);
    }

    /// The JSON body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server left the connection open for the next request.
    pub keep_alive: bool,
}

/// A single-connection HTTP/1.1 client.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Point the client at another server, dropping any open connection.
    pub fn retarget(&mut self, addr: SocketAddr) {
        if addr != self.addr {
            self.addr = addr;
            self.conn = None;
        }
    }

    /// Send one complete request and read its reply.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        let reused = self.conn.is_some();
        match self.exchange(request) {
            Err(Failure::BeforeReply(_)) if reused => {
                self.conn = None;
                self.exchange(request).map_err(Failure::into_io)
            }
            other => other.map_err(Failure::into_io),
        }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connection was just opened"))
    }

    fn exchange(&mut self, request: &[u8]) -> Result<Reply, Failure> {
        let conn = self.connect().map_err(Failure::BeforeReply)?;
        conn.get_mut()
            .write_all(request)
            .map_err(Failure::BeforeReply)?;
        let result = read_reply(conn);
        match &result {
            Ok(reply) if reply.keep_alive => {}
            _ => self.conn = None,
        }
        result
    }
}

/// Where an exchange failed: before any reply byte (safe to retry on a
/// fresh connection) or part-way through the reply.
enum Failure {
    BeforeReply(io::Error),
    MidReply(io::Error),
}

impl Failure {
    fn into_io(self) -> io::Error {
        match self {
            Failure::BeforeReply(e) | Failure::MidReply(e) => e,
        }
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Read one response: status line, headers, then a `content-length` body
/// (or everything up to EOF when the server closes without one).
fn read_reply<R: BufRead>(reader: &mut R) -> Result<Reply, Failure> {
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(Failure::BeforeReply)?;
    if n == 0 {
        return Err(Failure::BeforeReply(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        )));
    }
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or_default();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Failure::MidReply(malformed("bad status line")))?;
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length: Option<usize> = None;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(Failure::MidReply)?;
        if n == 0 {
            return Err(Failure::MidReply(malformed("eof inside headers")));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(Failure::MidReply(malformed("header without colon")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| Failure::MidReply(malformed("bad content-length")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            body.resize(len, 0);
            reader.read_exact(&mut body).map_err(Failure::MidReply)?;
        }
        None => {
            keep_alive = false;
            reader.read_to_end(&mut body).map_err(Failure::MidReply)?;
        }
    }
    Ok(Reply {
        status,
        body,
        keep_alive,
    })
}
