//! The benchmark's own blocking keep-alive HTTP/1.1 client. It is kept
//! here rather than borrowed from the server crate so that a change to
//! the program cannot change how the benchmark measures it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-request socket timeout; a request that takes longer fails.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// The exact bytes the client sends for one request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One received response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Value of `x-hisrect-shed`, when present.
    pub shed: Option<String>,
    /// Body text.
    pub body: String,
}

/// A persistent connection (opened on first use, reopened after errors).
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(8192),
        }
    }

    /// Opens the connection now, so the first timed request does not pay
    /// for the handshake.
    pub fn connect(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
        }
        Ok(())
    }

    /// Sends one request and reads its response. Any transport error
    /// drops the connection; the next call reconnects.
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<Reply> {
        let result = self.round_trip(raw);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// `POST path` with `body`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Reply> {
        self.send(&request_bytes("POST", path, body))
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        self.send(&request_bytes("GET", path, ""))
    }

    fn round_trip(&mut self, raw: &[u8]) -> std::io::Result<Reply> {
        self.connect()?;
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(raw)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(eof("connection closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut content_length = 0usize;
        let mut close = false;
        let mut shed = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-hisrect-shed") {
                shed = Some(value.to_string());
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(eof("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .map_err(|_| bad("response body is not UTF-8"))?;
        if close {
            self.stream = None;
        }
        Ok(Reply { status, shed, body })
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn eof(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, msg)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
