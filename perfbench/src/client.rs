//! A minimal keep-alive HTTP/1.1 client for `POST /v1/query`.
//!
//! One [`Conn`] is one persistent TCP connection with one request in
//! flight. Responses are framed by `Content-Length` or chunked
//! transfer-encoding and streamed: only the first bytes of a body are
//! kept (they carry `epoch` and `count`), so a 100 MB answer costs the
//! client a read, not a copy.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Body bytes kept for parsing; the `/v1/query` envelope puts `epoch`
/// and `count` well inside this prefix.
const PREFIX_BYTES: usize = 512;

/// What a client saw for one request.
#[derive(Clone, Copy, Debug)]
pub struct Response {
    pub status: u16,
    /// `count` of a `200` body (`None` on any other status).
    pub count: Option<u64>,
    /// `epoch` of a `200` body.
    pub epoch: Option<u64>,
}

/// One keep-alive connection to the server under test.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    scratch: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            scratch: vec![0; 64 * 1024],
        }
    }

    /// Sends one `POST /v1/query` with `body` and reads the whole
    /// response. An I/O error drops the connection; the next call
    /// reconnects.
    pub fn query(&mut self, body: &str) -> io::Result<Response> {
        let result = self.round_trip(body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn round_trip(&mut self, body: &str) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(40)))?;
            self.stream = Some(BufReader::with_capacity(256 * 1024, stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let head = format!(
            "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        read_response(reader, &mut self.scratch)
    }
}

fn read_response(reader: &mut BufReader<TcpStream>, scratch: &mut [u8]) -> io::Result<Response> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut content_length: Option<u64> = None;
    let mut chunked = false;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.parse().ok(),
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }
    let mut prefix = Vec::with_capacity(PREFIX_BYTES);
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = u64::from_str_radix(line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
            if size == 0 {
                line.clear();
                reader.read_line(&mut line)?;
                break;
            }
            consume(reader, size, scratch, &mut prefix)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
    } else {
        let len = content_length.ok_or_else(|| bad("response without framing".into()))?;
        consume(reader, len, scratch, &mut prefix)?;
    }
    if close {
        return Err(bad("server closed the connection".into()));
    }
    let prefix = String::from_utf8_lossy(&prefix).into_owned();
    let (count, epoch) = if status == 200 {
        (field(&prefix, "\"count\": "), field(&prefix, "\"epoch\": "))
    } else {
        (None, None)
    };
    Ok(Response {
        status,
        count,
        epoch,
    })
}

/// Reads exactly `len` bytes, keeping the first [`PREFIX_BYTES`] of
/// the body in `prefix`.
fn consume(
    reader: &mut BufReader<TcpStream>,
    mut len: u64,
    scratch: &mut [u8],
    prefix: &mut Vec<u8>,
) -> io::Result<()> {
    while len > 0 {
        let want = len.min(scratch.len() as u64) as usize;
        let got = reader.read(&mut scratch[..want])?;
        if got == 0 {
            return Err(bad("connection closed inside body".into()));
        }
        let room = PREFIX_BYTES.saturating_sub(prefix.len()).min(got);
        prefix.extend_from_slice(&scratch[..room]);
        len -= got as u64;
    }
    Ok(())
}

/// The unsigned integer after `key` in `text`.
fn field(text: &str, key: &str) -> Option<u64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
