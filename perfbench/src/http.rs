//! A minimal HTTP/1.1 client for the daemon: one request per
//! connection, `Content-Length` bodies, read to EOF — the framing the
//! daemon speaks.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A response with the client-side timings of its exchange.
#[derive(Clone, Debug)]
pub struct Reply {
    /// When the exchange began.
    pub started: Instant,
    /// HTTP status code.
    pub status: u16,
    /// The body (headers stripped).
    pub body: Vec<u8>,
    /// Bytes received, headers included.
    pub bytes: usize,
    /// Connect plus writing the request.
    pub sent: Duration,
    /// Start to the first response byte.
    pub first_byte: Duration,
    /// Start to EOF: the client-observed latency.
    pub total: Duration,
}

/// Generous cap on one exchange; a daemon that stalls this long has
/// failed the operation.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Sends `POST path` with `body` to `addr` and reads the whole reply.
///
/// # Errors
///
/// Socket errors, timeouts and malformed replies.
pub fn post(addr: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let err = |e: std::io::Error| format!("POST {path}: {e}");
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    stream.set_nodelay(true).map_err(err)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(err)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(err)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(err)?;
    stream.write_all(body).map_err(err)?;
    let sent = t0.elapsed();
    let mut raw = vec![0u8; 64 * 1024];
    let n = stream.read(&mut raw).map_err(err)?;
    let first_byte = t0.elapsed();
    if n == 0 {
        return Err(format!("POST {path}: connection closed without a reply"));
    }
    raw.truncate(n);
    stream.read_to_end(&mut raw).map_err(err)?;
    let total = t0.elapsed();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("POST {path}: reply has no header end"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("POST {path}: bad status line"))?;
    let bytes = raw.len();
    raw.drain(..split + 4);
    Ok(Reply {
        started: t0,
        status,
        body: raw,
        bytes,
        sent,
        first_byte,
        total,
    })
}

/// The unsigned integer after `"key": ` in a pretty-printed JSON text,
/// at its first occurrence.
pub fn field_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = text.find(&needle)? + needle.len();
    let digits: &str = &text[at..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}
