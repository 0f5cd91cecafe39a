//! The dashboard side of `serve-poll`: a minimal HTTP/1.1 client and the
//! seeded route mix.

use crate::stats::splitmix64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The routes a dashboard polls, with their share of requests (percent).
pub const ROUTES: &[(&str, u64)] = &[
    ("summary", 40),
    ("runs", 20),
    ("trials_point", 20),
    ("tail", 10),
    ("manifest", 5),
    ("trials_all", 5),
];

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// Index into [`ROUTES`].
    pub route: usize,
    /// Request target: path plus percent-encoded query.
    pub target: String,
}

/// What the mix draws from: the mounted run's id, its grid labels, and
/// the journal's entry offsets (valid `/tail` cursors).
pub struct MixInputs<'a> {
    /// Run id (the store directory's name).
    pub run: &'a str,
    /// Grid point labels.
    pub labels: &'a [String],
    /// Byte offsets of journal entries.
    pub cursors: &'a [u64],
}

/// Percent-encodes everything but RFC 3986 unreserved characters.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Decodes `%XX` escapes (the inverse of [`percent_encode`]).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let hex = bytes
            .get(i + 1..i + 3)
            .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
        match (bytes[i], hex) {
            (b'%', Some(b)) => {
                out.push(b);
                i += 3;
            }
            (b, _) => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// `count` requests of the route mix, a pure function of `stream`.
pub fn route_mix(stream: u64, count: usize, inputs: &MixInputs) -> Vec<Target> {
    let mut state = stream;
    let total: u64 = ROUTES.iter().map(|(_, w)| w).sum();
    (0..count)
        .map(|_| {
            let mut pick = splitmix64(&mut state) % total;
            let route = ROUTES
                .iter()
                .position(|(_, w)| {
                    let hit = pick < *w;
                    pick = pick.saturating_sub(*w);
                    hit
                })
                .expect("pick is below the weight total");
            let draw = splitmix64(&mut state);
            let run = inputs.run;
            let target = match ROUTES[route].0 {
                "summary" => format!("/runs/{run}/summary"),
                "runs" => "/runs".to_string(),
                "trials_point" => {
                    let label = &inputs.labels[(draw % inputs.labels.len() as u64) as usize];
                    format!("/runs/{run}/trials?point={}", percent_encode(label))
                }
                "tail" => {
                    let cursor = inputs.cursors[(draw % inputs.cursors.len() as u64) as usize];
                    format!("/runs/{run}/tail?from={cursor}")
                }
                "manifest" => format!("/runs/{run}/manifest"),
                _ => format!("/runs/{run}/trials"),
            };
            Target { route, target }
        })
        .collect()
}

/// A parsed response.
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body, de-chunked.
    pub body: Vec<u8>,
}

/// One `GET` on a fresh connection (the server closes each one), read
/// to EOF.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_reply(raw: &[u8]) -> std::io::Result<Reply> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 head"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let body = &raw[split + 4..];
    let chunked = head
        .lines()
        .any(|l| l.eq_ignore_ascii_case("transfer-encoding: chunked"));
    let body = if chunked {
        dechunk(body)?
    } else {
        body.to_vec()
    };
    Ok(Reply { status, body })
}

fn dechunk(mut data: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let eol = data
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| bad("truncated chunk size"))?;
        let size = std::str::from_utf8(&data[..eol])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or_else(|| bad("bad chunk size"))?;
        data = &data[eol + 2..];
        if size == 0 {
            return Ok(out);
        }
        if data.len() < size + 2 {
            return Err(bad("truncated chunk"));
        }
        out.extend_from_slice(&data[..size]);
        data = &data[size + 2..];
    }
}
