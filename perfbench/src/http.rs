//! A minimal HTTP/1.1 client: one request per connection, as the server
//! closes every connection after answering. Kept in the benchmark so that a
//! change to the server cannot change how load is offered.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    /// The server's `x-trace-id`, which names its trace of this request.
    pub trace_id: Option<u64>,
    pub body: String,
}

/// Client-side timing of one request, in nanoseconds from its start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub connected_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

/// A sent request whose reply is still being read.
pub struct Pending {
    stream: TcpStream,
    start: Instant,
    timing: Timing,
    raw: Vec<u8>,
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Connects and sends one request.
pub fn send(addr: SocketAddr, method: &str, target: &str, body: &str) -> std::io::Result<Pending> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected_ns = ns_since(start);
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all([head.as_bytes(), body.as_bytes()].concat().as_slice())?;
    Ok(Pending {
        stream,
        start,
        timing: Timing {
            connected_ns,
            sent_ns: ns_since(start),
            done_ns: 0,
        },
        raw: Vec::with_capacity(1024),
    })
}

/// Sends one request and waits for the whole reply.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<(Reply, Timing)> {
    let mut p = send(addr, method, target, body)?;
    p.stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    p.stream.read_to_end(&mut p.raw)?;
    p.finish()
}

impl Pending {
    /// Switches to non-blocking reads, for [`Pending::read_ready`].
    pub fn nonblocking(self) -> std::io::Result<Pending> {
        self.stream.set_nonblocking(true)?;
        Ok(self)
    }

    /// Reads whatever has arrived; the reply once the server has closed
    /// the connection, `None` while more is to come.
    pub fn read_ready(&mut self) -> Option<std::io::Result<(Reply, Timing)>> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Some(self.finish()),
                Ok(n) => self.raw.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Some(Err(e)),
            }
        }
    }

    fn finish(&mut self) -> std::io::Result<(Reply, Timing)> {
        self.timing.done_ns = ns_since(self.start);
        Ok((parse_reply(&self.raw)?, self.timing))
    }
}

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
}

/// Waits up to `timeout` until one of `pending` has something to read;
/// returns the indices of those that have.
pub fn wait_readable(pending: &[Pending], timeout: Duration) -> std::io::Result<Vec<usize>> {
    const POLLIN: i16 = 1;
    let mut fds: Vec<PollFd> = pending
        .iter()
        .map(|p| PollFd {
            fd: p.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = TimeSpec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout records whose descriptors stay open for the call
    // (the streams are borrowed from `pending`); `ts` outlives the call;
    // a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(Vec::new())
        } else {
            Err(e)
        };
    }
    Ok((0..fds.len()).filter(|&i| fds[i].revents != 0).collect())
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

fn parse_reply(raw: &[u8]) -> std::io::Result<Reply> {
    let text = std::str::from_utf8(raw).map_err(|_| bad("reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut trace_id = None;
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "x-trace-id" => trace_id = u64::from_str_radix(value.trim(), 16).ok(),
            "content-length" => length = value.trim().parse::<usize>().ok(),
            _ => {}
        }
    }
    if length.is_some_and(|n| n != body.len()) {
        return Err(bad("body shorter than content-length"));
    }
    Ok(Reply {
        status,
        trace_id,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_trace_id_and_body() {
        let r = parse_reply(
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nX-Trace-Id: 00000000000000ff\r\n\r\n{}",
        )
        .unwrap();
        assert_eq!(
            (r.status, r.trace_id, r.body.as_str()),
            (200, Some(255), "{}")
        );
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n{}").is_err());
        assert!(parse_reply(b"garbage").is_err());
    }

    #[test]
    fn waits_for_replies_without_blocking() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut head = [0u8; 512];
            let _ = s.read(&mut head).unwrap();
            s.write_all(b"HTTP/1.1 204 No Content\r\ncontent-length: 0\r\n\r\n")
                .unwrap();
        });
        let mut p = vec![send(addr, "GET", "/", "").unwrap().nonblocking().unwrap()];
        let mut reply = None;
        while reply.is_none() {
            for i in wait_readable(&p, Duration::from_secs(5)).unwrap() {
                reply = p[i].read_ready();
            }
        }
        server.join().unwrap();
        let (r, t) = reply.unwrap().unwrap();
        assert_eq!(r.status, 204);
        assert!(t.connected_ns <= t.sent_ns && t.sent_ns <= t.done_ns);
    }
}
