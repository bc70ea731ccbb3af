//! Transport: one listener/stream pair that is a Unix-domain socket when
//! the address looks like a path (contains `/`) and TCP otherwise.
//!
//! The protocol on top is pure line-delimited JSON, so nothing above
//! this module cares which transport carried the bytes.

use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// A connected byte stream (client or accepted server side).
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `addr`: a filesystem path (any `/`) dials a Unix
    /// socket, anything else dials TCP (`host:port`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        if addr.contains('/') {
            #[cfg(unix)]
            return Ok(Self::Unix(UnixStream::connect(addr)?));
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix socket paths need a unix platform; use host:port",
            ));
        }
        Self::tcp(TcpStream::connect(addr)?)
    }

    /// A TCP connection with Nagle's algorithm off. The protocol is short
    /// request/reply lines: left on, every hello/command/reply exchange
    /// waits ~40 ms for the peer's delayed ACK.
    fn tcp(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self::Tcp(stream))
    }

    /// An independently readable/writable handle to the same connection.
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            Self::Tcp(s) => Self::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Self::Unix(s) => Self::Unix(s.try_clone()?),
        })
    }

    /// Sets the read deadline (`None` blocks forever). A blocked read
    /// past the deadline fails with `WouldBlock`/`TimedOut` — the
    /// hostile-client eviction path. Socket options are per connection,
    /// so the deadline also covers handles from
    /// [`try_clone`](Self::try_clone).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Self::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Sets the write deadline (`None` blocks forever). A client that
    /// stops reading eventually fills the socket buffer; the next write
    /// then fails at the deadline instead of wedging the sender.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            Self::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

/// Reads one `\n`-terminated line into `buf`, refusing lines longer
/// than `max` bytes (newline included) with `InvalidData` — the bound
/// that keeps a hostile client from growing a line buffer without
/// limit. Returns the bytes read, `0` at EOF, like `read_line`.
///
/// On overflow the connection is no longer line-synchronized (the rest
/// of the oversized line is unread), so the caller must drop it.
///
/// # Errors
/// `InvalidData` on an oversized line, or any underlying read error.
pub(crate) fn read_line_bounded(
    reader: &mut impl BufRead,
    buf: &mut String,
    max: usize,
) -> io::Result<usize> {
    let n = (&mut *reader).take(max as u64 + 1).read_line(buf)?;
    if n > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds {max} bytes"),
        ));
    }
    Ok(n)
}

/// Reads and drops the rest of a line: up to and including the next
/// `\n`, or to EOF, a read error (the deadline included) or `max` bytes,
/// whichever comes first. For a connection about to be dropped over an
/// oversized line: closing a socket with unread input sends a reset,
/// which can overtake the error line just written to the client.
pub(crate) fn discard_line(reader: &mut impl BufRead, max: usize) {
    let mut left = max;
    while left > 0 {
        let Ok(buf) = reader.fill_buf() else { return };
        let window = &buf[..buf.len().min(left)];
        if window.is_empty() {
            return;
        }
        let newline = window.iter().position(|&b| b == b'\n');
        let used = newline.map_or(window.len(), |i| i + 1);
        reader.consume(used);
        left -= used;
        if newline.is_some() {
            return;
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Self::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener on either transport.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr` with the same path-vs-`host:port` rule as
    /// [`Stream::connect`]. A stale Unix socket file (a SIGKILL'd
    /// daemon's leftover) is removed before binding.
    pub fn bind(addr: &str) -> io::Result<Self> {
        if addr.contains('/') {
            #[cfg(unix)]
            {
                // A previous daemon killed without cleanup leaves the
                // inode behind; binding over it is the recovery path.
                let _ = std::fs::remove_file(addr);
                return Ok(Self::Unix(UnixListener::bind(addr)?));
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix socket paths need a unix platform; use host:port",
            ));
        }
        Ok(Self::Tcp(TcpListener::bind(addr)?))
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Self::Tcp(l) => Stream::tcp(l.accept()?.0)?,
            #[cfg(unix)]
            Self::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }

    /// The bound address, printable (for "listening on ..." and for
    /// tests that bind port 0).
    pub fn local_addr(&self) -> String {
        match self {
            Self::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into()),
            #[cfg(unix)]
            Self::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "?".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discard_line_stops_at_the_newline_the_bound_or_eof() {
        let rest = |input: &[u8], max| {
            // A 4-byte buffer, so lines span several `fill_buf`s.
            let mut reader = io::BufReader::with_capacity(4, input);
            discard_line(&mut reader, max);
            let mut rest = String::new();
            reader.read_to_string(&mut rest).unwrap();
            rest
        };
        assert_eq!(rest(b"xxxxxxxxx\nnext\n", 64), "next\n");
        assert_eq!(rest(b"xxxxxxxxx\nnext\n", 6), "xxx\nnext\n");
        assert_eq!(rest(b"no newline", 64), "");
        assert_eq!(rest(b"", 64), "");
    }
}
