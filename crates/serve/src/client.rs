//! The service client: connect, refuse mismatched daemons, submit jobs,
//! stream results.

use crate::net::Stream;
use crate::proto::{campaign_to_wire, VersionInfo};
use crate::wire::Value;
use dramctrl_campaign::Campaign;
use dramctrl_kernel::backoff::Backoff;
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::time::Duration;

/// First retry delay of [`Client::watch_with_reconnect`].
pub const RECONNECT_BACKOFF_START: Duration = Duration::from_millis(100);
/// Retry-delay ceiling of [`Client::watch_with_reconnect`].
pub const RECONNECT_BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Consecutive event-free attempts before `watch_with_reconnect` gives
/// up (roughly 13 s of backoff at the defaults). The counter resets
/// whenever a connection delivers an event, so a daemon that keeps
/// crashing mid-stream still gets a fresh budget each time it comes
/// back.
pub const RECONNECT_MAX_SILENT_RETRIES: u32 = 10;

/// Transport failures worth retrying: the daemon is down, restarting,
/// or closed the stream mid-flight. `NotFound` covers a unix socket
/// path removed by a daemon that has not rebound yet. Protocol errors
/// (`InvalidData`) and daemon-side rejections (`Other`, e.g. "no such
/// job") are final, and so are I/O deadline expiries
/// (`WouldBlock`/`TimedOut`): a peer that accepts connections but
/// never makes progress should surface to the caller, not be retried
/// forever.
pub fn reconnectable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotFound
    )
}

/// One line from the daemon, without its terminator. A stream that ends
/// instead is `UnexpectedEof` — a transport failure ([`reconnectable`]),
/// not a malformed event — wherever it ends: mid-watch, or before the
/// hello of a daemon killed with the connection still in its accept
/// queue.
fn read_event(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_owned())
}

/// A connected, version-checked client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    daemon: VersionInfo,
}

/// Final tallies of a watched job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchSummary {
    /// Units that completed.
    pub ok: usize,
    /// Units that failed every attempt.
    pub failed: usize,
}

impl Client {
    /// Connects to `addr` (a socket path or `host:port`), reads the
    /// daemon's `hello`, and refuses any daemon whose protocol or
    /// snapshot format differs from this build's.
    ///
    /// # Errors
    /// Connection errors, a malformed hello, or a version mismatch.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let conn = Stream::connect(addr)?;
        let writer = conn.try_clone()?;
        let mut reader = BufReader::new(conn);
        let hello = read_event(&mut reader)?;
        let daemon = VersionInfo::from_hello(hello.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        VersionInfo::current()
            .check_compatible(&daemon)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Self {
            reader,
            writer,
            daemon,
        })
    }

    /// The daemon's announced versions.
    #[must_use]
    pub fn daemon(&self) -> &VersionInfo {
        &self.daemon
    }

    /// Arms (or clears) a read/write deadline on the underlying socket.
    /// Deadlines are socket options, so they cover both the reader and
    /// the cloned writer: a peer that accepts the connection but then
    /// hangs surfaces as `WouldBlock`/`TimedOut` — deliberately *not* a
    /// reconnectable error — instead of blocking forever.
    ///
    /// # Errors
    /// Socket-option errors from the OS.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> io::Result<String> {
        read_event(&mut self.reader)
    }

    /// Submits a campaign; returns `(job id, total units)` on
    /// acceptance. `epochs > 0` asks for observed units binning epoch
    /// series at that tick interval.
    ///
    /// # Errors
    /// I/O errors, or rejection (admission control / bad campaign) as
    /// [`io::ErrorKind::Other`] carrying the daemon's reason.
    pub fn submit(
        &mut self,
        tenant: &str,
        epochs: u64,
        campaign: &Campaign,
    ) -> io::Result<(String, usize)> {
        self.submit_sharded(tenant, epochs, campaign, None)
    }

    /// Like [`Client::submit`], but restricts the job to the
    /// residue-class shard `(index, count)`: the daemon runs only job
    /// indices `i` with `i % count == index`, and the returned total is
    /// the shard size. `None` submits the full campaign.
    ///
    /// # Errors
    /// As [`Client::submit`].
    pub fn submit_sharded(
        &mut self,
        tenant: &str,
        epochs: u64,
        campaign: &Campaign,
        shard: Option<(u32, u32)>,
    ) -> io::Result<(String, usize)> {
        let mut fields = vec![
            ("cmd".to_owned(), Value::Str("submit".to_owned())),
            ("tenant".to_owned(), Value::Str(tenant.to_owned())),
            ("epochs".to_owned(), Value::num(epochs)),
            ("campaign".to_owned(), campaign_to_wire(campaign)),
        ];
        if let Some((idx, n)) = shard {
            fields.push(("shard_index".to_owned(), Value::num(u64::from(idx))));
            fields.push(("shard_count".to_owned(), Value::num(u64::from(n))));
        }
        let cmd = Value::Obj(fields);
        self.send(&cmd.encode())?;
        let reply = self.recv()?;
        let v = Value::parse(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {e}")))?;
        match v.get("event").and_then(Value::as_str) {
            Some("accepted") => {
                let id = v
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "accepted without an id")
                    })?
                    .to_owned();
                let total = v.get("total").and_then(Value::as_u64).unwrap_or(0) as usize;
                Ok((id, total))
            }
            Some("rejected") => {
                let reason = v
                    .get("reason")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified");
                Err(io::Error::other(format!("submit rejected: {reason}")))
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply: {reply}"),
            )),
        }
    }

    /// Watches a job to completion. Every event line — committed history
    /// first, then live events, in commit order with no gap or duplicate
    /// — is handed to `on_event` as `(parsed, raw line)`; returns the
    /// final tallies from the `done` event.
    ///
    /// # Errors
    /// I/O errors, a daemon-side `error` event, or a stream ending
    /// before `done`.
    pub fn watch(
        &mut self,
        id: &str,
        mut on_event: impl FnMut(&Value, &str),
    ) -> io::Result<WatchSummary> {
        let cmd = Value::Obj(vec![
            ("cmd".to_owned(), Value::Str("watch".to_owned())),
            ("id".to_owned(), Value::Str(id.to_owned())),
        ]);
        self.send(&cmd.encode())?;
        loop {
            let line = self.recv()?;
            let v = Value::parse(&line).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad event: {e}"))
            })?;
            match v.get("event").and_then(Value::as_str) {
                Some("done") => {
                    let summary = WatchSummary {
                        ok: v.get("ok").and_then(Value::as_u64).unwrap_or(0) as usize,
                        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0) as usize,
                    };
                    on_event(&v, &line);
                    return Ok(summary);
                }
                Some("error") => {
                    let reason = v
                        .get("reason")
                        .and_then(Value::as_str)
                        .unwrap_or("unspecified");
                    return Err(io::Error::other(format!("watch failed: {reason}")));
                }
                _ => on_event(&v, &line),
            }
        }
    }

    /// Like [`Client::watch`], but owns the connection and survives
    /// daemon restarts: on a retryable transport error (connection
    /// refused/reset/aborted, broken pipe, a vanished socket file, or
    /// the daemon closing mid-stream) it reconnects with exponential
    /// backoff — [`RECONNECT_BACKOFF_START`] doubling to
    /// [`RECONNECT_BACKOFF_MAX`] — and re-issues the watch.
    ///
    /// The daemon replays a job's committed history on every watch, so
    /// the wrapper remembers which `record`/`stats`/`epochs` indices it
    /// already delivered and drops them on resume: `on_event` sees each
    /// committed unit exactly once, with no gap and no duplicate, even
    /// across a daemon kill-and-restart. (`progress` lines pass through
    /// unfiltered — they are transient, not part of the record stream.)
    ///
    /// With `io_timeout` set, a peer that stays connected but stops
    /// streaming for that long fails the watch with
    /// `WouldBlock`/`TimedOut` (not retried — see [`reconnectable`]),
    /// which is how the dispatch coordinator detects hung peers.
    ///
    /// # Errors
    /// Non-retryable errors (version mismatch, a daemon-side `error`
    /// event, malformed events, deadline expiry), or the last transport
    /// error after [`RECONNECT_MAX_SILENT_RETRIES`] consecutive attempts
    /// that delivered nothing.
    pub fn watch_with_reconnect(
        addr: &str,
        id: &str,
        io_timeout: Option<Duration>,
        mut on_event: impl FnMut(&Value, &str),
    ) -> io::Result<WatchSummary> {
        // (event kind, unit index) pairs already handed to `on_event`.
        let mut seen: HashSet<(u8, u64)> = HashSet::new();
        let mut backoff = Backoff::new(RECONNECT_BACKOFF_START, RECONNECT_BACKOFF_MAX);
        let mut silent_failures = 0u32;
        loop {
            let mut delivered = false;
            let attempt = Self::connect(addr).and_then(|mut c| {
                c.set_io_timeout(io_timeout)?;
                c.watch(id, |v, line| {
                    let index = || v.get("index").and_then(Value::as_u64).unwrap_or(0);
                    let kind = match v.get("event").and_then(Value::as_str) {
                        Some("record") => Some(0),
                        Some("stats") => Some(1),
                        Some("epochs") => Some(2),
                        _ => None,
                    };
                    if let Some(kind) = kind {
                        if !seen.insert((kind, index())) {
                            return; // replayed on reconnect: already delivered
                        }
                    }
                    delivered = true;
                    on_event(v, line);
                })
            });
            match attempt {
                Ok(summary) => return Ok(summary),
                Err(e) if reconnectable(&e) => {
                    if delivered {
                        // The daemon was alive this attempt; start the
                        // retry budget and backoff over.
                        silent_failures = 0;
                        backoff.reset();
                    } else {
                        silent_failures += 1;
                        if silent_failures > RECONNECT_MAX_SILENT_RETRIES {
                            return Err(e);
                        }
                    }
                    std::thread::sleep(backoff.next_delay());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the daemon's job table.
    ///
    /// # Errors
    /// I/O errors or a malformed reply.
    pub fn status(&mut self) -> io::Result<Value> {
        self.send("{\"cmd\":\"status\"}")?;
        let reply = self.recv()?;
        Value::parse(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad status: {e}")))
    }

    /// Asks the daemon to exit (everything committed is already
    /// durable). Best-effort: a daemon that exits before replying is
    /// success, not an error.
    ///
    /// # Errors
    /// Only send-side I/O errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send("{\"cmd\":\"shutdown\"}")?;
        let _ = self.recv();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon that dies between accepting a connection and writing its
    /// hello is down, not speaking a bad protocol: `connect` reports the
    /// closed stream as the transport failure a `--reconnect` watcher
    /// retries, where it used to parse the empty hello and give up.
    #[test]
    fn a_connection_closed_before_the_hello_is_reconnectable() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accept_and_drop = std::thread::spawn(move || drop(listener.accept().unwrap()));
        let err = Client::connect(&addr).expect_err("no hello was sent");
        accept_and_drop.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(reconnectable(&err));
    }
}
