//! The client half's socket: a buffered connection ([`Conn`]), what
//! opens and re-opens it ([`Link`]), and the senders' one [`retry`] rule.

use super::TransportConfig;
use moda_telemetry::wire::{
    bad_data, frame_tag, put_str, read_frame_into, write_frame, FrameEnd, WireReader, REVISION,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One TCP connection behind the two buffers the frame codec needs:
/// `write_frame` issues three small writes per frame and `read_frame`
/// three reads, so on a bare `TCP_NODELAY` socket every frame — a
/// 17-byte `ACK` included — costs three syscalls each way. Behind the
/// halves a frame that fits the buffer is one `send` (every writer
/// flushes once its frames are written) and a burst of acks one
/// `recv`; a payload larger than the buffer bypasses it uncopied.
/// Both halves are the same socket, so the timeouts set at dial time
/// bound reads and writes alike.
#[derive(Debug)]
pub(super) struct Conn {
    reader: BufReader<TcpStream>,
    pub(super) writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Dial `addr` with `TCP_NODELAY` and `io_timeout` bounding the
    /// connect and every later read and write: a half-open peer must
    /// surface as an error (and a reconnect), not a hang.
    fn dial(addr: &str, io_timeout: Option<Duration>) -> io::Result<Conn> {
        // `connect_timeout` needs a resolved address; try each
        // candidate like `TcpStream::connect` would.
        let mut last = bad_data("address resolved to nothing");
        for addr in addr.to_socket_addrs()? {
            let dialed = match io_timeout {
                Some(timeout) => TcpStream::connect_timeout(&addr, timeout),
                None => TcpStream::connect(addr),
            };
            match dialed {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(io_timeout).ok();
                    stream.set_write_timeout(io_timeout).ok();
                    return Ok(Conn {
                        writer: BufWriter::new(stream.try_clone()?),
                        reader: BufReader::new(stream),
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Write one frame and flush it: one `send` when it fits the buffer.
    pub(super) fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, tag, payload)?;
        self.writer.flush()
    }

    /// Read the next frame's payload into `payload`; returns its tag.
    pub(super) fn recv_into(&mut self, payload: &mut Vec<u8>) -> io::Result<Result<u8, FrameEnd>> {
        read_frame_into(&mut self.reader, payload)
    }

    /// Whether the read half holds bytes already received: the next
    /// [`Conn::recv_into`] starts without a syscall (and finishes a frame
    /// cut at the buffer's edge from the socket).
    pub(super) fn buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }
}

/// What opens — and re-opens — one authenticated session: where to
/// dial, as whom, with what tuning, and the connection while it lives.
/// An ingest link names its node and says `HELLO` with the wire spec
/// revision it speaks, answered by that node's persisted cursor and the
/// fleet's revision (none from a fleet older than 1.3); a query link
/// names none and says `QUERY_HELLO`, answered by the protocol version.
#[derive(Debug)]
pub(super) struct Link {
    addr: String,
    token: String,
    node: Option<String>,
    pub(super) cfg: TransportConfig,
    /// `None` once an error hung up; the next dial recovers the rest.
    pub(super) conn: Option<Conn>,
    /// Times [`Link::redial`] has succeeded.
    pub(super) reconnects: u64,
    /// The latest hello ack's field: persisted cursor or version.
    pub(super) answered: u64,
}

impl Link {
    /// A link that has not dialed yet.
    pub(super) fn new(addr: &str, node: Option<&str>, token: &str, cfg: TransportConfig) -> Link {
        Link {
            addr: addr.to_string(),
            token: token.to_string(),
            node: node.map(str::to_string),
            cfg,
            conn: None,
            reconnects: 0,
            answered: 0,
        }
    }

    /// Point the link at a moved server and hang up; the next send
    /// re-dials and re-authenticates there.
    pub(super) fn redirect(&mut self, addr: &str) {
        self.addr = addr.to_string();
        self.conn = None;
    }

    /// The live connection.
    pub(super) fn live(&mut self) -> io::Result<&mut Conn> {
        self.conn.as_mut().ok_or_else(|| bad_data("not connected"))
    }

    /// Run `op` on the live connection; an error hangs up.
    pub(super) fn on_conn<T>(
        &mut self,
        op: impl FnOnce(&mut Conn) -> io::Result<T>,
    ) -> io::Result<T> {
        let res = op(self.live()?);
        if res.is_err() {
            self.conn = None;
        }
        res
    }

    /// Dial and authenticate, once: send the role's hello, read its ack
    /// — a status byte, then the role's field, then (ingest) the peer's
    /// revision if it sent one — and fail with `PermissionDenied` on a
    /// nonzero status. `adopt` gets the fresh connection, that field and
    /// that revision before the link goes live (an ingest session
    /// replays its unacknowledged batches there); if it fails, so does
    /// the attempt. Bytes after the fields this reader knows are a newer
    /// peer's, and ignored.
    pub(super) fn connect(
        &mut self,
        adopt: impl FnOnce(&mut Conn, u64, Option<[u8; 2]>) -> io::Result<()>,
    ) -> io::Result<()> {
        let (hello_tag, ack_tag) = match self.node {
            Some(_) => (frame_tag::HELLO, frame_tag::HELLO_ACK),
            None => (frame_tag::QUERY_HELLO, frame_tag::QUERY_HELLO_ACK),
        };
        let mut hello = Vec::new();
        put_str(&mut hello, &self.token);
        if let Some(node) = &self.node {
            put_str(&mut hello, node);
            hello.extend_from_slice(&REVISION);
        }
        let mut conn = Conn::dial(&self.addr, self.cfg.io_timeout)?;
        conn.send(hello_tag, &hello)?;
        let mut payload = Vec::new();
        let Ok(tag) = conn.recv_into(&mut payload)? else {
            return Err(bad_data("connection closed during handshake"));
        };
        if tag != ack_tag {
            return Err(bad_data("unexpected handshake response tag"));
        }
        let mut r = WireReader::new(&payload);
        let status = r.u8()?;
        let (field, revision) = match self.node {
            Some(_) => (r.u64()?, r.take(2).ok().map(|b| [b[0], b[1]])),
            None => (u64::from(r.u16()?), None),
        };
        if status != 0 {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "fleet listener rejected the auth token",
            ));
        }
        adopt(&mut conn, field, revision)?;
        self.answered = field;
        self.conn = Some(conn);
        Ok(())
    }

    /// Hang up and re-dial (server restarts take a moment): up to
    /// [`TransportConfig::reconnect_attempts`] calls of [`Link::connect`]
    /// under the [`retry`] rule, [`TransportConfig::backoff`] apart. The
    /// jitter salt is stable per identity (the node's name, else the
    /// address), different per dial attempt and per reconnect episode.
    pub(super) fn redial(
        &mut self,
        mut adopt: impl FnMut(&mut Conn, u64, Option<[u8; 2]>) -> io::Result<()>,
    ) -> io::Result<()> {
        self.conn = None;
        let identity = self.node.as_deref().unwrap_or(&self.addr);
        let mut salt = identity.bytes().fold(self.reconnects, |h, b| {
            h.wrapping_mul(31).wrapping_add(b as u64)
        });
        retry(self.cfg.reconnect_attempts.max(1), |attempt| {
            if attempt > 0 {
                salt = salt.wrapping_add(attempt as u64);
                std::thread::sleep(self.cfg.backoff(attempt, salt));
            }
            self.connect(&mut adopt)
        })?;
        self.reconnects += 1;
        Ok(())
    }
}

/// The retry rule of every sender: call `attempt` (handed its 0-based
/// index) until it succeeds, at most `attempts` times, and report the
/// last failure. A `PermissionDenied` — the listener refused the token
/// — fails at once: retrying never heals it.
pub(super) fn retry<T>(
    attempts: u32,
    mut attempt: impl FnMut(u32) -> io::Result<T>,
) -> io::Result<T> {
    let mut last = None;
    for n in 0..attempts {
        match attempt(n) {
            Ok(v) => return Ok(v),
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => return Err(e),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| bad_data("no attempt was allowed")))
}
