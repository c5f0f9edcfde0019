//! One abstraction over the two stream transports the serving layer
//! speaks: TCP and Unix domain sockets.
//!
//! [`Listener`] is the server side (accept), [`Target`] the client side
//! (connect), and [`Conn`] the accepted/connected stream both hand out.
//! `Conn` implements [`Read`] + [`Write`] so the frame codec is
//! transport-agnostic, and exposes the read/write deadline knobs the
//! engine unifies with the fault plan's [`Deadline`](fedpkd_netsim::Deadline)
//! currency. Reads are buffered: a frame's kind byte, length prefixes and
//! sentinel cost no system call of their own.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where a client connects — mirror of [`Listener`].
#[derive(Debug, Clone)]
pub enum Target {
    /// A TCP address, e.g. `127.0.0.1:7700`.
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl Target {
    /// Opens a connection to the target.
    ///
    /// # Errors
    ///
    /// Any connect-time I/O failure (connection refused while the server
    /// restarts is the one clients retry through backoff).
    pub fn connect(&self) -> std::io::Result<Conn> {
        match self {
            Self::Tcp(addr) => TcpStream::connect(addr.as_str()).map(|s| Conn::new(Stream::Tcp(s))),
            Self::Uds(path) => UnixStream::connect(path).map(|s| Conn::new(Stream::Uds(s))),
        }
    }
}

/// A bound, listening server socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain socket listener (unlinks a stale socket first).
    Uds(UnixListener),
}

impl Listener {
    /// Binds a TCP listener on `addr`.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn bind_tcp(addr: &str) -> std::io::Result<Self> {
        TcpListener::bind(addr).map(Self::Tcp)
    }

    /// Binds a Unix-domain listener on `path`, removing a stale socket
    /// left by a killed predecessor (the kill-9 restart path).
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when `path` is something other than a socket (a
    /// snapshot file passed by mistake, say); any other bind failure.
    pub fn bind_uds(path: &Path) -> std::io::Result<Self> {
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)?,
            Ok(_) => {
                return Err(std::io::Error::new(
                    ErrorKind::AlreadyExists,
                    "not a socket",
                ))
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        UnixListener::bind(path).map(Self::Uds)
    }

    /// The transport's short name for telemetry (`"tcp"` / `"uds"`).
    pub fn transport(&self) -> &'static str {
        match self {
            Self::Tcp(_) => "tcp",
            Self::Uds(_) => "uds",
        }
    }

    /// Switches the listener between blocking and non-blocking accepts.
    ///
    /// # Errors
    ///
    /// Any underlying socket failure.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Self::Tcp(l) => l.set_nonblocking(nonblocking),
            Self::Uds(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one pending connection, or `WouldBlock` when non-blocking
    /// and none is waiting.
    ///
    /// # Errors
    ///
    /// Any accept failure.
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| Conn::new(Stream::Tcp(s))),
            Self::Uds(l) => l.accept().map(|(s, _)| Conn::new(Stream::Uds(s))),
        }
    }
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

/// Evaluates `$body` with `$s` bound to the socket of either variant.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            Stream::Tcp($s) => $body,
            Stream::Uds($s) => $body,
        }
    };
}

const READ_BUF: usize = 8 * 1024;

/// An accepted or connected stream, either transport, with a read buffer
/// that the first read allocates. A read that finds the buffer empty and
/// asks for at least its size goes straight to the socket; none waits on
/// the socket while the buffer holds bytes.
#[derive(Debug)]
pub struct Conn {
    stream: Stream,
    /// `buf[pos..]` is received and not yet read.
    buf: Vec<u8>,
    pos: usize,
}

impl Conn {
    fn new(stream: Stream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Applies one deadline to both reads and writes on the stream.
    ///
    /// # Errors
    ///
    /// Any underlying socket failure.
    pub fn set_io_deadline(&self, deadline: Duration) -> std::io::Result<()> {
        on_socket!(&self.stream, s => {
            s.set_read_timeout(Some(deadline))?;
            s.set_write_timeout(Some(deadline))
        })
    }
}

/// Whether an I/O error is a read/write deadline expiring (both kinds
/// appear in practice: Unix reports `WouldBlock`, Windows `TimedOut`).
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Read for Conn {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() && !out.is_empty() {
            if out.len() >= READ_BUF {
                return on_socket!(&mut self.stream, s => s.read(out));
            }
            self.pos = 0;
            self.buf.resize(READ_BUF, 0);
            let got = on_socket!(&mut self.stream, s => s.read(&mut self.buf));
            self.buf.truncate(got.as_ref().map_or(0, |&n| n));
            got?;
        }
        let n = (&self.buf[self.pos..]).read(out)?;
        self.pos += n;
        Ok(n)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        on_socket!(&mut self.stream, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        on_socket!(&mut self.stream, s => s.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{
        read_frame, read_frame_after_kind, write_frame, DEFAULT_MAX_PAYLOAD, FRAME_CHUNK,
    };

    #[test]
    fn tcp_and_uds_carry_frames() {
        // TCP loopback.
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = match &listener {
            Listener::Tcp(l) => l.local_addr().unwrap().to_string(),
            Listener::Uds(_) => unreachable!(),
        };
        let join = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap().unwrap()
        });
        let mut client = Target::Tcp(addr).connect().unwrap();
        write_frame(&mut client, 9, b"over tcp").unwrap();
        assert_eq!(join.join().unwrap(), (9, b"over tcp".to_vec()));

        // Unix domain socket, including stale-file removal on rebind.
        let dir = std::env::temp_dir().join(format!("fedpkd-serve-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        for _ in 0..2 {
            let listener = Listener::bind_uds(&path).unwrap();
            assert_eq!(listener.transport(), "uds");
            let join = std::thread::spawn(move || {
                let mut conn = listener.accept().unwrap();
                read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap().unwrap()
            });
            let mut client = Target::Uds(path.clone()).connect().unwrap();
            write_frame(&mut client, 4, b"over uds").unwrap();
            assert_eq!(join.join().unwrap(), (4, b"over uds".to_vec()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bind_uds_refuses_to_replace_a_regular_file() {
        let dir = std::env::temp_dir().join(format!("fedpkd-serve-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        std::fs::write(&path, b"keep me\n").unwrap();
        let err = Listener::bind_uds(&path).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read(&path).unwrap(), b"keep me\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A buffered `Conn` and the raw peer socket it talks to.
    fn uds_pair() -> (Conn, UnixStream) {
        let (ours, peer) = UnixStream::pair().unwrap();
        (Conn::new(Stream::Uds(ours)), peer)
    }

    fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, kind, payload).unwrap();
        bytes
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn a_frame_trickling_in_byte_by_byte_reads_whole() {
        let (mut conn, mut peer) = uds_pair();
        let bytes = frame(3, &pattern(300));
        let writer = std::thread::spawn(move || {
            for byte in bytes {
                peer.write_all(&[byte]).unwrap();
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        let got = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(got, Some((3, pattern(300))));
        writer.join().unwrap();
    }

    #[test]
    fn buffered_bytes_are_read_without_waiting_on_the_socket() {
        // Two frames in one socket write land in one buffered read; the
        // second must come out of the buffer, or the deadline fires.
        let (mut conn, mut peer) = uds_pair();
        conn.set_io_deadline(Duration::from_millis(200)).unwrap();
        peer.write_all(&[frame(1, b"first"), frame(2, b"second")].concat())
            .unwrap();
        let first = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(first, Some((1, b"first".to_vec())));
        assert!(conn.buf.len() > conn.pos, "the second frame is buffered");
        let second = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(second, Some((2, b"second".to_vec())));

        // The handler's split read: the kind byte alone, then the body from
        // bytes the kind read already buffered.
        let bytes = frame(5, b"already here");
        peer.write_all(&bytes).unwrap();
        let mut kind = [0u8; 1];
        assert_eq!(conn.read(&mut kind).unwrap(), 1);
        assert_eq!(conn.buf.len() - conn.pos, bytes.len() - 1);
        let body = read_frame_after_kind(&mut conn, kind[0], DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!((kind[0], body), (5, b"already here".to_vec()));

        // Clean EOF between frames is still `None`.
        drop(peer);
        assert!(read_frame(&mut conn, DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_deadline_between_frames_is_followed_by_a_frame() {
        let (mut conn, mut peer) = uds_pair();
        conn.set_io_deadline(Duration::from_millis(50)).unwrap();
        let mut kind = [0u8; 1];
        let idle = conn.read(&mut kind).unwrap_err();
        assert!(is_timeout(&idle), "{idle:?}");
        peer.write_all(&frame(4, b"late")).unwrap();
        let got = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(got, Some((4, b"late".to_vec())));
    }

    #[test]
    fn chunks_larger_than_the_buffer_read_whole() {
        let (mut conn, mut peer) = uds_pair();
        let payloads = [pattern(3 * READ_BUF + 5), pattern(FRAME_CHUNK + 100)];
        let bytes: Vec<u8> = payloads.iter().flat_map(|p| frame(6, p)).collect();
        let writer = std::thread::spawn(move || peer.write_all(&bytes).unwrap());
        for payload in payloads {
            let got = read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(got, Some((6, payload)));
        }
        writer.join().unwrap();
    }
}
