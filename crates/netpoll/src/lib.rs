//! Readiness polling on `std` alone.
//!
//! The serving layer's per-core workers multiplex thousands of nonblocking
//! keep-alive connections; they need exactly one OS facility for that —
//! "tell me which of these sockets can make progress". This crate provides
//! it without external dependencies:
//!
//! * On unix, [`poll`] is a thin FFI wrapper over `poll(2)`. The symbol
//!   lives in libc, which `std` already links, so no new dependency is
//!   introduced — just the declaration. This is the only `unsafe` in the
//!   workspace's serving stack; `dre-serve` itself stays
//!   `#![forbid(unsafe_code)]`.
//! * Elsewhere, [`poll`] degrades to a bounded sleep that reports every
//!   registered descriptor as ready. Callers must already tolerate
//!   spurious readiness (a `WouldBlock` on read/write), so the shim is
//!   slower but exactly as correct — a level-triggered busy-poll.
//!
//! [`Waker`] is the companion cross-thread wake-up: a pair of loopback UDP
//! sockets. The receiving end's descriptor sits in the worker's poll set;
//! [`Waker::wake`] makes it readable from any thread, [`Waker::drain`]
//! swallows pending wake tokens. No pipes, no eventfd, no `unsafe`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::net::{TcpStream, UdpSocket};
use std::time::Duration;

/// Raw socket descriptor, as carried in a poll set. On non-unix targets the
/// value is an opaque placeholder (the fallback [`poll`] never inspects it).
#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
/// Raw socket descriptor placeholder for non-unix targets.
#[cfg(not(unix))]
pub type RawFd = i32;

/// The descriptor of a `TcpStream`, for registration in a poll set.
pub fn tcp_raw_fd(stream: &TcpStream) -> RawFd {
    #[cfg(unix)]
    {
        std::os::unix::io::AsRawFd::as_raw_fd(stream)
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        -1
    }
}

/// The descriptor of a `UdpSocket`, for registration in a poll set.
pub fn udp_raw_fd(socket: &UdpSocket) -> RawFd {
    #[cfg(unix)]
    {
        std::os::unix::io::AsRawFd::as_raw_fd(socket)
    }
    #[cfg(not(unix))]
    {
        let _ = socket;
        -1
    }
}

/// One descriptor's entry in a poll set: which readiness the caller wants,
/// and (after [`poll`] returns) which readiness the OS reported.
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Watch for readability.
    pub want_read: bool,
    /// Watch for writability.
    pub want_write: bool,
    /// Out: the descriptor is readable (or has pending EOF/error to read).
    pub readable: bool,
    /// Out: the descriptor is writable.
    pub writable: bool,
    /// Out: the OS flagged an error/hangup condition; the next read will
    /// surface it.
    pub error: bool,
}

impl PollFd {
    /// A poll entry watching `fd` for the requested readiness.
    pub fn new(fd: RawFd, want_read: bool, want_write: bool) -> Self {
        PollFd {
            fd,
            want_read,
            want_write,
            readable: false,
            writable: false,
            error: false,
        }
    }

    /// Whether any requested or error condition fired.
    pub fn ready(&self) -> bool {
        self.readable || self.writable || self.error
    }
}

#[cfg(unix)]
mod sys {
    //! `poll(2)` via FFI. libc is already linked by `std` on every unix
    //! target, so declaring the symbol adds no dependency.
    #![allow(unsafe_code)]

    use super::PollFd;
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    const POLLERR: c_short = 0x8;
    const POLLHUP: c_short = 0x10;
    const POLLNVAL: c_short = 0x20;

    #[repr(C)]
    struct RawPollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    // `nfds_t` is `unsigned long` on linux and `unsigned int` on the BSDs
    // and macOS; `usize` matches the former and is register-compatible on
    // the LP64 targets this workspace builds for.
    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut RawPollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    pub fn poll_impl(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let mut raw: Vec<RawPollFd> = fds
            .iter()
            .map(|p| RawPollFd {
                fd: p.fd,
                events: if p.want_read { POLLIN } else { 0 }
                    | if p.want_write { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        let rc = loop {
            // SAFETY: `raw` is a live, exclusively borrowed slice of
            // `#[repr(C)]` pollfd-layout structs, and `len()` is its exact
            // element count; poll(2) reads/writes only within it.
            let rc = unsafe { poll(raw.as_mut_ptr(), raw.len() as NFds, timeout_ms) };
            if rc >= 0 {
                break rc;
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        };
        for (p, r) in fds.iter_mut().zip(&raw) {
            // POLLHUP/POLLERR are delivered even when unrequested; fold the
            // hangup into readability so a closed peer is drained via the
            // ordinary read-to-EOF path.
            p.readable = r.revents & (POLLIN | POLLHUP) != 0;
            p.writable = r.revents & POLLOUT != 0;
            p.error = r.revents & (POLLERR | POLLNVAL) != 0;
        }
        Ok(rc as usize)
    }
}

#[cfg(not(unix))]
mod sys {
    //! Portable fallback: a bounded sleep that reports everything ready.
    //! Spurious readiness is already part of the [`super::poll`] contract
    //! (callers handle `WouldBlock`), so this is a correct, slower shim.

    use super::PollFd;
    use std::io;
    use std::time::Duration;

    pub fn poll_impl(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let nap = timeout
            .unwrap_or(Duration::from_millis(1))
            .min(Duration::from_millis(1));
        std::thread::sleep(nap);
        let mut ready = 0;
        for p in fds.iter_mut() {
            p.readable = p.want_read;
            p.writable = p.want_write;
            p.error = false;
            if p.ready() {
                ready += 1;
            }
        }
        Ok(ready)
    }
}

/// Blocks until at least one entry in `fds` is ready, the timeout elapses
/// (`Ok(0)`), or a signal interrupts and is transparently retried. Each
/// entry's `readable`/`writable`/`error` fields are (re)written on return.
///
/// Readiness is level-triggered and may be spurious — callers must treat a
/// `WouldBlock` from the subsequent I/O as normal.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    sys::poll_impl(fds, timeout)
}

/// Cross-thread wake-up for a poll loop: a connected pair of loopback UDP
/// sockets. The receiving descriptor ([`Waker::raw_fd`]) goes into the poll
/// set; any thread holding a clone of the sending half can make it readable.
#[derive(Debug)]
pub struct Waker {
    receiver: UdpSocket,
    sender: UdpSocket,
}

impl Waker {
    /// A fresh waker on loopback. The receiving socket is nonblocking so
    /// [`Waker::drain`] never stalls the event loop.
    pub fn new() -> io::Result<Waker> {
        let receiver = UdpSocket::bind("127.0.0.1:0")?;
        receiver.set_nonblocking(true)?;
        let sender = UdpSocket::bind("127.0.0.1:0")?;
        sender.connect(receiver.local_addr()?)?;
        sender.set_nonblocking(true)?;
        Ok(Waker { receiver, sender })
    }

    /// The receiving descriptor, for the poll set.
    pub fn raw_fd(&self) -> RawFd {
        udp_raw_fd(&self.receiver)
    }

    /// Makes the receiving descriptor readable. Best-effort and
    /// non-blocking: a full socket buffer means wake-ups are already
    /// pending, which is all a level-triggered loop needs.
    pub fn wake(&self) {
        let _ = self.sender.send(&[1u8]);
    }

    /// A cheap clonable sending half, so other threads can wake this loop.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            sender: self.sender.try_clone()?,
        })
    }

    /// Swallows every pending wake token.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = self.receiver.recv(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

/// The sending half of a [`Waker`], owned by threads that need to nudge
/// the poll loop (the accept thread, the shutdown path).
#[derive(Debug)]
pub struct WakeHandle {
    sender: UdpSocket,
}

impl WakeHandle {
    /// Makes the paired receiver readable (best-effort, non-blocking).
    pub fn wake(&self) {
        let _ = self.sender.send(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn timeout_expires_with_nothing_ready() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.raw_fd(), true, false)];
        let t0 = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        // The unix path reports a genuinely idle socket as not ready; the
        // fallback shim reports spuriously ready — both within contract.
        if cfg!(unix) {
            assert_eq!(n, 0);
            assert!(!fds[0].ready());
            assert!(t0.elapsed() >= Duration::from_millis(25));
        }
    }

    #[test]
    fn waker_makes_descriptor_readable_and_drain_clears_it() {
        let waker = Waker::new().unwrap();
        let handle = waker.handle().unwrap();
        std::thread::spawn(move || handle.wake()).join().unwrap();
        let mut fds = [PollFd::new(waker.raw_fd(), true, false)];
        let n = poll(&mut fds, Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable);
        waker.drain();
        if cfg!(unix) {
            let mut fds = [PollFd::new(waker.raw_fd(), true, false)];
            let n = poll(&mut fds, Some(Duration::from_millis(10))).unwrap();
            assert_eq!(n, 0, "drain must consume every pending wake token");
        }
    }

    #[test]
    fn tcp_readability_tracks_peer_writes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let mut fds = [PollFd::new(tcp_raw_fd(&server), true, false)];
        if cfg!(unix) {
            let n = poll(&mut fds, Some(Duration::from_millis(20))).unwrap();
            assert_eq!(n, 0, "no bytes yet");
        }
        use std::io::Write;
        client.write_all(b"hi").unwrap();
        let n = poll(&mut fds, Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable);

        // A hangup is reported as readability (read-to-EOF drains it).
        drop(client);
        let mut fds = [PollFd::new(tcp_raw_fd(&server), true, false)];
        let n = poll(&mut fds, Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable);
    }

    #[test]
    fn writable_socket_reports_writability() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(tcp_raw_fd(&client), false, true)];
        let n = poll(&mut fds, Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].writable, "a fresh socket's send buffer is writable");
    }
}
