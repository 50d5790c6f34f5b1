//! The server: one blocking acceptor thread and one blocking thread per
//! connection over `std::net` — no executor, no event library, no poll
//! loop.
//!
//! Design: the acceptor blocks in `accept` and hands each connection to
//! a thread of its own, which blocks in `read`, answers every complete
//! request in its buffer through [`FrontDoor::handle`], and writes the
//! answers back at once. Request concurrency comes from connections alone:
//! the kernel wakes a connection's thread the moment its bytes arrive, and
//! a slow estimate or an ingest holds only its own connection. Two
//! constants bound what clients can hold: at most [`MAX_CONNECTIONS`]
//! connection threads live at once (the next connection is answered `503`
//! and closed), and a connection whose reads or writes stall for
//! [`IDLE_TIMEOUT`] closes, so idle keep-alive clients cannot sit on the
//! cap. [`ServerHandle::shutdown`], or dropping the handle, wakes the
//! blocking `accept` with a loopback connection of its own, closes every
//! live socket and joins every thread.
//!
//! ## Failpoints
//!
//! Three chaos sites model the ways a front end loses a request, each at
//! a point where the admission accounting makes leaks impossible by
//! construction:
//!
//! - `server::accept` — fires **before** the connection is tracked: the
//!   socket is dropped (client sees a reset), nothing was acquired.
//! - `server::read` — fires **before** dispatch: the connection dies
//!   with bytes in its buffer; no token or permit was taken yet.
//! - `server::respond` — fires **after** [`FrontDoor::handle`] returned:
//!   every token was spent and every RAII permit already released inside
//!   `handle`; the client just never hears the answer (connection
//!   closed). The chaos suite asserts both pools return to idle.
//!
//! A panic inside `handle` (e.g. an armed estimator failpoint) is caught
//! with `catch_unwind`, answered as a 500, and the connection keeps
//! serving — the service layer has already quarantined and recovered.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

use parking_lot::Mutex;
use sqe_core::failpoint;

use crate::http::{parse_request, Parse, Response, MAX_BODY, MAX_HEAD};
use crate::tenant::FrontDoor;

/// Most connections served at once, one thread each.
pub const MAX_CONNECTIONS: usize = 256;

/// A connection whose read or write waits this long closes.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Pause after a failed `accept` (say, out of file descriptors), so a
/// persistent error does not spin the acceptor.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Server counters (relaxed; monitoring only).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections answered `503` and closed because
    /// [`MAX_CONNECTIONS`] were live.
    pub refused: AtomicU64,
    /// Requests fully parsed and dispatched.
    pub requests: AtomicU64,
    /// Responses written back.
    pub responses: AtomicU64,
    /// Connections dropped for unparseable input.
    pub parse_errors: AtomicU64,
    /// Connections killed by the `server::accept` failpoint.
    pub accept_failures: AtomicU64,
    /// Connections killed by the `server::read` failpoint or IO errors.
    pub read_failures: AtomicU64,
    /// Responses suppressed by the `server::respond` failpoint.
    pub respond_failures: AtomicU64,
    /// Dispatches that panicked and were answered 500.
    pub handler_panics: AtomicU64,
}

/// A live connection's socket, kept so shutdown can close it, and the
/// thread serving it.
type Conn = (Arc<TcpStream>, JoinHandle<()>);

/// What the acceptor, the connection threads and the handle share.
struct Shared {
    door: Arc<FrontDoor>,
    stats: Arc<ServerStats>,
    /// The failpoint scope of the thread that called [`spawn`], entered by
    /// every server thread.
    faults: failpoint::Scope,
    stop: AtomicBool,
    /// Every live connection, by the id of its thread.
    live: Mutex<HashMap<ThreadId, Conn>>,
}

/// A running server: address, shared state, acceptor thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use port 0 in `spawn` to get an ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.shared.stats
    }

    /// Stops accepting, closes every live connection and joins every
    /// thread (dropping the handle does the same).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking `accept` with a connection of our own.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        // A blocked read now sees end of stream, a blocked write fails.
        let live = std::mem::take(&mut *self.shared.live.lock());
        for (stream, thread) in live.into_values() {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = thread.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and accepts connections on a new
/// thread until the handle is shut down or dropped. Connection threads
/// are spawned by that thread, and inherit its CPU affinity and priority.
/// Every server thread enters the caller's failpoint scope, so a site the
/// caller arms, before or after this call, fires on them.
pub fn spawn(door: Arc<FrontDoor>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        door,
        stats: Arc::default(),
        faults: failpoint::Scope::current(),
        stop: AtomicBool::new(false),
        live: Mutex::new(HashMap::new()),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sqe-server".to_string())
            .spawn(move || {
                shared.faults.clone().enter();
                accept_loop(&listener, &shared);
            })?
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        if failpoint::fire_err("server::accept").is_err() {
            // Dropped before tracking: the peer sees a reset, and no
            // server-side state was created.
            shared.stats.accept_failures.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        admit(stream, shared);
    }
}

/// Starts `stream`'s connection thread, or answers `503` at the cap.
fn admit(stream: TcpStream, shared: &Arc<Shared>) {
    // Held until the thread is registered, so the thread's own removal
    // on exit always finds its entry.
    let mut live = shared.live.lock();
    if live.len() >= MAX_CONNECTIONS {
        shared.stats.refused.fetch_add(1, Ordering::Relaxed);
        let busy = Response::text(503, "too many connections\n");
        let _ = (&stream).write_all(&busy.to_bytes(false));
        return;
    }
    let timeouts = stream
        .set_read_timeout(Some(IDLE_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IDLE_TIMEOUT)));
    if timeouts.is_err() {
        return;
    }
    let stream = Arc::new(stream);
    let (socket, worker) = (Arc::clone(&stream), Arc::clone(shared));
    let spawned = std::thread::Builder::new()
        .name("sqe-conn".to_string())
        .spawn(move || {
            worker.faults.clone().enter();
            serve(&stream, &worker);
            worker.live.lock().remove(&std::thread::current().id());
        });
    if let Ok(thread) = spawned {
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        live.insert(thread.thread().id(), (socket, thread));
    }
}

/// Serves one connection until the peer closes it, it idles past
/// [`IDLE_TIMEOUT`], it sends an unparseable request or asks to close, a
/// failpoint kills it, or the server shuts down.
fn serve(mut stream: &TcpStream, shared: &Shared) {
    let stats = &*shared.stats;
    let mut inbuf = Vec::new();
    let mut out = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut scratch) {
            Ok(0) => return, // peer closed, or the server shut the socket
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Idle past the timeout.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => return,
            Err(_) => {
                stats.read_failures.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if failpoint::fire_err("server::read").is_err() {
            // Connection dies mid-read: bytes discarded before any token
            // or permit was taken.
            stats.read_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inbuf.extend_from_slice(&scratch[..n]);
        if inbuf.len() > MAX_HEAD + MAX_BODY + 4 {
            stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Answer every complete pipelined request in the buffer, then
        // write the answers back in one go.
        let mut close = false;
        while !close {
            match parse_request(&inbuf) {
                Parse::Incomplete => break,
                Parse::Bad(why) => {
                    stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::text(400, format!("{why}\n"));
                    out.extend_from_slice(&resp.to_bytes(false));
                    close = true;
                }
                Parse::Done { request, consumed } => {
                    inbuf.drain(..consumed);
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    let response = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                        shared.door.handle(&request)
                    })) {
                        Ok(r) => r,
                        Err(_) => {
                            // The service layer has already quarantined
                            // + recovered; the front end just reports
                            // the loss.
                            stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                            Response::text(500, "internal error\n")
                        }
                    };
                    if failpoint::fire_err("server::respond").is_err() {
                        // All accounting inside handle() is settled
                        // (tokens spent, permits released); only the
                        // bytes are lost.
                        stats.respond_failures.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    close = request.wants_close();
                    out.extend_from_slice(&response.to_bytes(!close));
                    stats.responses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if stream.write_all(&out).is_err() || close {
            return;
        }
        out.clear();
    }
}
