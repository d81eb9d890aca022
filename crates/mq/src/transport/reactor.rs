//! A sharded non-blocking readiness reactor multiplexing every transport
//! connection over a small fixed pool of I/O threads.
//!
//! The thread-per-connection acceptor and the blocking ack-read in the
//! sender both fall away: each `TcpStream` is switched to non-blocking
//! mode and registered here with a [`Pollable`] handler. A shard thread
//! parks in `epoll_wait` (direct `extern "C"` bindings on Linux — no new
//! dependencies; a condvar-paced readiness scan is the portable fallback)
//! and dispatches readable/writable events to the handlers:
//!
//! * acceptor connections run their whole lifecycle (handshake, batch
//!   delivery, coalesced watermark acks, heartbeat replies) in
//!   [`Pollable::on_readable`];
//! * sender connections consume ack/pong frames there, advancing the
//!   pipelined window's watermark;
//! * a writer that hit `WouldBlock` parks and calls
//!   [`Registration::want_write`]; the shard reports the socket writable
//!   once via [`Pollable::on_writable`] (one-shot, re-arm to keep
//!   waiting), which is the first link of the end-to-end backpressure
//!   chain (socket full → mover parks → queue depth grows).
//!
//! Handlers run on shard threads, so they must never block on locks held
//! across slow work; the shard itself holds no lock while dispatching.
//! The pool is process-wide and lazily started ([`Reactor::global`]),
//! sized from `available_parallelism` and capped small — connections are
//! multiplexed, not thread-per-anything. A connection's shard is a
//! function of the affinity string it registers under (the TCP transport
//! passes the local queue manager's name), never of registration order.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A connection registered with the reactor.
pub trait Pollable: Send + Sync {
    /// The socket is readable (or errored/hung up — the read will say).
    /// Drain until `WouldBlock`. Return `false` to drop the registration;
    /// the reactor forgets the connection and the handler owns closing
    /// its stream.
    fn on_readable(&self) -> bool;

    /// The socket became writable after [`Registration::want_write`].
    /// One-shot: call `want_write` again to keep waiting. Return `false`
    /// to drop the registration.
    fn on_writable(&self) -> bool {
        true
    }
}

/// Handle to a registered connection; cheap to clone.
#[derive(Clone)]
pub struct Registration {
    shard: Arc<Shard>,
    token: u64,
}

impl Registration {
    /// Arms a one-shot writable notification for this connection. The
    /// next time the socket can accept bytes, the shard calls
    /// [`Pollable::on_writable`].
    pub fn want_write(&self) {
        self.shard.set_write_interest(self.token, true);
    }

    /// Removes the connection from the reactor. Idempotent; safe to call
    /// from within the handler's own callbacks.
    pub fn deregister(&self) {
        self.shard.deregister(self.token);
    }
}

impl std::fmt::Debug for Registration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registration")
            .field("token", &self.token)
            .finish()
    }
}

/// The process-wide shard pool.
pub struct Reactor {
    shards: Vec<Arc<Shard>>,
    next_token: AtomicU64,
}

impl Reactor {
    /// The lazily-started global reactor. Shard threads live for the
    /// process; idle shards are parked in the kernel, not spinning.
    pub fn global() -> &'static Reactor {
        static GLOBAL: OnceLock<Reactor> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 8);
            let shards = (0..n)
                .map(|i| {
                    let shard = Arc::new(Shard::new());
                    let runner = Arc::clone(&shard);
                    std::thread::Builder::new()
                        .name(format!("mq-reactor-{i}"))
                        .spawn(move || runner.run())
                        .ok();
                    shard
                })
                .collect();
            Reactor {
                shards,
                next_token: AtomicU64::new(1),
            }
        })
    }

    /// Registers `stream` (its own clone; the caller keeps the original)
    /// for readable events, dispatching to `handler` on the shard thread
    /// `affinity` hashes to. The stream must already be in non-blocking
    /// mode.
    ///
    /// Every registration with the same `affinity` shares one thread, and
    /// which thread that is depends on nothing but the string. The TCP
    /// transport passes the local queue manager's name: an arrival commit
    /// blocks its shard on the journal, so which connections share a shard
    /// decides how large the next readable burst of each grows — it must
    /// not hang on registration order, which is a race between supervisor
    /// and accept threads.
    ///
    /// # Errors
    ///
    /// Propagates the clone or poll-registration failure.
    pub fn register(
        &self,
        stream: &TcpStream,
        affinity: &str,
        handler: Arc<dyn Pollable>,
    ) -> io::Result<Registration> {
        let own = stream.try_clone()?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut hasher = DefaultHasher::new();
        affinity.hash(&mut hasher);
        let i = (hasher.finish() % self.shards.len() as u64) as usize;
        let shard = Arc::clone(&self.shards[i]);
        shard.register(token, own, handler)?;
        Ok(Registration { shard, token })
    }
}

struct Entry {
    stream: TcpStream,
    handler: Arc<dyn Pollable>,
    #[cfg_attr(target_os = "linux", allow(dead_code))]
    want_write: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Minimal epoll bindings. Declared directly against libc's exported
    //! symbols (the C runtime is already linked) — no new crates.

    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Mirrors `struct epoll_event`; packed on x86 per the kernel ABI.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// Safe wrapper: creates an epoll instance (negative on failure).
    #[allow(unsafe_code)]
    pub fn create() -> i32 {
        // SAFETY: plain syscall with no pointer arguments.
        unsafe { epoll_create1(EPOLL_CLOEXEC) }
    }

    /// Safe wrapper: one `epoll_ctl` operation on `epfd`.
    #[allow(unsafe_code)]
    pub fn ctl(epfd: i32, op: i32, fd: i32, event: &mut EpollEvent) -> i32 {
        // SAFETY: `event` is a valid exclusive reference for the call's
        // duration; fd ownership is not transferred.
        unsafe { epoll_ctl(epfd, op, fd, event) }
    }

    /// Safe wrapper: waits for events into `events`, returning the count
    /// (negative on failure).
    #[allow(unsafe_code)]
    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout: i32) -> i32 {
        // SAFETY: the pointer/length pair comes from a live slice.
        unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout) }
    }
}

#[cfg(target_os = "linux")]
struct Shard {
    epfd: i32,
    entries: parking_lot::Mutex<HashMap<u64, Entry>>,
}

#[cfg(target_os = "linux")]
impl Shard {
    fn new() -> Shard {
        // A negative epfd is kept and rejected by register().
        let epfd = sys::create();
        Shard {
            epfd,
            entries: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = sys::ctl(self.epfd, op, fd, &mut ev);
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn register(&self, token: u64, stream: TcpStream, handler: Arc<dyn Pollable>) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        if self.epfd < 0 {
            return Err(io::Error::other("epoll instance unavailable"));
        }
        let fd = stream.as_raw_fd();
        // Insert before the ctl: the shard thread may see the event the
        // instant the ctl lands.
        self.entries.lock().insert(
            token,
            Entry {
                stream,
                handler,
                want_write: false,
            },
        );
        let armed = self.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            sys::EPOLLIN | sys::EPOLLRDHUP,
            token,
        );
        if armed.is_err() {
            self.entries.lock().remove(&token);
        }
        armed
    }

    fn set_write_interest(&self, token: u64, on: bool) {
        use std::os::fd::AsRawFd;
        let entries = self.entries.lock();
        if let Some(entry) = entries.get(&token) {
            let mut events = sys::EPOLLIN | sys::EPOLLRDHUP;
            if on {
                events |= sys::EPOLLOUT;
            }
            let fd = entry.stream.as_raw_fd();
            drop(entries);
            let _ = self.ctl(sys::EPOLL_CTL_MOD, fd, events, token);
        }
    }

    fn deregister(&self, token: u64) {
        use std::os::fd::AsRawFd;
        let entry = self.entries.lock().remove(&token);
        if let Some(entry) = entry {
            let _ = self.ctl(sys::EPOLL_CTL_DEL, entry.stream.as_raw_fd(), 0, token);
            // Dropping `entry.stream` closes the reactor's clone.
        }
    }

    fn run(self: Arc<Self>) {
        const MAX_EVENTS: usize = 64;
        if self.epfd < 0 {
            return;
        }
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        loop {
            let n = sys::wait(self.epfd, &mut events, -1);
            if n < 0 {
                if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return;
            }
            for ev in events.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct.
                let token = { ev.data };
                let flags = { ev.events };
                let writable = flags & sys::EPOLLOUT != 0;
                let readable =
                    flags & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLERR | sys::EPOLLHUP) != 0;
                // Never hold the map lock across handler dispatch: the
                // handler may re-enter want_write/deregister.
                let handler = self.entries.lock().get(&token).map(|e| Arc::clone(&e.handler));
                let Some(handler) = handler else { continue };
                let mut keep = true;
                if writable {
                    // One-shot: disarm before the callback; the handler
                    // re-arms if its write is still parked.
                    self.set_write_interest(token, false);
                    keep = handler.on_writable();
                }
                if keep && readable {
                    keep = handler.on_readable();
                }
                if !keep {
                    self.deregister(token);
                }
            }
        }
    }
}

/// Portable fallback: a condvar-paced readiness scan. Each shard wakes
/// when a connection registers and then sweeps its handlers, letting the
/// non-blocking reads discover readiness (`WouldBlock` costs one
/// syscall). Only compiled where epoll is unavailable.
#[cfg(not(target_os = "linux"))]
struct Shard {
    entries: parking_lot::Mutex<HashMap<u64, Entry>>,
    wake: parking_lot::Condvar,
}

#[cfg(not(target_os = "linux"))]
impl Shard {
    fn new() -> Shard {
        Shard {
            entries: parking_lot::Mutex::new(HashMap::new()),
            wake: parking_lot::Condvar::new(),
        }
    }

    fn register(&self, token: u64, stream: TcpStream, handler: Arc<dyn Pollable>) -> io::Result<()> {
        let mut entries = self.entries.lock();
        entries.insert(
            token,
            Entry {
                stream,
                handler,
                want_write: false,
            },
        );
        self.wake.notify_all();
        Ok(())
    }

    fn set_write_interest(&self, token: u64, on: bool) {
        let mut entries = self.entries.lock();
        if let Some(entry) = entries.get_mut(&token) {
            entry.want_write = on;
        }
        self.wake.notify_all();
    }

    fn deregister(&self, token: u64) {
        self.entries.lock().remove(&token);
    }

    fn run(self: Arc<Self>) {
        loop {
            let sweep: Vec<(u64, bool, Arc<dyn Pollable>)> = {
                let mut entries = self.entries.lock();
                while entries.is_empty() {
                    self.wake.wait(&mut entries);
                }
                entries
                    .iter()
                    .map(|(t, e)| (*t, e.want_write, Arc::clone(&e.handler)))
                    .collect()
            };
            for (token, want_write, handler) in sweep {
                let mut keep = true;
                if want_write {
                    self.set_write_interest(token, false);
                    keep = handler.on_writable();
                }
                if keep {
                    keep = handler.on_readable();
                }
                if !keep {
                    self.deregister(token);
                }
            }
            // Pace the scan: readiness latency is bounded by this tick.
            let mut entries = self.entries.lock();
            self.wake
                .wait_for(&mut entries, std::time::Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    struct CountingEcho {
        stream: parking_lot::Mutex<TcpStream>,
        reads: AtomicUsize,
        closed: AtomicUsize,
    }

    impl Pollable for CountingEcho {
        fn on_readable(&self) -> bool {
            let mut stream = self.stream.lock();
            let mut buf = [0u8; 256];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => {
                        self.closed.fetch_add(1, Ordering::SeqCst);
                        return false;
                    }
                    Ok(n) => {
                        self.reads.fetch_add(n, Ordering::SeqCst);
                        let _ = stream.write_all(&buf[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(_) => {
                        self.closed.fetch_add(1, Ordering::SeqCst);
                        return false;
                    }
                }
            }
        }
    }

    fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if ok() {
                return true;
            }
            std::thread::yield_now();
        }
        ok()
    }

    #[test]
    fn reactor_dispatches_reads_and_detects_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let echo = Arc::new(CountingEcho {
            stream: parking_lot::Mutex::new(server.try_clone().unwrap()),
            reads: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
        });
        let reg = Reactor::global()
            .register(&server, "echo", Arc::clone(&echo) as Arc<dyn Pollable>)
            .unwrap();

        let mut client = client;
        client.write_all(b"ping!").unwrap();
        assert!(wait_until(Duration::from_secs(5), || {
            echo.reads.load(Ordering::SeqCst) == 5
        }));
        // The handler echoed back through its own clone.
        let mut back = [0u8; 5];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping!");

        drop(client);
        assert!(wait_until(Duration::from_secs(5), || {
            echo.closed.load(Ordering::SeqCst) == 1
        }));
        // Deregistered by returning false; a second deregister is a no-op.
        reg.deregister();
    }

    #[test]
    fn registrations_with_one_affinity_share_a_shard() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        struct Idle;
        impl Pollable for Idle {
            fn on_readable(&self) -> bool {
                true
            }
        }
        let regs: Vec<Registration> = (0..8)
            .map(|_| {
                let client = TcpStream::connect(addr).unwrap();
                Reactor::global()
                    .register(&client, "QM.SAME", Arc::new(Idle))
                    .unwrap()
            })
            .collect();
        assert!(regs.iter().all(|r| Arc::ptr_eq(&r.shard, &regs[0].shard)));
        regs.iter().for_each(Registration::deregister);
    }

    #[test]
    fn want_write_fires_writable_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        struct WriteWatch {
            fired: AtomicUsize,
        }
        impl Pollable for WriteWatch {
            fn on_readable(&self) -> bool {
                true
            }
            fn on_writable(&self) -> bool {
                self.fired.fetch_add(1, Ordering::SeqCst);
                true
            }
        }
        let watch = Arc::new(WriteWatch {
            fired: AtomicUsize::new(0),
        });
        let reg = Reactor::global()
            .register(&server, "watch", Arc::clone(&watch) as Arc<dyn Pollable>)
            .unwrap();
        // An idle socket is immediately writable; the notification is
        // one-shot, so exactly one callback per arm.
        reg.want_write();
        assert!(wait_until(Duration::from_secs(5), || {
            watch.fired.load(Ordering::SeqCst) >= 1
        }));
        reg.deregister();
        drop(client);
    }
}
