//! The connection front end shared by [`crate::server`] and
//! [`crate::router`].
//!
//! Both speak the same newline-delimited JSON protocol with the same
//! thread topology, so the connection machinery lives here once,
//! generic over a [`Role`] and monomorphised twice (the pool-backed
//! server and the lane-backed router):
//!
//! - one acceptor thread: accept-error backoff, reaping of finished
//!   connection handles, and the `accept_errors` / `open_connections`
//!   counters;
//! - per connection a reader thread (line framing with a read poll that
//!   notices shutdown, request parsing, `bad_request` replies, the
//!   `shutdown` verb) and a writer thread (resolves responses in request
//!   order and writes the v1 or v2 envelope);
//! - the self-connect that wakes the acceptor on shutdown, and `join`.
//!
//! A role decides what a parsed request means ([`Role::dispatch`]) and
//! waits out the requests it handed off ([`Role::resolve`]). A [`Slot`]
//! carries one handed-off result from whoever computes it (a pool
//! worker, a lane receiver) to the writer waiting on it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amnesiac_rng::Rng;
use amnesiac_telemetry::Json;

use crate::protocol::{code, Request, Response, RouteMeta, ServeError, WireVerb, PROTOCOL_VERSION};

/// The poll interval of every socket read loop; bounds how long shutdown
/// waits for an idle connection to notice the flag.
pub(crate) const READ_POLL: Duration = Duration::from_millis(25);

/// First pause after a transient `accept()` error. Without a pause, fd
/// exhaustion (EMFILE) under load turns the acceptor into a 100%-CPU
/// spin; with one, it backs off and retries once pressure eases.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(2);

/// Ceiling of the accept-error backoff (doubles per consecutive error).
/// Also bounds how long a draining front end waits for the acceptor to
/// re-check the shutdown flag after an error streak.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// The next accept-error pause: exponential, capped.
fn next_accept_backoff(current: Duration) -> Duration {
    (current * 2).min(ACCEPT_BACKOFF_MAX)
}

/// Locks a mutex, recovering the guard when a panicking thread poisoned
/// it. Every structure behind a serve mutex (stats counters, connection
/// handles, completion slots, lanes, membership) stays well-formed
/// across a handler panic, and refusing all further service over a
/// poisoned counter would turn one panic into an outage.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fresh process-unique node identity: a seeded-random 64-bit hex
/// string. Paired with `started_at_ms` in the `stats` payload so a
/// cluster membership view can tell a restarted worker from the old one
/// even when the OS reuses the port.
fn fresh_server_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 20))
        .unwrap_or(0);
    let seed = nanos ^ u64::from(std::process::id()).rotate_left(32);
    let mut rng = Rng::seed_from_u64(seed);
    format!("{:016x}", rng.next_u64())
}

/// Wall-clock milliseconds since the UNIX epoch (0 if the clock is
/// before the epoch, which only a badly broken host reports).
fn wall_clock_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The connection-layer state every role embeds: the bound address, the
/// drain flag, the acceptor's counters and the node's identity.
pub(crate) struct Front {
    pub(crate) addr: SocketAddr,
    shutdown: AtomicBool,
    /// Transient `listener.accept()` failures and connection threads
    /// that could not be spawned (each accept failure also costs a
    /// backoff pause in the acceptor).
    pub(crate) accept_errors: AtomicU64,
    /// Connections whose reader/writer threads are still running.
    pub(crate) open_connections: AtomicUsize,
    server_id: String,
    started: Instant,
    started_at_ms: u64,
}

impl Front {
    /// Binds the listener the acceptor will own.
    pub(crate) fn bind(host: &str, port: u16) -> std::io::Result<(TcpListener, Front)> {
        let listener = TcpListener::bind((host, port))?;
        let front = Front {
            addr: listener.local_addr()?,
            shutdown: AtomicBool::new(false),
            accept_errors: AtomicU64::new(0),
            open_connections: AtomicUsize::new(0),
            server_id: fresh_server_id(),
            started: Instant::now(),
            started_at_ms: wall_clock_ms(),
        };
        Ok((listener, front))
    }

    /// `true` once shutdown began.
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Raises the drain flag and wakes the acceptor out of its blocking
    /// `accept` (the throwaway self-connection is dropped unserved).
    /// `true` only for the call that raised the flag.
    pub(crate) fn begin_shutdown(&self) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        let _ = TcpStream::connect(self.addr);
        true
    }

    /// Appends the identity fields of a `stats` payload to `payload`.
    pub(crate) fn identity(&self, payload: Json) -> Json {
        payload
            .with("protocol_version", PROTOCOL_VERSION)
            .with("server_id", self.server_id.as_str())
            .with("started_at_ms", self.started_at_ms)
            .with("uptime_ms", self.started.elapsed().as_secs_f64() * 1e3)
    }
}

/// The error a draining node answers new work with.
pub(crate) fn draining_error(node: &str) -> ServeError {
    ServeError::new(
        code::SHUTTING_DOWN,
        format!("{node} is draining and refuses new work"),
    )
}

/// What a role does with one request line: answer now, or hand it off
/// and let the writer [`Role::resolve`] it in request order.
pub(crate) enum Reply<P> {
    Ready(Result<Json, ServeError>),
    Pending(P),
}

/// A handed-off request's outcome, as the writer reports it.
pub(crate) struct Resolved {
    pub(crate) result: Result<Json, ServeError>,
    /// Re-placements after a lost worker (v2 `rerouted`).
    pub(crate) rerouted: u64,
    /// The node behind this one that answered: its v2 hop label and ms.
    pub(crate) hop: Option<(String, f64)>,
}

impl Resolved {
    /// An outcome this node decided itself: no reroute, no hop behind it.
    pub(crate) fn local(result: Result<Json, ServeError>) -> Resolved {
        Resolved {
            result,
            rerouted: 0,
            hop: None,
        }
    }
}

/// What a node does with requests; the front end does everything else.
pub(crate) trait Role: Send + Sync + 'static {
    /// Per-connection state shared by the connection's reader and
    /// writer (the server's job queue, the router's worker lanes).
    type Conn: Send + Sync + 'static;
    /// A handed-off request, as the writer needs it to resolve it.
    type Pending: Send + 'static;
    /// Thread-name prefix (`<NAME>-accept`, `-conn`, `-write`).
    const NAME: &'static str;
    /// This node's label, the first hop of a v2 envelope.
    const HOP: &'static str;

    fn front(&self) -> &Front;

    /// Begins a graceful drain (the `shutdown` verb and API).
    fn begin_shutdown(&self) {
        self.front().begin_shutdown();
    }

    /// Decides one parsed request other than `shutdown`, on the reader.
    fn dispatch(self: &Arc<Self>, conn: &Self::Conn, request: &Request) -> Reply<Self::Pending>;

    /// Waits out one handed-off request, on the writer, in request order.
    fn resolve(
        self: &Arc<Self>,
        conn: &Self::Conn,
        pending: Self::Pending,
        received: Instant,
    ) -> Resolved;

    /// Accounts one answered request (called whether or not the client
    /// is still there to read it).
    fn record(&self, _verb: &str, _result: &Result<Json, ServeError>, _elapsed_ms: f64) {}
}

/// One request's completion slot, shared between the thread computing
/// its result and the connection writer waiting on it.
pub(crate) struct Slot<T> {
    value: Mutex<Option<T>>,
    done: Condvar,
    /// Set by a waiter that gave up, so work not yet started is skipped.
    cancelled: AtomicBool,
}

impl<T> Slot<T> {
    pub(crate) fn new() -> Slot<T> {
        Slot {
            value: Mutex::new(None),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        }
    }

    pub(crate) fn complete(&self, value: T) {
        *lock(&self.value) = Some(value);
        self.done.notify_all();
    }

    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Waits for completion until `deadline`; `None` means the deadline
    /// passed first.
    pub(crate) fn wait_until(&self, deadline: Instant) -> Option<T> {
        let mut value = lock(&self.value);
        loop {
            if let Some(done) = value.take() {
                return Some(done);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timeout) = self
                .done
                .wait_timeout(value, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            value = next;
            if timeout.timed_out() && value.is_none() {
                return None;
            }
        }
    }
}

/// What one poll of a line-framed socket produced.
pub(crate) enum Line {
    /// `buf` ends with a complete `\n`-terminated line.
    Full,
    /// The peer closed after a line without its `\n`.
    Partial,
    /// The read poll elapsed; `buf` keeps any partial line.
    Idle,
    /// Clean EOF or a connection error.
    Closed,
}

/// Reads up to the next `\n` into `buf`, which keeps a partial line
/// across polls.
pub(crate) fn poll_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> Line {
    match reader.read_until(b'\n', buf) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Line::Idle
        }
        Err(_) => Line::Closed,
        Ok(_) if buf.last() == Some(&b'\n') => Line::Full,
        Ok(_) if !buf.is_empty() => Line::Partial,
        Ok(_) => Line::Closed,
    }
}

/// The running acceptor and the connection handles it tracks.
pub(crate) struct Acceptor {
    handle: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Acceptor {
    /// Starts the acceptor thread over `listener`. `new_conn` makes each
    /// accepted connection's [`Role::Conn`]; it lives on the acceptor
    /// thread and is dropped when the acceptor exits.
    pub(crate) fn spawn<R: Role>(
        listener: TcpListener,
        role: Arc<R>,
        new_conn: impl FnMut() -> R::Conn + Send + 'static,
    ) -> std::io::Result<Acceptor> {
        let conns = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name(format!("{}-accept", R::NAME))
                .spawn(move || acceptor_loop(listener, role, conns, new_conn))?
        };
        Ok(Acceptor {
            handle: Some(handle),
            conns,
        })
    }

    /// How many connection handles are tracked after reaping the
    /// finished ones.
    pub(crate) fn tracked(&self) -> usize {
        reap_finished(&self.conns);
        lock(&self.conns).len()
    }

    /// Waits for the acceptor, then for every connection. Prompt only
    /// after shutdown began; a second call is a no-op.
    pub(crate) fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        loop {
            let Some(conn) = lock(&self.conns).pop() else {
                break;
            };
            let _ = conn.join();
        }
    }
}

fn acceptor_loop<R: Role>(
    listener: TcpListener,
    role: Arc<R>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    mut new_conn: impl FnMut() -> R::Conn,
) {
    let front = role.front();
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Transient failure (EMFILE under load, a reset mid-handshake):
            // count it and pause before retrying so an error streak does
            // not pin a core at 100%.
            front.accept_errors.fetch_add(1, Ordering::AcqRel);
            if front.draining() {
                break;
            }
            thread::sleep(backoff);
            backoff = next_accept_backoff(backoff);
            continue;
        };
        backoff = ACCEPT_BACKOFF_MIN;
        if front.draining() {
            // Includes the self-connection `begin_shutdown` used as a wakeup.
            break;
        }
        // Reap connections that already wound down, so a long-running
        // node holds handles only for live connections rather than one
        // per connection ever accepted.
        reap_finished(&conns);
        front.open_connections.fetch_add(1, Ordering::AcqRel);
        let conn_role = Arc::clone(&role);
        let conn = new_conn();
        match thread::Builder::new()
            .name(format!("{}-conn", R::NAME))
            .spawn(move || serve_connection(conn_role, stream, conn))
        {
            Ok(handle) => lock(&conns).push(handle),
            Err(_) => {
                // Thread exhaustion: drop the connection unserved and count
                // it like an accept failure (same transient-pressure class).
                front.open_connections.fetch_sub(1, Ordering::AcqRel);
                front.accept_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

/// Removes and joins every finished connection handle. The join is
/// outside the lock (it is prompt — the threads are already done — but
/// there is no reason to hold up the acceptor's critical section for it).
fn reap_finished(conns: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> = {
        let mut guard = lock(conns);
        let mut out = Vec::new();
        let mut i = 0;
        while i < guard.len() {
            if guard[i].is_finished() {
                out.push(guard.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out
    };
    for handle in finished {
        let _ = handle.join();
    }
}

/// A response owed to the client, in request order.
struct Owed<P> {
    id: Json,
    verb: String,
    received: Instant,
    /// `Some(key)` when the request opted into the v2 envelope; `None`
    /// keeps the v1 envelope unchanged.
    routing_key: Option<String>,
    reply: Reply<P>,
}

fn serve_connection<R: Role>(role: Arc<R>, stream: TcpStream, conn: R::Conn) {
    // Balances the acceptor's increment on every exit path.
    struct OpenGuard<'a>(&'a AtomicUsize);
    impl Drop for OpenGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::AcqRel);
        }
    }
    let _open = OpenGuard(&role.front().open_connections);
    // Short read timeouts turn the blocking reader into a poll loop that
    // notices the shutdown flag; writes stay blocking.
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(conn);
    let (tx, rx) = channel::<Owed<R::Pending>>();
    let writer = {
        let role = Arc::clone(&role);
        let conn = Arc::clone(&conn);
        let spawned = thread::Builder::new()
            .name(format!("{}-write", R::NAME))
            .spawn(move || writer_loop(&role, &conn, write_stream, rx));
        match spawned {
            Ok(handle) => handle,
            // No writer means no way to answer: close the connection.
            Err(_) => return,
        }
    };
    reader_loop(&role, &conn, stream, &tx);
    drop(tx); // close the writer's queue so it drains and exits
    let _ = writer.join();
}

fn reader_loop<R: Role>(
    role: &Arc<R>,
    conn: &R::Conn,
    stream: TcpStream,
    tx: &Sender<Owed<R::Pending>>,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match poll_line(&mut reader, &mut buf) {
            Line::Idle => {
                if role.front().draining() {
                    return;
                }
            }
            Line::Closed => return,
            Line::Partial => {
                // EOF mid-line: answer what we got, then close.
                process_line(role, conn, tx, &buf);
                return;
            }
            Line::Full => {
                process_line(role, conn, tx, &buf);
                buf.clear();
            }
        }
    }
}

fn process_line<R: Role>(role: &Arc<R>, conn: &R::Conn, tx: &Sender<Owed<R::Pending>>, raw: &[u8]) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return; // blank keep-alive lines are ignored
    }
    let received = Instant::now();
    let owed = match Request::parse_line(line) {
        Err(error) => Owed {
            id: Json::Null,
            verb: "?".to_string(),
            received,
            routing_key: None,
            reply: Reply::Ready(Err(error)),
        },
        Ok(request) => {
            let reply = if request.wire_verb() == Some(WireVerb::Shutdown) {
                role.begin_shutdown();
                Reply::Ready(Ok(Json::obj().with("draining", true)))
            } else {
                role.dispatch(conn, &request)
            };
            Owed {
                routing_key: (request.proto_version() >= 2).then(|| request.routing_key()),
                id: request.id,
                verb: request.verb,
                received,
                reply,
            }
        }
    };
    let _ = tx.send(owed);
}

fn writer_loop<R: Role>(
    role: &Arc<R>,
    conn: &R::Conn,
    mut stream: TcpStream,
    rx: Receiver<Owed<R::Pending>>,
) {
    let mut broken = false;
    for owed in rx {
        let resolved = match owed.reply {
            Reply::Ready(result) => Resolved::local(result),
            Reply::Pending(pending) => role.resolve(conn, pending, owed.received),
        };
        let elapsed_ms = owed.received.elapsed().as_secs_f64() * 1e3;
        role.record(&owed.verb, &resolved.result, elapsed_ms);
        if broken {
            continue; // client is gone; keep draining so work is released
        }
        let meta = owed.routing_key.map(|key| {
            let mut meta = RouteMeta::local(key, R::HOP, elapsed_ms);
            meta.rerouted = resolved.rerouted;
            meta.hops.extend(resolved.hop);
            meta
        });
        let response = Response {
            id: owed.id,
            verb: owed.verb,
            elapsed_ms,
            result: resolved.result,
            meta,
        };
        let mut line = response.to_json().compact();
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() || stream.flush().is_err() {
            broken = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_and_caps() {
        let mut backoff = ACCEPT_BACKOFF_MIN;
        let mut seen = vec![backoff];
        for _ in 0..10 {
            backoff = next_accept_backoff(backoff);
            seen.push(backoff);
        }
        // strictly doubling until the cap, then pinned at the cap
        for pair in seen.windows(2) {
            assert!(pair[1] >= pair[0], "backoff never shrinks: {seen:?}");
            assert!(pair[1] <= ACCEPT_BACKOFF_MAX, "capped: {seen:?}");
        }
        assert_eq!(seen[1], ACCEPT_BACKOFF_MIN * 2);
        assert_eq!(*seen.last().unwrap(), ACCEPT_BACKOFF_MAX);
    }
}
