//! The concurrent batch server: the pool-backed `front` role.
//!
//! The shared front end accepts connections and gives each a reader and
//! a writer thread; this module decides what a request means. Request
//! execution happens on an [`amnesiac_pool`] work-stealing pool owned by
//! a dispatcher thread, so heavy verbs from many connections share one
//! bounded set of workers.
//!
//! ## Backpressure
//!
//! Admission is bounded: at most `backlog` requests may be queued or
//! running at once, across all connections. A request arriving at a full
//! backlog is rejected immediately with a structured
//! [`code::OVERLOADED`] error — it is never queued, so a fast client
//! cannot wedge the service.
//!
//! ## Deadlines and cancellation
//!
//! Every request carries a deadline (`timeout_ms` in the request, else
//! the server default). When the deadline passes before the job
//! completes, the writer sends a structured [`code::TIMEOUT`] error and
//! marks the job cancelled: a job still queued is skipped outright (true
//! cancellation); a job already running completes and its result is
//! discarded — safe Rust cannot preempt a compute in flight.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] (or a `shutdown` request) stops the acceptor,
//! makes readers refuse new requests with [`code::SHUTTING_DOWN`], and
//! lets every already-admitted request drain: writers deliver all pending
//! responses before their connections close. [`Server::join`] returns
//! once every connection and the worker pool have wound down.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amnesiac_pool::Pool;
use amnesiac_telemetry::Json;

use crate::front::{draining_error, lock, Acceptor, Front, Reply, Resolved, Role, Slot};
use crate::protocol::{code, Request, ServeError};

/// How the request handler is plugged into the server: a function from
/// parsed request to payload-or-error. Called on pool workers; must be
/// panic-safe in the sense that a panic is caught and reported as
/// [`code::INTERNAL`], never crashes the server.
pub type Handler = Arc<dyn Fn(&Request) -> Result<Json, ServeError> + Send + Sync>;

/// An optional extension to the `stats` verb's payload: called on every
/// stats snapshot, and every field of the returned object is appended to
/// the payload. Lets the embedding layer surface its own counters (e.g.
/// a shared compile cache) without the server knowing their shape.
pub type StatsHook = Arc<dyn Fn() -> Json + Send + Sync>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interface to bind (`127.0.0.1` unless you mean to expose it).
    pub host: String,
    /// TCP port; `0` picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub port: u16,
    /// Worker threads executing requests. At least 1.
    pub workers: usize,
    /// Maximum requests queued-or-running at once before new requests are
    /// rejected with [`code::OVERLOADED`]. At least 1.
    pub backlog: usize,
    /// Default per-request deadline in milliseconds (overridable per
    /// request via `timeout_ms`).
    pub timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .clamp(1, 8),
            backlog: 64,
            timeout_ms: 30_000,
        }
    }
}

/// Per-verb counters exposed by the `stats` verb. The router sums its
/// workers' counters into the same shape.
#[derive(Debug, Clone, Default)]
pub(crate) struct VerbStats {
    requests: u64,
    ok: u64,
    errors: u64,
    timeouts: u64,
    total_ms: f64,
    max_ms: f64,
}

impl VerbStats {
    fn record(&mut self, outcome: &Result<Json, ServeError>, elapsed_ms: f64) {
        self.requests += 1;
        match outcome {
            Ok(_) => self.ok += 1,
            Err(e) if e.code == code::TIMEOUT => self.timeouts += 1,
            Err(_) => self.errors += 1,
        }
        self.total_ms += elapsed_ms;
        self.max_ms = self.max_ms.max(elapsed_ms);
    }

    /// Adds one node's `verbs.<verb>` counters (missing fields count 0).
    pub(crate) fn merge_json(&mut self, counters: &Json) {
        let n = |field: &str| counters.get(field).and_then(Json::as_f64).unwrap_or(0.0);
        self.requests += n("requests") as u64;
        self.ok += n("ok") as u64;
        self.errors += n("errors") as u64;
        self.timeouts += n("timeouts") as u64;
        self.total_ms += n("total_ms");
        self.max_ms = self.max_ms.max(n("max_ms"));
    }

    /// The `verbs` object of a `stats` payload.
    pub(crate) fn verbs_json(verbs: &BTreeMap<String, VerbStats>) -> Json {
        let mut out = Json::obj();
        for (verb, v) in verbs {
            out.set(
                verb,
                Json::obj()
                    .with("requests", v.requests)
                    .with("ok", v.ok)
                    .with("errors", v.errors)
                    .with("timeouts", v.timeouts)
                    .with("total_ms", v.total_ms)
                    .with("max_ms", v.max_ms),
            );
        }
        out
    }
}

/// A queued request's work, run on a pool worker.
type Task = Box<dyn FnOnce() + Send>;

/// An admitted request: its completion slot and its deadline.
type Admitted = (Arc<Slot<Result<Json, ServeError>>>, Instant);

struct Shared {
    front: Front,
    handler: Handler,
    backlog: usize,
    timeout_ms: u64,
    workers: usize,
    /// Requests currently queued or running (admission counter).
    inflight: AtomicUsize,
    rejected_overload: AtomicU64,
    /// Jobs the pool skipped because their deadline had already passed
    /// (or the writer had cancelled them) by the time a worker got there.
    expired_skipped: AtomicU64,
    verbs: Mutex<BTreeMap<String, VerbStats>>,
    stats_ext: Option<StatsHook>,
}

impl Shared {
    /// Tries to admit one request under the backlog bound.
    fn try_admit(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.backlog).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// The `stats` verb's payload.
    fn stats_json(&self) -> Json {
        let front = &self.front;
        let mut payload = front
            .identity(Json::obj())
            .with("workers", self.workers)
            .with("backlog", self.backlog)
            .with("timeout_ms", self.timeout_ms)
            .with("inflight", self.inflight.load(Ordering::Acquire))
            .with(
                "rejected_overload",
                self.rejected_overload.load(Ordering::Acquire),
            )
            .with("accept_errors", front.accept_errors.load(Ordering::Acquire))
            .with(
                "open_connections",
                front.open_connections.load(Ordering::Acquire),
            )
            .with(
                "expired_skipped",
                self.expired_skipped.load(Ordering::Acquire),
            )
            .with("draining", front.draining())
            .with("verbs", VerbStats::verbs_json(&lock(&self.verbs)));
        if let Some(hook) = &self.stats_ext {
            if let Json::Obj(fields) = hook() {
                for (key, value) in fields {
                    payload.set(&key, value);
                }
            }
        }
        payload
    }

    /// Admits one request and queues it on the pool.
    fn submit(self: &Arc<Self>, jobs_tx: &Sender<Task>, request: &Request) -> Reply<Admitted> {
        if !self.try_admit() {
            self.rejected_overload.fetch_add(1, Ordering::AcqRel);
            return Reply::Ready(Err(ServeError::new(
                code::OVERLOADED,
                format!("backlog full ({} requests in flight)", self.backlog),
            )));
        }
        let job = Arc::new(Slot::new());
        let deadline =
            Instant::now() + Duration::from_millis(request.timeout_ms.unwrap_or(self.timeout_ms));
        let task = {
            let job = Arc::clone(&job);
            let shared = Arc::clone(self);
            let request = request.clone();
            Box::new(move || {
                // A request whose deadline passed while it was still
                // queued is cancelled outright — never executed. The
                // writer cancels the job when it observes the timeout,
                // but it can only do so after resolving every earlier
                // response on its connection; the deadline check covers
                // the window where an expired job reaches a worker
                // before the writer got that far, so a pile-up of
                // expired queued requests never burns worker time.
                if job.is_cancelled() || Instant::now() >= deadline {
                    shared.expired_skipped.fetch_add(1, Ordering::AcqRel);
                } else {
                    let outcome = catch_unwind(AssertUnwindSafe(|| (shared.handler)(&request)))
                        .unwrap_or_else(|_| {
                            Err(ServeError::new(
                                code::INTERNAL,
                                format!("handler panicked on verb `{}`", request.verb),
                            ))
                        });
                    job.complete(outcome);
                }
                shared.release();
            }) as Task
        };
        if jobs_tx.send(task).is_err() {
            // Dispatcher gone: only possible mid-shutdown.
            self.release();
            return Reply::Ready(Err(draining_error("server")));
        }
        Reply::Pending((job, deadline))
    }
}

impl Role for Shared {
    /// The connection's sender to the pool's dispatcher.
    type Conn = Sender<Task>;
    type Pending = Admitted;
    const NAME: &'static str = "amnesiac-serve";
    const HOP: &'static str = "serve";

    fn front(&self) -> &Front {
        &self.front
    }

    /// Answers `stats` and drain refusals inline; admits the rest.
    fn dispatch(
        self: &Arc<Self>,
        jobs_tx: &Sender<Task>,
        request: &Request,
    ) -> Reply<Self::Pending> {
        if request.verb == "stats" {
            Reply::Ready(Ok(self.stats_json()))
        } else if self.front.draining() {
            Reply::Ready(Err(draining_error("server")))
        } else {
            self.submit(jobs_tx, request)
        }
    }

    fn resolve(
        self: &Arc<Self>,
        _: &Sender<Task>,
        (job, deadline): Self::Pending,
        received: Instant,
    ) -> Resolved {
        Resolved::local(job.wait_until(deadline).unwrap_or_else(|| {
            job.cancel();
            Err(ServeError::new(
                code::TIMEOUT,
                format!(
                    "request exceeded its {} ms deadline",
                    (deadline - received).as_millis()
                ),
            ))
        }))
    }

    fn record(&self, verb: &str, outcome: &Result<Json, ServeError>, elapsed_ms: f64) {
        lock(&self.verbs)
            .entry(verb.to_string())
            .or_default()
            .record(outcome, elapsed_ms);
    }
}

/// A running batch service. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] then [`Server::join`] (or
/// [`Server::stop`] for both).
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Acceptor,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and acceptor, and returns
    /// immediately. Requests are served until [`Server::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig, handler: Handler) -> std::io::Result<Server> {
        Server::start_with_stats(config, handler, None)
    }

    /// [`Server::start`] with an optional [`StatsHook`] whose fields are
    /// appended to every `stats` payload.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_with_stats(
        config: ServerConfig,
        handler: Handler,
        stats_ext: Option<StatsHook>,
    ) -> std::io::Result<Server> {
        let (listener, front) = Front::bind(&config.host, config.port)?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            front,
            handler,
            backlog: config.backlog.max(1),
            timeout_ms: config.timeout_ms.max(1),
            workers,
            inflight: AtomicUsize::new(0),
            rejected_overload: AtomicU64::new(0),
            expired_skipped: AtomicU64::new(0),
            verbs: Mutex::new(BTreeMap::new()),
            stats_ext,
        });
        // The dispatcher thread owns the pool: jobs reach it over a
        // channel whose senders are held by the acceptor and the
        // connections, so the pool is dropped (draining its queue)
        // exactly when the last connection is done — never from inside
        // one of its own workers.
        let (jobs_tx, jobs_rx) = channel::<Task>();
        let dispatcher = thread::Builder::new()
            .name("amnesiac-serve-dispatch".into())
            .spawn(move || dispatcher_loop(workers, jobs_rx))?;
        let acceptor = Acceptor::spawn(listener, Arc::clone(&shared), move || jobs_tx.clone())?;
        Ok(Server {
            shared,
            acceptor,
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (read this when `port` was 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.front.addr
    }

    /// Begins a graceful shutdown: stop accepting, refuse new requests,
    /// drain in-flight ones. Returns immediately; pair with
    /// [`Server::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// A snapshot of the server counters (same payload as the `stats`
    /// verb).
    pub fn stats_json(&self) -> Json {
        self.shared.stats_json()
    }

    /// How many connection handles the server currently tracks. Finished
    /// connections are reaped on every accept, so this stays close to the
    /// number of live connections instead of growing by one per
    /// connection ever accepted — soak tests assert exactly that bound.
    pub fn tracked_connections(&self) -> usize {
        self.acceptor.tracked()
    }

    /// Waits until the acceptor, every connection, and the worker pool
    /// have exited. Only returns promptly after [`Server::shutdown`] (or
    /// a `shutdown` request) — otherwise it waits for the next one. The
    /// server handle stays usable afterwards (e.g. for a final
    /// [`Server::stats_json`] snapshot); a second call is a no-op.
    pub fn join(&mut self) {
        self.acceptor.join();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
    }

    /// [`Server::shutdown`] followed by [`Server::join`].
    pub fn stop(mut self) {
        self.shutdown();
        self.join();
    }
}

fn dispatcher_loop(workers: usize, jobs: Receiver<Task>) {
    let pool = Pool::new(workers);
    for job in jobs {
        pool.spawn(job);
    }
    // Pool drop drains still-queued jobs before joining its workers.
}
