//! The threaded query server: MVCC reads over published snapshots, one
//! owning writer, and WAL-shipping replication.
//!
//! ## Architecture
//!
//! ```text
//!            accept loop (non-blocking, polls shutdown flag)
//!                 │  admission slot reserved at accept
//!                 ▼
//!        channel of admitted sockets ──► N session workers (greet here)
//!                                          │ reads: Arc<Snapshot> clone ──► pinned-epoch query path
//!                                          │ engine ops: bounded lane  ──► group-commit writer
//!                                          │ Subscribe: session becomes   (owns the ConstraintDb)
//!                                          ▼ a WAL-shipping stream        apply batch, one fsync,
//!                                     response frames                     publish snapshot, reply
//! ```
//!
//! * **Reads never block, and are never blocked.** The writer thread owns
//!   the engine outright; after every applied batch it publishes a fresh
//!   [`Snapshot`] (paired with its applied LSN) into a shared slot. A read
//!   request clones the `Arc` out of the slot (a mutex held for
//!   nanoseconds — never across a query, and never held by the writer
//!   while applying a batch) and runs the full `&self` query path against
//!   that pinned epoch. Every response is stamped with the LSN of the
//!   state it reflects — the snapshot's LSN for reads, the durable LSN
//!   for acknowledged writes — which is what read-your-writes clients
//!   compare across replicas.
//! * **Writes group-commit through one lane.** Mutations are
//!   `try_send`-ed into a bounded queue consumed by the writer thread; a
//!   full queue answers [`NetError::Overloaded`] instead of growing
//!   without bound. The writer drains the queue into a batch, applies it
//!   in arrival order, appends the mutations' WAL records and fsyncs
//!   *once*, publishes the new snapshot, and only then sends the replies:
//!   an acknowledged write is durable and visible, full stop. Checkpoints
//!   every `checkpoint_every` successful mutations fold the log into the
//!   shadow-paged commit. `Stats` and `Fsck` also ride this lane — they
//!   report the live engine, which only its owner can see.
//! * **Replication ships the WAL file itself.** A follower's `Subscribe`
//!   turns its session into a stream: the serving worker tails the
//!   primary's write-ahead log with [`Wal::read_from`] — the same code
//!   recovery replays — waking on a condvar the writer signals after each
//!   group-commit fsync, so a shipped record is always locally durable
//!   first. Batches are stop-and-wait: the follower acks its own durable
//!   LSN after applying, and per-follower progress is tracked for
//!   `stats`. A primary that should serve followers across restarts and
//!   partitions runs with WAL retention on (`set_wal_retention`), so any
//!   follower LSN gap stays servable from the file.
//! * **A replica is the same server in the follower role.**
//!   [`Server::bind_replica`] spawns a fetcher thread that subscribes to
//!   the primary, forwards each shipped batch into the engine lane
//!   (applied through the WAL replay path, record for record, so LSNs
//!   stay aligned), and acks after the replica's own fsync. The whole
//!   read surface — typed queries, SQL, EXPLAIN, `stats`, `fsck` — is
//!   served from published snapshots exactly as on the primary; writes
//!   answer [`NetError::NotPrimary`] with the primary's address as the
//!   leader hint.
//! * **Admission control.** An admission slot is reserved *atomically at
//!   accept time* and released when the session worker finishes — a
//!   client that flaps during the greeting cannot leak slots toward a
//!   permanent `Overloaded` state, and a wedged peer stalls a worker, not
//!   the accept loop. Beyond `max_connections` the greeting itself says
//!   [`HandshakeStatus::Overloaded`] and the socket is closed. A
//!   subscription occupies its worker for the follower's lifetime — size
//!   `workers` accordingly on a primary.
//! * **Deadlines.** Each request carries a relative deadline; it is
//!   checked before execution starts (reads) and again once the writer
//!   actually holds the write lock — a job that waited out its deadline
//!   behind a slow batch or checkpoint answers
//!   [`NetError::DeadlineExceeded`] without touching the engine.
//! * **Graceful shutdown.** The `Shutdown` op (or a [`ShutdownHandle`])
//!   raises a flag: the accept loop refuses new sessions, session workers
//!   finish the request in flight and close, subscriptions and the
//!   replica fetcher wind down, the writer drains its queue, and
//!   [`Server::run`] takes a final checkpoint before returning the
//!   engine.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cdb_core::db::{ConstraintDb, Snapshot};
use cdb_core::CdbError;
use cdb_storage::codec::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use cdb_storage::wal::Wal;

use crate::client::ShipStream;
use crate::dispatch::{apply_engine, apply_read, needs_engine, NodeStatus};
use crate::proto::{
    decode_hello, decode_request, encode_greeting, encode_response, FollowerInfo, HandshakeStatus,
    NetError, ReplicationInfo, Request, Response, WalBatch, PROTOCOL_VERSION,
};
use crate::replica::{fetcher_loop, ReplicaStatus};

/// How often idle sessions and the accept loop re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// Patience for the rest of a frame once its first byte has arrived.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);
/// Patience for the client's hello after the greeting.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);
/// Patience for response writes (a stalled client should not pin a worker).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Patience for the Overloaded/ShuttingDown refusal frame — a wedged
/// refused peer must not pin the accept loop.
const REFUSE_TIMEOUT: Duration = Duration::from_secs(2);
/// How often an idle subscription heartbeats its follower.
const HEARTBEAT: Duration = Duration::from_secs(1);
/// Patience for a follower's ack before the subscription is declared dead.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
/// Most records shipped per batch frame.
const SHIP_CHUNK: usize = 512;

/// Tunables of the serving layer.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Session worker threads (concurrent sessions actually served).
    pub workers: usize,
    /// Admitted-session ceiling; beyond it the greeting answers
    /// `Overloaded` and the socket closes.
    pub max_connections: usize,
    /// Depth of the bounded writer lane; a full lane answers `Overloaded`.
    pub write_queue: usize,
    /// Checkpoint after this many successful mutations.
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_connections: 64,
            write_queue: 64,
            checkpoint_every: 64,
        }
    }
}

/// Raises the server's shutdown flag from outside a session (signal
/// handlers, tests). Requesting shutdown is idempotent.
#[derive(Clone, Debug)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Begins graceful shutdown: stop admitting, drain, checkpoint, exit.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A client request queued for the engine lane.
pub(crate) struct WriteJob {
    request: Request,
    deadline: Option<Instant>,
    reply: mpsc::Sender<(u64, Result<Response, NetError>)>,
}

/// One unit of work for the engine-owning writer thread.
pub(crate) enum EngineJob {
    /// A client request that needs the live engine.
    Client(WriteJob),
    /// A batch of replicated WAL records from the fetcher (replica role),
    /// answered with the replica's applied LSN once durable.
    Apply {
        records: Vec<(u64, Vec<u8>)>,
        done: mpsc::Sender<Result<u64, String>>,
    },
}

/// Per-follower shipping progress, keyed by the follower's self-reported
/// id. Entries persist across reconnects so `batches` stays cumulative.
struct FollowerEntry {
    connected: bool,
    acked_lsn: u64,
    batches: u64,
}

/// What this node is in the replication topology.
enum RoleState {
    /// Serves writes; ships its WAL to any subscribed follower.
    Primary {
        /// The live WAL file subscriptions tail (None: in-memory engine,
        /// nothing shippable).
        wal_path: Option<PathBuf>,
        /// Latest fsynced LSN, advanced by the writer after each group
        /// commit; subscriptions never ship past it.
        durable: Mutex<u64>,
        durable_cv: Condvar,
        followers: Mutex<BTreeMap<String, FollowerEntry>>,
    },
    /// Applies the primary's WAL; answers `NotPrimary` to writes.
    Replica {
        /// The primary's address — the leader hint in redirects.
        primary: String,
        status: Arc<ReplicaStatus>,
    },
}

/// State shared by the accept loop, session workers and the writer.
struct Shared {
    /// Latest published snapshot, paired with the LSN of the last
    /// mutation it reflects. The lock guards only the swap — readers
    /// clone the `Arc` out and query lock-free; the writer replaces the
    /// pair after each applied batch.
    snapshot: Mutex<(Arc<Snapshot>, u64)>,
    shutdown: Arc<AtomicBool>,
    /// Admission slots in use. Reserved at accept, released when the
    /// session worker finishes (greeting failures included).
    active_sessions: AtomicUsize,
    role: RoleState,
}

impl Shared {
    /// The latest published snapshot and its LSN (one mutex-guarded clone).
    fn latest(&self) -> (Arc<Snapshot>, u64) {
        let slot = self.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        (Arc::clone(&slot.0), slot.1)
    }

    /// Publishes the engine's current state for readers. A failed
    /// publication keeps the previous snapshot serving — readers fall
    /// behind rather than erroring.
    fn publish(&self, db: &mut ConstraintDb) {
        let lsn = db.applied_lsn();
        match db.snapshot() {
            Ok(s) => {
                *self.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = (Arc::new(s), lsn);
            }
            Err(e) => eprintln!("cdb-server: snapshot publication failed: {e}"),
        }
    }

    /// Advances the durable watermark and wakes shipping subscriptions.
    /// Called by the writer after each successful group-commit fsync.
    fn mark_durable(&self, lsn: u64) {
        if let RoleState::Primary {
            durable,
            durable_cv,
            ..
        } = &self.role
        {
            let mut d = durable.lock().unwrap_or_else(|e| e.into_inner());
            if *d < lsn {
                *d = lsn;
                durable_cv.notify_all();
            }
        }
    }

    /// What `stats` reports about this node: replication role and
    /// progress, admitted sessions.
    fn node_status(&self) -> NodeStatus {
        let replication = match &self.role {
            RoleState::Primary { wal_path: None, .. } => None,
            RoleState::Primary {
                wal_path: Some(_),
                followers,
                ..
            } => {
                let followers = followers.lock().unwrap_or_else(|e| e.into_inner());
                Some(ReplicationInfo::Primary {
                    followers: followers
                        .iter()
                        .map(|(id, e)| FollowerInfo {
                            id: id.clone(),
                            connected: e.connected,
                            acked_lsn: e.acked_lsn,
                            batches: e.batches,
                        })
                        .collect(),
                })
            }
            RoleState::Replica { primary, status } => Some(ReplicationInfo::Replica {
                primary: primary.clone(),
                connected: status.connected.load(Ordering::SeqCst),
                applied_lsn: status.applied_lsn.load(Ordering::SeqCst),
                batches: status.batches.load(Ordering::SeqCst),
                source_lsn: status.source_lsn.load(Ordering::SeqCst),
            }),
        };
        NodeStatus {
            replication,
            connections: self.active_sessions.load(Ordering::SeqCst) as u32,
        }
    }
}

/// The server: a bound listener plus the shared engine. [`Server::run`]
/// blocks until graceful shutdown completes and returns the engine.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    db: ConstraintDb,
    shared: Arc<Shared>,
    config: ServerConfig,
}

impl Server {
    /// Binds a listener and wraps the engine for serving. Pass port 0 for
    /// an ephemeral port and read it back with [`local_addr`]. A writable
    /// file-backed engine gets its write-ahead log armed here, so every
    /// acknowledgement the server sends names a durable mutation;
    /// in-memory engines serve without one (nothing to promise, and
    /// nothing to ship — followers need a file-backed primary).
    ///
    /// [`local_addr`]: Server::local_addr
    ///
    /// # Errors
    /// [`CdbError::Io`] when the address cannot be bound or the
    /// write-ahead log cannot be created.
    pub fn bind(
        addr: impl ToSocketAddrs,
        mut db: ConstraintDb,
        config: ServerConfig,
    ) -> Result<Server, CdbError> {
        if !db.is_read_only() {
            db.begin_wal()?;
        }
        let role = RoleState::Primary {
            wal_path: db.wal_file_path(),
            durable: Mutex::new(db.wal_synced_lsn()),
            durable_cv: Condvar::new(),
            followers: Mutex::new(BTreeMap::new()),
        };
        Server::bind_with_role(addr, db, config, role)
    }

    /// Binds a read-serving follower of `primary`. The engine must be a
    /// writable file-backed database (the fetcher applies the primary's
    /// WAL records into it); it starts from whatever LSN it has already
    /// durably applied and subscribes for the rest, so restarts resume
    /// from the local file instead of re-shipping history.
    ///
    /// # Errors
    /// [`CdbError::ReadOnly`] for a read-only engine, [`CdbError::Io`]
    /// when the address cannot be bound or the WAL cannot be armed.
    pub fn bind_replica(
        addr: impl ToSocketAddrs,
        primary: impl Into<String>,
        mut db: ConstraintDb,
        config: ServerConfig,
    ) -> Result<Server, CdbError> {
        if db.is_read_only() {
            return Err(CdbError::ReadOnly);
        }
        db.begin_wal()?;
        let role = RoleState::Replica {
            primary: primary.into(),
            status: Arc::new(ReplicaStatus::new(db.applied_lsn())),
        };
        Server::bind_with_role(addr, db, config, role)
    }

    fn bind_with_role(
        addr: impl ToSocketAddrs,
        mut db: ConstraintDb,
        config: ServerConfig,
        role: RoleState,
    ) -> Result<Server, CdbError> {
        let listener = TcpListener::bind(addr).map_err(CdbError::from)?;
        let local_addr = listener.local_addr().map_err(CdbError::from)?;
        let lsn = db.applied_lsn();
        let initial = (Arc::new(db.snapshot()?), lsn);
        Ok(Server {
            listener,
            local_addr,
            db,
            shared: Arc::new(Shared {
                snapshot: Mutex::new(initial),
                shutdown: Arc::new(AtomicBool::new(false)),
                active_sessions: AtomicUsize::new(0),
                role,
            }),
            config,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared.shutdown))
    }

    /// Serves until shutdown is requested (by a `Shutdown` request or a
    /// [`ShutdownHandle`]), then drains in-flight work, takes a final
    /// checkpoint and returns the engine.
    ///
    /// # Errors
    /// [`CdbError::Io`] when the final checkpoint fails; everything served
    /// before the last successful checkpoint is still durable.
    pub fn run(self) -> Result<ConstraintDb, CdbError> {
        let Server {
            listener,
            local_addr,
            db,
            shared,
            config,
        } = self;
        listener.set_nonblocking(true).map_err(CdbError::from)?;

        // Writer lane: bounded job queue into one writer thread, which
        // owns the engine for the server's whole life and hands it back
        // when the lane disconnects.
        let (write_tx, write_rx) = mpsc::sync_channel::<EngineJob>(config.write_queue.max(1));
        let writer = {
            let shared = Arc::clone(&shared);
            let every = config.checkpoint_every.max(1);
            std::thread::spawn(move || writer_loop(db, &shared, &write_rx, every))
        };

        // Replica role: the fetcher subscribes to the primary and feeds
        // shipped batches into the same engine lane.
        let fetcher = match &shared.role {
            RoleState::Replica { primary, status } => {
                let primary = primary.clone();
                let status = Arc::clone(status);
                let jobs = write_tx.clone();
                let shutdown = Arc::clone(&shared.shutdown);
                let follower_id = local_addr.to_string();
                Some(std::thread::spawn(move || {
                    fetcher_loop(&primary, &follower_id, &status, &jobs, &shutdown);
                }))
            }
            RoleState::Primary { .. } => None,
        };

        // Session workers: a fixed pool draining admitted sockets. The
        // worker both greets and serves; the admission slot reserved at
        // accept is released here no matter how the session ends.
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let workers: Vec<_> = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let conn_rx = Arc::clone(&conn_rx);
                let write_tx = write_tx.clone();
                std::thread::spawn(move || loop {
                    let next = conn_rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    match next {
                        Ok(stream) => {
                            serve_session(&shared, &write_tx, stream);
                            shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(_) => return, // accept loop gone: drain complete
                    }
                })
            })
            .collect();

        // Accept loop: reserve an admission slot atomically, hand off.
        while !shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let admitted = shared
                        .active_sessions
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                            (n < config.max_connections).then_some(n + 1)
                        })
                        .is_ok();
                    if !admitted {
                        // Refused without ever holding a slot; a wedged
                        // peer costs at most REFUSE_TIMEOUT here.
                        let _ = refuse(&stream, HandshakeStatus::Overloaded);
                        continue;
                    }
                    if conn_tx.send(stream).is_err() {
                        shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
                        break; // workers gone — nothing left to serve with
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }

        // Refuse the sockets the OS already queued, then drain.
        while let Ok((stream, _)) = listener.accept() {
            let _ = refuse(&stream, HandshakeStatus::ShuttingDown);
        }
        drop(conn_tx); // workers finish queued sessions, then exit
        for w in workers {
            let _ = w.join();
        }
        if let Some(f) = fetcher {
            let _ = f.join(); // exits on the shutdown flag (bounded reads)
        }
        drop(write_tx); // writer drains remaining jobs, then exits
        let mut db = writer.join().expect("writer thread panicked");
        db.checkpoint()?;
        Ok(db)
    }
}

/// Sends the greeting frame on a fresh socket (with a write timeout so a
/// wedged peer cannot pin the worker).
fn greet(stream: &TcpStream, status: HandshakeStatus) -> std::io::Result<()> {
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut s = stream;
    write_frame(&mut s, &encode_greeting(PROTOCOL_VERSION, status))?;
    s.flush()
}

/// Best-effort refusal greeting from the accept loop, on a short leash.
fn refuse(stream: &TcpStream, status: HandshakeStatus) -> std::io::Result<()> {
    stream.set_write_timeout(Some(REFUSE_TIMEOUT))?;
    let mut s = stream;
    write_frame(&mut s, &encode_greeting(PROTOCOL_VERSION, status))?;
    s.flush()
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn respond(
    stream: &mut TcpStream,
    request_id: u64,
    lsn: u64,
    outcome: &Result<Response, NetError>,
) -> std::io::Result<()> {
    write_frame(stream, &encode_response(request_id, lsn, outcome))?;
    stream.flush()
}

/// Serves one admitted session to completion, greeting included. All
/// transport failures end the session silently — the peer is gone or out
/// of sync; the engine's state is untouched by transport trouble. The
/// caller releases the admission slot afterwards, so a greeting that
/// never lands cannot leak capacity.
fn serve_session(shared: &Shared, write_tx: &SyncSender<EngineJob>, mut stream: TcpStream) {
    if greet(&stream, HandshakeStatus::Ok).is_err() {
        return;
    }
    let _ = session_loop(shared, write_tx, &mut stream);
}

fn session_loop(
    shared: &Shared,
    write_tx: &SyncSender<EngineJob>,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;

    // Hello: verify the peer speaks our protocol before serving anything.
    stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
    let hello = match read_frame(stream, DEFAULT_MAX_FRAME) {
        Ok(p) => p,
        Err(_) => return Ok(()),
    };
    match decode_hello(&hello) {
        Ok(v) if v == PROTOCOL_VERSION => {}
        Ok(_) => {
            let _ = respond(
                stream,
                0,
                0,
                &Err(NetError::VersionMismatch {
                    server_version: PROTOCOL_VERSION,
                }),
            );
            return Ok(());
        }
        Err(e) => {
            let _ = respond(stream, 0, 0, &Err(NetError::Malformed(e.to_string())));
            return Ok(());
        }
    }

    loop {
        // Idle poll: wait for the first byte of a frame without consuming
        // it, so the shutdown flag is observed between requests and a
        // timeout can never desynchronize the frame stream.
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Ok(()); // drained: nothing in flight on this session
            }
            stream.set_read_timeout(Some(POLL_INTERVAL))?;
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return Ok(()), // peer hung up
                Ok(_) => break,
                Err(e) if would_block(&e) => continue,
                Err(_) => return Ok(()),
            }
        }

        stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
        let payload = match read_frame(stream, DEFAULT_MAX_FRAME) {
            Ok(p) => p,
            Err(FrameError::Closed) => return Ok(()),
            Err(FrameError::Corrupt(e)) => {
                // The stream is out of sync; report and close.
                let _ = respond(stream, 0, 0, &Err(NetError::Malformed(e.to_string())));
                return Ok(());
            }
            Err(FrameError::Io(_)) => return Ok(()),
        };
        let env = match decode_request(&payload) {
            Ok(env) => env,
            Err(e) => {
                let _ = respond(stream, 0, 0, &Err(NetError::Malformed(e.to_string())));
                return Ok(());
            }
        };
        let deadline = (env.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(u64::from(env.deadline_ms)));

        // A subscription leaves the request/response discipline for good:
        // the rest of the session is the shipping stream.
        if let Request::Subscribe {
            from_lsn,
            follower_id,
        } = env.request
        {
            return serve_subscription(shared, stream, env.request_id, from_lsn, &follower_id);
        }

        let (lsn, outcome) = dispatch(shared, write_tx, env.request, deadline);
        respond(stream, env.request_id, lsn, &outcome)?;
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn dispatch(
    shared: &Shared,
    write_tx: &SyncSender<EngineJob>,
    request: Request,
    deadline: Option<Instant>,
) -> (u64, Result<Response, NetError>) {
    if request == Request::Shutdown {
        shared.shutdown.store(true, Ordering::SeqCst);
        return (0, Ok(Response::Unit));
    }
    if expired(deadline) {
        return (0, Err(NetError::DeadlineExceeded));
    }
    // A replica redirects every mutation to its primary before anything
    // touches the lane — followers apply shipped records only.
    if let RoleState::Replica { primary, .. } = &shared.role {
        if request.is_write() {
            return (
                0,
                Err(NetError::NotPrimary {
                    leader_hint: Some(primary.clone()),
                }),
            );
        }
    }
    // Engine operations ride the writer lane; everything else is answered
    // from the latest published snapshot without ever waiting on the writer.
    if needs_engine(&request) {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = EngineJob::Client(WriteJob {
            request,
            deadline,
            reply: reply_tx,
        });
        match write_tx.try_send(job) {
            Ok(()) => reply_rx.recv().unwrap_or((0, Err(NetError::ShuttingDown))),
            Err(TrySendError::Full(_)) => (0, Err(NetError::Overloaded)),
            Err(TrySendError::Disconnected(_)) => (0, Err(NetError::ShuttingDown)),
        }
    } else {
        let (snap, lsn) = shared.latest();
        (lsn, apply_read(&snap, &request))
    }
}

/// Blocks until the durable watermark reaches `at_least`, the patience
/// runs out (heartbeat tick), or shutdown; returns the current watermark.
fn wait_for_lsn(
    durable: &Mutex<u64>,
    cv: &Condvar,
    at_least: u64,
    shutdown: &AtomicBool,
    patience: Duration,
) -> u64 {
    let deadline = Instant::now() + patience;
    let mut d = durable.lock().unwrap_or_else(|e| e.into_inner());
    while *d < at_least && !shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, _) = cv
            .wait_timeout(d, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        d = guard;
    }
    *d
}

/// Turns an admitted session into a WAL-shipping stream. Validates that
/// the retained history covers the follower's resume point, registers the
/// follower for `stats`, then ships stop-and-wait batches read straight
/// from the WAL file — the same frames recovery replays — never past the
/// durable watermark.
fn serve_subscription(
    shared: &Shared,
    stream: &mut TcpStream,
    request_id: u64,
    from_lsn: u64,
    follower_id: &str,
) -> std::io::Result<()> {
    let (wal_path, durable, cv, followers) = match &shared.role {
        RoleState::Primary {
            wal_path: Some(p),
            durable,
            durable_cv,
            followers,
        } => (p.clone(), durable, durable_cv, followers),
        RoleState::Primary { wal_path: None, .. } => {
            return respond(
                stream,
                request_id,
                0,
                &Err(NetError::Malformed(
                    "this server has no shippable write-ahead log".into(),
                )),
            );
        }
        RoleState::Replica { primary, .. } => {
            return respond(
                stream,
                request_id,
                0,
                &Err(NetError::NotPrimary {
                    leader_hint: Some(primary.clone()),
                }),
            );
        }
    };
    // History check: shipping must be gapless from the follower's resume
    // point. A follower older than the retained history must reseed.
    let start_lsn = match Wal::read_from(&wal_path, 0, 0) {
        Ok(Some(scan)) => scan.start_lsn,
        _ => {
            return respond(
                stream,
                request_id,
                0,
                &Err(NetError::Malformed(
                    "the write-ahead log is unreadable".into(),
                )),
            );
        }
    };
    let durable_now = *durable.lock().unwrap_or_else(|e| e.into_inner());
    if from_lsn < start_lsn || from_lsn > durable_now + 1 {
        return respond(
            stream,
            request_id,
            0,
            &Err(NetError::Malformed(format!(
                "cannot ship from lsn {from_lsn}: retained history covers \
                 {start_lsn}..={durable_now} — reseed the follower from a base copy"
            ))),
        );
    }
    {
        let mut f = followers.lock().unwrap_or_else(|e| e.into_inner());
        let entry = f.entry(follower_id.to_string()).or_insert(FollowerEntry {
            connected: false,
            acked_lsn: 0,
            batches: 0,
        });
        entry.connected = true;
        entry.acked_lsn = entry.acked_lsn.max(from_lsn.saturating_sub(1));
    }
    respond(
        stream,
        request_id,
        durable_now,
        &Ok(Response::Subscribed {
            start_lsn,
            durable_lsn: durable_now,
        }),
    )?;
    let result = ship_loop(
        shared,
        stream,
        &wal_path,
        durable,
        cv,
        followers,
        follower_id,
        from_lsn,
    );
    if let Some(entry) = followers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_mut(follower_id)
    {
        entry.connected = false;
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn ship_loop(
    shared: &Shared,
    stream: &mut TcpStream,
    wal_path: &Path,
    durable: &Mutex<u64>,
    cv: &Condvar,
    followers: &Mutex<BTreeMap<String, FollowerEntry>>,
    follower_id: &str,
    from_lsn: u64,
) -> std::io::Result<()> {
    let mut next = from_lsn;
    stream.set_read_timeout(Some(ACK_TIMEOUT))?;
    let mut ship = ShipStream { stream };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let durable_now = wait_for_lsn(durable, cv, next, &shared.shutdown, HEARTBEAT);
        let mut records = Vec::new();
        if durable_now >= next {
            match Wal::read_from(wal_path, next, SHIP_CHUNK) {
                // A group commit is one `write_all` + fsync, and the
                // durable watermark is signaled only after the fsync, so
                // everything at or below it is intact in the file; the
                // retain guard drops any newer in-flight bytes.
                Ok(Some(mut scan)) => {
                    scan.records.retain(|(l, _)| *l <= durable_now);
                    records = scan.records;
                }
                Ok(None) | Err(_) => return Ok(()), // log vanished: drop the stream
            }
        }
        let last = records.last().map(|(l, _)| *l);
        // Empty batches are heartbeats: liveness plus the advancing
        // durable watermark for the follower's staleness accounting.
        ship.send_batch(&WalBatch {
            durable_lsn: durable_now,
            records,
        })?;
        let acked = match ship.read_ack() {
            Ok(a) => a,
            Err(_) => return Ok(()), // follower gone or wedged past ACK_TIMEOUT
        };
        {
            let mut f = followers.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = f.get_mut(follower_id) {
                entry.acked_lsn = entry.acked_lsn.max(acked);
                if last.is_some() {
                    entry.batches += 1;
                }
            }
        }
        if let Some(l) = last {
            next = l + 1;
        }
    }
}

/// The group-commit writer lane. Owns the engine: drains every queued job
/// into one batch, applies the batch in arrival order (client mutations
/// and replicated-apply batches alike), makes it durable with one
/// [`ConstraintDb::wal_sync`], publishes the resulting state as the
/// readers' new snapshot, advances the shipping watermark, and only then
/// sends the replies — so an acknowledgement always names a mutation that
/// both survives a crash and is visible to every later read. Checkpoints
/// every `checkpoint_every` successful mutations. Returns the engine when
/// the lane disconnects.
fn writer_loop(
    mut db: ConstraintDb,
    shared: &Shared,
    jobs: &Receiver<EngineJob>,
    checkpoint_every: u64,
) -> ConstraintDb {
    // Client replies inline a full Response (Stats is ~250 bytes); the
    // enum lives only for one batch, so the size skew is harmless.
    #[allow(clippy::large_enum_variant)]
    enum Pending {
        Client(
            mpsc::Sender<(u64, Result<Response, NetError>)>,
            Result<Response, NetError>,
        ),
        Apply(mpsc::Sender<Result<u64, String>>, Result<(), String>),
    }
    let mut since_checkpoint = 0u64;
    while let Ok(first) = jobs.recv() {
        // Everything already queued behind this job joins its batch.
        let mut batch = vec![first];
        while let Ok(job) = jobs.try_recv() {
            batch.push(job);
        }
        let mut replies = Vec::with_capacity(batch.len());
        let mut mutated = false;
        for job in batch {
            match job {
                EngineJob::Client(job) => {
                    // Re-check the deadline now that the job is being
                    // applied: it can wait out its deadline behind a slow
                    // batch or checkpoint, and must then be refused
                    // without mutating.
                    let is_write = job.request.is_write();
                    let outcome = if expired(job.deadline) {
                        Err(NetError::DeadlineExceeded)
                    } else {
                        apply_engine(&mut db, job.request, || shared.node_status())
                    };
                    if is_write && outcome.is_ok() {
                        mutated = true;
                        since_checkpoint += 1;
                    }
                    replies.push(Pending::Client(job.reply, outcome));
                }
                EngineJob::Apply { records, done } => {
                    let n = records.len() as u64;
                    let mut result = Ok(());
                    for (lsn, record) in &records {
                        if let Err(e) = db.apply_replicated(record) {
                            result = Err(format!("replicated record lsn {lsn}: {e}"));
                            break;
                        }
                    }
                    if result.is_ok() && n > 0 {
                        mutated = true;
                        since_checkpoint += n;
                    }
                    replies.push(Pending::Apply(done, result));
                }
            }
        }
        // One fsync covers the whole batch. If it fails, nothing in the
        // batch is durable — withdraw every success before anyone hears
        // about it.
        if let Err(e) = db.wal_sync() {
            for pending in replies.iter_mut() {
                match pending {
                    Pending::Client(_, outcome) if outcome.is_ok() => {
                        *outcome = Err(NetError::Db(CdbError::Io(format!(
                            "write-ahead log sync failed: {e}"
                        ))));
                    }
                    Pending::Apply(_, result) if result.is_ok() => {
                        *result = Err(format!("write-ahead log sync failed: {e}"));
                    }
                    _ => {}
                }
            }
        } else {
            // The batch is on disk: shipping subscriptions may stream it.
            shared.mark_durable(db.wal_synced_lsn());
        }
        if since_checkpoint >= checkpoint_every {
            match db.checkpoint() {
                // Only success resets the counter: after a failure the
                // very next mutation retries instead of waiting out a
                // whole window, and the failure streak is surfaced by
                // stats_snapshot().
                Ok(()) => since_checkpoint = 0,
                Err(e) => eprintln!("cdb-server: periodic checkpoint failed: {e}"),
            }
        }
        // Publish before acknowledging: a client that hears its ack and
        // immediately reads must see its own write. Published even when
        // the sync failed — visibility tracks the in-memory engine, and
        // the withdrawn jobs were applied to it either way.
        if mutated {
            shared.publish(&mut db);
        }
        // The batch is durable and visible: acknowledge, stamped with the
        // state the acknowledgement names.
        let durable = db.wal_synced_lsn();
        let applied = db.applied_lsn();
        for pending in replies {
            match pending {
                Pending::Client(reply, outcome) => {
                    // A vanished session is not an error.
                    let _ = reply.send((durable, outcome));
                }
                Pending::Apply(done, Ok(())) => {
                    let _ = done.send(Ok(applied));
                }
                Pending::Apply(done, Err(e)) => {
                    let _ = done.send(Err(e));
                }
            }
        }
    }
    // Queue disconnected: every session is gone. The final checkpoint
    // happens in Server::run after the writer joins.
    db
}
