//! The threaded query server: MVCC reads over published snapshots and one
//! owning writer.
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
//!                                          ▼                              (owns the ConstraintDb)
//!                                     response frames                     apply batch, one fsync,
//!                                                                         publish snapshot, reply
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
//!   for acknowledged writes.
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
//! * **Admission control.** An admission slot is reserved *atomically at
//!   accept time* and released when the session worker finishes — a
//!   client that flaps during the greeting cannot leak slots toward a
//!   permanent `Overloaded` state, and a wedged peer stalls a worker, not
//!   the accept loop. Beyond `max_connections` the greeting itself says
//!   [`HandshakeStatus::Overloaded`] and the socket is closed.
//! * **Deadlines.** Each request carries a relative deadline; it is
//!   checked before execution starts (reads) and again once the writer
//!   actually holds the write lock — a job that waited out its deadline
//!   behind a slow batch or checkpoint answers
//!   [`NetError::DeadlineExceeded`] without touching the engine.
//! * **Graceful shutdown.** The `Shutdown` op (or a [`ShutdownHandle`])
//!   raises a flag: the accept loop refuses new sessions, session workers
//!   finish the request in flight and close, the writer drains its queue,
//!   and [`Server::run`] takes a final checkpoint before returning the
//!   engine.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cdb_core::db::{ConstraintDb, Snapshot};
use cdb_core::CdbError;
use cdb_storage::codec::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};

use crate::dispatch::{apply_engine, apply_read, needs_engine};
use crate::proto::{
    decode_hello, decode_request, encode_greeting, encode_response, HandshakeStatus, NetError,
    Request, Response, PROTOCOL_VERSION,
};

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

/// A client request queued for the engine lane, answered with the LSN
/// its outcome is stamped with.
struct WriteJob {
    request: Request,
    deadline: Option<Instant>,
    reply: mpsc::Sender<(u64, Result<Response, NetError>)>,
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

    /// Client sessions currently admitted — what `stats` reports beside
    /// the engine.
    fn connections(&self) -> u32 {
        self.active_sessions.load(Ordering::SeqCst) as u32
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
    /// in-memory engines serve without one (nothing to promise).
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
            db,
            shared,
            config,
            ..
        } = self;
        listener.set_nonblocking(true).map_err(CdbError::from)?;

        // Writer lane: bounded job queue into one writer thread, which
        // owns the engine for the server's whole life and hands it back
        // when the lane disconnects.
        let (write_tx, write_rx) = mpsc::sync_channel::<WriteJob>(config.write_queue.max(1));
        let writer = {
            let shared = Arc::clone(&shared);
            let every = config.checkpoint_every.max(1);
            std::thread::spawn(move || writer_loop(db, &shared, &write_rx, every))
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
                        let _ = greet(&stream, HandshakeStatus::Overloaded, REFUSE_TIMEOUT);
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
            let _ = greet(&stream, HandshakeStatus::ShuttingDown, REFUSE_TIMEOUT);
        }
        drop(conn_tx); // workers finish queued sessions, then exit
        for w in workers {
            let _ = w.join();
        }
        drop(write_tx); // writer drains remaining jobs, then exits
        let mut db = writer.join().expect("writer thread panicked");
        db.checkpoint()?;
        Ok(db)
    }
}

/// Sends the greeting frame on a fresh socket, with a write timeout so a
/// wedged peer cannot pin the thread: [`WRITE_TIMEOUT`] for a session's
/// worker, the short [`REFUSE_TIMEOUT`] for a refusal from the accept loop.
fn greet(stream: &TcpStream, status: HandshakeStatus, timeout: Duration) -> std::io::Result<()> {
    stream.set_write_timeout(Some(timeout))?;
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
fn serve_session(shared: &Shared, write_tx: &SyncSender<WriteJob>, mut stream: TcpStream) {
    if greet(&stream, HandshakeStatus::Ok, WRITE_TIMEOUT).is_err() {
        return;
    }
    let _ = session_loop(shared, write_tx, &mut stream);
}

fn session_loop(
    shared: &Shared,
    write_tx: &SyncSender<WriteJob>,
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
        let (lsn, outcome) = dispatch(shared, write_tx, env.request, deadline);
        respond(stream, env.request_id, lsn, &outcome)?;
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn dispatch(
    shared: &Shared,
    write_tx: &SyncSender<WriteJob>,
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
    // Engine operations ride the writer lane; everything else is answered
    // from the latest published snapshot without ever waiting on the writer.
    if needs_engine(&request) {
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = WriteJob {
            request,
            deadline,
            reply: reply_tx,
        };
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

/// The group-commit writer lane. Owns the engine: drains every queued job
/// into one batch, applies the batch in arrival order, makes it durable
/// with one [`ConstraintDb::wal_sync`], publishes the resulting state as
/// the readers' new snapshot, and only then sends the replies — so an
/// acknowledgement always names a mutation that both survives a crash and
/// is visible to every later read. Checkpoints every `checkpoint_every`
/// successful mutations. Returns the engine when the lane disconnects.
fn writer_loop(
    mut db: ConstraintDb,
    shared: &Shared,
    jobs: &Receiver<WriteJob>,
    checkpoint_every: u64,
) -> ConstraintDb {
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
            // Re-check the deadline now that the job is being applied: it
            // can wait out its deadline behind a slow batch or checkpoint,
            // and must then be refused without mutating.
            let is_write = job.request.is_write();
            let outcome = if expired(job.deadline) {
                Err(NetError::DeadlineExceeded)
            } else {
                apply_engine(&mut db, job.request, || shared.connections())
            };
            if is_write && outcome.is_ok() {
                mutated = true;
                since_checkpoint += 1;
            }
            replies.push((job.reply, outcome));
        }
        // One fsync covers the whole batch. If it fails, nothing in the
        // batch is durable — withdraw every success before anyone hears
        // about it.
        if let Err(e) = db.wal_sync() {
            for (_, outcome) in replies.iter_mut().filter(|(_, o)| o.is_ok()) {
                *outcome = Err(NetError::Db(CdbError::Io(format!(
                    "write-ahead log sync failed: {e}"
                ))));
            }
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
        // state the acknowledgement names. A vanished session is not an
        // error.
        let durable = db.wal_synced_lsn();
        for (reply, outcome) in replies {
            let _ = reply.send((durable, outcome));
        }
    }
    // Queue disconnected: every session is gone. The final checkpoint
    // happens in Server::run after the writer joins.
    db
}
