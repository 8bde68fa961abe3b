//! Blocking client for the `cdb` wire protocol.
//!
//! One [`Connection`] is one TCP session: connect performs the versioned
//! handshake, every call sends one request frame and blocks for its
//! response frame, pairing by request id. [`Client`] is the typed
//! [`Api`] over it.

use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cdb_storage::codec::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};

use crate::api::{expect_subscribed, Api, Backend};
use crate::proto::{
    decode_greeting, decode_repl_ack, decode_response, decode_wal_batch, encode_hello,
    encode_repl_ack, encode_request, encode_wal_batch, HandshakeStatus, NetError, Request,
    RequestEnvelope, Response, WalBatch, PROTOCOL_VERSION,
};

/// Patience for establishing the TCP connection itself.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Default per-call socket patience. A hung or blackholed server turns
/// into a typed, retryable [`NetError::Timeout`] instead of wedging the
/// caller forever; [`Connection::set_io_timeout`] overrides it.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A connected wire-protocol session: the [`Backend`] that executes a
/// request by sending it to a `cdb-server`.
pub struct Connection {
    stream: TcpStream,
    next_id: u64,
    deadline_ms: u32,
    last_lsn: u64,
}

/// The typed API over one wire session.
pub type Client = Api<Connection>;

impl Client {
    /// Connects and performs the handshake: read the server's greeting
    /// (refusals — overloaded, shutting down, version skew — surface as
    /// typed errors), then send our hello. Every socket starts with
    /// [`DEFAULT_IO_TIMEOUT`] read/write patience — a dead peer is a
    /// typed [`NetError::Timeout`], never an indefinite hang.
    ///
    /// # Errors
    /// [`NetError::Transport`] for socket/frame failures,
    /// [`NetError::Timeout`] when the peer stops responding,
    /// [`NetError::Overloaded`] / [`NetError::ShuttingDown`] /
    /// [`NetError::VersionMismatch`] when the server refuses the session.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        let addrs = addr.to_socket_addrs().map_err(transport)?;
        let mut last_err: Option<std::io::Error> = None;
        let mut connected = None;
        for a in addrs {
            match TcpStream::connect_timeout(&a, CONNECT_TIMEOUT) {
                Ok(s) => {
                    connected = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match connected {
            Some(s) => s,
            None => {
                return Err(last_err
                    .map(transport)
                    .unwrap_or_else(|| NetError::Transport("address resolved to nothing".into())))
            }
        };
        stream.set_nodelay(true).map_err(transport)?;
        stream
            .set_read_timeout(Some(DEFAULT_IO_TIMEOUT))
            .map_err(transport)?;
        stream
            .set_write_timeout(Some(DEFAULT_IO_TIMEOUT))
            .map_err(transport)?;
        let mut client = Connection {
            stream,
            next_id: 1,
            deadline_ms: 0,
            last_lsn: 0,
        };
        let greeting = client.read_payload()?;
        let (server_version, status) = decode_greeting(&greeting)
            .map_err(|e| NetError::Transport(format!("bad greeting: {e}")))?;
        match status {
            HandshakeStatus::Ok => {}
            HandshakeStatus::Overloaded => return Err(NetError::Overloaded),
            HandshakeStatus::ShuttingDown => return Err(NetError::ShuttingDown),
            HandshakeStatus::VersionMismatch => {
                return Err(NetError::VersionMismatch { server_version })
            }
        }
        if server_version != PROTOCOL_VERSION {
            return Err(NetError::VersionMismatch { server_version });
        }
        client.write_payload(&encode_hello(PROTOCOL_VERSION))?;
        Ok(Api(client))
    }

    /// Turns the session into a replication subscription: the server
    /// starts streaming [`WalBatch`] frames from `from_lsn`, this side
    /// answers each with an ack. Consumes the client — the socket leaves
    /// the request/response discipline for good.
    ///
    /// # Errors
    /// [`NetError::NotPrimary`] when the peer is itself a follower (the
    /// hint names the primary), [`NetError::Malformed`] when `from_lsn`
    /// predates the peer's retained history (the follower must reseed
    /// from a base copy), plus the usual transport failures.
    pub fn subscribe(mut self, from_lsn: u64, follower_id: &str) -> Result<Subscription, NetError> {
        let (start_lsn, durable_lsn) = expect_subscribed(self.0.call(Request::Subscribe {
            from_lsn,
            follower_id: follower_id.into(),
        })?)?;
        Ok(Subscription {
            stream: self.0.stream,
            start_lsn,
            durable_lsn,
        })
    }
}

impl Connection {
    /// Sets the relative deadline attached to every subsequent request,
    /// in milliseconds (0 = none).
    pub fn set_deadline_ms(&mut self, ms: u32) {
        self.deadline_ms = ms;
    }

    /// The LSN stamped on the most recent response: the durable LSN for an
    /// acknowledged write, the snapshot LSN the answer was computed
    /// against for a read. This is the client-side basis for
    /// read-your-writes across replicas.
    pub fn last_seen_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Bounds how long a single call may block on the socket (dead-server
    /// detection). `None` restores indefinite blocking.
    ///
    /// # Errors
    /// [`NetError::Transport`] when the socket option cannot be set.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout).map_err(transport)?;
        self.stream.set_write_timeout(timeout).map_err(transport)
    }

    fn write_payload(&mut self, payload: &[u8]) -> Result<(), NetError> {
        write_frame(&mut self.stream, payload).map_err(transport)?;
        self.stream.flush().map_err(transport)
    }

    fn read_payload(&mut self) -> Result<Vec<u8>, NetError> {
        match read_frame(&mut self.stream, DEFAULT_MAX_FRAME) {
            Ok(p) => Ok(p),
            Err(FrameError::Closed) => {
                Err(NetError::Transport("server closed the connection".into()))
            }
            Err(FrameError::Corrupt(e)) => Err(NetError::Transport(format!("corrupt frame: {e}"))),
            Err(FrameError::Io(e)) => Err(transport(e)),
        }
    }
}

impl Backend for Connection {
    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    /// Any [`NetError`] the server answers with, or
    /// [`NetError::Transport`] when the session itself fails.
    fn call(&mut self, request: Request) -> Result<Response, NetError> {
        let env = RequestEnvelope {
            request_id: self.next_id,
            deadline_ms: self.deadline_ms,
            request,
        };
        self.next_id += 1;
        self.write_payload(&encode_request(&env))?;
        let payload = self.read_payload()?;
        let (id, lsn, outcome) = decode_response(&payload)
            .map_err(|e| NetError::Transport(format!("bad response: {e}")))?;
        if id != env.request_id {
            return Err(NetError::Transport(format!(
                "response id {id} does not match request id {}",
                env.request_id
            )));
        }
        self.last_lsn = lsn;
        outcome
    }
}

/// The follower side of a WAL-shipping stream: stop-and-wait batches in,
/// acks out. Obtained from [`Client::subscribe`].
pub struct Subscription {
    stream: TcpStream,
    /// First LSN the primary's retained history can ship.
    pub start_lsn: u64,
    /// The primary's durable LSN when the subscription was accepted.
    pub durable_lsn: u64,
}

impl Subscription {
    /// Bounds how long [`next_batch`](Subscription::next_batch) waits.
    /// The primary heartbeats idle subscriptions about once a second, so
    /// a few seconds of silence means the link or the primary is gone.
    ///
    /// # Errors
    /// [`NetError::Transport`] when the socket option cannot be set.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout).map_err(transport)
    }

    /// Blocks for the next shipped batch. Empty `records` is a heartbeat
    /// carrying only the primary's advancing durable LSN.
    ///
    /// # Errors
    /// [`NetError::Timeout`] when the primary goes silent past the read
    /// timeout, [`NetError::Transport`] when the stream dies or frames
    /// stop parsing.
    pub fn next_batch(&mut self) -> Result<WalBatch, NetError> {
        let payload = match read_frame(&mut self.stream, DEFAULT_MAX_FRAME) {
            Ok(p) => p,
            Err(FrameError::Closed) => {
                return Err(NetError::Transport("primary closed the stream".into()))
            }
            Err(FrameError::Corrupt(e)) => {
                return Err(NetError::Transport(format!("corrupt batch frame: {e}")))
            }
            Err(FrameError::Io(e)) => return Err(transport(e)),
        };
        decode_wal_batch(&payload).map_err(|e| NetError::Transport(format!("bad batch: {e}")))
    }

    /// Acknowledges application through `applied_lsn` (the follower's own
    /// durable LSN — acked means replica-durable).
    ///
    /// # Errors
    /// [`NetError::Transport`] / [`NetError::Timeout`] when the ack
    /// cannot be written.
    pub fn ack(&mut self, applied_lsn: u64) -> Result<(), NetError> {
        write_frame(&mut self.stream, &encode_repl_ack(applied_lsn)).map_err(transport)?;
        self.stream.flush().map_err(transport)
    }
}

/// The primary side of one accepted subscription, used by the server's
/// shipping loop: batches out, acks in.
pub(crate) struct ShipStream<'a> {
    pub stream: &'a mut TcpStream,
}

impl ShipStream<'_> {
    pub(crate) fn send_batch(&mut self, batch: &WalBatch) -> std::io::Result<()> {
        write_frame(self.stream, &encode_wal_batch(batch))?;
        self.stream.flush()
    }

    pub(crate) fn read_ack(&mut self) -> Result<u64, NetError> {
        let payload = match read_frame(self.stream, DEFAULT_MAX_FRAME) {
            Ok(p) => p,
            Err(FrameError::Closed) => {
                return Err(NetError::Transport("follower closed the stream".into()))
            }
            Err(FrameError::Corrupt(e)) => {
                return Err(NetError::Transport(format!("corrupt ack frame: {e}")))
            }
            Err(FrameError::Io(e)) => return Err(transport(e)),
        };
        decode_repl_ack(&payload).map_err(|e| NetError::Transport(format!("bad ack: {e}")))
    }
}

/// Maps socket failures to typed errors: timeouts become the retryable
/// [`NetError::Timeout`], everything else [`NetError::Transport`].
fn transport(e: std::io::Error) -> NetError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => NetError::Timeout,
        _ => NetError::Transport(e.to_string()),
    }
}
