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

use crate::api::{Api, Backend};
use crate::proto::{
    decode_greeting, decode_response, encode_hello, encode_request, HandshakeStatus, NetError,
    Request, RequestEnvelope, Response, PROTOCOL_VERSION,
};

/// Patience for establishing the TCP connection itself.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Default per-call socket patience. A hung or blackholed server turns
/// into a typed [`NetError::Timeout`] instead of wedging the
/// caller forever; [`Connection::set_io_timeout`] overrides it.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A connected wire-protocol session: the [`Backend`] that executes a
/// request by sending it to a `cdb-server`.
pub struct Connection {
    stream: TcpStream,
    next_id: u64,
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
        let mut client = Connection { stream, next_id: 1 };
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
}

impl Connection {
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
            deadline_ms: 0,
            request,
        };
        self.next_id += 1;
        self.write_payload(&encode_request(&env))?;
        let payload = self.read_payload()?;
        let (id, _lsn, outcome) = decode_response(&payload)
            .map_err(|e| NetError::Transport(format!("bad response: {e}")))?;
        if id != env.request_id {
            return Err(NetError::Transport(format!(
                "response id {id} does not match request id {}",
                env.request_id
            )));
        }
        outcome
    }
}

/// Maps socket failures to typed errors: timeouts become
/// [`NetError::Timeout`], everything else [`NetError::Transport`].
fn transport(e: std::io::Error) -> NetError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => NetError::Timeout,
        _ => NetError::Transport(e.to_string()),
    }
}
