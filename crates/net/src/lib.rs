//! `cdb-net` — wire protocol and threaded query server for the constraint
//! database.
//!
//! The engine so far is a library: PR 1 made the whole query path `&self`
//! over a shared snapshot, the planner unified every access method behind
//! one facade, and the storage layer made the on-disk state durable and
//! self-healing. This crate adds the serving layer the north star assumes:
//!
//! * [`proto`] — a dependency-free, length-prefixed binary protocol built
//!   from the same fallible record codec and CRC-32 framing the durable
//!   catalog uses ([`cdb_storage::write_frame`] / [`cdb_storage::read_frame`]),
//!   with a versioned handshake, request ids, typed frames for every engine
//!   operation, and structured [`cdb_core::CdbError`] transport so
//!   `Quarantined` / `Degraded` / `ReadOnly` survive the wire;
//! * [`server`] — a [`std::net::TcpListener`] accept loop feeding a fixed
//!   pool of session workers that serve reads from the latest published
//!   [`cdb_core::Snapshot`] (pinned epochs: no lock on the query path,
//!   writers never block readers), while mutations serialize through a
//!   single writer lane that owns the [`cdb_core::ConstraintDb`],
//!   group-commits the WAL, publishes the next snapshot per batch, and
//!   checkpoints periodically; admission control answers overload with an
//!   explicit frame instead of queueing without bound, and shutdown drains
//!   in-flight requests and checkpoints before exit;
//! * [`api`] — the typed client API written once: a one-method
//!   [`Backend`] ("send a [`Request`], get a [`Response`]") and the
//!   [`Api`] wrapper carrying `ping` … `checkpoint` for every backend —
//!   an in-process engine (through the server's own dispatcher) or a wire
//!   session;
//! * [`client`] — a blocking wire session speaking the same protocol, used
//!   by the `cdb-client` binary and the shell's `connect` command;
//! * [`chaos`] — a deterministic in-process TCP proxy for fault-injection
//!   tests: seeded plans tear frames at exact byte offsets, reset or
//!   blackhole at exact frame indices.
//!
//! Everything is `std`-only: no async runtime, no serialization crates.

pub mod api;
pub mod chaos;
pub mod client;
mod dispatch;
pub mod proto;
pub mod server;

pub use api::{Api, Backend, StatsReply};
pub use chaos::{ChaosPlan, ChaosProxy};
pub use client::Client;
pub use proto::{NetError, Request, Response, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ShutdownHandle};

#[cfg(test)]
#[global_allocator]
static PEAK_ALLOC: cdb_storage::conformance::PeakAlloc = cdb_storage::conformance::PeakAlloc;
