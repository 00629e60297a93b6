//! # iofwd — a portable I/O forwarding runtime
//!
//! This crate is the paper's contribution as adoptable code: an
//! I/O-forwarding daemon and client library in the style of IBM's CIOD
//! and Argonne's ZOID, extended with the two optimizations the paper
//! proposes (§IV):
//!
//! 1. **I/O scheduling** — instead of every client handler executing its
//!    own I/O (one thread per compute node, contending for the I/O node's
//!    few cores), handlers enqueue tasks on a shared FIFO work queue
//!    ([`server`]) drained by a small pool of worker threads, each
//!    multiplexing several operations per scheduling pass.
//! 2. **Asynchronous data staging** — data operations are copied into
//!    buffers managed by a buffer management layer ([`bml`]:
//!    power-of-two size classes, bounded total memory, blocking
//!    acquisition) and acknowledged immediately; a descriptor database
//!    ([`descdb`]) tracks in-progress and completed operations per
//!    descriptor and surfaces errors from staged operations on subsequent
//!    calls (§IV).
//!
//! The pieces compose as in the paper:
//!
//! ```text
//!  client (CN)          transport           ION daemon            backend
//!  +----------+   mem channel / TCP   +------------------+   +--------------+
//!  | Client   | --------------------> | handler threads  |-->| file / null /|
//!  | (POSIX-  | <-------------------- |  + [work queue]  |   | mem sink /   |
//!  |  like)   |    Response/Staged    |  + [worker pool] |   | throttled    |
//!  +----------+                       |  + [BML] [descdb]|   +--------------+
//!                                     +------------------+
//! ```
//!
//! Four server modes are provided (see [`server::ForwardingMode`]):
//! `Ciod` (process-per-client semantics: double copy through a
//! shared-memory stand-in), `Zoid` (thread-per-client), `Sched` (work
//! queue + worker pool), and `AsyncStaged` (work queue + BML staging).
//! All four speak the same [`iofwd_proto`] protocol over any
//! [`transport::Conn`].
//!
//! ## Quickstart
//!
//! ```
//! use iofwd::backend::MemSinkBackend;
//! use iofwd::server::{ForwardingMode, IonServer, ServerConfig};
//! use iofwd::transport::mem::MemHub;
//! use iofwd::client::Client;
//! use iofwd_proto::OpenFlags;
//! use std::sync::Arc;
//!
//! let hub = MemHub::new();
//! let backend = Arc::new(MemSinkBackend::new());
//! let server = IonServer::spawn(
//!     Box::new(hub.listener()),
//!     backend.clone(),
//!     ServerConfig::new(ForwardingMode::AsyncStaged { workers: 4, bml_capacity: 1 << 20 }),
//! );
//!
//! let mut client = Client::connect(Box::new(hub.connect()));
//! let fd = client.open("/results.dat", OpenFlags::WRONLY | OpenFlags::CREATE, 0o644).unwrap();
//! client.write(fd, b"hello ion").unwrap();
//! client.close(fd).unwrap();
//! client.shutdown().unwrap();
//! server.shutdown();
//! assert_eq!(backend.contents("/results.dat").unwrap(), b"hello ion");
//! ```

pub mod backend;
pub mod bml;
pub mod client;
pub mod daemon;
pub mod descdb;
pub mod fault;
pub mod server;
pub mod sync;
pub mod trace;
pub mod transport;

/// Observability: counters/gauges/histograms, per-op lifecycle spans,
/// and the flight-recorder ring (the `iofwd-telemetry` crate).
pub use iofwd_telemetry as telemetry;

pub use client::{Client, ClientError, TraceStats};
pub use server::{ForwardingMode, IonServer, ServerConfig};
pub use trace::StageBreakdown;
