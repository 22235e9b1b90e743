//! `RpcServer`: the TCP accept loop fronting a [`ShardedReconfigService`].
//!
//! Each accepted connection gets a handler thread that processes frames
//! strictly one at a time: read a full frame, decode, execute against
//! the shared service, write the reply. That synchronous loop *is* the
//! per-connection backpressure — at most one frame (≤ the wire frame
//! cap) is buffered per connection, and a client that outruns the plane
//! stalls on TCP flow control waiting for its previous reply. The
//! connection owns the two buffers that loop needs — the frame being
//! read and the reply being encoded — for its whole life: cleared per
//! frame, never freed, each holding one frame of at most the wire frame
//! cap (1 MiB), so a server holds at most 2 MiB of them per live
//! connection. Floods
//! that do get through are absorbed by the service's dirty-queue dedup:
//! resubmitting a cache between epochs coalesces to one replan.
//!
//! Any [`DecodeError`] — truncation, a hostile length prefix, garbage
//! bytes — closes that connection and nothing else: frames are fully
//! received before they are decoded and decoded before they are applied,
//! so a batch from a client that dies mid-frame is dropped atomically
//! and the plane stays consistent.
//!
//! # Overload shedding
//!
//! Beyond the connection cap the server does not silently drop: it
//! writes a single typed [`Response::Busy`] frame and then closes, so a
//! well-behaved client distinguishes "plane at capacity, back off and
//! retry" from a network fault. Every such shed is counted and surfaced
//! through [`ServerHandle::rejected`] and the plane's health report.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use talus_core::codec::DecodeError;
use talus_core::{FaultDirective, FaultScript, PlaneHealth};

use crate::router::ShardedReconfigService;
use crate::service::ServeError;
use crate::snapshot::CacheId;
use crate::wire::{self, read_frame_into, Request, Response, SnapshotSummary};

/// Default cap on concurrently served connections; beyond it, new
/// connections get a typed [`Response::Busy`] frame and are closed,
/// bounding the server's frame buffers at `connections × 2 × max frame`
/// regardless of client count.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Shared connection accounting between the accept loop and the
/// [`ServerHandle`] that reports it.
#[derive(Debug, Default)]
struct ConnStats {
    /// Connections currently being served.
    live: AtomicUsize,
    /// Connections shed with [`Response::Busy`] since the server
    /// started. Monotonic; never reset.
    rejected: AtomicU64,
}

impl ConnStats {
    /// The plane's health report with these connection counters filled
    /// in (the plane itself cannot see the TCP layer): what
    /// [`ServerHandle::health`] returns, and what a `Health` or `Hello`
    /// reply carries.
    fn health(&self, service: &ShardedReconfigService) -> PlaneHealth {
        PlaneHealth {
            connections: self.live.load(Ordering::Acquire) as u64,
            rejected: self.rejected.load(Ordering::Acquire),
            ..service.health()
        }
    }
}

/// A TCP front-end for a sharded reconfiguration plane.
///
/// Bind, then [`spawn`](RpcServer::spawn) to start serving on a
/// background accept thread:
///
/// ```
/// use std::sync::Arc;
/// use talus_serve::{RpcClient, RpcServer, ShardedReconfigService};
///
/// let plane = Arc::new(ShardedReconfigService::new(2));
/// let server = RpcServer::bind("127.0.0.1:0", plane)?;
/// let handle = server.spawn()?;
///
/// let mut client = RpcClient::connect(handle.local_addr())?;
/// client.ping()?;
/// handle.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RpcServer {
    listener: TcpListener,
    addr: std::net::SocketAddr,
    service: Arc<ShardedReconfigService>,
    max_connections: usize,
    fault: Option<Arc<FaultScript>>,
}

impl RpcServer {
    /// Binds a listener at `addr` (use port 0 for an ephemeral port)
    /// fronting `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the (in practice unreachable)
    /// failure to read back the bound address.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<ShardedReconfigService>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(RpcServer {
            listener,
            addr,
            service,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            fault: None,
        })
    }

    /// Caps concurrently served connections (default
    /// [`DEFAULT_MAX_CONNECTIONS`]). Excess connections receive a
    /// [`Response::Busy`] frame and are closed on accept.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        assert!(max > 0, "need at least one connection");
        self.max_connections = max;
        self
    }

    /// Attaches a deterministic fault-injection script consulted at the
    /// `server.handle` site (keyed by request opcode) before each
    /// request executes. Test-only seam; the default `None` script
    /// costs one branch per frame.
    pub fn with_fault_script(mut self, script: Arc<FaultScript>) -> Self {
        self.fault = Some(script);
        self
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The plane this server fronts. Tests use this to inspect
    /// snapshots server-side and compare them bit-for-bit with a local
    /// plane's.
    pub fn service(&self) -> &Arc<ShardedReconfigService> {
        &self.service
    }

    /// Starts the accept loop on a background thread and returns a
    /// handle that stops it (and is also stopped on drop).
    ///
    /// # Errors
    ///
    /// Propagates listener clone failures.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.addr;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::clone(&self.service);
        let accept_stop = Arc::clone(&stop);
        let stats = Arc::new(ConnStats::default());
        let accept_stats = Arc::clone(&stats);
        let max_connections = self.max_connections;
        let fault = self.fault;
        let listener = self.listener;
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if accept_stats.live.load(Ordering::Acquire) >= max_connections {
                    // Count, then shed: a client that has read its `Busy`
                    // frame must find the rejection already counted.
                    accept_stats.rejected.fetch_add(1, Ordering::AcqRel);
                    shed_connection(stream);
                    continue;
                }
                accept_stats.live.fetch_add(1, Ordering::AcqRel);
                let service = Arc::clone(&service);
                let stats = Arc::clone(&accept_stats);
                let fault = fault.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &service, &stats, fault.as_deref());
                    stats.live.fetch_sub(1, Ordering::AcqRel);
                });
            }
        });
        Ok(ServerHandle {
            addr,
            service: self.service,
            stats,
            stop,
            accept_thread: Some(accept_thread),
        })
    }
}

/// Tells an over-cap client the plane is at capacity — one typed
/// [`Response::Busy`] frame, best-effort, then close. A client that
/// never reads it loses nothing relative to a silent drop.
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.write_all(&wire::encode_response(&Response::Busy));
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handle to a running [`RpcServer`]; stops the accept loop on
/// [`shutdown`](ServerHandle::shutdown) or drop. Connections already
/// being served run until their client disconnects.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    service: Arc<ShardedReconfigService>,
    stats: Arc<ConnStats>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The plane this server fronts.
    pub fn service(&self) -> &Arc<ShardedReconfigService> {
        &self.service
    }

    /// Connections currently being served.
    pub fn connections(&self) -> usize {
        self.stats.live.load(Ordering::Acquire)
    }

    /// Connections shed with [`Response::Busy`] since the server
    /// started.
    pub fn rejected(&self) -> u64 {
        self.stats.rejected.load(Ordering::Acquire)
    }

    /// The plane's health report with this server's connection
    /// accounting filled in (the plane itself cannot see the TCP
    /// layer) — the same report a remote `Health` request reads.
    pub fn health(&self) -> PlaneHealth {
        self.stats.health(&self.service)
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        let Some(thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Serves one connection until clean EOF, the first protocol error, or
/// a scripted `server.handle` fault that severs the connection.
fn serve_connection(
    stream: TcpStream,
    service: &ShardedReconfigService,
    stats: &ConnStats,
    fault: Option<&FaultScript>,
) -> Result<(), DecodeError> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let (mut frame, mut reply) = (Vec::new(), Vec::new());
    // One frame in flight per connection: read, apply, reply, repeat.
    while read_frame_into(&mut reader, &mut frame)? {
        let request = wire::decode_request(&frame)?;
        // The fault seam fires after decode (so hostile-input handling
        // is never masked) and before execution (so a killed connection
        // models a server that died without applying the request).
        let directive = match fault {
            Some(script) => script.check("server.handle", u64::from(opcode_of(&request))),
            None => FaultDirective::None,
        };
        reply.clear();
        match directive {
            FaultDirective::KillConnection => {
                // Die before applying: the client sees an abrupt close
                // with the request's effects absent.
                return Ok(());
            }
            FaultDirective::Fail => {
                // Shed mid-stream: typed Busy, then close.
                wire::encode_response_into(&Response::Busy, &mut reply);
                writer.write_all(&reply)?;
                return Ok(());
            }
            FaultDirective::TruncateFrame => {
                // Apply, then die mid-reply: the client gets half a
                // frame and must treat the request outcome as unknown —
                // exactly the ambiguity idempotent retries resolve.
                wire::encode_response_into(&handle_request(request, service, stats), &mut reply);
                writer.write_all(&reply[..reply.len() / 2])?;
                return Ok(());
            }
            FaultDirective::None => {}
        }
        wire::encode_response_into(&handle_request(request, service, stats), &mut reply);
        writer.write_all(&reply)?;
    }
    Ok(())
}

/// The request's wire opcode, used as the `server.handle` fault key so
/// scripts can target e.g. only `RunEpoch` frames.
fn opcode_of(request: &Request) -> u8 {
    match request {
        Request::Register { .. } => wire::OP_REGISTER,
        Request::Deregister { .. } => wire::OP_DEREGISTER,
        Request::Submit { .. } => wire::OP_SUBMIT,
        Request::RunEpoch => wire::OP_RUN_EPOCH,
        Request::Report { .. } => wire::OP_REPORT,
        Request::Ping => wire::OP_PING,
        Request::Health => wire::OP_HEALTH,
        Request::Hello => wire::OP_HELLO,
        Request::RegisterAt { .. } => wire::OP_REGISTER_AT,
    }
}

/// Executes one decoded request against the plane. Decode has already
/// bounds-checked every field, so nothing here can panic on remote
/// input; request-level rejections become [`Response::Error`].
fn handle_request(
    request: Request,
    service: &ShardedReconfigService,
    stats: &ConnStats,
) -> Response {
    match request {
        Request::Register { spec } => {
            if !service.topology().is_solo() {
                // Server-side minting would race across members; cluster
                // clients mint deterministically and use RegisterAt.
                return Response::Error(ServeError::ClusterMint);
            }
            let id = service.register(spec);
            Response::Registered { id: id.value() }
        }
        Request::RegisterAt { id, spec } => match service.register_with_id(CacheId(id), spec) {
            Ok(id) => Response::Registered { id: id.value() },
            Err(e) => Response::Error(e),
        },
        Request::Deregister { id } => match service.deregister(CacheId(id)) {
            Ok(()) => Response::Deregistered,
            Err(e) => Response::Error(e),
        },
        // One lock hold — and one journal write — per shard the frame
        // touches, not per entry.
        Request::Submit { entries } => Response::SubmitReply {
            results: service.submit_many(
                entries
                    .into_iter()
                    .map(|e| (CacheId(e.id), e.tenant as usize, e.curve)),
            ),
        },
        Request::RunEpoch => Response::Epoch(service.run_epoch()),
        Request::Report { id } => Response::Snapshot(
            service
                .snapshot(CacheId(id))
                .map(|snap| SnapshotSummary::from(&*snap)),
        ),
        Request::Ping => Response::Pong,
        Request::Health => Response::Health(stats.health(service)),
        Request::Hello => {
            let topology = service.topology();
            Response::Hello(wire::ClusterInfo {
                total_shards: topology.total() as u32,
                first_shard: topology.first() as u32,
                shard_count: topology.count() as u32,
                epoch: service.epochs(),
                next_id: service.next_id_hint(),
                health: stats.health(service),
            })
        }
    }
}
