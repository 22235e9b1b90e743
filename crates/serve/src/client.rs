//! `RpcClient`: a blocking TCP client for the reconfiguration plane.
//!
//! The client speaks the [`wire`](crate::wire) protocol over one
//! `std::net::TcpStream`, one request/response pair at a time, and
//! mirrors the local
//! [`ShardedReconfigService`](crate::ShardedReconfigService) API so a
//! curve producer can point at a remote plane unchanged. Curves go out
//! one way: [`stage`](RpcClient::stage)/[`flush`](RpcClient::flush)
//! coalesce many tenants' updates into one framed batch, bounded by the
//! wire's point and entry caps and the frame byte budget, and
//! [`submit`](RpcClient::submit) is one `stage` and one `flush`.
//!
//! ## Partial-failure posture
//!
//! A client is never allowed to hang forever on a dead or stalled
//! server: [`with_deadline`](RpcClient::with_deadline) bounds every
//! read/write, surfacing as [`RpcError::Deadline`]. With a
//! [`RetryPolicy`] attached, the *idempotent* operations (submit,
//! epoch, report, ping, health) transparently reconnect and retry with
//! exponential backoff and deterministic seeded jitter — safe because a
//! resubmitted bit-identical curve is a no-op on the plane and a
//! re-run epoch converges to the same snapshots. `register` and
//! `deregister` are never retried: creating or destroying a cache twice
//! is not the same as doing it once, so those stay explicit.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::service::{EpochReport, ServeError};
use crate::snapshot::CacheId;
use crate::wire::{
    self, check_register, read_frame_into, submit_entry_bytes, GridTable, Request, Response,
    SnapshotSummary, SubmitEntry,
};
use talus_core::codec::{check_count, check_len, DecodeError};
use talus_core::limits::{WIRE_MAX_BATCH, WIRE_MAX_CURVE_POINTS, WIRE_MAX_FRAME_LEN};
use talus_core::{MissCurve, PlaneHealth};
use talus_partition::{CacheSpec, Planner};

/// Errors surfaced by the RPC client.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcError {
    /// The transport or codec failed (connection lost, malformed reply),
    /// or a request the server's decoder would refuse was refused here.
    Wire(DecodeError),
    /// The server processed the request and rejected it — the same
    /// [`ServeError`] the local service would have returned.
    Serve(ServeError),
    /// The request missed its deadline ([`RpcClient::with_deadline`]):
    /// the server is hung, overloaded, or unreachable — distinct from a
    /// typed rejection, and retryable.
    Deadline,
    /// The server shed the connection at its capacity limit (a typed
    /// `Busy` reply, not a crash). Retryable after backoff.
    Busy,
    /// Every attempt the [`RetryPolicy`] allowed failed; `last` is the
    /// final attempt's error.
    Exhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// The last attempt's error.
        last: Box<RpcError>,
    },
    /// The server replied with a well-formed message of the wrong kind.
    Unexpected {
        /// What the server sent instead.
        got: &'static str,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Wire(e) => write!(f, "rpc transport failed: {e}"),
            RpcError::Serve(e) => write!(f, "server rejected request: {e}"),
            RpcError::Deadline => write!(f, "request deadline elapsed"),
            RpcError::Busy => write!(f, "server at capacity (busy)"),
            RpcError::Exhausted { attempts, last } => {
                write!(f, "request failed after {attempts} attempts: {last}")
            }
            RpcError::Unexpected { got } => {
                write!(f, "server sent an unexpected {got} reply")
            }
        }
    }
}

/// Whether `e` is a transport-class failure — the peer may be dead, hung
/// or shedding load, so retrying (or reconnecting) can help — as opposed
/// to a typed rejection or a protocol violation. Sees through
/// [`RpcError::Exhausted`] to the last attempt's error.
pub(crate) fn is_transport(e: &RpcError) -> bool {
    match e {
        RpcError::Deadline | RpcError::Busy => true,
        RpcError::Wire(DecodeError::Io(_) | DecodeError::Truncated) => true,
        RpcError::Exhausted { last, .. } => is_transport(last),
        _ => false,
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Wire(e) => Some(e),
            RpcError::Serve(e) => Some(e),
            RpcError::Exhausted { last, .. } => Some(last),
            RpcError::Deadline | RpcError::Busy | RpcError::Unexpected { .. } => None,
        }
    }
}

/// Bounded retry with exponential backoff and deterministic seeded
/// jitter, applied by [`RpcClient`] to its idempotent operations.
///
/// Attempt `k`'s backoff before retrying is `min(cap, base · 2^k)`,
/// jittered to between 50% and 100% of that value by a seeded xorshift
/// generator — deterministic for a given seed, so failure tests replay
/// the same schedule every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Jitter seed; equal seeds replay equal backoff schedules.
    pub seed: u64,
}

impl RetryPolicy {
    /// Never retry: every failure surfaces immediately. This is the
    /// client's initial policy.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            seed: 0,
        }
    }

    /// The initial jitter-generator state for this policy (a zero seed
    /// falls back to the default seed, since xorshift64 has a zero
    /// fixed point).
    pub fn seed_state(&self) -> u64 {
        if self.seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            self.seed
        }
    }

    /// The backoff before retry number `retry` (0-based): exponential
    /// from the policy base (`base · 2^retry`), capped at `cap`, then
    /// jittered to 50–100% of that value by the xorshift64 generator
    /// threaded through `state` (start from
    /// [`seed_state`](RetryPolicy::seed_state)). Pure arithmetic on the
    /// policy and the passed state, so a given seed replays a given
    /// backoff schedule exactly — failure tests and the cluster client's
    /// probes are deterministic.
    pub fn backoff(&self, state: &mut u64, retry: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.base.saturating_mul(1u32 << retry.min(16));
        let delay = exp.min(self.cap.max(self.base));
        // xorshift64: deterministic for a given seed.
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let half = delay / 2;
        let jitter = *state % (half.as_nanos() as u64 + 1);
        half + Duration::from_nanos(jitter)
    }
}

impl Default for RetryPolicy {
    /// Four attempts, 10ms initial backoff, 1s cap.
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl From<DecodeError> for RpcError {
    fn from(e: DecodeError) -> Self {
        RpcError::Wire(e)
    }
}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Wire(e.into())
    }
}

/// The first rejection among a flush's per-entry results.
fn first_rejection(results: Vec<Result<(), ServeError>>) -> Result<(), RpcError> {
    results
        .into_iter()
        .collect::<Result<(), _>>()
        .map_err(RpcError::Serve)
}

/// Byte budget for a staged batch: a maximum frame minus generous
/// headroom for the frame header, batch count and grid count.
const BATCH_BYTE_BUDGET: usize = (WIRE_MAX_FRAME_LEN as usize) - 64;

/// A blocking client for a remote reconfiguration plane.
///
/// Each method sends one request frame and waits for its reply, so a
/// client is also a unit of backpressure: a server draining slowly
/// pushes back through TCP flow control and the pending reply.
/// Submission batching happens above that, via
/// [`stage`](RpcClient::stage)/[`flush`](RpcClient::flush).
///
/// A client owns one encode buffer and one read buffer for its whole
/// life: each request is encoded into the first and each reply read into
/// the second, cleared per call and never freed, so a steady stream of
/// calls allocates nothing for framing. Each is bounded by the wire frame
/// cap (1 MiB), so a client holds at most 2 MiB of them.
#[derive(Debug)]
pub struct RpcClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request being sent: a whole frame, checked before any byte of
    /// it is written.
    encoded: Vec<u8>,
    /// The reply being decoded.
    frame: Vec<u8>,
    staged: Vec<SubmitEntry>,
    /// The staged entries' grids, each counted once in `staged_bytes`.
    staged_grids: GridTable,
    staged_bytes: usize,
    /// Resolved peer address, kept for reconnects.
    peer: SocketAddr,
    /// Per-request read/write timeout, reapplied on reconnect.
    deadline: Option<Duration>,
    retry: RetryPolicy,
    /// Jitter state (xorshift64), seeded from the retry policy.
    rng: u64,
}

impl RpcClient {
    /// Connects to a plane at `addr` (e.g. the address returned by
    /// [`RpcServer::local_addr`](crate::RpcServer::local_addr)).
    ///
    /// # Errors
    ///
    /// [`RpcError::Wire`] with the underlying I/O error kind.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, RpcError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(RpcClient {
            reader,
            writer: stream,
            encoded: Vec::new(),
            frame: Vec::new(),
            staged: Vec::new(),
            staged_grids: GridTable::default(),
            staged_bytes: 0,
            peer,
            deadline: None,
            retry: RetryPolicy::none(),
            rng: 0,
        })
    }

    /// Bounds every request: reads and writes that stall longer than
    /// `deadline` fail with [`RpcError::Deadline`] instead of blocking
    /// forever on a hung server. Reapplied automatically on reconnect.
    ///
    /// # Errors
    ///
    /// [`RpcError::Wire`] if the socket rejects the timeouts.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero (use no deadline for "blocking").
    pub fn with_deadline(mut self, deadline: Duration) -> Result<Self, RpcError> {
        assert!(!deadline.is_zero(), "deadline must be positive");
        self.deadline = Some(deadline);
        self.apply_deadline()?;
        Ok(self)
    }

    /// Attaches a [`RetryPolicy`]: the idempotent operations (submit,
    /// epoch, report, ping, health) will reconnect and retry on
    /// [retryable](RpcError) failures. `register`/`deregister` are never
    /// retried.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.rng = policy.seed_state();
        self.retry = policy;
        self
    }

    fn apply_deadline(&self) -> Result<(), RpcError> {
        self.writer.set_read_timeout(self.deadline)?;
        self.writer.set_write_timeout(self.deadline)?;
        Ok(())
    }

    /// Drops the current stream and dials the peer again (staged entries
    /// are client-side state and survive untouched).
    fn reconnect(&mut self) -> Result<(), RpcError> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        self.apply_deadline()
    }

    /// Rewrites socket-timeout I/O errors as [`RpcError::Deadline`].
    fn map_deadline(e: RpcError) -> RpcError {
        match e {
            RpcError::Wire(DecodeError::Io(kind))
                if kind == std::io::ErrorKind::TimedOut
                    || kind == std::io::ErrorKind::WouldBlock =>
            {
                RpcError::Deadline
            }
            other => other,
        }
    }

    /// The backoff before retry number `retry` (0-based), from the
    /// policy's schedule, advancing this client's jitter state.
    fn backoff(&mut self, retry: u32) -> Duration {
        self.retry.backoff(&mut self.rng, retry)
    }

    /// One request/response round trip. A typed `Busy` reply surfaces as
    /// [`RpcError::Busy`]; a timed-out read or write as
    /// [`RpcError::Deadline`]. A request that encodes to more than the
    /// wire frame cap is refused here, [`DecodeError::Oversized`], before
    /// any byte of it is written: the server could only drop the
    /// connection on it, so the connection stays usable instead.
    fn call(&mut self, req: &Request) -> Result<Response, RpcError> {
        self.encoded.clear();
        wire::encode_request_into(req, &mut self.encoded);
        let len = u32::try_from(self.encoded.len() - 4).unwrap_or(u32::MAX);
        if let Err(e) = check_len(len, WIRE_MAX_FRAME_LEN) {
            // Free what outgrew the bound a retained buffer keeps.
            self.encoded = Vec::new();
            return Err(e.into());
        }
        let round_trip = |this: &mut Self| -> Result<Response, RpcError> {
            this.writer.write_all(&this.encoded)?;
            if !read_frame_into(&mut this.reader, &mut this.frame)? {
                return Err(DecodeError::Truncated.into());
            }
            Ok(wire::decode_response(&this.frame)?)
        };
        match round_trip(self).map_err(Self::map_deadline)? {
            Response::Busy => Err(RpcError::Busy),
            resp => Ok(resp),
        }
    }

    /// [`call`](RpcClient::call) under the retry policy: on a retryable
    /// failure, back off, reconnect (the stream's state is unknown after
    /// a failure — a stale reply could be in flight), and try again.
    /// Only idempotent requests go through here.
    fn call_retrying(&mut self, req: &Request) -> Result<Response, RpcError> {
        let attempts = self.retry.attempts.max(1);
        let mut last = match self.call(req) {
            Ok(resp) => return Ok(resp),
            Err(e) if attempts == 1 || !is_transport(&e) => return Err(e),
            Err(e) => e,
        };
        for retry in 0..attempts - 1 {
            let backoff = self.backoff(retry);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            if let Err(e) = self.reconnect() {
                last = Self::map_deadline(e);
                continue;
            }
            match self.call(req) {
                Ok(resp) => return Ok(resp),
                Err(e) if is_transport(&e) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(RpcError::Exhausted {
            attempts,
            last: Box::new(last),
        })
    }

    /// Extracts a request-level error reply into [`RpcError::Serve`].
    fn reject(resp: Response, expected: &'static str) -> RpcError {
        match resp {
            Response::Error(e) => RpcError::Serve(e),
            _ => RpcError::Unexpected { got: expected },
        }
    }

    /// [`register_spec`](RpcClient::register_spec) with the default
    /// planner (capacity/64 grain), as `CacheSpec::new` builds it — but a
    /// zero `capacity`, or `tenants` outside `1..=` the wire tenant cap,
    /// is refused unsent ([`DecodeError::Malformed`] or
    /// [`DecodeError::BadCount`]), not a panic.
    pub fn register(&mut self, capacity: u64, tenants: u32) -> Result<CacheId, RpcError> {
        self.register_spec(CacheSpec {
            capacity,
            tenants: tenants as usize,
            planner: Planner::for_capacity(capacity),
        })
    }

    /// Registers a cache with `spec`. Returns the plane-minted id.
    ///
    /// # Errors
    ///
    /// [`RpcError::Wire`] on transport failure. A spec the server's
    /// decoder would refuse — one `talus_partition::check_spec` refuses,
    /// a negative, NaN or infinite margin or tolerance, or more than
    /// `WIRE_MAX_GRAINS` grains — is refused here
    /// with its error: nothing is sent and the connection stays usable.
    pub fn register_spec(&mut self, spec: CacheSpec) -> Result<CacheId, RpcError> {
        check_register(None, &spec)?;
        match self.call(&Request::Register { spec })? {
            Response::Registered { id } => Ok(CacheId(id)),
            other => Err(Self::reject(other, "register")),
        }
    }

    /// Registers a cache under a caller-minted id with `spec` — the
    /// cluster registration path. Retried under the retry policy: the
    /// server treats an identical re-registration as an idempotent
    /// no-op, so a retried request whose first reply was lost converges
    /// instead of erroring.
    ///
    /// # Errors
    ///
    /// [`RpcError::Serve`] with [`ServeError::Misrouted`] if this
    /// server does not own the id's shard, or
    /// [`ServeError::DuplicateCache`] if the id exists with a different
    /// spec. What the server's decoder would refuse (the specs
    /// [`register_spec`](RpcClient::register_spec) refuses, and the
    /// reserved top id) is refused here with its error, unsent.
    pub fn register_at(&mut self, id: CacheId, spec: CacheSpec) -> Result<CacheId, RpcError> {
        check_register(Some(id.value()), &spec)?;
        let req = Request::RegisterAt {
            id: id.value(),
            spec,
        };
        match self.call_retrying(&req)? {
            Response::Registered { id } => Ok(CacheId(id)),
            other => Err(Self::reject(other, "register-at")),
        }
    }

    /// Cluster handshake: asks the server for its topology slice, epoch
    /// progress, next unminted id, and plane health.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn hello(&mut self) -> Result<wire::ClusterInfo, RpcError> {
        match self.call_retrying(&Request::Hello)? {
            Response::Hello(info) => Ok(info),
            other => Err(Self::reject(other, "hello")),
        }
    }

    /// Removes a cache and its published snapshot.
    ///
    /// # Errors
    ///
    /// [`RpcError::Serve`] with [`ServeError::UnknownCache`] if the id
    /// is not registered — exactly the local `deregister` error.
    pub fn deregister(&mut self, id: CacheId) -> Result<(), RpcError> {
        match self.call(&Request::Deregister { id: id.value() })? {
            Response::Deregistered => Ok(()),
            other => Err(Self::reject(other, "deregister")),
        }
    }

    /// Submits one curve now: [`stage`](RpcClient::stage)s it behind any
    /// staged entries, then [`flush`](RpcClient::flush)es, so everything
    /// staged goes out with it, in order.
    ///
    /// # Errors
    ///
    /// The first rejection among every entry it sent, as
    /// [`RpcError::Serve`] mirroring the local `submit` errors — the rule
    /// [`run_epoch`](RpcClient::run_epoch)'s implicit flush follows — or a
    /// transport error. A curve over the wire point cap is refused
    /// ([`DecodeError::BadCount`]) before anything is staged or sent.
    pub fn submit(&mut self, id: CacheId, tenant: usize, curve: MissCurve) -> Result<(), RpcError> {
        let mut results = self.stage(id, tenant, curve)?.unwrap_or_default();
        results.extend(self.flush()?);
        first_rejection(results)
    }

    /// Stages one curve update for a later [`flush`](RpcClient::flush),
    /// coalescing many tenants' updates into one frame. Auto-flushes
    /// when the staged batch reaches the wire entry cap or would
    /// overflow the frame byte budget; returns the flushed results in
    /// that case (`None` means the entry was staged without sending).
    ///
    /// # Errors
    ///
    /// Transport errors from an auto-flush; [`DecodeError::BadCount`] for a
    /// curve over the wire point cap, which is not staged.
    #[allow(clippy::type_complexity)]
    pub fn stage(
        &mut self,
        id: CacheId,
        tenant: usize,
        curve: MissCurve,
    ) -> Result<Option<Vec<Result<(), ServeError>>>, RpcError> {
        // Within the point cap, any one curve fits the byte budget.
        check_count(curve.len(), WIRE_MAX_CURVE_POINTS)?;
        let mut new_grid = self.staged_grids.position(curve.grid()).is_none();
        let mut bytes = submit_entry_bytes(curve.len(), new_grid);
        let mut flushed = None;
        if !self.staged.is_empty() && self.staged_bytes + bytes > BATCH_BYTE_BUDGET {
            flushed = Some(self.flush_staged()?);
            new_grid = true;
            bytes = submit_entry_bytes(curve.len(), new_grid);
        }
        if new_grid {
            self.staged_grids.grids.push(Arc::clone(curve.grid()));
        }
        self.staged.push(SubmitEntry {
            id: id.value(),
            tenant: tenant as u32,
            curve,
        });
        self.staged_bytes += bytes;
        if self.staged.len() >= WIRE_MAX_BATCH as usize {
            flushed = Some(match flushed {
                None => self.flush_staged()?,
                Some(mut prior) => {
                    prior.extend(self.flush_staged()?);
                    prior
                }
            });
        }
        Ok(flushed)
    }

    /// Sends any staged entries as one batch. A no-op on an empty stage.
    ///
    /// # Errors
    ///
    /// Transport errors; per-entry rejections come back in the vector.
    pub fn flush(&mut self) -> Result<Vec<Result<(), ServeError>>, RpcError> {
        if self.staged.is_empty() {
            return Ok(Vec::new());
        }
        self.flush_staged()
    }

    /// Sends the staged entries as one batch and empties the stage.
    /// [`stage`](RpcClient::stage) keeps a batch within the wire's point,
    /// entry and byte caps, and [`call`](RpcClient::call) checks the frame
    /// cap. A reply that does not hold one result per entry is
    /// [`RpcError::Unexpected`].
    fn flush_staged(&mut self) -> Result<Vec<Result<(), ServeError>>, RpcError> {
        let entries = std::mem::take(&mut self.staged);
        self.staged_grids.clear();
        self.staged_bytes = 0;
        let sent = entries.len();
        match self.call_retrying(&Request::Submit { entries })? {
            Response::SubmitReply { results } if results.len() == sent => Ok(results),
            Response::SubmitReply { .. } => Err(RpcError::Unexpected {
                got: "miscounted submit",
            }),
            other => Err(Self::reject(other, "submit")),
        }
    }

    /// Runs one planning epoch on the remote plane; staged entries are
    /// flushed first so everything staged is visible to the epoch.
    /// Returns the merged [`EpochReport`], bit-identical to what the
    /// plane's local `run_epoch` returned.
    ///
    /// # Errors
    ///
    /// Transport errors, or per-entry rejections from the implicit
    /// flush surfacing as [`RpcError::Serve`] on the first rejection.
    pub fn run_epoch(&mut self) -> Result<EpochReport, RpcError> {
        first_rejection(self.flush()?)?;
        match self.call_retrying(&Request::RunEpoch)? {
            Response::Epoch(report) => Ok(report),
            other => Err(Self::reject(other, "epoch")),
        }
    }

    /// Fetches the published snapshot summary for a cache, or `None` if
    /// no epoch has planned it yet.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn report(&mut self, id: CacheId) -> Result<Option<SnapshotSummary>, RpcError> {
        match self.call_retrying(&Request::Report { id: id.value() })? {
            Response::Snapshot(summary) => Ok(summary),
            other => Err(Self::reject(other, "report")),
        }
    }

    /// Liveness probe: one full round trip through the server.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn ping(&mut self) -> Result<(), RpcError> {
        match self.call_retrying(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::reject(other, "ping")),
        }
    }

    /// Fetches the plane's health snapshot: per-shard status, quarantined
    /// caches, epoch counters, journal fault state, and the server's
    /// connection-admission counters.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn health(&mut self) -> Result<PlaneHealth, RpcError> {
        match self.call_retrying(&Request::Health)? {
            Response::Health(health) => Ok(health),
            other => Err(Self::reject(other, "health")),
        }
    }

    /// Tears down the connection, abandoning any staged entries. Useful
    /// in tests that simulate a client crash; dropping the client has
    /// the same effect.
    pub fn abort(self) {
        // Dropping the halves closes the socket; an explicit shutdown
        // makes the intent visible to the peer immediately.
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }

    /// Writes raw bytes to the connection, bypassing the codec — test
    /// hook for failure injection (truncated frames, garbage). Hidden
    /// from docs; not part of the client contract.
    #[doc(hidden)]
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), RpcError> {
        self.writer.write_all(bytes)?;
        Ok(())
    }

    /// Reads one reply frame and decodes it — test hook paired with
    /// [`send_raw`](RpcClient::send_raw).
    #[doc(hidden)]
    pub fn recv_raw(&mut self) -> Result<Option<Response>, RpcError> {
        if !read_frame_into(&mut self.reader, &mut self.frame)? {
            return Ok(None);
        }
        Ok(Some(wire::decode_response(&self.frame)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full jittered backoff schedule for `retries` retries.
    fn schedule(policy: &RetryPolicy, retries: u32) -> Vec<Duration> {
        let mut state = policy.seed_state();
        (0..retries)
            .map(|r| policy.backoff(&mut state, r))
            .collect()
    }

    #[test]
    fn equal_seeds_replay_equal_backoff_schedules() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0xDEAD_BEEF,
        };
        assert_eq!(schedule(&policy, 32), schedule(&policy, 32));
        // A different seed diverges somewhere in the schedule (the
        // jitter range is wide enough that 32 identical draws from two
        // xorshift streams would be astronomically unlikely).
        let other = RetryPolicy {
            seed: 0xBEEF_DEAD,
            ..policy
        };
        assert_ne!(schedule(&policy, 32), schedule(&other, 32));
    }

    #[test]
    fn zero_seed_falls_back_to_default_seed() {
        // xorshift64 has a fixed point at zero; the policy must not.
        let zeroed = RetryPolicy {
            seed: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(zeroed.seed_state(), RetryPolicy::default().seed_state());
        assert!(schedule(&zeroed, 8).iter().all(|d| !d.is_zero()));
    }

    #[test]
    fn backoff_is_exponential_and_bounded_by_the_cap() {
        let policy = RetryPolicy {
            attempts: 16,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 7,
        };
        let mut state = policy.seed_state();
        for retry in 0..40 {
            let delay = policy.backoff(&mut state, retry);
            let raw = policy
                .base
                .saturating_mul(1u32 << retry.min(16))
                .min(policy.cap);
            // Jitter keeps each delay within 50–100% of the capped
            // exponential value, so delays never exceed the cap and
            // never collapse to zero.
            assert!(delay >= raw / 2, "retry {retry}: {delay:?} < {:?}", raw / 2);
            assert!(delay <= raw, "retry {retry}: {delay:?} > {raw:?}");
            assert!(delay <= policy.cap);
        }
    }

    #[test]
    fn zero_base_never_sleeps() {
        let policy = RetryPolicy::none();
        let mut state = policy.seed_state();
        assert_eq!(policy.backoff(&mut state, 0), Duration::ZERO);
        assert_eq!(policy.backoff(&mut state, 31), Duration::ZERO);
    }

    /// A request over the frame cap is refused, typed, before a byte of
    /// it reaches the socket: it is not retried, and the same connection
    /// goes on serving. Sent, the server could only drop the connection.
    #[test]
    fn a_request_over_the_frame_cap_is_refused_before_the_socket_is_touched() {
        let service = Arc::new(crate::ShardedReconfigService::new(2));
        let handle = crate::RpcServer::bind("127.0.0.1:0", Arc::clone(&service))
            .expect("bind loopback")
            .spawn()
            .expect("spawn accept loop");
        let mut client = RpcClient::connect(handle.local_addr())
            .expect("connect")
            .with_retry(RetryPolicy {
                attempts: 3,
                ..RetryPolicy::default()
            });
        let id = client.register(4096, 1).expect("register");
        let curve = MissCurve::new((0..1024).map(|i| (i as f64, 1.0))).expect("valid");
        let entry = SubmitEntry {
            id: id.value(),
            tenant: 0,
            curve: curve.clone(),
        };
        // Header, entry and grid counts, the one grid, then values-only
        // entries: within the entry cap, over the byte cap.
        let frame_len = 2 + 4 + 4 + (4 + 8 * 1024) + 130 * (8 + 4 + 4 + 8 * 1024);
        let entries = vec![entry; 130];
        assert_eq!(
            client.call_retrying(&Request::Submit { entries }),
            Err(RpcError::Wire(DecodeError::Oversized {
                len: frame_len,
                max: WIRE_MAX_FRAME_LEN
            }))
        );

        // Same client, same connection: nothing was written, nothing broke.
        assert_eq!(client.report(id), Ok(None));
        client.submit(id, 0, curve).expect("a legal frame");
        assert_eq!(client.run_epoch().expect("epoch").planned, vec![id]);
        assert_eq!(service.snapshot(id).expect("published").updates, 1);
        assert_eq!(handle.connections(), 1, "never reconnected");
        handle.shutdown();
    }

    /// A submit reply that does not answer every entry sent is refused,
    /// not read as a shorter batch.
    #[test]
    fn a_submit_reply_short_of_results_is_unexpected() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut frame = Vec::new();
            assert!(read_frame_into(&mut stream, &mut frame).expect("a request"));
            let reply = wire::encode_response(&Response::SubmitReply { results: vec![] });
            stream.write_all(&reply).expect("reply");
        });
        let mut client = RpcClient::connect(addr).expect("connect");
        let curve = MissCurve::new([(0.0, 1.0), (1.0, 0.0)]).expect("valid");
        assert_eq!(
            client.submit(CacheId(0), 0, curve),
            Err(RpcError::Unexpected {
                got: "miscounted submit"
            })
        );
        server.join().expect("the fake server ran");
    }

    #[test]
    fn retry_exhaustion_honors_the_attempt_count_exactly() {
        // A listener that accepts and immediately drops every
        // connection: each attempt fails at the transport layer, so the
        // client runs its full schedule and reports the exact count.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            // More accepts than attempts, in case the OS coalesces.
            for stream in listener.incoming().take(16).flatten() {
                drop(stream);
            }
        });
        let attempts = 3;
        let mut client = RpcClient::connect(addr)
            .expect("connect")
            .with_retry(RetryPolicy {
                attempts,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                seed: 42,
            });
        match client.ping() {
            Err(RpcError::Exhausted { attempts: got, .. }) => assert_eq!(got, attempts),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        drop(client);
        drop(server); // The listener thread exits when its take() drains.
    }
}
