//! The session layer: one [`Service`] value owning the whole stack.
//!
//! `submit` carries a request through binder → planner → executor and hands
//! back the response stream; `submit_line` is the same entry point for raw
//! protocol lines (stdin, sockets, load generators). The `_to` forms stream
//! into a caller-owned sender instead, so one channel can carry every
//! request's responses. Every failure mode is a response on the stream —
//! the methods themselves never fail.

use crate::bind::Binder;
use crate::exec::{Executor, ResilienceConfig};
use crate::plan::Planner;
use crate::protocol::{Request, Response};
use std::sync::mpsc::{channel, Receiver, Sender};
use zac_cache::CompileCache;
use zac_core::admission::AdmissionLimits;
use zac_core::ZacConfig;
use zac_telemetry::metrics::{SERVE_REQUESTS_REJECTED, SERVE_REQUESTS_SUBMITTED};
use zac_telemetry::{MetricsSnapshot, Redacted};

/// Service construction knobs.
pub struct ServiceConfig {
    /// Worker threads in the executor pool.
    pub workers: usize,
    /// Maximum queued jobs (admitted entries) across all requests; a
    /// request that would overflow it is rejected whole.
    pub queue_capacity: usize,
    /// Service-side admission policy, tightened against each request's own
    /// caps (strictest wins).
    pub limits: AdmissionLimits,
    /// Configuration for `Zoned-ZAC` requests. The default is the paper
    /// configuration (`zac_bench::zac_config()`); tests inject reduced-SA
    /// configs here and compare against direct compiles with the same one.
    pub zac_config: ZacConfig,
    /// The compile cache shared by all workers. Inject a disk-backed or
    /// pre-warmed cache to share state with other runners; the default is
    /// a fresh in-memory cache.
    pub cache: CompileCache,
    /// Per-entry compile budget in milliseconds, enforced through
    /// cooperative cancellation inside the compile. `None` (the default)
    /// disables the service-wide budget; request deadlines still apply.
    pub compile_deadline_ms: Option<u64>,
    /// Consecutive panics/cancellations that open a compiler's circuit
    /// breaker (`0` disables it). While open, entries for that compiler are
    /// rejected with `breaker_open` instead of risking another dead worker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting one half-open
    /// probe compile.
    pub breaker_cooldown_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_capacity: 1024,
            limits: AdmissionLimits::default(),
            zac_config: zac_bench::zac_config(),
            cache: CompileCache::in_memory(256),
            compile_deadline_ms: None,
            breaker_threshold: 3,
            breaker_cooldown_ms: 250,
        }
    }
}

/// A running compile service: binder + planner + worker pool over one
/// shared cache. Dropping it stops the workers.
pub struct Service {
    binder: Binder,
    planner: Planner,
    executor: Executor,
    log: bool,
}

impl Default for Service {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl Service {
    /// Builds the stack from `config`.
    pub fn new(config: ServiceConfig) -> Self {
        let resilience = ResilienceConfig {
            compile_deadline_ms: config.compile_deadline_ms,
            breaker_threshold: config.breaker_threshold,
            breaker_cooldown_ms: config.breaker_cooldown_ms,
        };
        Self {
            binder: Binder::new(config.zac_config),
            planner: Planner::new(config.limits),
            executor: Executor::new(
                config.workers,
                config.queue_capacity,
                config.cache,
                resilience,
            ),
            log: std::env::var("ZAC_SERVE_LOG").is_ok_and(|v| !v.is_empty() && v != "0"),
        }
    }

    /// The shared compile cache (inspect hit rates, pre-warm, persist).
    pub fn cache(&self) -> &CompileCache {
        self.executor.cache()
    }

    /// Worker panics recovered by the executor's supervisor so far. Always
    /// counted (independent of the telemetry recorder); a non-zero value
    /// with the service still answering is the panic-isolation guarantee.
    pub fn worker_respawns(&self) -> u64 {
        self.executor.worker_respawns()
    }

    /// Submits one request; the returned receiver streams every response
    /// for it, ending with a terminal `Done`/`Rejected`/`Error`. Draining
    /// it is the in-process API; serializing each response is the wire
    /// protocol.
    pub fn submit(&self, request: Request) -> Receiver<Response> {
        let (tx, rx) = channel();
        self.submit_to(request, tx);
        rx
    }

    /// [`submit`](Self::submit) streaming into a caller-owned sender, so
    /// many requests can share one channel (the binary's single writer).
    /// Every clone of `tx` the service keeps is dropped once the request's
    /// terminal response is sent.
    pub fn submit_to(&self, request: Request, tx: Sender<Response>) {
        SERVE_REQUESTS_SUBMITTED.incr();
        // Snapshot before any work so the Done delta covers binding too.
        let base = zac_telemetry::enabled().then(MetricsSnapshot::capture);
        if self.log {
            // Log surfaces mask circuit names; the protocol keeps them (the
            // client sent them in the first place).
            for entry in &request.circuits {
                eprintln!(
                    "zac-serve: request {} [{}] circuit {}",
                    request.id,
                    request.compiler,
                    Redacted(&entry.name)
                );
            }
        }
        let id = request.id.clone();
        let bound = match self.binder.bind(request) {
            Ok(bound) => bound,
            Err(reason) => {
                tx.send(Response::Error { id: Some(id), reason }).ok();
                return;
            }
        };
        let planned = match self.planner.plan(bound) {
            Ok(planned) => planned,
            Err(reason) => {
                SERVE_REQUESTS_REJECTED.incr();
                tx.send(Response::Rejected { id, reason }).ok();
                return;
            }
        };
        self.executor.submit(planned, tx, base);
    }

    /// [`submit`](Self::submit) for one raw protocol line.
    pub fn submit_line(&self, line: &str) -> Receiver<Response> {
        let (tx, rx) = channel();
        self.submit_line_to(line, tx);
        rx
    }

    /// [`submit_to`](Self::submit_to) for one raw protocol line.
    pub fn submit_line_to(&self, line: &str, tx: Sender<Response>) {
        match serde_json::from_str::<Request>(line) {
            Ok(request) => self.submit_to(request, tx),
            Err(e) => {
                // Best-effort id recovery so the client can correlate.
                let id = serde_json::from_str::<serde::Value>(line)
                    .ok()
                    .and_then(|v| serde::ObjectView::new(&v).ok()?.opt_field("id").ok()?);
                tx.send(Response::Error { id, reason: format!("malformed request: {e}") }).ok();
            }
        }
    }
}
