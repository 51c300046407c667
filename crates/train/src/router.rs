//! Multi-model, multi-tenant routing over [`ServeEngine`]s, with
//! versioned hot-swap.
//!
//! A [`Router`] serves the whole model zoo concurrently: one engine per
//! registered [`ModelSpec`], each sized from a shared worker budget
//! ([`RouterConfig::total_workers`] split evenly, minimum one per
//! model). Tenants are identified by an opaque string carried on every
//! request; each tenant gets labeled metrics
//! ([`dhg_nn::labeled`]) and an **in-flight quota**
//! ([`RouterConfig::tenant_quota`]) layered *above* the engines' bounded
//! queues — a tenant at its quota is refused with
//! [`RouteError::QuotaExceeded`] before its request can occupy queue
//! capacity that other tenants are paying for. The quota counts blocking
//! operations in flight (an `infer` from submit to reply, a `push_frame`
//! that emits a window from submit to scored logits); warmup pushes,
//! stream opens/closes and health probes are not charged.
//!
//! ## Hot-swap lifecycle
//!
//! [`Router::swap`] replaces a model's weights with zero accepted-request
//! loss, vetting before switching:
//!
//! 1. **Load** the checkpoint into a probe instance
//!    ([`checkpoint::load`]); corrupt artifacts are a typed
//!    [`SwapError::Checkpoint`].
//! 2. **Vet** the probe: every parameter finite, the static analyzer
//!    ([`InferenceSession::analyzed`]) passes, and the plan-IR predicted
//!    peak workspace at full batch stays within
//!    [`RouterConfig::vet_budget`] — violations are
//!    [`SwapError::Vetoed`] and the old version keeps serving.
//! 3. **Start** a fresh replica set whose factory rebuilds the model and
//!    reloads the vetted bytes inside each worker thread.
//! 4. **Switch** atomically under the routing-table write lock: bump the
//!    version, retarget the entry, invalidate the model's open streams
//!    (their windows span two weight sets; pushes after the swap get
//!    [`ServeError::UnknownStream`]).
//! 5. **Drain**: the old engine's `Drop` closes its queue and answers
//!    every already-accepted request before its workers exit — requests
//!    in flight during the switch are served by the version that
//!    accepted them.
//!
//! Swaps are serialized; concurrent [`Router::swap`] calls queue.
//!
//! ## Canary routing
//!
//! [`Router::swap_canary`] stages a vetted checkpoint *beside* the
//! stable version instead of replacing it. Keyed traffic
//! ([`Router::infer_keyed`]; the net frontend passes the request id) is
//! split deterministically: a request lands on the canary iff
//! `mix64(key ^ salt ^ candidate_version) % 10000 < fraction_bp`, so
//! replays and retries of the same id always draw the same arm. Per-arm
//! outcomes feed `model`+`version`-labeled counters in the registry.
//! The canary state machine:
//!
//! ```text
//! staged --N clean canary replies--> promoted (atomic switch, streams
//!        |                           invalidated, old engine drains)
//!        +--first quality breach---> rolled back (canary engine drains,
//!                                    stable version untouched)
//! ```
//!
//! A quality breach is a canary-routed reply whose [`ServeError`]
//! indicts the *candidate weights* rather than load or the caller
//! ([`ServeError::is_quality_breach`]: non-finite output, or the canary
//! replica set dying). Plain [`Router::swap`] refuses typed
//! ([`SwapError::CanaryActive`]) while a canary is staged —
//! [`Router::cancel_canary`] abandons one explicitly. Streams stay
//! pinned to the stable engine while a canary is staged and are
//! invalidated on promotion exactly as on a full swap.

use crate::checkpoint::{self, CheckpointError};
use crate::infer::InferenceSession;
use crate::json::escape;
use crate::serve::{ServeConfig, ServeEngine, ServeError};
use bytes::Bytes;
use dhg_nn::fault::mix64;
use dhg_nn::{labeled, Counter, Gauge, Histogram, Module, Registry, SymShape};
use dhg_tensor::NdArray;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Builds one model replica per serve worker. Shared with the engines so
/// supervisor respawns and hot-swaps rebuild identically.
pub type ModelFactory = Arc<dyn Fn() -> Box<dyn Module> + Send + Sync>;

/// One routable model: its registry name, replica factory and the
/// per-sample input shape its engine is compiled for.
#[derive(Clone)]
pub struct ModelSpec {
    /// Routing key (the zoo registry name, e.g. `"DHGCN-lite"`).
    pub name: String,
    /// Replica builder, called inside each worker thread.
    pub factory: ModelFactory,
    /// Per-sample input shape (`[C, T, V]` for skeleton models).
    pub sample_shape: Vec<usize>,
}

/// Router-wide configuration.
#[derive(Clone)]
pub struct RouterConfig {
    /// Template for every per-model engine; `workers` is overridden by
    /// the budget split below.
    pub serve: ServeConfig,
    /// Worker-thread budget shared across all models: each engine gets
    /// `max(1, total_workers / n_models)` workers.
    pub total_workers: usize,
    /// Max blocking operations a single tenant may have in flight
    /// (`0` = unlimited).
    pub tenant_quota: usize,
    /// Peak-workspace budget (bytes) a swapped-in checkpoint's plan must
    /// fit at full batch, per the static cost model.
    pub vet_budget: u64,
    /// Clean canary-routed replies required before a staged canary
    /// auto-promotes (floor 1).
    pub canary_promote_after: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            serve: ServeConfig::default(),
            total_workers: 1,
            tenant_quota: 0,
            vet_budget: dhg_tensor::DEFAULT_BYTE_BUDGET as u64,
            canary_promote_after: 32,
        }
    }
}

/// Typed routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No such model in the routing table.
    UnknownModel(String),
    /// The tenant is at its in-flight quota.
    QuotaExceeded {
        /// Offending tenant.
        tenant: String,
        /// The configured quota it hit.
        quota: usize,
    },
    /// The model's engine refused the request.
    Serve(ServeError),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            RouteError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant:?} is at its in-flight quota of {quota}")
            }
            RouteError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<ServeError> for RouteError {
    fn from(e: ServeError) -> Self {
        RouteError::Serve(e)
    }
}

/// Typed hot-swap failures. Every variant leaves the old version
/// serving.
#[derive(Debug)]
pub enum SwapError {
    /// No such model in the routing table.
    UnknownModel(String),
    /// The checkpoint failed to load into a probe instance.
    Checkpoint(CheckpointError),
    /// The loaded weights failed vetting (non-finite parameters,
    /// analyzer errors, or a blown workspace budget).
    Vetoed(String),
    /// The vetted replica set failed to start.
    Startup(ServeError),
    /// A canary is already staged for this model; promote, roll back or
    /// [`Router::cancel_canary`] it first.
    CanaryActive(String),
    /// Canary traffic fraction outside `(0, 1]`.
    BadFraction(f64),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            SwapError::Checkpoint(e) => write!(f, "checkpoint refused: {e}"),
            SwapError::Vetoed(why) => write!(f, "swap vetoed: {why}"),
            SwapError::Startup(e) => write!(f, "swapped replica set failed to start: {e}"),
            SwapError::CanaryActive(model) => {
                write!(f, "model {model:?} already has a canary staged")
            }
            SwapError::BadFraction(fraction) => {
                write!(f, "canary fraction {fraction} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// Per-`(model, version)` labeled outcome counters — the observable
/// error/bad-output rates the canary decision is auditable against.
#[derive(Clone)]
struct VersionCounters {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    bad_output: Arc<Counter>,
}

/// Base names of the [`VersionCounters`] series.
const VERSION_SERIES: [&str; 3] = [
    "net-version-requests-total",
    "net-version-errors-total",
    "net-version-bad-output-total",
];

fn version_series(base: &str, model: &str, version: u64) -> String {
    labeled(base, &[("model", model), ("version", &version.to_string())])
}

impl VersionCounters {
    fn new(registry: &Registry, model: &str, version: u64) -> VersionCounters {
        let [requests, errors, bad_output] =
            VERSION_SERIES.map(|base| registry.counter(&version_series(base, model, version)));
        VersionCounters { requests, errors, bad_output }
    }

    /// Unregister the series of `model`'s `version` once a swap or a
    /// promotion has replaced it as the stable version, so a server that
    /// is hot-swapped N times holds the series of its installed versions,
    /// not N of them. A rolled-back canary's series stay as the record of
    /// why it was rolled back.
    fn retire(registry: &Registry, model: &str, version: u64) {
        for base in VERSION_SERIES {
            registry.remove(&version_series(base, model, version));
        }
    }
}

/// A staged candidate version serving a deterministic slice of keyed
/// traffic beside the stable engine.
struct CanaryState {
    engine: Arc<ServeEngine>,
    version: u64,
    fraction_bp: u32,
    promote_after: u64,
    clean: Arc<AtomicU64>,
    counters: VersionCounters,
}

struct ModelEntry {
    factory: ModelFactory,
    sample_shape: Vec<usize>,
    engine: Arc<ServeEngine>,
    version: u64,
    counters: VersionCounters,
    canary: Option<CanaryState>,
    /// Route keys for unkeyed [`Router::infer`] calls: a per-model
    /// sequence, so local callers exercise the canary split too.
    route_seq: AtomicU64,
    canary_promotions: AtomicU64,
    canary_rollbacks: AtomicU64,
}

/// Public snapshot of a staged canary (see [`Router::canary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanaryStatus {
    /// Version the canary would install on promotion.
    pub version: u64,
    /// Traffic share in basis points of keyed requests.
    pub fraction_bp: u32,
    /// Clean canary-routed replies so far.
    pub clean: u64,
    /// Clean replies required to auto-promote.
    pub promote_after: u64,
}

/// Salt folded into the canary hash so the split is independent of any
/// other use of the same keys.
const CANARY_SALT: u64 = 0xCAFE_D06E_5EED_5A17;

/// Does `route_key` land on the canary arm? Pure in
/// `(key, candidate_version, fraction_bp)` — retries of the same request
/// id draw the same arm, and replayed chaos runs split identically.
fn canary_hit(candidate_version: u64, fraction_bp: u32, route_key: u64) -> bool {
    mix64(route_key ^ CANARY_SALT ^ candidate_version) % 10_000 < fraction_bp as u64
}

struct StreamEntry {
    tenant: String,
    model: String,
    engine: Arc<ServeEngine>,
    engine_stream: u64,
}

/// Per-tenant accounting: the in-flight count the quota is enforced
/// against, plus labeled metric handles.
struct TenantState {
    inflight: AtomicI64,
    inflight_gauge: Arc<Gauge>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    quota_rejections: Arc<Counter>,
    latency_us: Arc<Histogram>,
}

/// Decrements the tenant's in-flight count when the blocking operation
/// finishes, however it finishes.
struct TenantGuard {
    state: Arc<TenantState>,
}

impl Drop for TenantGuard {
    fn drop(&mut self) {
        let now = self.state.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.state.inflight_gauge.set(now);
    }
}

/// The multi-model, multi-tenant routing layer. See the module docs for
/// the full contract.
pub struct Router {
    entries: RwLock<BTreeMap<String, ModelEntry>>,
    tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
    streams: Mutex<BTreeMap<u64, StreamEntry>>,
    next_stream: AtomicU64,
    registry: Registry,
    config: RouterConfig,
    swap_lock: Mutex<()>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Router {
    /// Start one engine per spec, splitting the worker budget evenly.
    /// Any engine refusing to start (analyzer errors in a replica's
    /// plan) aborts the whole router startup typed.
    pub fn start(specs: Vec<ModelSpec>, config: RouterConfig) -> Result<Router, RouteError> {
        let per_model = (config.total_workers / specs.len().max(1)).max(1);
        let registry = Registry::new();
        let mut entries = BTreeMap::new();
        for spec in specs {
            let serve = ServeConfig { workers: per_model, ..config.serve.clone() };
            let factory = spec.factory.clone();
            let engine =
                ServeEngine::start(move || factory(), &spec.sample_shape, serve)?;
            let counters = VersionCounters::new(&registry, &spec.name, 1);
            entries.insert(
                spec.name.clone(),
                ModelEntry {
                    factory: spec.factory,
                    sample_shape: spec.sample_shape,
                    engine: Arc::new(engine),
                    version: 1,
                    counters,
                    canary: None,
                    route_seq: AtomicU64::new(0),
                    canary_promotions: AtomicU64::new(0),
                    canary_rollbacks: AtomicU64::new(0),
                },
            );
        }
        Ok(Router {
            entries: RwLock::new(entries),
            tenants: Mutex::new(BTreeMap::new()),
            streams: Mutex::new(BTreeMap::new()),
            next_stream: AtomicU64::new(1),
            registry,
            config,
            swap_lock: Mutex::new(()),
        })
    }

    /// The metric registry holding the per-tenant labeled series.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Registered model names, in routing-table order.
    pub fn models(&self) -> Vec<String> {
        self.read_entries().keys().cloned().collect()
    }

    /// The live version of `model` (1 until the first successful swap).
    pub fn version(&self, model: &str) -> Option<u64> {
        self.read_entries().get(model).map(|e| e.version)
    }

    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, ModelEntry>> {
        self.entries.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write_entries(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, ModelEntry>> {
        self.entries.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn engine(&self, model: &str) -> Result<Arc<ServeEngine>, RouteError> {
        self.read_entries()
            .get(model)
            .map(|e| e.engine.clone())
            .ok_or_else(|| RouteError::UnknownModel(model.to_string()))
    }

    fn tenant(&self, name: &str) -> Arc<TenantState> {
        let mut tenants = lock(&self.tenants);
        if let Some(state) = tenants.get(name) {
            return state.clone();
        }
        let l = |base: &str| labeled(base, &[("tenant", name)]);
        let state = Arc::new(TenantState {
            inflight: AtomicI64::new(0),
            inflight_gauge: self.registry.gauge(&l("net-tenant-inflight")),
            requests: self.registry.counter(&l("net-tenant-requests-total")),
            errors: self.registry.counter(&l("net-tenant-errors-total")),
            quota_rejections: self.registry.counter(&l("net-tenant-quota-rejections-total")),
            latency_us: self
                .registry
                .histogram(&l("net-tenant-latency-us"), || Histogram::exponential(64, 16)),
        });
        tenants.insert(name.to_string(), state.clone());
        state
    }

    /// Charge one blocking operation against `tenant`'s quota.
    fn acquire(&self, tenant: &str) -> Result<TenantGuard, RouteError> {
        let state = self.tenant(tenant);
        let now = state.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        if self.config.tenant_quota != 0 && now as usize > self.config.tenant_quota {
            state.inflight.fetch_sub(1, Ordering::SeqCst);
            state.quota_rejections.inc();
            return Err(RouteError::QuotaExceeded {
                tenant: tenant.to_string(),
                quota: self.config.tenant_quota,
            });
        }
        state.inflight_gauge.set(now);
        state.requests.inc();
        Ok(TenantGuard { state })
    }

    /// Blocking batch inference of one flat row-major sample against
    /// `model`, billed to `tenant`. The reply is the logits row exactly
    /// as the in-process [`InferenceSession`] would produce it. Draws a
    /// per-model sequential route key, so local callers exercise a
    /// staged canary's traffic split too.
    pub fn infer(&self, tenant: &str, model: &str, input: &[f32]) -> Result<NdArray, RouteError> {
        let key = self
            .read_entries()
            .get(model)
            .map(|e| e.route_seq.fetch_add(1, Ordering::Relaxed))
            .unwrap_or(0);
        self.infer_keyed(tenant, model, input, key)
    }

    /// [`infer`](Router::infer) with an explicit route key (the net
    /// frontend passes the request id). With a canary staged the key
    /// deterministically picks the serving arm; the reply's outcome
    /// feeds the per-version counters and the canary promote/rollback
    /// decision.
    pub fn infer_keyed(
        &self,
        tenant: &str,
        model: &str,
        input: &[f32],
        route_key: u64,
    ) -> Result<NdArray, RouteError> {
        let (engine, counters, canary_meta) = {
            let entries = self.read_entries();
            let entry = entries
                .get(model)
                .ok_or_else(|| RouteError::UnknownModel(model.to_string()))?;
            match &entry.canary {
                Some(c) if canary_hit(c.version, c.fraction_bp, route_key) => (
                    c.engine.clone(),
                    c.counters.clone(),
                    Some((c.version, c.clean.clone(), c.promote_after)),
                ),
                _ => (entry.engine.clone(), entry.counters.clone(), None),
            }
        };
        let shape = engine.sample_shape().to_vec();
        let expect: usize = shape.iter().product();
        if input.len() != expect {
            return Err(RouteError::Serve(ServeError::BadShape {
                expected: shape,
                got: vec![input.len()],
            }));
        }
        let guard = self.acquire(tenant)?;
        let started = Instant::now();
        let result = engine
            .submit(NdArray::from_vec(input.to_vec(), &shape))
            .and_then(|pending| pending.wait());
        guard.state.latency_us.observe(started.elapsed().as_micros() as u64);
        counters.requests.inc();
        match &result {
            Ok(_) => {
                if let Some((candidate, clean, promote_after)) = &canary_meta {
                    let n = clean.fetch_add(1, Ordering::SeqCst) + 1;
                    if n >= *promote_after {
                        self.promote_canary(model, *candidate);
                    }
                }
            }
            Err(e) => {
                guard.state.errors.inc();
                counters.errors.inc();
                if matches!(e, ServeError::BadOutput) {
                    counters.bad_output.inc();
                }
                if let Some((candidate, _, _)) = &canary_meta {
                    if e.is_quality_breach() {
                        self.rollback_canary(model, *candidate);
                    }
                }
            }
        }
        drop(guard);
        result.map_err(RouteError::Serve)
    }

    /// Open a sliding-window stream against `model` for `tenant`.
    /// Returns a router-scoped stream id; the stream dies (typed
    /// [`ServeError::UnknownStream`]) if its model is hot-swapped.
    pub fn open_stream(
        &self,
        tenant: &str,
        model: &str,
        emit_every: usize,
    ) -> Result<u64, RouteError> {
        let engine = self.engine(model)?;
        let engine_stream = engine.open_stream(emit_every)?;
        let id = self.next_stream.fetch_add(1, Ordering::SeqCst);
        lock(&self.streams).insert(
            id,
            StreamEntry {
                tenant: tenant.to_string(),
                model: model.to_string(),
                engine,
                engine_stream,
            },
        );
        Ok(id)
    }

    fn stream(&self, tenant: &str, id: u64) -> Result<(Arc<ServeEngine>, u64), RouteError> {
        let streams = lock(&self.streams);
        // a stream id owned by another tenant is indistinguishable from a
        // closed one: no cross-tenant probing
        match streams.get(&id) {
            Some(entry) if entry.tenant == tenant => {
                Ok((entry.engine.clone(), entry.engine_stream))
            }
            _ => Err(RouteError::Serve(ServeError::UnknownStream)),
        }
    }

    /// Push one flat `[C*V]` frame into `tenant`'s stream. `Ok(None)`
    /// while warming up or between emissions; `Ok(Some(logits))` when
    /// this frame completed a window (the blocking wait is charged
    /// against the tenant quota).
    pub fn push_frame(
        &self,
        tenant: &str,
        id: u64,
        frame: &[f32],
    ) -> Result<Option<NdArray>, RouteError> {
        let (engine, engine_stream) = self.stream(tenant, id)?;
        match engine.push_frame(engine_stream, frame)? {
            None => Ok(None),
            Some(pending) => {
                let guard = self.acquire(tenant)?;
                let started = Instant::now();
                let result = pending.wait();
                guard.state.latency_us.observe(started.elapsed().as_micros() as u64);
                if result.is_err() {
                    guard.state.errors.inc();
                }
                drop(guard);
                result.map(Some).map_err(RouteError::Serve)
            }
        }
    }

    /// Close `tenant`'s stream. `Ok(true)` if it was open; a stream
    /// another tenant owns reads as [`ServeError::UnknownStream`].
    pub fn close_stream(&self, tenant: &str, id: u64) -> Result<bool, RouteError> {
        let entry = {
            let mut streams = lock(&self.streams);
            match streams.get(&id) {
                Some(e) if e.tenant == tenant => streams.remove(&id),
                Some(_) => return Err(RouteError::Serve(ServeError::UnknownStream)),
                None => return Ok(false),
            }
        };
        Ok(match entry {
            Some(e) => e.engine.close_stream(e.engine_stream),
            None => false,
        })
    }

    /// Steps 1–3 of the swap lifecycle (load → vet → start), shared by
    /// [`swap`](Router::swap) and [`swap_canary`](Router::swap_canary).
    /// Returns the running replacement replica set; every error path is
    /// typed and leaves the routing table untouched.
    fn vet_and_start(
        &self,
        model: &str,
        checkpoint_bytes: &[u8],
    ) -> Result<ServeEngine, SwapError> {
        let (factory, sample_shape) = {
            let entries = self.read_entries();
            let entry = entries
                .get(model)
                .ok_or_else(|| SwapError::UnknownModel(model.to_string()))?;
            (entry.factory.clone(), entry.sample_shape.clone())
        };
        // 1. load into a probe instance: corrupt artifacts refuse typed
        let probe = factory();
        checkpoint::load(&probe, Bytes::from(checkpoint_bytes))
            .map_err(SwapError::Checkpoint)?;
        // 2. vet: finite weights, clean plan, workspace within budget
        for (index, p) in probe.parameters().iter().enumerate() {
            if !p.data().data().iter().all(|v| v.is_finite()) {
                return Err(SwapError::Vetoed(format!(
                    "parameter {index} holds non-finite values"
                )));
            }
        }
        let sym = SymShape::batched(&sample_shape);
        let (_session, report) = InferenceSession::analyzed(probe, &sym)
            .map_err(|report| SwapError::Vetoed(format!("analyzer refused the plan:\n{report}")))?;
        let peak = report.cost_summary().scaled(self.config.serve.max_batch).workspace_peak;
        if peak > self.config.vet_budget {
            return Err(SwapError::Vetoed(format!(
                "predicted peak workspace {peak} B exceeds the {} B budget",
                self.config.vet_budget
            )));
        }
        // 3. start the replacement replica set on the vetted bytes
        let vetted: Arc<Vec<u8>> = Arc::new(checkpoint_bytes.to_vec());
        let per_model = {
            let n = self.read_entries().len().max(1);
            (self.config.total_workers / n).max(1)
        };
        let serve = ServeConfig { workers: per_model, ..self.config.serve.clone() };
        let reload_factory = factory.clone();
        let new_engine = ServeEngine::start(
            move || {
                let m = reload_factory();
                if let Err(e) = checkpoint::load(&m, Bytes::from(vetted.as_slice())) {
                    // the same bytes loaded into the probe above; a failure
                    // here is unreachable in practice and the panic is
                    // converted to a typed ServeError::Startup (initial
                    // start) or a supervisor respawn event by the engine
                    panic!("vetted checkpoint refused by a worker replica: {e}");
                }
                m
            },
            &sample_shape,
            serve,
        )
        .map_err(SwapError::Startup)?;
        Ok(new_engine)
    }

    /// Hot-swap `model` to `checkpoint`, returning the new version. See
    /// the module docs for the vet → start → switch → drain lifecycle;
    /// every error path leaves the old version serving untouched.
    /// Refused typed while a canary is staged for `model`.
    pub fn swap(&self, model: &str, checkpoint_bytes: &[u8]) -> Result<u64, SwapError> {
        let _serialized = lock(&self.swap_lock);
        if self.read_entries().get(model).is_some_and(|e| e.canary.is_some()) {
            return Err(SwapError::CanaryActive(model.to_string()));
        }
        let new_engine = self.vet_and_start(model, checkpoint_bytes)?;
        // 4. atomic switch + stream invalidation
        let (old, version) = {
            let mut entries = self.write_entries();
            let entry = entries
                .get_mut(model)
                .ok_or_else(|| SwapError::UnknownModel(model.to_string()))?;
            VersionCounters::retire(&self.registry, model, entry.version);
            entry.version += 1;
            entry.counters = VersionCounters::new(&self.registry, model, entry.version);
            let old = std::mem::replace(&mut entry.engine, Arc::new(new_engine));
            (old, entry.version)
        };
        lock(&self.streams).retain(|_, s| s.model != model);
        // 5. drain: the old engine closes when its last holder (an
        // in-flight request, or this drop) releases it — every accepted
        // request is answered by the version that accepted it
        drop(old);
        Ok(version)
    }

    /// Stage `checkpoint` as a canary for `model` on `fraction` of keyed
    /// traffic. The checkpoint is vetted exactly like a full swap; the
    /// candidate then serves beside the stable engine until it either
    /// auto-promotes ([`RouterConfig::canary_promote_after`] clean
    /// replies) or auto-rolls-back on the first quality breach. Returns
    /// the candidate version a promotion would install.
    pub fn swap_canary(
        &self,
        model: &str,
        checkpoint_bytes: &[u8],
        fraction: f64,
    ) -> Result<u64, SwapError> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(SwapError::BadFraction(fraction));
        }
        let fraction_bp = ((fraction * 10_000.0).round() as u32).clamp(1, 10_000);
        let _serialized = lock(&self.swap_lock);
        if self.read_entries().get(model).is_some_and(|e| e.canary.is_some()) {
            return Err(SwapError::CanaryActive(model.to_string()));
        }
        let new_engine = self.vet_and_start(model, checkpoint_bytes)?;
        let mut entries = self.write_entries();
        let entry = entries
            .get_mut(model)
            .ok_or_else(|| SwapError::UnknownModel(model.to_string()))?;
        // the staged-canary check above cannot be raced: staging requires
        // the swap lock this call still holds, and the request path only
        // ever *removes* canaries
        let candidate = entry.version + 1;
        entry.canary = Some(CanaryState {
            engine: Arc::new(new_engine),
            version: candidate,
            fraction_bp,
            promote_after: self.config.canary_promote_after.max(1),
            clean: Arc::new(AtomicU64::new(0)),
            counters: VersionCounters::new(&self.registry, model, candidate),
        });
        Ok(candidate)
    }

    /// Abandon `model`'s staged canary, if any; the canary engine drains
    /// on drop and the stable version keeps serving. `Ok(true)` when one
    /// was staged.
    pub fn cancel_canary(&self, model: &str) -> Result<bool, SwapError> {
        let _serialized = lock(&self.swap_lock);
        let dropped = {
            let mut entries = self.write_entries();
            let entry = entries
                .get_mut(model)
                .ok_or_else(|| SwapError::UnknownModel(model.to_string()))?;
            entry.canary.take()
        };
        Ok(dropped.is_some())
    }

    /// Snapshot of `model`'s staged canary, `None` when nothing is
    /// staged (including right after a promotion or rollback).
    pub fn canary(&self, model: &str) -> Option<CanaryStatus> {
        self.read_entries().get(model).and_then(|e| {
            e.canary.as_ref().map(|c| CanaryStatus {
                version: c.version,
                fraction_bp: c.fraction_bp,
                clean: c.clean.load(Ordering::SeqCst),
                promote_after: c.promote_after,
            })
        })
    }

    /// Lifetime promotion/rollback counts for `model`.
    pub fn canary_events(&self, model: &str) -> Option<(u64, u64)> {
        self.read_entries().get(model).map(|e| {
            (
                e.canary_promotions.load(Ordering::Relaxed),
                e.canary_rollbacks.load(Ordering::Relaxed),
            )
        })
    }

    /// Install `model`'s canary as the stable version (atomic switch,
    /// stream invalidation, old engine drains on drop). No-op unless a
    /// canary with exactly `candidate` is still staged — a racing
    /// rollback or second promotion loses cleanly.
    fn promote_canary(&self, model: &str, candidate: u64) {
        let old = {
            let mut entries = self.write_entries();
            let Some(entry) = entries.get_mut(model) else { return };
            if !matches!(&entry.canary, Some(c) if c.version == candidate) {
                return;
            }
            let Some(c) = entry.canary.take() else { return };
            VersionCounters::retire(&self.registry, model, entry.version);
            entry.version = c.version;
            entry.counters = c.counters.clone();
            entry.canary_promotions.fetch_add(1, Ordering::Relaxed);
            std::mem::replace(&mut entry.engine, c.engine)
        };
        // streams pinned to the demoted engine die exactly as on a swap
        lock(&self.streams).retain(|_, s| s.model != model);
        drop(old);
    }

    /// Discard `model`'s canary after a quality breach; the stable
    /// version keeps serving untouched. No-op unless a canary with
    /// exactly `candidate` is still staged.
    fn rollback_canary(&self, model: &str, candidate: u64) {
        let dropped = {
            let mut entries = self.write_entries();
            let Some(entry) = entries.get_mut(model) else { return };
            if !matches!(&entry.canary, Some(c) if c.version == candidate) {
                return;
            }
            entry.canary_rollbacks.fetch_add(1, Ordering::Relaxed);
            entry.canary.take()
        };
        // drain-on-drop: accepted canary work is still answered (typed)
        drop(dropped);
    }

    /// Deterministically ordered router-wide health snapshot as JSON:
    /// per-model serving state + versions, per-tenant accounting, and
    /// the open-stream count.
    pub fn health_json(&self) -> String {
        let mut out = String::from("{\"models\":{");
        {
            let entries = self.read_entries();
            for (i, (name, entry)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let h = entry.engine.health();
                let canary = match &entry.canary {
                    Some(c) => format!(
                        "{{\"version\":{},\"fraction_bp\":{},\"clean\":{},\
                         \"promote_after\":{},\"requests\":{},\"errors\":{},\
                         \"bad_output\":{}}}",
                        c.version,
                        c.fraction_bp,
                        c.clean.load(Ordering::SeqCst),
                        c.promote_after,
                        c.counters.requests.get(),
                        c.counters.errors.get(),
                        c.counters.bad_output.get(),
                    ),
                    None => String::from("null"),
                };
                out.push_str(&format!(
                    "\"{}\":{{\"version\":{},\"serving\":{},\"live_workers\":{},\
                     \"configured_workers\":{},\"restarts\":{},\"queue_depth\":{},\
                     \"accepted\":{},\"completed\":{},\"shed\":{},\"failed\":{},\
                     \"deadline_exceeded\":{},\"bad_output\":{},\"canary\":{},\
                     \"canary_promotions\":{},\"canary_rollbacks\":{}}}",
                    escape(name),
                    entry.version,
                    h.is_serving(),
                    h.live_workers,
                    h.configured_workers,
                    h.restarts,
                    h.queue_depth,
                    h.accepted,
                    h.completed,
                    h.shed,
                    h.failed,
                    h.deadline_exceeded,
                    h.bad_output,
                    canary,
                    entry.canary_promotions.load(Ordering::Relaxed),
                    entry.canary_rollbacks.load(Ordering::Relaxed),
                ));
            }
        }
        out.push_str("},\"tenants\":{");
        {
            let tenants = lock(&self.tenants);
            for (i, (name, t)) in tenants.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{{\"inflight\":{},\"requests\":{},\"errors\":{},\
                     \"quota_rejections\":{}}}",
                    escape(name),
                    t.inflight.load(Ordering::SeqCst),
                    t.requests.get(),
                    t.errors.get(),
                    t.quota_rejections.get(),
                ));
            }
        }
        let open_streams = lock(&self.streams).len();
        out.push_str(&format!("}},\"open_streams\":{open_streams}}}"));
        out
    }

    /// Close every stream and shut every engine down, draining accepted
    /// work. The router refuses nothing while draining — engines answer
    /// their queues before their workers exit.
    pub fn shutdown(&self) {
        lock(&self.streams).clear();
        let mut entries = self.write_entries();
        // dropping each entry's (sole) engine Arc runs ServeEngine's
        // close-and-drain Drop
        entries.clear();
    }
}

/// Specs for every model in the zoo registry at `tiny` scale — the
/// standard routing table for tests, benches and the quick-start.
pub fn zoo_specs(names: &[&str], n_classes: usize, seed: u64) -> Vec<ModelSpec> {
    names
        .iter()
        .map(|name| {
            let name = name.to_string();
            let spec_name = name.clone();
            let factory: ModelFactory = Arc::new(move || {
                let zoo = crate::zoo::Zoo::tiny(
                    dhg_skeleton::SkeletonTopology::ntu25(),
                    n_classes,
                    seed,
                );
                match zoo.by_name(&name) {
                    Some(model) => model,
                    // the names were validated against the registry when
                    // the spec was built; converted to a typed Startup by
                    // the engine if it ever trips
                    None => panic!("model {name:?} vanished from the zoo registry"),
                }
            });
            ModelSpec { name: spec_name, factory, sample_shape: vec![3, 8, 25] }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::Zoo;
    use dhg_skeleton::SkeletonTopology;
    use dhg_tensor::Tensor;

    fn sample(seed: usize) -> Vec<f32> {
        (0..3 * 8 * 25).map(|i| ((i + seed * 131) as f32 * 0.013).sin()).collect()
    }

    fn router(config: RouterConfig) -> Router {
        Router::start(zoo_specs(&["ST-GCN", "DHGCN-lite"], 4, 0), config).expect("router")
    }

    #[test]
    fn routes_by_model_and_matches_in_process_logits() {
        let router = router(RouterConfig::default());
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        for name in ["ST-GCN", "DHGCN-lite"] {
            let mut reference = InferenceSession::new(zoo.by_name(name).expect("zoo"));
            let x = sample(3);
            let got = router.infer("acme", name, &x).expect("infer");
            let batch1 =
                Tensor::constant(NdArray::from_vec(x.clone(), &[3, 8, 25]).reshape(&[1, 3, 8, 25]));
            let want = reference.logits(&batch1);
            assert_eq!(got.data(), &want.data()[..4], "{name} diverged over the router");
        }
        assert_eq!(
            router.infer("acme", "NoSuchModel", &sample(0)).unwrap_err(),
            RouteError::UnknownModel("NoSuchModel".into())
        );
        assert_eq!(
            router.infer("acme", "ST-GCN", &[1.0, 2.0]).unwrap_err(),
            RouteError::Serve(ServeError::BadShape {
                expected: vec![3, 8, 25],
                got: vec![2]
            })
        );
        router.shutdown();
    }

    #[test]
    fn tenant_quota_refuses_typed_before_the_queue() {
        // quota 1: a second in-flight op for the same tenant is refused
        // even though the engine queue has room
        let router = router(RouterConfig { tenant_quota: 1, ..RouterConfig::default() });
        let state = router.tenant("greedy");
        state.inflight.fetch_add(1, Ordering::SeqCst); // simulate one op in flight
        let err = router.infer("greedy", "ST-GCN", &sample(0)).unwrap_err();
        assert_eq!(err, RouteError::QuotaExceeded { tenant: "greedy".into(), quota: 1 });
        assert_eq!(state.quota_rejections.get(), 1);
        // other tenants are unaffected
        router.infer("frugal", "ST-GCN", &sample(0)).expect("other tenant serves");
        // releasing the slot restores service
        state.inflight.fetch_sub(1, Ordering::SeqCst);
        router.infer("greedy", "ST-GCN", &sample(0)).expect("freed slot serves");
        router.shutdown();
    }

    #[test]
    fn streams_are_tenant_scoped_and_die_on_swap() {
        let router = router(RouterConfig::default());
        let stream = router.open_stream("acme", "ST-GCN", 1).expect("open");
        // warm up, then emit one window
        for t in 0..7 {
            assert!(router
                .push_frame("acme", stream, &frame(t))
                .expect("warmup")
                .is_none());
        }
        let logits =
            router.push_frame("acme", stream, &frame(7)).expect("emit").expect("full window");
        assert_eq!(logits.shape(), &[4]);
        // cross-tenant access reads as UnknownStream
        assert_eq!(
            router.push_frame("rival", stream, &frame(8)).unwrap_err(),
            RouteError::Serve(ServeError::UnknownStream)
        );
        assert_eq!(
            router.close_stream("rival", stream).unwrap_err(),
            RouteError::Serve(ServeError::UnknownStream)
        );
        // swapping the model invalidates its streams
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let bytes = checkpoint::save(&zoo.by_name("ST-GCN").expect("zoo"));
        let version = router.swap("ST-GCN", &bytes).expect("swap");
        assert_eq!(version, 2);
        assert_eq!(
            router.push_frame("acme", stream, &frame(8)).unwrap_err(),
            RouteError::Serve(ServeError::UnknownStream)
        );
        assert!(!router.close_stream("acme", stream).expect("gone reads as closed"));
        router.shutdown();
    }

    #[test]
    fn vet_failures_refuse_the_swap_and_keep_serving() {
        let router = router(RouterConfig::default());
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let good = checkpoint::save(&zoo.by_name("DHGCN-lite").expect("zoo"));
        // corrupt checkpoint: typed Checkpoint error
        let err = router.swap("DHGCN-lite", &good[..good.len() / 2]).unwrap_err();
        assert!(matches!(err, SwapError::Checkpoint(_)), "{err:?}");
        // absurdly small budget: typed veto
        let strict = Router::start(
            zoo_specs(&["DHGCN-lite"], 4, 0),
            RouterConfig { vet_budget: 1, ..RouterConfig::default() },
        )
        .expect("router");
        let err = strict.swap("DHGCN-lite", &good).unwrap_err();
        assert!(matches!(err, SwapError::Vetoed(_)), "{err:?}");
        // non-finite weights: typed veto
        let poisoned = zoo.by_name("DHGCN-lite").expect("zoo");
        if let Some(p) = poisoned.parameters().first() {
            p.data_mut().data_mut().fill(f32::NAN);
        }
        let bad = checkpoint::save(&poisoned);
        let err = router.swap("DHGCN-lite", &bad).unwrap_err();
        assert!(matches!(err, SwapError::Vetoed(_)), "{err:?}");
        // after all three refusals version 1 still serves
        assert_eq!(router.version("DHGCN-lite"), Some(1));
        router.infer("acme", "DHGCN-lite", &sample(1)).expect("old version keeps serving");
        strict.shutdown();
        router.shutdown();
    }

    #[test]
    fn health_json_is_parseable_and_deterministic() {
        let router = router(RouterConfig::default());
        router.infer("acme", "ST-GCN", &sample(0)).expect("infer");
        let health = crate::json::Value::parse(&router.health_json()).expect("valid json");
        let models = health.get("models").expect("models");
        let stgcn = models.get("ST-GCN").expect("entry");
        assert_eq!(stgcn.get("version").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(stgcn.get("completed").and_then(|v| v.as_f64()), Some(1.0));
        let acme = health.get("tenants").and_then(|t| t.get("acme")).expect("tenant");
        assert_eq!(acme.get("requests").and_then(|v| v.as_f64()), Some(1.0));
        router.shutdown();
    }

    #[test]
    fn canary_hit_is_deterministic_and_tracks_fraction() {
        // same (version, fraction, key) → same arm, always
        for key in 0..64u64 {
            assert_eq!(canary_hit(2, 5_000, key), canary_hit(2, 5_000, key));
        }
        // boundary fractions
        assert!((0..256).all(|k| canary_hit(2, 10_000, k)));
        assert!((0..256).all(|k| !canary_hit(2, 0, k)));
        // a 30% split lands near 30% over many keys (mix64 is uniform)
        let hits = (0..10_000u64).filter(|&k| canary_hit(7, 3_000, k)).count();
        assert!((2_700..3_300).contains(&hits), "30% split measured {hits}/10000");
        // different candidate versions shuffle the split: a key is not
        // pinned to "canary" across successive rollouts
        assert!((0..10_000u64).any(|k| canary_hit(2, 5_000, k) != canary_hit(3, 5_000, k)));
    }

    #[test]
    fn replaced_versions_leave_the_registry() {
        // per-version series must not pile up with every hot swap: after
        // N swaps and a promotion only the installed version's series
        // remain
        let router = router(RouterConfig { canary_promote_after: 1, ..RouterConfig::default() });
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let bytes = checkpoint::save(&zoo.by_name("ST-GCN").expect("zoo"));
        let series = |router: &Router| {
            let text = router.registry().render_text();
            let lines: Vec<String> = text
                .lines()
                .filter(|l| l.starts_with("net-version-") && l.contains("ST-GCN"))
                .map(str::to_string)
                .collect();
            lines
        };
        for _ in 0..5 {
            router.swap("ST-GCN", &bytes).expect("swap");
            router.infer("acme", "ST-GCN", &sample(0)).expect("infer");
        }
        let version = router.version("ST-GCN").expect("installed");
        let left = series(&router);
        assert_eq!(left.len(), 3, "{left:?}");
        assert!(left.iter().all(|l| l.contains(&format!("version=\"{version}\""))), "{left:?}");
        router.swap_canary("ST-GCN", &bytes, 1.0).expect("stage");
        router.infer("acme", "ST-GCN", &sample(1)).expect("canary serves and promotes");
        assert_eq!(router.version("ST-GCN"), Some(version + 1));
        let left = series(&router);
        assert_eq!(left.len(), 3, "{left:?}");
        assert!(left.iter().all(|l| l.contains(&format!("version=\"{}\"", version + 1))), "{left:?}");
        router.shutdown();
    }

    #[test]
    fn canary_promotes_after_clean_requests() {
        let promote_after = 3;
        let router = router(RouterConfig { canary_promote_after: promote_after, ..RouterConfig::default() });
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let bytes = checkpoint::save(&zoo.by_name("ST-GCN").expect("zoo"));
        // bad fractions refuse typed before any vetting work
        for f in [0.0, -0.25, 1.5, f64::NAN] {
            assert!(matches!(
                router.swap_canary("ST-GCN", &bytes, f).unwrap_err(),
                SwapError::BadFraction(_)
            ));
        }
        let candidate = router.swap_canary("ST-GCN", &bytes, 1.0).expect("stage");
        assert_eq!(candidate, 2);
        let status = router.canary("ST-GCN").expect("staged");
        assert_eq!((status.version, status.fraction_bp, status.clean), (2, 10_000, 0));
        // a second canary and a full swap are both refused while staged
        assert!(matches!(
            router.swap_canary("ST-GCN", &bytes, 0.5).unwrap_err(),
            SwapError::CanaryActive(_)
        ));
        assert!(matches!(
            router.swap("ST-GCN", &bytes).unwrap_err(),
            SwapError::CanaryActive(_)
        ));
        // at fraction 1.0 every keyed request rides the canary; after
        // `promote_after` clean replies it is the stable version
        for i in 0..promote_after {
            router.infer("acme", "ST-GCN", &sample(i as usize)).expect("canary serves");
        }
        assert_eq!(router.version("ST-GCN"), Some(2));
        assert!(router.canary("ST-GCN").is_none(), "promotion consumes the canary");
        assert_eq!(router.canary_events("ST-GCN"), Some((1, 0)));
        // promoted logits still match the in-process reference
        let mut reference = InferenceSession::new(zoo.by_name("ST-GCN").expect("zoo"));
        let x = sample(9);
        let got = router.infer("acme", "ST-GCN", &x).expect("infer");
        let batch1 =
            Tensor::constant(NdArray::from_vec(x.clone(), &[3, 8, 25]).reshape(&[1, 3, 8, 25]));
        let want = reference.logits(&batch1);
        assert_eq!(got.data(), &want.data()[..4], "promoted version diverged");
        router.shutdown();
    }

    #[test]
    fn canary_rolls_back_on_first_quality_breach() {
        let router = router(RouterConfig::default());
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        // finite-but-huge classifier weights pass the vet (finiteness +
        // analyzer see only parameters) yet overflow the forward's final
        // dot product to inf → ServeError::BadOutput
        let poisoned = zoo.by_name("ST-GCN").expect("zoo");
        for p in poisoned.parameters().iter().rev().take(2) {
            p.data_mut().data_mut().fill(f32::MAX);
        }
        let bad = checkpoint::save(&poisoned);
        let candidate = router.swap_canary("ST-GCN", &bad, 1.0).expect("vet passes");
        assert_eq!(candidate, 2);
        // first request through the canary breaches quality and rolls back
        let err = router.infer("acme", "ST-GCN", &sample(0)).unwrap_err();
        assert_eq!(err, RouteError::Serve(ServeError::BadOutput));
        assert!(router.canary("ST-GCN").is_none(), "rollback consumes the canary");
        assert_eq!(router.version("ST-GCN"), Some(1), "stable version untouched");
        assert_eq!(router.canary_events("ST-GCN"), Some((0, 1)));
        router.infer("acme", "ST-GCN", &sample(1)).expect("old version keeps serving");
        // observability: the breach is visible in health_json
        let health = crate::json::Value::parse(&router.health_json()).expect("valid json");
        let stgcn = health.get("models").and_then(|m| m.get("ST-GCN")).expect("entry");
        assert_eq!(stgcn.get("canary_rollbacks").and_then(|v| v.as_f64()), Some(1.0));
        assert!(
            matches!(stgcn.get("canary"), Some(crate::json::Value::Null)),
            "no canary staged"
        );
        router.shutdown();
    }

    #[test]
    fn cancel_canary_drains_without_promotion() {
        let router = router(RouterConfig::default());
        let zoo = Zoo::tiny(SkeletonTopology::ntu25(), 4, 0);
        let bytes = checkpoint::save(&zoo.by_name("DHGCN-lite").expect("zoo"));
        router.swap_canary("DHGCN-lite", &bytes, 0.25).expect("stage");
        let health = crate::json::Value::parse(&router.health_json()).expect("valid json");
        let lite = health.get("models").and_then(|m| m.get("DHGCN-lite")).expect("entry");
        let canary = lite.get("canary").expect("canary field");
        assert_eq!(canary.get("version").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(canary.get("fraction_bp").and_then(|v| v.as_f64()), Some(2500.0));
        assert!(router.cancel_canary("DHGCN-lite").expect("cancel"));
        assert!(!router.cancel_canary("DHGCN-lite").expect("idempotent"));
        assert_eq!(router.version("DHGCN-lite"), Some(1));
        assert_eq!(router.canary_events("DHGCN-lite"), Some((0, 0)));
        // a fresh canary can now be staged and the next swap wins v2
        assert_eq!(router.swap("DHGCN-lite", &bytes).expect("swap"), 2);
        router.shutdown();
    }

    /// One `[C, V]` frame of the synthetic stream (same generator as the
    /// serve tests, so windows can be cross-checked).
    fn frame(t: usize) -> Vec<f32> {
        (0..3 * 25).map(|i| ((t * 3 * 25 + i) as f32 * 0.011).sin()).collect()
    }
}

