//! `net-mixed`: two tenants, each on one keep-alive `NetClient`
//! connection in a closed loop, round-robin over the tiny-zoo DHGCN,
//! DHGCN-lite and ST-GCN at the router's standard `[3, 8, 25]` shape.
//! Every `SWAP_EVERY` requests the first connection hot-swaps DHGCN-lite
//! to the next of two checkpoints, vetted by the router.

use super::{bits, measure, ms_since, Config, LoopStats, Measured, Outcome};
use crate::inputs::{flat, net_corpus, net_request};
use crate::layers::{self, EngineStats, LayerCtx};
use crate::stats::median;
use crate::trace::Tracer;
use dhg_nn::labeled;
use dhg_skeleton::SkeletonTopology;
use dhg_tensor::{NdArray, Tensor};
use dhg_train::proto::Status;
use dhg_train::serve::{ServeConfig, ServeEngine, ServeError};
use dhg_train::zoo::Zoo;
use dhg_train::{
    checkpoint, zoo_specs, InferenceSession, NetClient, NetConfig, NetError, NetServer,
};
use dhg_train::{Router, RouterConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const MODELS: [&str; 3] = ["DHGCN", "DHGCN-lite", "ST-GCN"];
/// Index in `MODELS` of the model that is hot-swapped.
const SWAPPED: usize = 1;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const SWAP_EVERY: u64 = 64;
const CLASSES: usize = 4;
/// Seed of the served (version 1) weights.
const MODEL_SEED: u64 = 0;
/// Requests per connection in the serve-engine replay.
const REPLAY_REQUESTS: u64 = 120;

fn zoo(seed: u64) -> Zoo {
    Zoo::tiny(SkeletonTopology::ntu25(), CLASSES, seed)
}

/// Expected logits, as bits: `served[m][s]` for version 1 of every model,
/// `swapped[k][s]` for the swapped model's checkpoint `k` (1 and 2).
struct Refs {
    served: Vec<Vec<Vec<u32>>>,
    swapped: [Vec<Vec<u32>>; 2],
    checkpoints: [Vec<u8>; 2],
}

fn logits(session: &mut InferenceSession<Box<dyn dhg_nn::Module>>, x: &[f32]) -> Vec<u32> {
    let batch = Tensor::constant(NdArray::from_vec(x.to_vec(), &[1, 3, x.len() / 75, 25]));
    bits(session.logits(&batch).data())
}

impl Refs {
    fn new(seed: u64, pool: &[Vec<f32>]) -> Refs {
        let served = MODELS
            .iter()
            .map(|name| {
                let mut session =
                    InferenceSession::new(zoo(MODEL_SEED).by_name(name).expect("zoo model"));
                pool.iter().map(|x| logits(&mut session, x)).collect()
            })
            .collect();
        let checkpoints = [1u64, 2].map(|k| {
            let weights = zoo(seed.wrapping_mul(2).wrapping_add(k))
                .by_name(MODELS[SWAPPED])
                .expect("zoo model");
            checkpoint::save(&*weights).to_vec()
        });
        // a swapped-in version is the version-1 constructor with the
        // checkpoint's weights loaded
        let swapped = [0, 1].map(|k| {
            let model = zoo(MODEL_SEED).by_name(MODELS[SWAPPED]).expect("zoo model");
            checkpoint::load(&*model, bytes::Bytes::from(checkpoints[k].clone()))
                .expect("own checkpoint loads");
            let mut session = InferenceSession::new(model);
            pool.iter().map(|x| logits(&mut session, x)).collect()
        });
        Refs {
            served,
            swapped,
            checkpoints,
        }
    }

    /// Expected reply of `model` for sample `s` after `swaps` swaps.
    fn expected(&self, model: usize, s: usize, swaps: u64) -> &[u32] {
        if model != SWAPPED || swaps == 0 {
            &self.served[model][s]
        } else {
            &self.swapped[((swaps - 1) % 2) as usize][s]
        }
    }
}

struct Stack {
    router: Arc<Router>,
    server: Option<NetServer>,
    clients: Vec<NetClient>,
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.router.shutdown();
    }
}

/// Router, server and both connections, up to the first reply of every
/// model.
fn start(pool: &[Vec<f32>], refs: &Refs) -> Result<Stack, String> {
    let router = Arc::new(
        Router::start(
            zoo_specs(&MODELS, CLASSES, MODEL_SEED),
            RouterConfig::default(),
        )
        .map_err(|e| format!("router start: {e}"))?,
    );
    let server = NetServer::start(router.clone(), NetConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let clients = TENANTS
        .iter()
        .map(|_| NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut stack = Stack {
        router,
        server: Some(server),
        clients,
    };
    for (m, model) in MODELS.iter().enumerate() {
        let got = stack.clients[0]
            .infer(TENANTS[0], model, &pool[0])
            .map_err(|e| format!("warm-up {model}: {e}"))?;
        if bits(&got) != refs.expected(m, 0, 0) {
            return Err(format!(
                "warm-up reply of {model} differs from InferenceSession::logits"
            ));
        }
    }
    Ok(stack)
}

/// `gen` is 2 × swaps done, plus 1 while a swap is in flight.
fn versions(before: u64, after: u64) -> std::ops::RangeInclusive<u64> {
    before / 2..=after.div_ceil(2)
}

/// Per-connection closed loop until `deadline`; `next` is the index of
/// the connection's next request and carries over from slice to slice.
#[allow(clippy::too_many_arguments)]
fn connection(
    c: usize,
    client: &mut NetClient,
    next: &mut u64,
    seed: u64,
    pool: &[Vec<f32>],
    refs: &Refs,
    gen: &AtomicU64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> (LoopStats, Vec<f64>) {
    let mut stats = LoopStats::default();
    let mut swap_ms = Vec::new();
    while Instant::now() < deadline {
        let i = *next;
        if c == 0 && i > 0 && i.is_multiple_of(SWAP_EVERY) {
            let done = gen.fetch_add(1, Ordering::SeqCst) / 2;
            let k = (done % 2) as usize;
            let open = tracer.map(|t| t.open("net.swap", None, i));
            let t0 = Instant::now();
            let reply = client.swap(MODELS[SWAPPED], &refs.checkpoints[k]);
            swap_ms.push(ms_since(t0));
            if let (Some(t), Some(o)) = (tracer, open) {
                t.close(o);
            }
            gen.fetch_add(1, Ordering::SeqCst);
            match reply {
                Ok(v) if v == done + 2 => {}
                Ok(v) => stats.violation(format!(
                    "swap {} installed version {v}, expected {}",
                    done + 1,
                    done + 2
                )),
                Err(e) => stats.violation(format!("vetted swap {} refused: {e}", done + 1)),
            }
        }
        let (m, s) = net_request(seed, c as u64, i, MODELS.len(), pool.len());
        let g0 = gen.load(Ordering::SeqCst);
        let open = tracer.map(|t| t.open("net.request", None, (c as u64) << 32 | i));
        let t0 = Instant::now();
        let reply = client.infer(TENANTS[c], MODELS[m], &pool[s]);
        let ms = ms_since(t0);
        if let (Some(t), Some(o)) = (tracer, open) {
            t.close(o);
        }
        let g1 = gen.load(Ordering::SeqCst);
        stats.attempted += 1;
        match reply {
            Ok(got) => {
                stats.latencies_ms.push(ms);
                stats.work += 1.0;
                let got = bits(&got);
                if !versions(g0, g1).any(|k| got == refs.expected(m, s, k)) {
                    stats.violation(format!(
                        "{} reply to request {i} on connection {c} is not bitwise any live version",
                        MODELS[m]
                    ));
                }
            }
            Err(NetError::Remote { status, .. }) => {
                stats.failed += 1;
                if matches!(
                    status,
                    Status::Rejected | Status::Busy | Status::QuotaExceeded
                ) {
                    stats.shed += 1;
                }
            }
            Err(e) => stats.violation(format!("untyped failure on connection {c}: {e}")),
        }
        *next += 1;
    }
    (stats, swap_ms)
}

/// Both connections until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    stack: &mut Stack,
    next: &mut [u64; 2],
    seed: u64,
    pool: &[Vec<f32>],
    refs: &Refs,
    gen: &AtomicU64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> (LoopStats, Vec<f64>) {
    let t0 = Instant::now();
    let results: Vec<(LoopStats, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(next.iter_mut())
            .enumerate()
            .map(|(c, (client, next))| {
                scope.spawn(move || {
                    connection(c, client, next, seed, pool, refs, gen, deadline, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut stats = LoopStats::default();
    let mut swaps = Vec::new();
    for (s, w) in results {
        stats.absorb(s);
        swaps.extend(w);
    }
    stats.elapsed_s = t0.elapsed().as_secs_f64();
    (stats, swaps)
}

/// Sum and count of the router's per-tenant latency histograms.
fn router_latency(router: &Router) -> (u64, u64) {
    TENANTS.iter().fold((0, 0), |(sum, count), tenant| {
        let h = router.registry().histogram(
            &labeled("net-tenant-latency-us", &[("tenant", tenant)]),
            || dhg_nn::Histogram::exponential(64, 16),
        );
        (sum + h.sum(), count + h.count())
    })
}

/// The same request schedule through one in-process `ServeEngine` per
/// model (the router's engines are not reachable from outside it).
fn serve_replay(
    seed: u64,
    pool: &[Vec<f32>],
    refs: &Refs,
    tracer: &Tracer,
    out: &mut BTreeMap<String, f64>,
) -> LoopStats {
    let engines: Vec<ServeEngine> = MODELS
        .iter()
        .map(|name| {
            let name = name.to_string();
            ServeEngine::start(
                move || zoo(MODEL_SEED).by_name(&name).expect("zoo model"),
                &[3, 8, 25],
                ServeConfig::default(),
            )
            .expect("engine starts")
        })
        .collect();
    let mut stats = LoopStats::default();
    let results: Vec<LoopStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS.len() as u64)
            .map(|c| {
                let engines = &engines;
                scope.spawn(move || {
                    let mut stats = LoopStats::default();
                    for i in 0..REPLAY_REQUESTS {
                        let (m, s) = net_request(seed, c, i, MODELS.len(), pool.len());
                        let root = tracer.open("serve.request", None, c << 32 | i);
                        let x = NdArray::from_vec(pool[s].clone(), &[3, 8, 25]);
                        let pending =
                            tracer.time("serve.submit", Some(root.id()), c << 32 | i, || {
                                engines[m].submit(x)
                            });
                        let reply = pending.and_then(|p| {
                            tracer.time("serve.wait", Some(root.id()), c << 32 | i, || p.wait())
                        });
                        tracer.close(root);
                        stats.attempted += 1;
                        match reply {
                            Ok(got) if bits(got.data()) == refs.expected(m, s, 0) => {
                                stats.work += 1.0
                            }
                            Ok(_) => stats.violation(format!(
                                "engine reply {i} of {} differs from InferenceSession::logits",
                                MODELS[m]
                            )),
                            Err(e) => {
                                stats.failed += 1;
                                stats.shed += u64::from(matches!(e, ServeError::Rejected { .. }));
                            }
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    for r in results {
        stats.absorb(r);
    }
    let key = |name: &str| {
        let measured = crate::report::MODELS.iter().find(|(n, _)| *n == name);
        measured
            .map(|(_, k)| *k)
            .expect("every served model is measured")
    };
    let per_engine: Vec<(&str, EngineStats)> = MODELS
        .iter()
        .zip(&engines)
        .map(|(name, e)| (key(name), EngineStats::of(e.metrics())))
        .collect();
    layers::serve_layer(&per_engine, out);
    for e in engines {
        e.shutdown();
    }
    stats
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let corpus = net_corpus(cfg.seed);
    let pool: Vec<Vec<f32>> = corpus.samples.iter().map(flat).collect();
    let refs = Refs::new(cfg.seed, &pool);
    let gen = AtomicU64::new(0);
    let mut next = [0u64; 2];
    let mut layers = BTreeMap::new();
    let mut swap_ms = Vec::new();
    let mut before = None;
    let mut traced_client_us = Vec::new();
    let Measured {
        live: mut stack,
        setup_s,
        mut stats,
    } = measure(
        cfg,
        tracer,
        &mut layers,
        || start(&pool, &refs),
        |stack, deadline, t| {
            if t.is_some() && before.is_none() {
                before = Some(router_latency(&stack.router));
            }
            let (stats, swaps) = drive(stack, &mut next, cfg.seed, &pool, &refs, &gen, deadline, t);
            if t.is_some() {
                swap_ms.extend(swaps);
                traced_client_us.extend(stats.latencies_ms.iter().map(|ms| ms * 1e3));
            }
            stats
        },
    )?;
    if cfg.trace {
        let before = before.unwrap_or_default();
        let (sum, count) = router_latency(&stack.router);
        let router_us = (sum - before.0) as f64 / (count - before.1).max(1) as f64;
        let client_us = crate::stats::mean(&traced_client_us);
        layers.insert("router.mean_us".into(), router_us);
        layers.insert("net.wire_us".into(), client_us - router_us);
        layers.insert("net.swap_ms".into(), median(&swap_ms));
        let (retries, reconnects) = stack.clients.iter().fold((0, 0), |(r, c), cl| {
            (r + cl.retries_used(), c + cl.reconnects())
        });
        layers.insert("net.retries".into(), retries as f64);
        layers.insert("net.reconnects".into(), reconnects as f64);
        // in-process swaps, with no request in flight
        let mut router_swap = Vec::new();
        for r in 0..3u64 {
            let done = gen.fetch_add(2, Ordering::SeqCst) / 2;
            let ckpt = &refs.checkpoints[(done % 2) as usize];
            let open = tracer.open("router.swap", None, r);
            let v = stack.router.swap(MODELS[SWAPPED], ckpt);
            router_swap.push(tracer.close(open) / 1e3);
            if !matches!(v, Ok(version) if version == done + 2) {
                stats.violation(format!("in-process swap {} returned {v:?}", done + 1));
            }
        }
        layers.insert("router.swap_ms".into(), median(&router_swap));
        let tiny = zoo(MODEL_SEED);
        let ctx = LayerCtx {
            zoo: &tiny,
            corpus: &corpus,
            checkpoint_model: MODELS[SWAPPED],
        };
        for v in layers::replay(&ctx, tracer, &mut layers) {
            stats.violation(v);
        }
        let replay = serve_replay(cfg.seed, &pool, &refs, tracer, &mut layers);
        stats.absorb(LoopStats {
            latencies_ms: Vec::new(),
            work: 0.0,
            elapsed_s: 0.0,
            ..replay
        });
    }
    // the swapped model still serves the version the swaps installed
    let swaps = gen.load(Ordering::SeqCst) / 2;
    match stack.clients[1].infer(TENANTS[1], MODELS[SWAPPED], &pool[1]) {
        Ok(got) if bits(&got) == refs.expected(SWAPPED, 1, swaps) => {}
        other => stats.violation(format!(
            "after {swaps} swaps {} replied {other:?}",
            MODELS[SWAPPED]
        )),
    }
    drop(stack);
    Ok(Outcome {
        unit: "request",
        work_unit: "request",
        setup_s,
        stats,
        layers,
    })
}
