//! Per-layer replays for the traced run: the workload's own inputs go
//! through each lower layer's public entry, one span per call.

use crate::inputs::{flat, stream_frame};
use crate::report::{BATCHES, MODELS};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use dhg_hypergraph::{
    dynamic_operators, FromScratch, RollingOperators, TopologyBuilder, TopologyConfig,
};
use dhg_nn::{analyze, Module, Sgd, SymShape};
use dhg_skeleton::{batch_samples, static_hypergraph, SkeletonDataset, SkeletonSample, Stream};
use dhg_tensor::parallel::with_threads;
use dhg_tensor::{graph_nodes_created, NdArray, Tensor, Workspace};
use dhg_train::proto::{self, OkPayload, Request, Response};
use dhg_train::zoo::Zoo;
use dhg_train::{
    checkpoint, InferenceSession, NetConfig, StreamingConfig, StreamingSession, TrainConfig,
};
use std::collections::BTreeMap;

/// What the replays need to know about a workload.
pub struct LayerCtx<'a> {
    /// The zoo at the workload's width, topology and class count.
    pub zoo: &'a Zoo,
    /// The workload's inputs, `[3, T, V]` each.
    pub corpus: &'a SkeletonDataset,
    /// The model whose checkpoint the workload ships.
    pub checkpoint_model: &'a str,
}

impl LayerCtx<'_> {
    fn shape(&self) -> (usize, usize, usize) {
        let s = self.corpus.samples[0].data.shape();
        (s[0], s[1], s[2])
    }

    fn batch(&self, b: usize) -> Tensor {
        let (c, t, v) = self.shape();
        let n = self.corpus.samples.len();
        let data: Vec<f32> = (0..b)
            .flat_map(|i| flat(&self.corpus.samples[i % n]))
            .collect();
        Tensor::constant(NdArray::from_vec(data, &[b, c, t, v]))
    }
}

/// Microseconds of each of `reps` spans named `name` around `f`.
fn spans(
    tracer: &Tracer,
    name: &str,
    parent: u64,
    reps: usize,
    mut f: impl FnMut(usize),
) -> Vec<f64> {
    (0..reps)
        .map(|r| {
            let open = tracer.open(name, Some(parent), r as u64);
            f(r);
            tracer.close(open)
        })
        .collect()
}

/// Run every replay, adding its metrics to `out`. Returns violations.
pub fn replay(ctx: &LayerCtx, tracer: &Tracer, out: &mut BTreeMap<String, f64>) -> Vec<String> {
    let root = tracer.open("replay", None, 0);
    let id = root.id();
    let mut violations = Vec::new();
    let gemm_rate = gemm(tracer, id, out);
    infer(ctx, tracer, id, gemm_rate, out);
    hypergraph(ctx, tracer, id, out);
    streaming(ctx, tracer, id, out);
    violations.extend(checkpoints(ctx, tracer, id, out));
    violations.extend(codec(ctx, tracer, id, out));
    violations.extend(trainer(ctx, tracer, id, out));
    tracer.close(root);
    violations
}

/// Packed vs reference GEMM on the conv shape 64×576×425 at one thread;
/// returns the packed rate in GFLOP/s.
fn gemm(tracer: &Tracer, parent: u64, out: &mut BTreeMap<String, f64>) -> f64 {
    let (m, k, n) = (64usize, 576usize, 425usize);
    let filled = |len: usize, salt: u64| -> Vec<f32> {
        (0..len)
            .map(|i| (crate::inputs::mix(i as u64 ^ salt) >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect()
    };
    let a = NdArray::from_vec(filled(m * k, 1), &[m, k]);
    let b = NdArray::from_vec(filled(k * n, 2), &[k, n]);
    let flops = 2.0 * (m * k * n) as f64;
    let rate = |name: &str, f: &dyn Fn() -> NdArray| -> f64 {
        with_threads(1, || {
            std::hint::black_box(f());
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            let iters = ((0.02 / t0.elapsed().as_secs_f64().max(1e-9)).ceil() as usize).max(2);
            let us = spans(tracer, name, parent, 5, |_| {
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
            });
            flops * iters as f64 / (median(&us) * 1e-6) / 1e9
        })
    };
    let packed = rate("gemm.packed", &|| a.matmul_packed(&b));
    let reference = rate("gemm.reference", &|| a.matmul_reference(&b));
    out.insert("gemm.packed_gflops".into(), packed);
    out.insert("gemm.packed_over_reference".into(), packed / reference);
    packed
}

/// Per-sample `InferenceSession::logits` time at B = 1, 2, 4, 8 for each
/// served model, at one thread (the serve engine's default per worker).
/// GFLOP/s is the plan IR's FLOPs per sample times the measured samples
/// per second at B = 8, against the packed GEMM rate of the same run.
fn infer(
    ctx: &LayerCtx,
    tracer: &Tracer,
    parent: u64,
    gemm_rate: f64,
    out: &mut BTreeMap<String, f64>,
) {
    let (c, t, v) = ctx.shape();
    with_threads(1, || {
        for (name, key) in MODELS {
            let model = ctx.zoo.by_name(name).expect("zoo model");
            let mut session = InferenceSession::new(model);
            let flops = analyze(&session.model().plan(&SymShape::nctv(c, t, v)))
                .cost_summary()
                .flops as f64;
            let mut per_sample = BTreeMap::new();
            for b in BATCHES {
                let x = ctx.batch(b);
                let t0 = std::time::Instant::now();
                std::hint::black_box(session.logits(&x));
                let reps =
                    ((0.12 / t0.elapsed().as_secs_f64().max(1e-9)).ceil() as usize).clamp(3, 25);
                let span = format!("infer.logits.{key}.b{b}");
                let us = spans(tracer, &span, parent, reps, |_| {
                    std::hint::black_box(session.logits(&x));
                });
                let ms = median(&us) / 1e3 / b as f64;
                per_sample.insert(b, ms);
                out.insert(format!("infer.fwd_ms.{key}.b{b}"), ms);
            }
            let (b1, b8) = (per_sample[&1], per_sample[&8]);
            let gflops = flops / (b8 * 1e-3) / 1e9;
            out.insert(format!("infer.batch_efficiency.{key}"), b8 / b1);
            out.insert(format!("infer.gflops.{key}.b8"), gflops);
            out.insert(format!("infer.efficiency.{key}.b8"), gflops / gemm_rate);
            if name == "DHGCN" {
                let mut ws = Workspace::new();
                tracer.time("tensor.forward_inference.b8", Some(parent), 0, || {
                    std::hint::black_box(session.model().forward_inference(&ctx.batch(8), &mut ws));
                });
                out.insert(
                    "tensor.workspace_high_water_bytes".into(),
                    ws.high_water_bytes() as f64,
                );
            }
        }
    });
}

/// `[T, V, D]` joint positions of one sample.
fn positions(sample: &SkeletonSample) -> NdArray {
    sample.data.permute(&[1, 2, 0])
}

/// Eq. 6–9 operators, kNN + k-medoid topology, and rolling maintenance,
/// on the workload's windows.
fn hypergraph(ctx: &LayerCtx, tracer: &Tracer, parent: u64, out: &mut BTreeMap<String, f64>) {
    let (_, t, v) = ctx.shape();
    let hg = static_hypergraph(&ctx.corpus.topology);
    let windows: Vec<NdArray> = ctx.corpus.samples.iter().take(8).map(positions).collect();
    let us = spans(
        tracer,
        "hypergraph.dynamic_operators",
        parent,
        windows.len(),
        |w| {
            std::hint::black_box(dynamic_operators(&hg, &windows[w]));
        },
    );
    out.insert("hypergraph.dynamic_operators_us".into(), median(&us));
    // the full DHGCN's k_n = 3, k_m = 4
    let mut builder = FromScratch::new(TopologyConfig::new(3, 4, 0));
    let us = spans(tracer, "hypergraph.topology", parent, windows.len(), |w| {
        let p = windows[w].data();
        for f in 0..t {
            std::hint::black_box(builder.build(&p[f * v * 3..(f + 1) * v * 3], v, 3));
        }
    });
    out.insert("hypergraph.topology_us".into(), median(&us));
    let mut rolling = RollingOperators::new(t, hg, 3);
    let frames: Vec<&[f32]> = windows
        .iter()
        .flat_map(|w| w.data().chunks(v * 3))
        .collect();
    let us = spans(
        tracer,
        "hypergraph.rolling_push",
        parent,
        frames.len(),
        |f| {
            rolling.push(frames[f]);
        },
    );
    out.insert("hypergraph.rolling_push_us".into(), median(&us));
}

/// A `StreamingSession` over the workload's DHGCN, fed the workload's
/// clips chained into one stream, emitting every frame.
fn streaming(ctx: &LayerCtx, tracer: &Tracer, parent: u64, out: &mut BTreeMap<String, f64>) {
    let (c, t, v) = ctx.shape();
    let mut session = StreamingSession::new(ctx.zoo.dhgcn(), c, v, StreamingConfig::new(t));
    let order: Vec<usize> = (0..ctx.corpus.samples.len()).collect();
    let (mut warm, mut emit) = (Vec::new(), Vec::new());
    for f in 0..t + 24 {
        let frame = stream_frame(ctx.corpus, &order, f);
        let open = tracer.open("streaming.push", Some(parent), f as u64);
        let emitted = session.push(&frame).is_some();
        let us = tracer.close(open);
        if emitted {
            emit.push(us)
        } else {
            warm.push(us)
        }
    }
    out.insert("streaming.emit_push_us".into(), median(&emit));
    out.insert("streaming.warm_push_us".into(), median(&warm));
}

/// Save and load of the checkpoint the workload ships.
fn checkpoints(
    ctx: &LayerCtx,
    tracer: &Tracer,
    parent: u64,
    out: &mut BTreeMap<String, f64>,
) -> Vec<String> {
    let model = ctx.zoo.by_name(ctx.checkpoint_model).expect("zoo model");
    let mut saved = None;
    let us = spans(tracer, "checkpoint.save", parent, 5, |_| {
        saved = Some(checkpoint::save(&*model))
    });
    out.insert("checkpoint.save_ms".into(), median(&us) / 1e3);
    let saved = saved.expect("five saves ran");
    out.insert("checkpoint.bytes".into(), saved.len() as f64);
    let fresh = ctx.zoo.by_name(ctx.checkpoint_model).expect("zoo model");
    let mut failures = Vec::new();
    let us = spans(tracer, "checkpoint.load", parent, 5, |_| {
        if let Err(e) = checkpoint::load(&*fresh, saved.clone()) {
            failures.push(format!("checkpoint load refused its own save: {e}"));
        }
    });
    out.insert("checkpoint.load_ms".into(), median(&us) / 1e3);
    failures
}

/// Encode, frame, read back and decode one request and its reply, on the
/// workload's own payloads.
fn codec(
    ctx: &LayerCtx,
    tracer: &Tracer,
    parent: u64,
    out: &mut BTreeMap<String, f64>,
) -> Vec<String> {
    let max = NetConfig::default().max_frame;
    let classes = ctx.corpus.n_classes;
    let mut failures = Vec::new();
    let mut bytes = Vec::new();
    let samples = &ctx.corpus.samples;
    let us = spans(tracer, "proto.codec", parent, samples.len(), |i| {
        let input = flat(&samples[i]);
        let logits: Vec<f32> = input[..classes].to_vec();
        let req = Request::Infer {
            tenant: "tenant-a".into(),
            model: ctx.checkpoint_model.to_string(),
            input,
        };
        let reply = OkPayload::Logits(logits);
        let id = i as u64 + 1;
        let round = || -> Result<usize, proto::ProtoError> {
            let sent = proto::frame_bytes(&proto::encode_request(id, &req), max)?;
            let (got_id, got) = proto::decode_request(&proto::read_frame(&mut &sent[..], max)?)?;
            let back = proto::frame_bytes(&proto::encode_ok(got_id, &reply), max)?;
            let resp = proto::decode_response(&proto::read_frame(&mut &back[..], max)?)?;
            let same = got == req
                && resp
                    == Response::Ok {
                        req_id: id,
                        payload: reply.clone(),
                    };
            Ok(if same { sent.len() + back.len() } else { 0 })
        };
        match round() {
            Ok(0) => failures.push(format!("codec round trip {i} changed its payload")),
            Ok(n) => bytes.push(n as f64),
            Err(e) => failures.push(format!("codec round trip {i} failed: {e}")),
        }
    });
    out.insert("proto.codec_us".into(), median(&us));
    out.insert("proto.bytes_per_req".into(), mean(&bytes));
    failures
}

/// One SGD step of the workload's DHGCN on a minibatch of its inputs,
/// split into batch assembly, forward + loss, backward and step.
fn trainer(
    ctx: &LayerCtx,
    tracer: &Tracer,
    parent: u64,
    out: &mut BTreeMap<String, f64>,
) -> Vec<String> {
    let mut model = ctx.zoo.dhgcn();
    model.set_training(true);
    let mut optimizer = Sgd::new(model.parameters(), TrainConfig::fast(1).sgd);
    let refs: Vec<&SkeletonSample> = ctx
        .corpus
        .samples
        .iter()
        .take(TrainConfig::fast(1).batch_size)
        .collect();
    let mut failures = Vec::new();
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut nodes = Vec::new();
    for rep in 0..3u64 {
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
            let open = tracer.open(format!("trainer.{name}"), Some(parent), rep);
            f();
            times
                .entry(name)
                .or_default()
                .push(tracer.close(open) / 1e3);
        };
        let mut batch = None;
        timed("batch_assembly", &mut || {
            batch = Some(batch_samples(&refs, Stream::Joint, &ctx.corpus.topology))
        });
        let (x, labels) = batch.expect("assembled");
        let before = graph_nodes_created();
        let mut loss = None;
        timed("forward", &mut || {
            loss = Some(
                model
                    .forward(&Tensor::constant(x.clone()))
                    .cross_entropy(&labels),
            )
        });
        let loss = loss.expect("forward ran");
        if !loss.item().is_finite() {
            failures.push(format!("trainer replay {rep}: non-finite loss"));
        }
        timed("backward", &mut || loss.backward());
        nodes.push((graph_nodes_created() - before) as f64);
        timed("step", &mut || optimizer.step());
    }
    for (name, ms) in times {
        out.insert(format!("trainer.{name}_ms"), median(&ms));
    }
    out.insert("autograd.nodes_per_batch".into(), median(&nodes));
    failures
}

/// Serve-engine counters.
pub struct EngineStats {
    pub requests: u64,
    pub batches: u64,
    pub shed: u64,
    pub latency_sum_us: u64,
    pub latency_count: u64,
}

impl EngineStats {
    pub fn of(m: &dhg_train::ServeMetrics) -> Self {
        EngineStats {
            requests: m.requests.get(),
            batches: m.batches.get(),
            shed: m.shed.get(),
            latency_sum_us: m.latency_us.sum(),
            latency_count: m.latency_us.count(),
        }
    }
}

/// `serve.*` from per-engine counters: (model metric key, stats). Queue
/// wait is the engine's mean latency minus the forward time of a batch
/// of the observed mean size (per-sample time from the `infer` replay at
/// the nearest measured batch size).
pub fn serve_layer(engines: &[(&str, EngineStats)], out: &mut BTreeMap<String, f64>) {
    let (mut requests, mut batches, mut shed, mut latency, mut forward, mut count) =
        (0u64, 0u64, 0u64, 0u64, 0f64, 0u64);
    for (key, s) in engines {
        requests += s.requests;
        batches += s.batches;
        shed += s.shed;
        latency += s.latency_sum_us;
        count += s.latency_count;
        let b = s.requests as f64 / s.batches.max(1) as f64;
        let nearest = BATCHES
            .into_iter()
            .min_by(|x, y| (*x as f64 - b).abs().total_cmp(&(*y as f64 - b).abs()));
        let per_sample = nearest
            .and_then(|n| out.get(&format!("infer.fwd_ms.{key}.b{n}")))
            .copied()
            .unwrap_or(0.0);
        forward += per_sample * 1e3 * b * s.latency_count as f64;
    }
    let count = count.max(1) as f64;
    out.insert(
        "serve.queue_wait_us".into(),
        latency as f64 / count - forward / count,
    );
    out.insert(
        "serve.batch_size_mean".into(),
        requests as f64 / batches.max(1) as f64,
    );
    out.insert("serve.shed".into(), shed as f64);
}
