//! With telemetry disabled the recording API must be allocation-free — the
//! whole hot path is a level check that branches out. This lives in its own
//! integration-test binary because it installs a counting global allocator
//! (and so must not share a process with unrelated parallel tests).
//!
//! The same harness also proves the pipelined exchange's steady-state claim:
//! after a warm-up step, `begin_step` + every `submit` reuse the engine's
//! pooled staging buffers and allocate nothing, and a warm dense step of a
//! whole run requests no gradient-sized buffer.

use grace::core::{
    AggMerger, AggregationPlan, Compressor, Context, EncodedTensor, GradientExchange, HealthConfig,
    HealthMonitor, Payload, PayloadReader, PlanBuilder, StepObservation,
};
use grace::nn::data::{ClassificationDataset, Task};
use grace::nn::network::Network;
use grace::nn::Targets;
use grace::telemetry::trace::{self, StageTimer};
use grace::telemetry::{metrics, set_level, Level, Stage, Track};
use grace::tensor::{Shape, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

struct CountingAlloc;

// Counting per thread keeps each test's measured window immune to harness
// threads (libtest prints results concurrently). A const-initialized
// `Cell` has no destructor, so the TLS access inside the allocator can
// never itself allocate or run during teardown.
std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// The largest single request this thread has made since the last call.
fn take_largest_on_this_thread() -> usize {
    LARGEST.with(|c| c.replace(0))
}

/// The bytes this thread's allocations hold now; its peak restarts here.
fn start_peak_on_this_thread() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
    live
}

/// The most bytes this thread's allocations have held at once since
/// [`start_peak_on_this_thread`] returned `start`, above `start`.
fn peak_above(start: isize) -> usize {
    (PEAK.with(Cell::get) - start).max(0) as usize
}

unsafe impl GlobalAlloc for CountingAlloc {
    // The provided `alloc_zeroed` and `realloc` allocate through this.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        let _ = LIVE.try_with(|c| {
            c.set(c.get() + layout.size() as isize);
            let _ = PEAK.try_with(|p| p.set(p.get().max(c.get())));
        });
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_telemetry_hot_path_is_allocation_free() {
    set_level(Level::Off);
    // Handle resolution and the lazy sink/TLS machinery may allocate once;
    // do all of that before the measured window.
    let hist = metrics::histogram("alloc_test.latency_ns");
    let ctr = metrics::counter("alloc_test.total");
    {
        let _warm = trace::span("warmup", Track::Lane(0));
    }
    trace::instant("warmup", Track::Stage(Stage::Encode));

    let before = allocs_on_this_thread();
    for i in 0..10_000u64 {
        let _s = trace::span("hot", Track::Lane(0));
        trace::instant_arg("hot", Track::Stage(Stage::Fault), Some(("rank", i)));
        let t = StageTimer::start();
        let ns = t.finish("hot", Track::Stage(Stage::Encode));
        hist.record(ns);
        ctr.add(1);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "disabled telemetry hot path allocated {} times",
        after - before
    );
}

/// Wire trace-context handling must be free when tracing is off: stamping
/// a [`TraceCtx`] into its fixed 20-byte frame prefix and parsing it back
/// are pure stack operations, and the per-frame instants the socket path
/// emits (`net.frame.send` / `net.frame.recv`) vanish below the `Trace`
/// level — so context propagation costs the disabled send/recv hot path
/// nothing.
#[test]
fn disabled_tracing_wire_context_handling_is_allocation_free() {
    use grace::comm::TraceCtx;

    set_level(Level::Off);
    // First-touch the trace machinery outside the measured window.
    {
        let _warm = trace::span("warmup", Track::Net(0));
    }
    trace::instant("warmup", Track::Hub);

    let before = allocs_on_this_thread();
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        let ctx = TraceCtx {
            seq: i,
            step: i / 4,
            origin: (i % 4) as u32,
        };
        let wire = ctx.to_bytes();
        let back = TraceCtx::from_bytes(&wire);
        acc = acc.wrapping_add(back.seq ^ back.step ^ u64::from(back.origin));
        trace::instant_arg("net.frame.send", Track::Net(0), Some(("bytes", i)));
        trace::instant_arg("net.frame.recv", Track::Net(0), Some(("bytes", i)));
    }
    let after = allocs_on_this_thread();
    std::hint::black_box(acc);
    assert_eq!(
        after - before,
        0,
        "disabled-tracing context handling allocated {} times",
        after - before
    );
}

/// The flight recorder's steady state must be allocation-free: with the
/// ring active (the always-on default) and telemetry at `Metrics`, every
/// span and instant lands in a pre-sized per-thread ring slot, watched
/// counter deltas fold into ring instants over pre-resolved handles — no
/// trigger, no allocation, for as long as the run lives.
#[test]
fn flight_recorder_steady_state_is_allocation_free() {
    use grace::telemetry::recorder;

    set_level(Level::Metrics);
    recorder::set_enabled(true);
    assert!(recorder::active());
    let wire = metrics::counter("traffic.bytes_total");
    // Warm-up: acquires this thread's ring segment, resolves the counter
    // watchlist, and first-touches the delta path.
    {
        let _warm = trace::span("recorder.warmup", Track::Lane(0));
    }
    trace::instant("recorder.warmup", Track::Stage(Stage::Encode));
    wire.add(64);
    recorder::observe_step(0);

    let before = allocs_on_this_thread();
    for step in 1..5_001u64 {
        let _s = trace::span("recorder.hot", Track::Lane(0));
        trace::instant_arg(
            "recorder.hot",
            Track::Stage(Stage::Comm),
            Some(("rank", step)),
        );
        let t = StageTimer::start();
        let ns = t.finish("recorder.hot", Track::Stage(Stage::Encode));
        std::hint::black_box(ns);
        wire.add(64);
        recorder::observe_step(step);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state ring recording allocated {} times",
        after - before
    );
    assert!(!recorder::tripped(), "steady state must not trip");
}

/// The health monitor's steady state must also be allocation-free: with the
/// JSONL log disabled and no anomaly firing, `observe_step` is pure EWMA
/// arithmetic over pre-resolved gauge handles — even while a metrics
/// endpoint sits idle in `accept` on another thread.
#[test]
fn health_monitor_steady_state_is_allocation_free() {
    set_level(Level::Metrics);
    let server = grace::telemetry::serve::serve("127.0.0.1:0").expect("bind ephemeral port");
    let mut monitor = HealthMonitor::new(HealthConfig::default().with_log(None));
    let obs = StepObservation {
        grad_norm: 1.0,
        residual_norm: Some(0.25),
        compression_ratio: Some(32.0),
        overlap_ratio: Some(0.8),
        straggler_skew_seconds: Some(1.0e-5),
    };
    // Warm-up covers the EWMA seeding steps and any first-touch work.
    for step in 0..16u64 {
        monitor.observe_step(step, &obs);
    }

    let before = allocs_on_this_thread();
    for step in 16..10_016u64 {
        monitor.observe_step(step, &obs);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "clean-path health monitoring allocated {} times",
        after - before
    );
    assert_eq!(monitor.anomaly_count(), 0, "steady input must not alert");
    drop(server);
}

/// A codec that transmits nothing: with no payload vectors and a rank-0
/// context shape, the whole encode path is allocation-free, which isolates
/// the *engine's* staging machinery in the measured window below.
struct NullCodec;

impl Compressor for NullCodec {
    fn name(&self) -> String {
        "Null".into()
    }

    fn compress(&mut self, _t: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        (Vec::new(), Context::shape_only(Shape::scalar()))
    }

    fn decompress(&mut self, _p: &[Payload], ctx: &Context) -> Tensor {
        Tensor::zeros(ctx.shape.clone())
    }
}

/// Steady-state pipelined submission must be allocation-free: the bucket
/// plan, per-lane staging tensors, and encode slots are all pooled on the
/// engine, so after one warm-up step a `begin_step` + full round of
/// `submit`s touches no allocator. (`finish` is excluded — aggregation
/// legitimately builds the result vector and report.)
#[test]
fn pipelined_submit_steady_state_is_allocation_free() {
    set_level(Level::Off);
    let n_workers = 2;
    let mut codecs: Vec<Box<dyn Compressor>> = (0..n_workers)
        .map(|_| Box::new(NullCodec) as Box<dyn Compressor>)
        .collect();
    let mut engine = GradientExchange::from_compressors(&mut codecs);

    let grads: Vec<(String, Tensor)> = (0..6)
        .map(|i| (format!("g{i}"), Tensor::from_vec(vec![i as f32; 32 + i])))
        .collect();
    let mut builder = PlanBuilder::new(256);
    for (name, t) in &grads {
        builder.push(name, t.len());
    }
    let plan = builder.finish();
    assert!(plan.n_buckets() > 1, "want a multi-bucket stream");

    // Warm-up: sizes the pools (staging tensors, slot vectors, plan cache).
    let mut session = engine.begin_step(&plan);
    for w in 0..n_workers {
        for (name, t) in &grads {
            session.submit(w, name, t);
        }
    }
    let _ = session.finish();

    let before = allocs_on_this_thread();
    for _ in 0..100 {
        let mut session = engine.begin_step(&plan);
        for w in 0..n_workers {
            for (name, t) in &grads {
                session.submit(w, name, t);
            }
        }
        // Letting the unfinished session fall out of scope is allowed; the
        // next begin_step reclaims the pools without reallocating.
        let _ = session;
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state pipelined submit allocated {} times",
        after - before
    );

    // The pools are still coherent: a finished step after the measured
    // window produces the full aggregated stream.
    let mut session = engine.begin_step(&plan);
    for w in 0..n_workers {
        for (name, t) in &grads {
            session.submit(w, name, t);
        }
    }
    let (aggregated, report) = session.finish();
    assert_eq!(aggregated.len(), grads.len());
    assert_eq!(report.buckets.len(), plan.n_buckets());
}

/// Steady-state homomorphic aggregation must be allocation-free: the
/// merger's fold scratch (code/aux buffers) and a caller-pooled output
/// tensor are sized by the first fold; every later fold of same-shape
/// contributions reuses that capacity.
#[test]
fn homomorphic_fold_steady_state_is_allocation_free() {
    set_level(Level::Off);
    let spec = grace::compressors::registry::find("eightbit").unwrap();
    let parts: Vec<EncodedTensor> = (0..3)
        .map(|w| {
            let mut c = (spec.build)(100 + w as u64);
            let data: Vec<f32> = (0..512)
                .map(|i| ((i + w * 97) as f32 * 0.03).sin())
                .collect();
            let (payloads, ctx) = c.compress(&Tensor::from_vec(data), "g");
            EncodedTensor { payloads, ctx }
        })
        .collect();
    let mut c = (spec.build)(100);
    let mut merger = AggMerger::new(AggregationPlan::HomomorphicSum);
    let mut out = Tensor::from_vec(Vec::new());

    // Warm-up sizes the fold scratch and the pooled output.
    let _ = merger.fold_homomorphic_into(c.as_mut(), &parts, &mut out);

    let before = allocs_on_this_thread();
    for _ in 0..1_000 {
        let _ = merger.fold_homomorphic_into(c.as_mut(), &parts, &mut out);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state homomorphic fold allocated {} times",
        after - before
    );
}

/// The vectorized codec kernels must be allocation-free in steady state:
/// every `grace::tensor::simd` entry point writes into caller-owned slices,
/// so a full encode/decode round (norm scan → code-book quantize → byte
/// pack → byte unpack → dequantize → error-feedback axpy) over pooled
/// buffers touches no allocator — on whatever dispatch level is active,
/// including `GRACE_FORCE_SCALAR=1`. The same holds for the word-at-a-time
/// packer (streaming writer, pooled unpack) and the level-quantizer kernel
/// pair, which take their payload and output buffers from the caller.
#[test]
fn vectorized_codec_kernels_steady_state_is_allocation_free() {
    use grace::tensor::coding::{dequantize_levels, level_bits, quantize_levels};
    use grace::tensor::pack::{packed_len, unpack_bits_into, BitWriter};
    use grace::tensor::simd;

    set_level(Level::Off);
    let table: Vec<f32> = (0..128).map(|i| i as f32 / 127.0).collect();
    let xs: Vec<f32> = (0..1027).map(|i| ((i as f32) * 0.37).sin()).collect();
    let mut codes = vec![0u32; xs.len()];
    let mut bytes = vec![0u8; xs.len()];
    let mut wide = vec![0u32; xs.len()];
    let mut dec = vec![0f32; xs.len()];
    // QSGD(64)'s 7-bit levels, and a width past the decode table.
    let level_counts = [64u32, 1000];
    let mut packed = vec![0u8; packed_len(xs.len(), 7)];
    let mut signs = vec![0u8; packed_len(xs.len(), 1)];
    let mut levels = vec![0u8; packed_len(xs.len(), level_bits(1000))];
    let mut unpacked: Vec<u32> = Vec::with_capacity(xs.len());
    let mut decoded: Vec<f32> = Vec::with_capacity(xs.len());
    let mut rng = grace::tensor::rng::seeded(5);
    // Warm-up also resolves the cached dispatch decision (feature detection
    // and the env-var read) outside the measured window.
    simd::quantize_sign_mag(&table, &xs, 1.0, &mut codes);

    let before = allocs_on_this_thread();
    for _ in 0..1_000 {
        let max = f32::from_bits(simd::abs_max_bits(&xs));
        let inv = 1.0 / max.max(f32::MIN_POSITIVE);
        simd::quantize_sign_mag(&table, &xs, inv, &mut codes);
        simd::narrow_to_bytes(&codes, &mut bytes);
        simd::widen_from_bytes(&bytes, &mut wide);
        simd::dequant_sign_mag(&table, &wide, max, &mut dec);
        simd::dequant_sign_mag_add(&table, &wide, -0.5, &mut dec);
        simd::axpy(&mut dec, 0.25, &xs);

        codes.iter_mut().for_each(|code| *code &= 0x7F);
        let mut writer = BitWriter::new(&mut packed, 7);
        let (groups, tail) = codes.as_chunks::<8>();
        for group in groups {
            writer.write8(group);
        }
        writer.finish(tail);
        unpack_bits_into(&packed, 7, xs.len(), &mut unpacked);

        for s in level_counts {
            let bits = level_bits(s);
            let levels = &mut levels[..packed_len(xs.len(), bits)];
            let norm = quantize_levels(&xs, s, &mut rng, &mut signs, levels);
            dequantize_levels(&signs, levels, bits, s, norm, xs.len(), &mut decoded);
        }
    }
    let after = allocs_on_this_thread();
    std::hint::black_box((&dec, &unpacked, &decoded));
    assert_eq!(
        after - before,
        0,
        "steady-state vectorized codec kernels allocated {} times",
        after - before
    );
}

/// A warm dispatch of the intra-op pool allocates nothing: the job is
/// borrowed from the caller's stack, the helpers persist, and the slot they
/// read it from is reused. `fresh_rows` allocates exactly the buffer it
/// returns, and a warm momentum step — on the pool, at width 2 — nothing.
#[test]
fn warm_pool_dispatch_is_allocation_free() {
    use grace::nn::optim::{Momentum, Optimizer};
    use grace::tensor::pool;

    set_level(Level::Off);
    pool::with_width(2, || {
        let len = 1 << 17;
        let mut a = vec![1.0f32; len];
        let mut b = vec![2.0f32; len];
        let g = Tensor::from_vec(vec![0.5f32; len]);
        let mut x = Tensor::from_vec(vec![0.0f32; len]);
        let mut opt = Momentum::new(0.1, 0.9);
        let step = |a: &mut [f32], b: &mut [f32]| {
            pool::split_rows(a, len, 16, usize::MAX, |r, part| {
                for (v, i) in part.iter_mut().zip(r) {
                    *v += i as f32;
                }
            });
            pool::split_rows2(a, b, len, 16, usize::MAX, |_, pa, pb| {
                for (x, y) in pa.iter_mut().zip(pb) {
                    *y = *x * 0.5;
                }
            });
        };
        // Warm-up spawns the helper and creates the optimizer's state.
        step(&mut a, &mut b);
        opt.update("x", &mut x, &g);
        let fresh = |rows| pool::fresh_rows(len, rows, 1, usize::MAX, |_, c| c.fill(1.0));
        std::hint::black_box(fresh(len));

        let before = allocs_on_this_thread();
        for _ in 0..200 {
            step(&mut a, &mut b);
            opt.update("x", &mut x, &g);
        }
        let warm = allocs_on_this_thread() - before;
        let before = allocs_on_this_thread();
        for _ in 0..200 {
            std::hint::black_box(fresh(len / 64));
        }
        let fresh_allocs = allocs_on_this_thread() - before;
        assert_eq!(warm, 0, "warm pool dispatches allocated {warm} times");
        assert_eq!(
            fresh_allocs, 200,
            "fresh_rows allocates only what it returns"
        );
    });
}

/// `Qsgd::compress` allocates what it returns and nothing else: the two
/// payload buffers, the `Vec<Payload>` and the context. (Through PR 16 it
/// also built a `Vec<u32>` of signs and one of levels, 8 bytes per element,
/// before packing them.)
#[test]
fn qsgd_compress_allocates_only_what_it_returns() {
    use grace::compressors::Qsgd;

    set_level(Level::Off);
    let g = Tensor::from_vec((0..4099).map(|i| ((i as f32) * 0.11).cos()).collect());
    let mut c = Qsgd::new(64, 3);
    let _warm = c.compress(&g, "g");

    let before = allocs_on_this_thread();
    let context = Context::with_meta(g.shape().clone(), vec![0.0]);
    let context_allocs = allocs_on_this_thread() - before;

    let before = allocs_on_this_thread();
    let (payloads, ctx) = c.compress(&g, "g");
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(
        allocs,
        3 + context_allocs,
        "Qsgd::compress made {allocs} allocations for 2 payload buffers, \
         1 payload list and a context of {context_allocs}"
    );
    assert_eq!((payloads.len(), ctx.shape.len()), (2, context.shape.len()));
}

/// A warm QSGD merge of gathered frames allocates its output tensor (the
/// buffer and the shape) and nothing per contribution: every frame's level
/// streams decode through zero-copy views straight into the one
/// accumulator, checked one frame ahead in the merger's pooled contexts.
#[test]
fn warm_qsgd_merge_allocates_only_its_output() {
    use grace::core::payload::encode_frame;

    set_level(Level::Off);
    let spec = grace::compressors::registry::find("qsgd").unwrap();
    let g = Tensor::from_vec((0..4099).map(|i| ((i as f32) * 0.11).cos()).collect());
    let frames: Vec<Vec<u8>> = (0..4)
        .map(|w| {
            let (payloads, ctx) = (spec.build)(100 + w).compress(&g, "g");
            encode_frame(payloads, &ctx.meta)
        })
        .collect();
    let shape = g.shape().clone();
    let mut c = (spec.build)(100);
    let mut merger = AggMerger::new(AggregationPlan::DecodeThenMerge);
    let mut merge = |n: usize| {
        let before = allocs_on_this_thread();
        let frames = frames[..n].iter().map(Vec::as_slice);
        let merged = merger.merge_frames(c.as_mut(), frames, &shape).unwrap();
        let allocs = allocs_on_this_thread() - before;
        assert_eq!((merged.0.len(), merged.2), (g.len(), 0));
        allocs
    };
    let _warm = merge(4);
    for n in 1..=4 {
        let allocs = merge(n);
        assert_eq!(
            allocs, 2,
            "a warm merge of {n} QSGD frames made {allocs} allocations for \
             an output buffer and its shape"
        );
    }
}

/// `TopK::compress` allocates what it returns and nothing else: the index
/// and value payload buffers, the `Vec<Payload>` and the context — the
/// selection's chunk maxima and candidates live in the compressor's pooled
/// scratch. Its decode allocates the output tensor (data and shape) and
/// nothing else: it scatters straight from the payload slices.
#[test]
fn topk_compress_allocates_only_what_it_returns() {
    use grace::compressors::TopK;

    set_level(Level::Off);
    // resnet50-analog's 96 × 96 weight at the paper's 1 %, and a length
    // with a partial last chunk.
    for len in [9216, 4099] {
        let g = Tensor::from_vec((0..len).map(|i| ((i as f32) * 0.11).cos()).collect());
        let mut c = TopK::new(0.01);
        let _warm = c.compress(&g, "g");

        let before = allocs_on_this_thread();
        let context = Context::shape_only(g.shape().clone());
        let context_allocs = allocs_on_this_thread() - before;

        let before = allocs_on_this_thread();
        let (payloads, ctx) = c.compress(&g, "g");
        let allocs = allocs_on_this_thread() - before;
        assert_eq!(
            allocs,
            3 + context_allocs,
            "TopK::compress made {allocs} allocations for 2 payload buffers, \
             1 payload list and a context of {context_allocs} (len {len})"
        );
        assert_eq!((payloads.len(), ctx.shape.len()), (2, context.shape.len()));

        let before = allocs_on_this_thread();
        let out = c.decompress(&payloads, &ctx);
        let allocs = allocs_on_this_thread() - before;
        assert_eq!(
            allocs,
            1 + context_allocs,
            "TopK::decompress made {allocs} allocations for an output of \
             1 buffer and a shape of {context_allocs} (len {len})"
        );
        assert_eq!(out.norm0(), payloads[0].as_f32().len());
    }
}

/// Error feedback allocates only what it returns: once a tensor has a
/// residual, `ResidualMemory::update` writes `c − d` over it, and
/// `compensate` builds its output (data and shape) in one pass.
#[test]
fn residual_memory_allocates_only_what_it_returns() {
    use grace::core::{Memory, ResidualMemory};

    set_level(Level::Off);
    let g = Tensor::from_vec((0..4099).map(|i| ((i as f32) * 0.11).cos()).collect());
    let d = Tensor::from_vec((0..4099).map(|i| ((i % 7) as f32) * 0.01).collect());
    let mut memory = ResidualMemory::with_decay(0.9, 1.0);
    let c = memory.compensate("g", &g);
    memory.update("g", &c, &d);

    let before = allocs_on_this_thread();
    let shape = g.shape().clone();
    let shape_allocs = allocs_on_this_thread() - before;

    let before = allocs_on_this_thread();
    let c = memory.compensate("g", &g);
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(
        allocs,
        1 + shape_allocs,
        "compensate allocated {allocs} times"
    );

    let before = allocs_on_this_thread();
    memory.update("g", &c, &d);
    let allocs = allocs_on_this_thread() - before;
    assert_eq!(allocs, 0, "a warm update allocated {allocs} times");
    assert_eq!(memory.residual("g").map(|r| r.shape()), Some(&shape));
}

/// Zero-copy frame decoding must be allocation-free in steady state: the
/// [`PayloadReader`] validates the CRC envelope and yields borrowed
/// [`grace::core::PayloadView`]s over the frame body, and the pooled
/// `unpack_into` / `read_f32s_into` scratch buffers are sized by the first
/// pass — so re-decoding the same wire frame (the per-round receive path)
/// touches no allocator.
#[test]
fn zero_copy_decode_steady_state_is_allocation_free() {
    set_level(Level::Off);
    // A realistic wire frame: packed byte codes plus an f32 meta payload.
    let values: Vec<u32> = (0..512).map(|i| (i * 7) % 256).collect();
    let payloads = vec![
        Payload::packed(&values, 8),
        Payload::F32((0..16).map(|i| i as f32 * 0.5).collect()),
    ];
    let frame = grace::core::payload::encode(&payloads);
    let mut codes: Vec<u32> = Vec::new();
    let mut meta: Vec<f32> = Vec::new();

    let decode_frame = |codes: &mut Vec<u32>, meta: &mut Vec<f32>| {
        let mut r = PayloadReader::new_checked(&frame).expect("clean frame");
        let first = r.next_view().expect("clean frame").expect("packed view");
        first.unpack_into(codes);
        let second = r.next_view().expect("clean frame").expect("meta view");
        second.read_f32s_into(meta);
        assert!(r.next_view().expect("clean frame").is_none());
    };
    // Warm-up sizes the pooled scratch.
    decode_frame(&mut codes, &mut meta);

    let before = allocs_on_this_thread();
    for _ in 0..1_000 {
        decode_frame(&mut codes, &mut meta);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state zero-copy decode allocated {} times",
        after - before
    );
    assert_eq!(codes.len(), 512);
    assert_eq!(meta.len(), 16);
}

/// The wire unit of a gathered bucket is one buffer, not one frame `Vec` per
/// tensor: `encode_bucket_into` grows an empty buffer exactly once however
/// many tensors the bucket holds, and a buffer that already has the room not
/// at all.
#[test]
fn bucket_envelope_is_one_allocation_however_many_tensors() {
    use grace::core::payload::encode_bucket_into;
    grace::tensor::simd::level(); // cached now: its one env read allocates when the variable is set

    for tensors in [1usize, 2, 8, 32] {
        let encoded: Vec<(Vec<Payload>, Vec<f32>)> = (0..tensors)
            .map(|t| {
                let payloads = vec![
                    Payload::U32((0..t as u32 + 3).collect()),
                    Payload::F32(vec![0.5; t + 3]),
                ];
                (payloads, vec![t as f32])
            })
            .collect();
        let parts = || encoded.iter().map(|(p, m)| (&p[..], &m[..]));

        let mut cold = Vec::new();
        let before = allocs_on_this_thread();
        encode_bucket_into(&mut cold, parts());
        assert_eq!(
            allocs_on_this_thread() - before,
            1,
            "{tensors} tensors: one exact reservation"
        );

        let mut warm = Vec::with_capacity(cold.len());
        let before = allocs_on_this_thread();
        encode_bucket_into(&mut warm, parts());
        assert_eq!(allocs_on_this_thread() - before, 0, "{tensors} tensors");
        assert_eq!(warm, cold);
    }
}

/// A task that notes, at the top of every step (its batch request), the
/// calling thread's allocation count and the largest single request since
/// the previous note — so the window between the last two notes is one
/// warm step.
struct StepMarks {
    task: ClassificationDataset,
    marks: Mutex<Vec<(u64, usize)>>,
}

impl StepMarks {
    fn new(task: ClassificationDataset) -> Self {
        StepMarks {
            task,
            marks: Mutex::new(Vec::with_capacity(64)),
        }
    }

    /// Allocations and largest request of the run's last full step.
    fn warm_step(self) -> (u64, usize) {
        let marks = self.marks.into_inner().unwrap();
        let [.., (a, _), (b, largest)] = marks[..] else {
            panic!("a run of at least 2 steps");
        };
        (b - a, largest)
    }
}

impl Task for StepMarks {
    fn train_len(&self) -> usize {
        self.task.train_len()
    }
    fn train_batch(&self, indices: &[usize]) -> (Tensor, Targets) {
        let mark = (allocs_on_this_thread(), take_largest_on_this_thread());
        self.marks.lock().unwrap().push(mark);
        self.task.train_batch(indices)
    }
    fn quality(&self, net: &mut Network) -> f64 {
        self.task.quality(net)
    }
    fn quality_name(&self) -> &'static str {
        self.task.quality_name()
    }
    fn higher_is_better(&self) -> bool {
        self.task.higher_is_better()
    }
}

/// An optimizer that notes the buffer of every aggregate it is handed.
struct Watch {
    inner: grace::nn::optim::Momentum,
    seen: std::sync::Arc<Mutex<Vec<(String, usize)>>>,
}

impl grace::nn::optim::Optimizer for Watch {
    fn update(&mut self, name: &str, value: &mut Tensor, grad: &Tensor) {
        let at = grad.as_slice().as_ptr() as usize;
        self.seen.lock().unwrap().push((name.to_string(), at));
        self.inner.update(name, value, grad);
    }
    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }
    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }
}

/// One layer, `y = x + Σ w`, over large parameters and 2-wide activations,
/// whose backward writes its gradients in place: a warm step's request as
/// large as the smallest gradient tensor would be the exchange's.
struct Offset(Vec<grace::nn::Param>);

impl grace::nn::Layer for Offset {
    fn name(&self) -> &str {
        "offset"
    }
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let shift: f32 = self
            .0
            .iter()
            .map(|p| p.value.as_slice().iter().sum::<f32>())
            .sum();
        input.map(|v| v + shift)
    }
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g: f32 = grad_output.as_slice().iter().sum();
        for p in &mut self.0 {
            p.grad_mut().fill(g);
        }
        grad_output.clone()
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut grace::nn::Param)) {
        for p in &mut self.0 {
            f(p);
        }
    }
}

/// [`Offset`]'s parameter lengths.
const OFFSET_SIZES: [usize; 3] = [3072, 2048, 4096];

fn offset_net() -> Network {
    use grace::nn::{Layer, Loss, Param};
    let params = OFFSET_SIZES
        .iter()
        .enumerate()
        .map(|(i, &len)| Param::new(format!("offset/w{i}"), Tensor::zeros(Shape::vector(len))));
    let layers: Vec<Box<dyn Layer>> = vec![Box::new(Offset(params.collect()))];
    Network::new("offset", layers, Loss::SoftmaxCrossEntropy)
}

/// A warm dense step allocates no gradient-sized buffer: each parameter's
/// gradient buffer circulates from backward through the encode, the
/// collective and the decoded aggregate to the optimizer and back to the
/// parameter. The first model is one layer, `y = x + Σ w`, over large
/// parameters and 2-wide activations, whose backward writes its gradients
/// in place — so any request as large as the smallest gradient tensor would
/// be the exchange's. The second is a real `Dense` stack with weights far
/// larger than its activations, whose optimizer sees one buffer per
/// parameter over every step. Checked on a 1-rank `run_threaded` (the
/// board's collective ending) and a 1-lane `run_simulated` session, with
/// every tensor its own bucket and all in one.
#[test]
fn a_warm_dense_step_requests_no_gradient_sized_buffer() {
    use grace::core::threaded::run_threaded;
    use grace::core::trainer::{run_simulated, CodecTiming};
    use grace::core::{Memory, NoCompression, NoMemory, TrainConfig};
    use grace::nn::models;
    use grace::nn::optim::{Momentum, Optimizer};
    use std::collections::{BTreeSet, HashMap};
    use std::sync::Arc;

    set_level(Level::Off);
    let smallest_gradient = 4 * OFFSET_SIZES.iter().min().unwrap();
    let net = offset_net;
    let task = || StepMarks::new(ClassificationDataset::synthetic(96, 2, 2, 0.3, 5));
    for fusion_bytes in [1, usize::MAX] {
        let mut cfg = TrainConfig::new(1, 8, 1, 5);
        cfg.codec = CodecTiming::Free;
        cfg.fusion_bytes = fusion_bytes;
        cfg.telemetry = Some(Level::Off);

        let threaded = task();
        run_threaded(&cfg, &threaded, |_rank| {
            (
                net(),
                Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
                Box::new(NoCompression::new()) as Box<dyn Compressor>,
                Box::new(NoMemory::new()) as Box<dyn Memory>,
            )
        });
        let simulated = task();
        let mut cs: Vec<Box<dyn Compressor>> = vec![Box::new(NoCompression::new())];
        let mut ms: Vec<Box<dyn Memory>> = vec![Box::new(NoMemory::new())];
        let (mut model, mut opt) = (net(), Momentum::new(0.05, 0.9));
        run_simulated(&cfg, &mut model, &simulated, &mut opt, &mut cs, &mut ms);

        for (run, marks) in [("run_threaded", threaded), ("run_simulated", simulated)] {
            let (allocs, largest) = marks.warm_step();
            assert!(allocs > 0, "{run}: the window holds a step");
            assert!(
                largest < smallest_gradient,
                "{run}, fusion {fusion_bytes}: a warm step requested {largest} bytes at once, \
                 the smallest gradient is {smallest_gradient}"
            );
        }

        // Weights of 48×96, 96×96 and 96×16 floats; a batch of 8 makes
        // activations of at most 8×96.
        let dense = || models::mlp_classifier("dense", 48, &[96, 96], 16, 5);
        let smallest_weight = 4 * 96 * 16;
        let task = || StepMarks::new(ClassificationDataset::synthetic(96, 48, 16, 0.3, 5));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let watch = || Watch {
            inner: Momentum::new(0.05, 0.9),
            seen: Arc::clone(&seen),
        };
        let threaded = task();
        run_threaded(&cfg, &threaded, |_rank| {
            (
                dense(),
                Box::new(watch()) as Box<dyn Optimizer>,
                Box::new(NoCompression::new()) as Box<dyn Compressor>,
                Box::new(NoMemory::new()) as Box<dyn Memory>,
            )
        });
        let threaded_seen = std::mem::take(&mut *seen.lock().unwrap());
        let simulated = task();
        let mut cs: Vec<Box<dyn Compressor>> = vec![Box::new(NoCompression::new())];
        let mut ms: Vec<Box<dyn Memory>> = vec![Box::new(NoMemory::new())];
        let (mut model, mut opt) = (dense(), watch());
        run_simulated(&cfg, &mut model, &simulated, &mut opt, &mut cs, &mut ms);
        let simulated_seen = std::mem::take(&mut *seen.lock().unwrap());
        let runs = [
            ("dense run_threaded", threaded, threaded_seen),
            ("dense run_simulated", simulated, simulated_seen),
        ];
        for (run, marks, seen) in runs {
            let (_, largest) = marks.warm_step();
            assert!(
                largest < smallest_weight,
                "{run}, fusion {fusion_bytes}: a warm step requested {largest} bytes at once, \
                 the smallest weight gradient is {smallest_weight}"
            );
            let mut buffers: HashMap<String, BTreeSet<usize>> = HashMap::new();
            for (name, at) in &seen {
                buffers.entry(name.clone()).or_default().insert(*at);
            }
            assert_eq!(buffers.len(), 6, "{run}: three layers' weights and biases");
            assert!(seen.len() >= 3 * 6, "{run}: at least three steps");
            for (name, at) in &buffers {
                assert_eq!(
                    at.len(),
                    1,
                    "{run}, fusion {fusion_bytes}: '{name}' saw {at:?}"
                );
            }
        }
    }
}

/// A warm gathered step allocates no gradient-sized buffer either: the last
/// lane keeps each gradient buffer once it is encoded, the merge folds every
/// contribution into it — QSGD's level decode, top-k's and Qsparse's
/// scatter-add and the sign family's and TernGrad's code decode through
/// `Fold::apply_iter` write in place — and it goes back to its parameter as
/// the aggregate. Each tensor is its own bucket, so no envelope is
/// gradient-sized. The sign family's bound is tighter: it writes its bitmap
/// straight from the gradient, so no request reaches one byte per element
/// of the smallest gradient. Checked on a 1-rank `run_threaded` and a
/// 1-lane `run_simulated` session.
#[test]
fn a_warm_gathered_step_requests_no_gradient_sized_buffer() {
    use grace::compressors::{EfSignSgd, Qsgd, QsparseLocal, SignSgd, Signum, TernGrad, TopK};
    use grace::core::threaded::run_threaded;
    use grace::core::trainer::{run_simulated, CodecTiming};
    use grace::core::{Memory, NoMemory, TrainConfig};
    use grace::nn::optim::{Momentum, Optimizer};

    set_level(Level::Off);
    let smallest_elements = *OFFSET_SIZES.iter().min().unwrap();
    let smallest_gradient = 4 * smallest_elements;
    let task = || StepMarks::new(ClassificationDataset::synthetic(96, 2, 2, 0.3, 5));
    type Build = fn() -> Box<dyn Compressor>;
    let codecs: [(&str, Build, usize); 7] = [
        ("qsgd", || Box::new(Qsgd::new(64, 3)), smallest_gradient),
        ("topk", || Box::new(TopK::new(0.01)), smallest_gradient),
        ("signsgd", || Box::new(SignSgd::new()), smallest_elements),
        ("signum", || Box::new(Signum::new()), smallest_elements),
        (
            "efsignsgd",
            || Box::new(EfSignSgd::new()),
            smallest_elements,
        ),
        ("terngrad", || Box::new(TernGrad::new(3)), smallest_gradient),
        (
            "qsparse",
            || Box::new(QsparseLocal::new(0.01, 64, 3)),
            smallest_gradient,
        ),
    ];
    for (id, codec, bound) in codecs {
        let mut cfg = TrainConfig::new(1, 8, 1, 5);
        cfg.codec = CodecTiming::Free;
        cfg.fusion_bytes = 1;
        cfg.telemetry = Some(Level::Off);
        let threaded = task();
        run_threaded(&cfg, &threaded, |_rank| {
            (
                offset_net(),
                Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
                codec(),
                Box::new(NoMemory::new()) as Box<dyn Memory>,
            )
        });
        let simulated = task();
        let mut cs = vec![codec()];
        let mut ms: Vec<Box<dyn Memory>> = vec![Box::new(NoMemory::new())];
        let (mut model, mut opt) = (offset_net(), Momentum::new(0.05, 0.9));
        run_simulated(&cfg, &mut model, &simulated, &mut opt, &mut cs, &mut ms);
        for (run, marks) in [("run_threaded", threaded), ("run_simulated", simulated)] {
            let (allocs, largest) = marks.warm_step();
            assert!(allocs > 0, "{id}, {run}: the window holds a step");
            assert!(
                largest < bound,
                "{id}, {run}: a warm step requested {largest} bytes at once, \
                 the bound is {bound}"
            );
        }
    }
}

/// A warm step of a real rank — streaming backward, encode, the collective
/// ending over the deposit board, optimizer — allocates `base + p × buckets`
/// times: every allocation the wire costs is per *collective* (the bucket
/// buffer, the gathered slots, the per-bucket walk), none is per tensor in a
/// bucket, so the count does not depend on how the plan spreads the same 4
/// tensors over its buckets and fusing them saves `p` per collective saved.
#[test]
fn collective_ending_allocations_are_per_bucket_not_per_tensor() {
    use grace::compressors::TopK;
    use grace::core::threaded::run_threaded;
    use grace::core::trainer::{fusion_plan, CodecTiming};
    use grace::core::{Memory, ResidualMemory, TrainConfig};
    use grace::nn::models;
    use grace::nn::optim::{Momentum, Optimizer};

    set_level(Level::Off);
    let net = || models::mlp_classifier("m", 8, &[12], 2, 31);
    // Allocations of the last (warm) step of a 1-rank run, and its buckets.
    let warm_step = |fusion_bytes: usize| -> (u64, usize) {
        let task = StepMarks::new(ClassificationDataset::synthetic(96, 8, 2, 0.3, 31));
        let mut cfg = TrainConfig::new(1, 8, 1, 31);
        cfg.codec = CodecTiming::Free;
        cfg.fusion_bytes = fusion_bytes;
        cfg.telemetry = Some(Level::Off);
        run_threaded(&cfg, &task, |_rank| {
            (
                net(),
                Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
                Box::new(TopK::new(0.05)) as Box<dyn Compressor>,
                Box::new(ResidualMemory::new()) as Box<dyn Memory>,
            )
        });
        let (allocs, _) = task.warm_step();
        (allocs, fusion_plan(&cfg, &mut net()).n_buckets())
    };
    // The 4 gradient tensors stream as 96, 8, 384 and 48 dense bytes.
    let (split, fused_2, fused_3, fused_4) = (
        warm_step(1),
        warm_step(128),
        warm_step(512),
        warm_step(usize::MAX),
    );
    assert_eq!(
        [split.1, fused_2.1, fused_3.1, fused_4.1],
        [4, 3, 2, 1],
        "buckets per plan"
    );
    let per_bucket = split.0 - fused_2.0;
    assert!(
        (1..=16).contains(&per_bucket),
        "one collective fewer must save a few allocations, saved {per_bucket}"
    );
    assert_eq!(split.0 - fused_3.0, 2 * per_bucket, "2+1+1 → 3+1 tensors");
    assert_eq!(split.0 - fused_4.0, 3 * per_bucket, "all 4 in one bucket");
}

/// An evaluation holds a bounded number of activations at once, however
/// deep the model: an inference forward caches nothing for a backward pass,
/// and each layer's output is dropped once the next layer has read it. On
/// vgg19's seven 768- to 256-wide layers over 200 held-out rows, the bytes
/// the evaluation holds at its peak stay under three of its widest
/// activations (two: a layer's input and its output). A forward that kept
/// each layer's input and output for a backward held 8.4.
#[test]
fn an_evaluation_holds_a_bounded_number_of_activations() {
    use grace::nn::models;

    set_level(Level::Off);
    let rows = 200;
    let task = ClassificationDataset::synthetic(5 * rows, 48, 8, 0.3, 5);
    // A first evaluation, of another replica, sets up what a process sets
    // up once; the measured one is the fresh replica's first.
    task.quality(&mut models::vgg19_analog(48, 8, 5));
    let mut net = models::vgg19_analog(48, 8, 5);
    let start = start_peak_on_this_thread();
    let quality = task.quality(&mut net);
    let peak = peak_above(start);
    let widest = 4 * rows * 768;
    assert!(quality.is_finite());
    assert!(
        peak < 3 * widest,
        "an evaluation held {peak} bytes at once, {:.1} of its widest activation",
        peak as f64 / widest as f64
    );
}
