//! `dist-tcp`: a two-rank `gist-net` world inside one process. Each rank
//! runs on its own thread under a one-thread pool, exchanging DPR-8
//! compressed gradients with the other over a loopback TCP connection.
//!
//! The correctness reference is the in-process `gist-dist` trainer on the
//! same shards: both ranks must reproduce its loss bits and parameters.

use crate::data::Task;
use crate::layers::{codec_ms, LayerRecorder};
use crate::report::{median, quantile, repeat_setup, Metrics, Verdict, Windows};
use crate::sys;
use crate::train::{param_hash, plan_secs};
use crate::Args;
use gist_dist::DistTrainer;
use gist_encodings::{CodecPolicy, DprFormat, TransferCodec};
use gist_net::{NetConfig, NetTrainer, Tcp, GRAD_FRAME_OVERHEAD};
use gist_obs::Event;
use gist_runtime::{AllocPolicy, ExecMode, Executor, OffloadMode, PlanGranularity, RuntimeError};
use gist_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const WORLD: usize = 2;
const SHARDS: usize = 8;
const BATCH: usize = 2;
const CLASSES: usize = 1000;
/// Global steps of the correctness comparison (the timed loop cycles
/// through the same global minibatches).
const CHECK_STEPS: usize = 4;
const EVAL_BATCHES: usize = 8;
const LR: f32 = 0.01;
const INIT_SEED: u64 = 7;
/// Bytes a serialized `Wire` adds to its priced payload: magic (4), codec
/// tag (1), element count (4) and fixup count (4).
const WIRE_HEADER: u64 = 13;

fn policy() -> CodecPolicy {
    CodecPolicy::Fixed(TransferCodec::Dpr(DprFormat::Fp8))
}

fn build() -> Result<Executor, RuntimeError> {
    Executor::new_with_granularity(
        gist_models::small_vgg(BATCH, CLASSES),
        ExecMode::Baseline,
        INIT_SEED,
        AllocPolicy::Arena,
        OffloadMode::None,
        PlanGranularity::Event,
    )
}

/// One global step's minibatches: every shard's images and labels.
type GlobalBatch = (Vec<Tensor>, Vec<Vec<usize>>);

/// Two free loopback addresses.
fn reserve_peers() -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..WORLD)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| format!("127.0.0.1:{}", l.local_addr().expect("local addr").port()))
        .collect()
}

/// Builds a fresh two-rank world. Returns the trainers plus the dialing
/// rank's rendezvous seconds and its rendezvous-plus-construction seconds
/// (rank 0 starts first, so rank 1's figures time the handshake itself
/// rather than a wait for its peer's thread to start).
fn connect() -> (Vec<NetTrainer<Tcp>>, f64, f64) {
    let peers = reserve_peers();
    let config = NetConfig::from_env();
    let rank = |r: usize| {
        let t = Instant::now();
        let tcp = Tcp::rendezvous(r, &peers, SHARDS, policy().meta_id() as u32, &config)
            .expect("loopback rendezvous");
        let rendezvous = t.elapsed().as_secs_f64();
        let trainer = NetTrainer::new(tcp, SHARDS, policy(), build).expect("rank trainer");
        (trainer, rendezvous, t.elapsed().as_secs_f64())
    };
    std::thread::scope(|s| {
        let r0 = s.spawn(|| rank(0));
        std::thread::sleep(Duration::from_millis(1));
        let (t1, rendezvous, setup) = rank(1);
        let (t0, _, _) = r0.join().expect("rank 0 thread");
        (vec![t0, t1], rendezvous, setup)
    })
}

/// What one rank's thread measured.
#[derive(Default)]
struct RankOut {
    check_bits: Vec<u32>,
    /// Parameter hash right after the correctness steps.
    check_hash: u64,
    /// Transfers whose observed bytes broke `priced + header + framing`.
    framing_errors: u64,
    failed: u64,
    plain: Timed,
    traced: Timed,
    reduce_bytes: u64,
    broadcast_bytes: u64,
}

#[derive(Default)]
struct Timed {
    steps: u64,
    samples_per_s: f64,
    cpu_ms_per_sample: f64,
    step_ms: Vec<f64>,
    allocs: Vec<f64>,
    observed: u64,
}

/// Transfers of one step whose observed socket bytes differ from the
/// priced wire payload plus the pinned wire header and frame overhead.
/// (The step report's observed total also carries the per-shard stats
/// frames, which are not gradient transfers.)
fn framing_errors(events: &[Event]) -> u64 {
    let bad = |ev: &&Event| match ev {
        Event::NetTransfer { priced_bytes, observed_bytes, .. } => {
            *observed_bytes != priced_bytes + WIRE_HEADER + GRAD_FRAME_OVERHEAD
        }
        _ => false,
    };
    events.iter().filter(bad).count() as u64
}

struct Shared<'a> {
    data: &'a [GlobalBatch],
    barrier: Barrier,
    stop: [AtomicBool; 2],
    budget: Duration,
    trace: bool,
}

fn rank_loop(trainer: &mut NetTrainer<Tcp>, sh: &Shared, rec: &LayerRecorder) -> RankOut {
    let rank = trainer.rank();
    let mut out = RankOut::default();
    for (images, labels) in sh.data {
        match trainer.step(images, labels, LR) {
            Ok(rep) => {
                out.framing_errors += framing_errors(&trainer.take_events());
                out.check_bits.push(rep.loss.to_bits());
            }
            Err(_) => {
                out.failed += 1;
                out.check_bits.push(u32::MAX);
            }
        }
    }
    out.check_hash = param_hash(trainer.exec());
    // Timed phases: rank 0 alone decides when a phase ends, and both ranks
    // read that decision after the same barrier, so they always run the
    // same number of lockstep steps.
    let phases = if sh.trace { 2 } else { 1 };
    let budget = sh.budget / phases as u32;
    for phase in 0..phases {
        let traced = sh.trace && phase == 1;
        let mut t = Timed::default();
        let mut windows = Windows::new();
        let t0 = Instant::now();
        let mut i = 0usize;
        loop {
            if rank == 0 && t0.elapsed() >= budget {
                sh.stop[phase].store(true, Ordering::SeqCst);
            }
            sh.barrier.wait();
            if sh.stop[phase].load(Ordering::SeqCst) {
                break;
            }
            let (images, labels) = &sh.data[i % sh.data.len()];
            i += 1;
            let a0 = sys::thread_allocs();
            let ts = Instant::now();
            let r = trainer.step(images, labels, LR);
            let wall = ts.elapsed();
            t.allocs.push((sys::thread_allocs() - a0) as f64);
            t.step_ms.push(wall.as_secs_f64() * 1e3);
            t.steps += 1;
            windows.add((SHARDS * BATCH) as f64);
            let events = trainer.take_events();
            match r {
                Ok(rep) => {
                    t.observed += rep.observed_wire_bytes;
                    out.reduce_bytes = rep.reduce_bytes;
                    out.broadcast_bytes = rep.broadcast_bytes;
                }
                Err(_) => out.failed += 1,
            }
            if traced && rank == 0 {
                rec.record_all(events);
                rec.end_step(wall.as_nanos() as u64);
            }
        }
        (t.samples_per_s, t.cpu_ms_per_sample) = windows.finish();
        if traced {
            out.traced = t;
        } else {
            out.plain = t;
        }
    }
    out
}

/// Runs the workload and writes its metrics.
pub fn run(args: &Args, m: &mut Metrics, v: &mut Verdict) {
    let mut task = Task::new(CLASSES, 1, 16, args.seed);
    let data: Vec<GlobalBatch> =
        (0..CHECK_STEPS).map(|_| task.minibatches(SHARDS, BATCH).into_iter().unzip()).collect();
    let held_out = task.minibatches(EVAL_BATCHES, BATCH);

    // The in-process reference world, outside the timed region.
    let mut reference =
        DistTrainer::new_with_policy(WORLD, SHARDS, policy(), build).expect("reference trainer");
    let ref_bits: Vec<u32> = data
        .iter()
        .map(|(x, y)| reference.step(x, y, LR).map_or(u32::MAX, |r| r.loss.to_bits()))
        .collect();
    let ref_hash = param_hash(reference.replica(0));
    let eval: Vec<_> = held_out
        .iter()
        .map(|(x, y)| reference.replica_mut(0).forward_backward(x, y).expect("eval pass").0)
        .collect();
    let loss_final = eval.iter().map(|s| s.loss as f64).sum::<f64>() / eval.len() as f64;

    let mut rendezvous = Vec::new();
    let (setups, mut trainers) = repeat_setup(|| {
        let (world, r, s) = connect();
        rendezvous.push(r);
        (s, world)
    });
    let peak = trainers.iter().filter_map(|t| t.exec().arena_capacity_bytes()).max().unwrap_or(0);

    let rec = LayerRecorder::new(trainers[0].exec().graph());
    let shared = Shared {
        data: &data,
        barrier: Barrier::new(WORLD),
        stop: [AtomicBool::new(false), AtomicBool::new(false)],
        budget: args.budget(),
        trace: args.trace,
    };
    let outs: Vec<RankOut> = std::thread::scope(|s| {
        let handles: Vec<_> = trainers
            .iter_mut()
            .map(|t| {
                let (sh, rec) = (&shared, &rec);
                s.spawn(move || gist_par::with_threads(1, || rank_loop(t, sh, rec)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    });

    // Verdicts, outside the timed region.
    for (r, out) in outs.iter().enumerate() {
        v.attempted += out.check_bits.len() as u64 + out.plain.steps + out.traced.steps;
        v.failed += out.failed;
        v.check(
            "rank loss bits equal the in-process trainer's",
            out.check_bits == ref_bits,
            format!("rank {r}: {} steps", ref_bits.len()),
        );
        v.check(
            "rank parameters equal the in-process trainer's",
            out.check_hash == ref_hash,
            format!("rank {r}: 0x{:016x}", out.check_hash),
        );
        v.check(
            "observed bytes equal priced bytes plus framing",
            out.framing_errors == 0,
            format!(
                "rank {r}: {} mismatches (framing {WIRE_HEADER} + {GRAD_FRAME_OVERHEAD} B)",
                out.framing_errors
            ),
        );
    }
    let hashes: Vec<u64> = trainers.iter().map(|t| param_hash(t.exec())).collect();
    v.check(
        "ranks still agree after the timed steps",
        hashes.iter().all(|h| *h == hashes[0]),
        format!("{hashes:x?}"),
    );

    let r0 = &outs[0];
    let plain = &r0.plain;
    if !args.trace {
        m.set("samples_per_s", plain.samples_per_s);
        m.set("step_ms_p50", median(&plain.step_ms));
        m.set("step_ms_p90", quantile(&plain.step_ms, 0.9));
        m.set("cpu_ms_per_sample", plain.cpu_ms_per_sample);
        m.set("peak_mem_bytes", peak as f64);
        m.set("loss_final", loss_final);
        m.set("setup_s", median(&setups));
        return;
    }
    rec.write(m, 1);
    m.set("obs.trace_overhead_pct", 100.0 * (plain.samples_per_s / r0.traced.samples_per_s - 1.0));
    m.set("runtime.allocs_per_step", median(&plain.allocs));
    m.set("runtime.step_ms_p99", quantile(&plain.step_ms, 0.99));
    m.set("net.rendezvous_s", median(&rendezvous));
    m.set("dist.reduce_bytes", r0.reduce_bytes as f64);
    m.set("dist.broadcast_bytes", r0.broadcast_bytes as f64);
    m.set("wire_bytes_per_step", plain.observed as f64 / plain.steps.max(1) as f64);
    let exec = trainers[0].exec();
    m.set("memory.plan_ms", plan_secs(exec, &ExecMode::Baseline, PlanGranularity::Event) * 1e3);
    let last = eval.last().expect("eval ran");
    m.set("memory.stash_bytes", last.stash_bytes as f64);
    let [enc, dec, denc, ddec] = codec_ms(exec.graph(), &last.relu_sparsity, args.seed);
    m.set("encodings.encode_ms", enc);
    m.set("encodings.decode_ms", dec);
    m.set("encodings.dpr_encode_ms", denc);
    m.set("encodings.dpr_decode_ms", ddec);
}
