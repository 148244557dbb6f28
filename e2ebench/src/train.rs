//! Single-executor training workloads: `train-vgg` and
//! `train-resnet-recompute`.
//!
//! A run builds the executor (timed as set-up), trains a few independent
//! K-step reference episodes against a twin executor as the correctness
//! check, then replays those episodes from the initial parameters until the
//! time is up. Every replayed episode must reproduce its reference loss
//! bits, so the timed steps double as an exact-repeat check, and every
//! timed step runs in the same early-training regime (no drift in sparsity
//! or magnitudes over a long run).

use crate::data::Task;
use crate::layers::{codec_ms, LayerRecorder, RECONCILE_TOLERANCE};
use crate::report::{median, quantile, repeat_setup, timed, Metrics, Verdict, Windows};
use crate::sys;
use crate::Args;
use gist_core::GistConfig;
use gist_graph::Graph;
use gist_memory::Arena;
use gist_obs::{NullRecorder, Recorder};
use gist_runtime::params::NodeParams;
use gist_runtime::{
    AllocPolicy, ExecMode, Executor, OffloadMode, ParamSet, PlanGranularity, StepStats,
};
use gist_tensor::Tensor;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const LR: f32 = 0.01;
/// Parameter-initialisation seed, fixed so the workload seed varies only
/// the data.
const INIT_SEED: u64 = 7;
/// Held-out minibatches `loss_final` is averaged over.
const EVAL_BATCHES: usize = 8;

/// One training workload. Its correctness twin is always the FP32,
/// fully resident executor on the same graph and seed, which lossless
/// encoding and executed offload must both reproduce bit for bit.
pub struct TrainSpec {
    graph: fn() -> Graph,
    batch: usize,
    mode: ExecMode,
    offload: OffloadMode,
    plan: PlanGranularity,
    /// Steps per episode.
    episode: usize,
    /// Independent reference episodes `loss_final` averages over.
    references: usize,
    /// `(classes, channels, size)` of the input task.
    task: (usize, usize, usize),
}

/// Small VGG at batch 8, Gist lossless (Binarize + SSDC), arena policy,
/// event plan; its twin is the FP32 baseline.
pub fn vgg() -> TrainSpec {
    TrainSpec {
        graph: || gist_models::small_vgg(8, 4),
        batch: 8,
        mode: ExecMode::Gist(GistConfig::lossless()),
        offload: OffloadMode::None,
        plan: PlanGranularity::Event,
        episode: 16,
        references: 8,
        task: (4, 1, 16),
    }
}

/// ResNet-8 at batch 4, FP32 stashes, executed recomputation, arena policy,
/// wave plan; its twin runs fully resident.
pub fn resnet() -> TrainSpec {
    TrainSpec {
        graph: || gist_models::resnet_cifar(1, 4),
        batch: 4,
        mode: ExecMode::Baseline,
        offload: OffloadMode::Recompute,
        plan: PlanGranularity::Wave,
        episode: 4,
        references: 2,
        task: (10, 3, 32),
    }
}

/// FNV-1a over every trained parameter bit.
pub fn param_hash(exec: &Executor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |t: &Tensor| {
        for v in t.data() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
    };
    for i in 0..exec.graph().len() {
        match exec.params.get(i) {
            Some(NodeParams::Conv { weight, bias }) | Some(NodeParams::Linear { weight, bias }) => {
                eat(weight);
                if let Some(b) = bias {
                    eat(b);
                }
            }
            Some(NodeParams::BatchNorm { gamma, beta }) => {
                eat(gamma);
                eat(beta);
            }
            None => {}
        }
    }
    h
}

/// What one measured phase of episodes produced.
#[derive(Default)]
struct Phase {
    steps: u64,
    samples_per_s: f64,
    cpu_ms_per_sample: f64,
    step_ms: Vec<f64>,
    allocs: Vec<f64>,
    last: Option<StepStats>,
    /// Largest stash footprint of any step: one figure per seed however
    /// far the time budget got through the episodes.
    stash_bytes: usize,
}

/// One reference episode: its training minibatches and the loss bits the
/// correctness pass recorded for them.
type Episode = (Vec<(Tensor, Vec<usize>)>, Vec<u32>);

impl TrainSpec {
    fn build(&self, mode: &ExecMode, offload: OffloadMode, seed: u64) -> Executor {
        Executor::new_with_granularity(
            (self.graph)(),
            mode.clone(),
            seed,
            AllocPolicy::Arena,
            offload,
            self.plan,
        )
        .expect("benchmark executors build")
    }

    /// One K-step episode from the executor's current state followed by a
    /// held-out evaluation: the training loss bits of every step, then the
    /// evaluation loss bits of every held-out minibatch.
    fn episode(
        &self,
        exec: &mut Executor,
        batches: &[(Tensor, Vec<usize>)],
        held_out: &[(Tensor, Vec<usize>)],
    ) -> (Vec<u32>, Vec<u32>) {
        let train = batches
            .iter()
            .map(|(x, y)| exec.step(x, y, LR).map_or(u32::MAX, |s| s.loss.to_bits()))
            .collect();
        let eval = held_out
            .iter()
            .map(|(x, y)| exec.forward_backward(x, y).map_or(u32::MAX, |(s, _)| s.loss.to_bits()))
            .collect();
        (train, eval)
    }

    /// Replays the reference episodes round-robin, each from the initial
    /// parameters, until `budget` elapses; every complete episode must
    /// reproduce its reference loss bits.
    fn drive(
        &self,
        exec: &mut Executor,
        init: &ParamSet,
        episodes: &[Episode],
        budget: Duration,
        rec: Option<&LayerRecorder>,
        v: &mut Verdict,
    ) -> Phase {
        let mut ph = Phase::default();
        let mut mismatches = 0u64;
        let mut windows = Windows::new();
        let t0 = Instant::now();
        'run: for (batches, reference) in episodes.iter().cycle() {
            exec.params = init.clone();
            exec.set_steps_executed(0);
            let mut bits = Vec::with_capacity(batches.len());
            for (x, y) in batches {
                if t0.elapsed() >= budget {
                    break 'run;
                }
                let a0 = sys::allocs();
                let ts = Instant::now();
                let r = match rec {
                    Some(rec) => exec.step_traced(x, y, LR, rec),
                    None => exec.step_traced(x, y, LR, &NullRecorder as &dyn Recorder),
                };
                let wall = ts.elapsed();
                ph.allocs.push((sys::allocs() - a0) as f64);
                if let Some(rec) = rec {
                    rec.end_step(wall.as_nanos() as u64);
                }
                ph.step_ms.push(wall.as_secs_f64() * 1e3);
                ph.steps += 1;
                windows.add(self.batch as f64);
                v.op(r.is_ok());
                if let Ok(s) = r {
                    bits.push(s.loss.to_bits());
                    ph.stash_bytes = ph.stash_bytes.max(s.stash_bytes);
                    ph.last = Some(s);
                }
            }
            if &bits != reference {
                mismatches += 1;
            }
        }
        (ph.samples_per_s, ph.cpu_ms_per_sample) = windows.finish();
        v.check(
            "replayed episodes repeat the reference loss bits",
            mismatches == 0,
            format!("{mismatches} mismatching episodes"),
        );
        ph
    }

    /// Runs the workload and writes its metrics.
    pub fn run(&self, args: &Args, m: &mut Metrics, v: &mut Verdict) {
        let (classes, channels, size) = self.task;
        let mut task = Task::new(classes, channels, size, args.seed);
        // Independent reference episodes, each with its own training and
        // held-out minibatches.
        let data: Vec<_> = (0..self.references)
            .map(|_| {
                let train = task.minibatches(self.episode, self.batch);
                (train, task.minibatches(EVAL_BATCHES, self.batch))
            })
            .collect();

        let (setups, mut exec) =
            repeat_setup(|| timed(|| self.build(&self.mode, self.offload, INIT_SEED)));
        let init = exec.params.clone();

        // Correctness, outside the timed region: every reference episode
        // against the twin's, bit for bit.
        let mut twin = self.build(&ExecMode::Baseline, OffloadMode::None, INIT_SEED);
        let (mut episodes, mut eval_sum, mut eval_n) = (Vec::new(), 0.0, 0);
        for (e, (batches, held_out)) in data.into_iter().enumerate() {
            exec.params = init.clone();
            exec.set_steps_executed(0);
            twin.params = init.clone();
            twin.set_steps_executed(0);
            let (bits, eval) = self.episode(&mut exec, &batches, &held_out);
            v.attempted += bits.len() as u64;
            // Equal parameters imply equal held-out losses, so the twin
            // trains only.
            let (twin_bits, _) = self.episode(&mut twin, &batches, &[]);
            v.check(
                "loss bits equal the twin's",
                bits == twin_bits && !bits.iter().chain(&eval).any(|b| *b == u32::MAX),
                format!("episode {e}: {} steps", bits.len()),
            );
            v.check(
                "parameters equal the twin's",
                param_hash(&exec) == param_hash(&twin),
                format!("episode {e}: 0x{:016x}", param_hash(&exec)),
            );
            eval_sum += eval.iter().map(|b| f32::from_bits(*b) as f64).sum::<f64>();
            eval_n += eval.len();
            episodes.push((batches, bits));
        }
        let slab = exec.arena_capacity_bytes().unwrap_or(0) as f64;
        if self.offload != OffloadMode::None {
            let twin_slab = twin.arena_capacity_bytes().unwrap_or(0) as f64;
            v.check(
                "offloaded slab is smaller than the resident twin's",
                slab < twin_slab,
                format!("{slab} B vs {twin_slab} B"),
            );
        }
        drop(twin);

        if !args.trace {
            let ph = self.drive(&mut exec, &init, &episodes, args.budget(), None, v);
            m.set("samples_per_s", ph.samples_per_s);
            m.set("step_ms_p50", median(&ph.step_ms));
            m.set("step_ms_p90", quantile(&ph.step_ms, 0.9));
            m.set("cpu_ms_per_sample", ph.cpu_ms_per_sample);
            m.set("peak_mem_bytes", slab);
            m.set("loss_final", eval_sum / eval_n as f64);
            m.set("setup_s", median(&setups));
            return;
        }

        // Traced run: an untraced half (allocation counts, the p99 tail, the
        // throughput the tracing overhead is taken against), then a traced
        // half folded into the layer recorder.
        let half = args.budget() / 2;
        let plain = self.drive(&mut exec, &init, &episodes, half, None, v);
        let rec = LayerRecorder::new(exec.graph());
        let traced = self.drive(&mut exec, &init, &episodes, half, Some(&rec), v);
        rec.write(m, gist_par::current_threads());
        v.check(
            "span sums plus overhead reconcile with traced step wall time",
            rec.worst_reconcile() <= RECONCILE_TOLERANCE,
            format!("worst {:.4}% over {} steps", 100.0 * rec.worst_reconcile(), rec.steps()),
        );
        m.set("obs.trace_overhead_pct", 100.0 * (plain.samples_per_s / traced.samples_per_s - 1.0));
        m.set("runtime.allocs_per_step", median(&plain.allocs));
        m.set("runtime.step_ms_p99", quantile(&plain.step_ms, 0.99));
        let last = traced.last.expect("traced steps ran");
        let [enc, dec, denc, ddec] = codec_ms(exec.graph(), &last.relu_sparsity, args.seed);
        m.set("encodings.encode_ms", enc);
        m.set("encodings.decode_ms", dec);
        m.set("encodings.dpr_encode_ms", denc);
        m.set("encodings.dpr_decode_ms", ddec);
        m.set("memory.stash_bytes", traced.stash_bytes as f64);
        m.set("memory.plan_ms", plan_secs(&exec, &self.mode, self.plan) * 1e3);
        let segments = exec.offload_plan().map_or(0, |p| p.segments.len());
        m.set("offload.segments", segments as f64);
    }
}

/// Median seconds of the executor's planning: the arena-policy event
/// prediction plus packing it into a slab.
pub fn plan_secs(exec: &Executor, mode: &ExecMode, plan: PlanGranularity) -> f64 {
    let (secs, _) = repeat_setup(|| {
        timed(|| {
            let (events, groups) = gist_runtime::predict_step_events_granular(
                exec.graph(),
                mode,
                AllocPolicy::Arena,
                &HashMap::new(),
                exec.offload_plan(),
                plan,
            )
            .expect("prediction succeeds");
            Arena::from_events_granular(&events, plan, &groups)
                .expect("arena packs")
                .capacity_bytes()
        })
    });
    median(&secs)
}
