//! `serve-park`: a fixed job mix submitted up front to `gist-serve` under a
//! budget just above the largest lease, so the scheduler must queue and
//! park. The mix is served again and again (each time after the previous
//! one completes) until the time is up; every repetition must reproduce
//! the reference report exactly.

use crate::data::Task;
use crate::layers::{codec_ms, LayerRecorder};
use crate::report::{median, quantile, repeat_setup, timed, Metrics, Verdict, Windows};
use crate::sys;
use crate::train::plan_secs;
use crate::Args;
use gist_core::GistConfig;
use gist_encodings::{DprFormat, TransferCodec};
use gist_obs::{NullRecorder, Recorder};
use gist_runtime::{AllocPolicy, ExecMode, Executor, OffloadMode};
use gist_serve::{solo_report, JobSpec, ParkedParams, ServeConfig, ServeReport, Server};
use gist_testkit::Rng;
use std::time::Instant;

/// Headroom of the budget over the largest lease.
const BUDGET_SLACK: u64 = 1024;

/// The mix: fp8 and lossless modes, a heap-policy job and a two-replica
/// SSDC-codec job. The workload seed picks the submission order; each job
/// keeps its own fixed seed, so its results do not depend on the order
/// (every job must fingerprint as if served alone) while the schedule —
/// admissions, parks, queueing — does.
fn mix(seed: u64) -> Vec<JobSpec> {
    let fp8 = ExecMode::Gist(GistConfig::lossy(DprFormat::Fp8));
    let lossless = ExecMode::Gist(GistConfig::lossless());
    let job = |name: &str, model: &str, batch: usize, steps: usize, k: u64| {
        JobSpec::builder(model).name(name).batch(batch).steps(steps).seed(100 + k)
    };
    let mut specs: Vec<JobSpec> = [
        job("vgg-fp8", "small-vgg", 4, 24, 0).mode(fp8.clone()),
        job("vgg-lossless", "small-vgg", 4, 16, 1).mode(lossless.clone()),
        job("convnet-heap", "tiny-convnet", 4, 32, 2)
            .mode(lossless.clone())
            .alloc(AllocPolicy::Heap),
        job("vgg-r2-ssdc", "small-vgg", 2, 12, 3)
            .mode(lossless)
            .replicas(2)
            .codec(TransferCodec::Ssdc),
        job("classic-fp8", "tiny-classic", 4, 20, 4).mode(fp8),
    ]
    .into_iter()
    .map(|b| b.build().expect("valid job spec"))
    .collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.gen_range(0..i + 1));
    }
    specs
}

/// Prices every job and returns the budget: the largest lease plus slack.
fn budget(specs: &[JobSpec]) -> u64 {
    let mut probe = Server::new(ServeConfig::new(u64::MAX));
    let leases = specs.iter().map(|s| {
        let id = probe.submit(s.clone()).expect("priced");
        probe.lease_bytes(id)
    });
    leases.max().unwrap_or(0) + BUDGET_SLACK
}

/// A server with the whole mix submitted (the set-up step: every submit
/// prices its job's slab lease).
fn submit_all(specs: &[JobSpec], budget: u64) -> Server {
    let mut server = Server::new(ServeConfig::new(budget));
    for spec in specs {
        server.submit(spec.clone()).expect("job fits the budget");
    }
    server
}

/// What one measured phase of mixes produced.
#[derive(Default)]
struct Phase {
    mixes: u64,
    wall: f64,
    samples_per_s: f64,
    cpu_ms_per_sample: f64,
    /// Mean wall milliseconds per job step, one sample per mix.
    step_ms: Vec<f64>,
    allocs: Vec<f64>,
    mismatches: u64,
}

fn drive(
    specs: &[JobSpec],
    budget: u64,
    reference: &ServeReport,
    secs: f64,
    rec: &dyn Recorder,
    v: &mut Verdict,
) -> Phase {
    let job_steps: usize = specs.iter().map(|s| s.steps).sum();
    let samples: usize = specs.iter().map(|s| s.steps * s.batch * s.replicas).sum();
    let mut ph = Phase::default();
    let mut windows = Windows::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        let a0 = sys::allocs();
        let t = Instant::now();
        let mut server = submit_all(specs, budget);
        let report = server.run_traced(rec);
        let wall = t.elapsed().as_secs_f64();
        ph.allocs.push((sys::allocs() - a0) as f64 / job_steps as f64);
        ph.step_ms.push(wall * 1e3 / job_steps as f64);
        ph.mixes += 1;
        windows.add(samples as f64);
        for _ in specs {
            v.op(report.is_ok());
        }
        if report.ok().as_ref() != Some(reference) {
            ph.mismatches += 1;
        }
    }
    ph.wall = t0.elapsed().as_secs_f64();
    (ph.samples_per_s, ph.cpu_ms_per_sample) = windows.finish();
    v.check(
        "every mix repeats the reference report",
        ph.mismatches == 0,
        format!("{} of {} mixes differ", ph.mismatches, ph.mixes),
    );
    ph
}

/// Median milliseconds of `ParkedParams::park` and `resume_into`, averaged
/// over the mix's executors.
fn park_resume_ms(specs: &[JobSpec]) -> (f64, f64) {
    let (mut park, mut resume) = (0.0, 0.0);
    for spec in specs {
        let mut exec = Executor::new_with_granularity(
            spec.graph(),
            spec.mode.clone(),
            spec.seed,
            spec.alloc,
            OffloadMode::None,
            spec.plan,
        )
        .expect("job executor");
        let (p, r): (Vec<f64>, Vec<f64>) = (0..15)
            .map(|_| {
                let (p, parked) = timed(|| ParkedParams::park(&exec));
                let (r, ()) = timed(|| parked.resume_into(&mut exec));
                (p, r)
            })
            .unzip();
        park += median(&p);
        resume += median(&r);
    }
    let n = specs.len() as f64;
    (park * 1e3 / n, resume * 1e3 / n)
}

/// Runs the workload and writes its metrics.
pub fn run(args: &Args, m: &mut Metrics, v: &mut Verdict) {
    let specs = mix(args.seed);
    let budget = budget(&specs);
    let (setups, _) = repeat_setup(|| timed(|| submit_all(&specs, budget)));
    let job_steps: usize = specs.iter().map(|s| s.steps).sum();

    // Correctness, outside the timed region: the reference mix against
    // every job served alone.
    let reference = submit_all(&specs, budget).run().expect("reference mix");
    v.attempted += specs.len() as u64;
    v.check(
        "every job completes",
        reference.all_completed(),
        format!("{} jobs", reference.jobs.len()),
    );
    v.check(
        "live bytes stay within the budget",
        reference.max_live_bytes <= budget,
        format!("{} of {budget} B", reference.max_live_bytes),
    );
    for (spec, job) in specs.iter().zip(&reference.jobs) {
        let solo = solo_report(spec, ServeConfig::new(budget).lr).map(|r| r.param_hash);
        v.check(
            "param_hash equals the job served alone",
            solo.as_ref().ok() == Some(&job.param_hash),
            format!("{}: 0x{:016x}", spec.name, job.param_hash),
        );
    }
    // The final quarter of every job's steps, averaged over the mix.
    let tail: Vec<f64> = reference
        .jobs
        .iter()
        .flat_map(|j| {
            let from = j.loss_bits.len() - j.loss_bits.len().div_ceil(4);
            j.loss_bits[from..].iter().map(|b| f32::from_bits(*b) as f64)
        })
        .collect();
    let loss_final = tail.iter().sum::<f64>() / tail.len() as f64;

    if !args.trace {
        let ph = drive(&specs, budget, &reference, args.seconds, &NullRecorder, v);
        m.set("samples_per_s", ph.samples_per_s);
        m.set("step_ms_p50", median(&ph.step_ms));
        m.set("step_ms_p90", quantile(&ph.step_ms, 0.9));
        m.set("cpu_ms_per_sample", ph.cpu_ms_per_sample);
        m.set("peak_mem_bytes", reference.max_live_bytes as f64);
        m.set("loss_final", loss_final);
        m.set("setup_s", median(&setups));
        return;
    }

    let plain = drive(&specs, budget, &reference, args.seconds / 2.0, &NullRecorder, v);
    let rec = LayerRecorder::new(&specs[0].graph());
    let traced = drive(&specs, budget, &reference, args.seconds / 2.0, &rec, v);
    rec.write(m, gist_par::current_threads());
    m.set("jobs_per_s", plain.mixes as f64 * specs.len() as f64 / plain.wall);
    m.set("queue_ticks_mean", reference.mean_queue_ticks());
    m.set("obs.trace_overhead_pct", 100.0 * (plain.samples_per_s / traced.samples_per_s - 1.0));
    m.set(
        "obs.events_per_step",
        rec.events() as f64 / (traced.mixes * job_steps as u64).max(1) as f64,
    );
    m.set("runtime.allocs_per_step", median(&plain.allocs));
    m.set("serve.ticks", reference.ticks as f64);
    m.set("serve.admissions", reference.admissions as f64);
    m.set("serve.parks", reference.parks as f64);
    m.set("serve.parked_wire_bytes_peak", reference.parked_wire_bytes_peak as f64);
    let (park, resume) = park_resume_ms(&specs);
    m.set("serve.park_ms", park);
    m.set("serve.resume_ms", resume);

    // The lossless small-VGG job's executor stands in for the mix's codec,
    // stash and planning figures.
    let spec = specs.iter().find(|s| s.name == "vgg-lossless").expect("mix has the job");
    let mut exec = Executor::new_with_granularity(
        spec.graph(),
        spec.mode.clone(),
        spec.seed,
        spec.alloc,
        OffloadMode::None,
        spec.plan,
    )
    .expect("job executor");
    let (x, y) = Task::new(3, 1, 16, args.seed).minibatch(spec.batch);
    let (stats, _) = exec.forward_backward(&x, &y).expect("job pass");
    m.set("memory.stash_bytes", stats.stash_bytes as f64);
    m.set("memory.plan_ms", plan_secs(&exec, &spec.mode, spec.plan) * 1e3);
    let [enc, dec, denc, ddec] = codec_ms(exec.graph(), &stats.relu_sparsity, args.seed);
    m.set("encodings.encode_ms", enc);
    m.set("encodings.decode_ms", dec);
    m.set("encodings.dpr_encode_ms", denc);
    m.set("encodings.dpr_decode_ms", ddec);
}
