//! End-to-end and per-layer benchmark for Gist training.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload train-vgg --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the untraced (`NullRecorder`) path and reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics from a
//! separate run that folds the crates' event streams. The last line of
//! standard output is the JSON result; `README.md` documents every metric.

mod data;
mod dist;
mod layers;
mod report;
mod serve;
mod sys;
mod train;

use report::{fmt_num, Metrics, Verdict};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["train-vgg", "train-resnet-recompute", "dist-tcp", "serve-park"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("samples_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("cpu_ms_per_sample", "ms/sample"),
    ("peak_mem_bytes", "B"),
    ("loss_final", "loss"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("tensor.conv_forward_ms", "ms"),
    ("tensor.conv_backward_ms", "ms"),
    ("tensor.linear_ms", "ms"),
    ("tensor.pool_ms", "ms"),
    ("tensor.relu_ms", "ms"),
    ("tensor.bn_ms", "ms"),
    ("tensor.other_ms", "ms"),
    ("runtime.forward_ms", "ms"),
    ("runtime.backward_ms", "ms"),
    ("runtime.overhead_ms", "ms"),
    ("runtime.allocs_per_step", "count"),
    ("runtime.step_ms_p99", "ms"),
    ("runtime.recompute_ms", "ms"),
    ("encodings.encode_ms", "ms"),
    ("encodings.decode_ms", "ms"),
    ("encodings.dpr_encode_ms", "ms"),
    ("encodings.dpr_decode_ms", "ms"),
    ("encodings.binarize_ratio", "x"),
    ("encodings.binarize_raw_bytes", "B"),
    ("encodings.ssdc_ratio", "x"),
    ("encodings.ssdc_raw_bytes", "B"),
    ("memory.stash_bytes", "B"),
    ("memory.plan_ms", "ms"),
    ("offload.segments", "count"),
    ("offload.replayed_ops", "count"),
    ("offload.recompute_share", "share"),
    ("par.busy_share", "share"),
    ("par.wave_width_mean", "count"),
    ("net.rendezvous_s", "s"),
    ("net.transfer_ms", "ms"),
    ("net.recv_wait_ms", "ms"),
    ("net.transfers_per_step", "count"),
    ("net.priced_bytes", "B"),
    ("net.frame_overhead_bytes", "B"),
    ("dist.reduce_bytes", "B"),
    ("dist.broadcast_bytes", "B"),
    ("serve.ticks", "count"),
    ("serve.admissions", "count"),
    ("serve.parks", "count"),
    ("serve.parked_wire_bytes_peak", "B"),
    ("serve.park_ms", "ms"),
    ("serve.resume_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.events_per_step", "count"),
    ("obs.reconcile_err_pct", "%"),
    ("jobs_per_s", "1/s"),
    ("queue_ticks_mean", "ticks"),
    ("wire_bytes_per_step", "B"),
    ("failed_ratio", "share"),
    ("host.steal_pct", "%"),
    ("host.busy_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measured time of one run.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let mut m = Metrics::default();
    let mut v = Verdict::default();
    let host0 = sys::HostTicks::now();
    let t0 = Instant::now();
    match args.workload.as_str() {
        "train-vgg" => train::vgg().run(&args, &mut m, &mut v),
        "train-resnet-recompute" => train::resnet().run(&args, &mut m, &mut v),
        "dist-tcp" => dist::run(&args, &mut m, &mut v),
        _ => serve::run(&args, &mut m, &mut v),
    }
    let (steal, busy) = sys::HostTicks::now().since(&host0);
    m.set("failed_ratio", v.failed_ratio());
    m.set("host.steal_pct", steal);
    m.set("host.busy_pct", busy);

    println!(
        "# {} seed {} trace {} | nproc {} | pool threads {} | simd {} | host steal {:.2}% busy {:.1}% | {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        sys::nproc(),
        gist_par::current_threads(),
        gist_simd::level().name(),
        steal,
        busy,
        t0.elapsed().as_secs_f64()
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // Every end-to-end metric must be measured; a per-layer metric the
    // workload has no layer for reads 0.
    let missing: Vec<&str> =
        table.iter().map(|(name, _)| *name).filter(|name| m.get(name).is_none()).collect();
    if !args.trace && !missing.is_empty() {
        v.check("every end-to-end metric measured", false, missing.join(", "));
    }
    for c in &v.checks {
        println!("# check {}: {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    let mut body = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = m.get(name).unwrap_or(0.0);
        println!("#   {name:<32} {value:>18.6} {unit}");
        body.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt_num(value)));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted.max(1),
        v.failed,
        body.join(", ")
    );
}
