//! Per-layer accounting from the outside: a `gist_obs::Recorder` that folds
//! the event stream the crates already emit into per-step layer figures,
//! and direct timings of the public codec entry points.

use crate::report::{median, Metrics};
use gist_core::{Encoding, GistConfig};
use gist_encodings::dpr::DprBuffer;
use gist_encodings::{BitMask, CsrMatrix, DprFormat, SsdcConfig};
use gist_graph::{Graph, OpKind};
use gist_obs::{Event, Phase, Recorder};
use gist_testkit::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Instant;

/// Largest tolerated mismatch, as a share of the traced step's wall time,
/// between the per-op span sums plus `runtime.overhead_ms` and the step's
/// lane-summed wall time (wall plus the time spans overlapped on parallel
/// lanes). The identity is exact up to float rounding, so any real gap is
/// an unclassified span or a span lying outside the measured step.
pub const RECONCILE_TOLERANCE: f64 = 0.001;

/// Op groups the `tensor.*` metrics report, in output order.
const GROUPS: [&str; 7] =
    ["conv_forward", "conv_backward", "linear", "pool", "relu", "bn", "other"];

fn group_of(op: &OpKind, phase: Phase) -> usize {
    match op {
        OpKind::Conv { .. } if phase == Phase::Backward => 1,
        OpKind::Conv { .. } => 0,
        OpKind::Linear { .. } => 2,
        OpKind::MaxPool(_) | OpKind::AvgPool(_) => 3,
        OpKind::Relu => 4,
        OpKind::BatchNorm => 5,
        _ => 6,
    }
}

#[derive(Debug, Default)]
struct Fold {
    /// `(ts, dur, phase, wave)` of the current step's op spans.
    spans: Vec<(u64, u64, Phase, u32)>,
    steps: u64,
    events: u64,
    wall_ns: u64,
    union_ns: u64,
    span_ns: u64,
    group_ns: [u64; GROUPS.len()],
    phase_ns: [u64; 3],
    recompute_ops: u64,
    waves: u64,
    wave_spans: u64,
    worst_reconcile: f64,
    /// codec -> (raw bytes, encoded bytes) over `Encode` events.
    encode: BTreeMap<String, (u64, u64)>,
    transfer_ns: u64,
    recv_ns: u64,
    transfers: u64,
    priced: u64,
    observed: u64,
}

/// Folds executor, server and transport events into layer totals. Spans
/// are classified by the op kind of the graph node they name.
pub struct LayerRecorder {
    kinds: HashMap<String, OpKind>,
    fold: Mutex<Fold>,
}

impl LayerRecorder {
    /// A recorder classifying spans against `graph`'s nodes.
    pub fn new(graph: &Graph) -> LayerRecorder {
        let kinds = graph.nodes().iter().map(|n| (n.name.clone(), n.op.clone())).collect();
        LayerRecorder { kinds, fold: Mutex::new(Fold::default()) }
    }

    /// Folds events drained from elsewhere (e.g. `NetTrainer::take_events`).
    pub fn record_all(&self, events: Vec<Event>) {
        for ev in events {
            self.record(ev);
        }
    }

    /// Closes one traced step whose wall time the caller measured around the
    /// traced entry point.
    pub fn end_step(&self, wall_ns: u64) {
        let mut f = self.fold.lock().expect("layer fold");
        let mut spans = std::mem::take(&mut f.spans);
        spans.sort_unstable_by_key(|s| s.0);
        let (mut union, mut cur_end, mut sum) = (0u64, 0u64, 0u64);
        for &(ts, dur, _, _) in &spans {
            let end = ts + dur;
            sum += dur;
            if end > cur_end {
                union += end - ts.max(cur_end);
                cur_end = end;
            }
        }
        let mut widths: BTreeMap<(u8, u32), u64> = BTreeMap::new();
        for &(_, _, phase, wave) in &spans {
            *widths.entry((phase as u8, wave)).or_default() += 1;
        }
        f.waves += widths.len() as u64;
        f.wave_spans += spans.len() as u64;
        let overhead = wall_ns as f64 - union as f64;
        let groups: u64 = f.group_ns.iter().sum::<u64>() - f.span_ns;
        let lane_wall = wall_ns as f64 + (sum - union) as f64;
        let err = if cur_end > wall_ns {
            f64::INFINITY
        } else {
            (groups as f64 + overhead - lane_wall).abs() / wall_ns.max(1) as f64
        };
        f.worst_reconcile = f.worst_reconcile.max(err);
        f.span_ns += sum;
        f.union_ns += union;
        f.wall_ns += wall_ns;
        f.steps += 1;
        spans.clear();
        f.spans = spans;
    }

    /// Worst per-step reconciliation error seen (a share of step wall time).
    pub fn worst_reconcile(&self) -> f64 {
        self.fold.lock().expect("layer fold").worst_reconcile
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        self.fold.lock().expect("layer fold").events
    }

    /// Traced steps closed so far.
    pub fn steps(&self) -> u64 {
        self.fold.lock().expect("layer fold").steps
    }

    /// Writes the per-step span, codec, transport and trace metrics.
    /// `threads` is the pool size the spans ran on.
    pub fn write(&self, m: &mut Metrics, threads: usize) {
        let f = self.fold.lock().expect("layer fold");
        let steps = f.steps.max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / steps;
        for (name, ns) in GROUPS.iter().zip(f.group_ns) {
            m.set(&format!("tensor.{name}_ms"), ms(ns));
        }
        m.set("runtime.forward_ms", ms(f.phase_ns[0]));
        m.set("runtime.backward_ms", ms(f.phase_ns[1]));
        m.set("runtime.recompute_ms", ms(f.phase_ns[2]));
        let overhead = f.wall_ns.saturating_sub(f.union_ns);
        m.set("runtime.overhead_ms", if f.union_ns > 0 { ms(overhead) } else { 0.0 });
        m.set("offload.replayed_ops", f.recompute_ops as f64 / steps);
        let share =
            if f.phase_ns[0] > 0 { f.phase_ns[2] as f64 / f.phase_ns[0] as f64 } else { 0.0 };
        m.set("offload.recompute_share", share);
        let busy = f.span_ns as f64 / (f.wall_ns.max(1) as f64 * threads.max(1) as f64);
        m.set("par.busy_share", busy);
        let width = if f.waves > 0 { f.wave_spans as f64 / f.waves as f64 } else { 0.0 };
        m.set("par.wave_width_mean", width);
        for codec in ["binarize", "ssdc"] {
            let (raw, enc) = f.encode.get(codec).copied().unwrap_or((0, 0));
            let ratio = if enc > 0 { raw as f64 / enc as f64 } else { 0.0 };
            m.set(&format!("encodings.{codec}_ratio"), ratio);
            m.set(&format!("encodings.{codec}_raw_bytes"), raw as f64 / steps);
        }
        m.set("net.transfer_ms", ms(f.transfer_ns));
        m.set("net.recv_wait_ms", ms(f.recv_ns));
        m.set("net.transfers_per_step", f.transfers as f64 / steps);
        m.set("net.priced_bytes", f.priced as f64 / steps);
        m.set("net.frame_overhead_bytes", (f.observed - f.priced) as f64 / steps);
        m.set("obs.events_per_step", f.events as f64 / steps);
        // A span past the step's end reads as a 100% error.
        m.set("obs.reconcile_err_pct", 100.0 * f.worst_reconcile.min(1.0));
    }
}

impl Recorder for LayerRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, ev: Event) {
        let mut f = self.fold.lock().expect("layer fold");
        f.events += 1;
        match ev {
            Event::Span { name, phase, wave, ts_ns, dur_ns, .. } => {
                // Server residency spans run on a tick timeline and name no
                // graph node; they count as events only.
                let Some(op) = self.kinds.get(&name) else { return };
                let g = group_of(op, phase);
                f.group_ns[g] += dur_ns;
                let p = match phase {
                    Phase::Forward => 0,
                    Phase::Backward => 1,
                    Phase::Recompute => 2,
                };
                f.phase_ns[p] += dur_ns;
                if phase == Phase::Recompute {
                    f.recompute_ops += 1;
                }
                f.spans.push((ts_ns, dur_ns, phase, wave));
            }
            Event::Encode { codec, raw_bytes, encoded_bytes, .. } => {
                let e = f.encode.entry(codec).or_default();
                e.0 += raw_bytes;
                e.1 += encoded_bytes;
            }
            Event::NetTransfer { sent, priced_bytes, observed_bytes, dur_ns, .. } => {
                f.transfer_ns += dur_ns;
                if !sent {
                    f.recv_ns += dur_ns;
                }
                f.transfers += 1;
                f.priced += priced_bytes;
                f.observed += observed_bytes;
            }
            _ => {}
        }
    }
}

/// Per-step encode/decode milliseconds of the public codec calls on a
/// graph's stash shapes: `(lossless encode, lossless decode, DPR encode,
/// DPR decode)`. Lossless covers the Binarize and SSDC stashes
/// `GistConfig::lossless` assigns; DPR covers the FP8 stashes
/// `GistConfig::lossy` adds. Synthetic stash values carry the observed
/// per-layer ReLU sparsity (the mean where a producer is not a ReLU).
pub fn codec_ms(graph: &Graph, relu_sparsity: &[(String, f64)], seed: u64) -> [f64; 4] {
    let shapes = graph.infer_shapes().expect("benchmark graphs infer shapes");
    let mean_sparsity = if relu_sparsity.is_empty() {
        0.5
    } else {
        relu_sparsity.iter().map(|(_, s)| s).sum::<f64>() / relu_sparsity.len() as f64
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0xc0dec);
    let mut stash = |node: usize| -> Vec<f32> {
        let name = &graph.nodes()[node].name;
        let s = relu_sparsity.iter().find(|(n, _)| n == name).map_or(mean_sparsity, |(_, s)| *s);
        (0..shapes[node].numel())
            .map(|_| if rng.gen_range(0.0f64..1.0) < s { 0.0 } else { rng.gen_range(0.01f32..1.0) })
            .collect()
    };
    let lossless: Vec<(Encoding, Vec<f32>)> =
        gist_core::policy::assign(graph, &GistConfig::lossless())
            .into_iter()
            .filter(|a| matches!(a.encoding, Encoding::Binarize | Encoding::Ssdc { .. }))
            .map(|a| (a.encoding, stash(a.node.index())))
            .collect();
    let dpr: Vec<(DprFormat, Vec<f32>)> =
        gist_core::policy::assign(graph, &GistConfig::lossy(DprFormat::Fp8))
            .into_iter()
            .filter_map(|a| match a.encoding {
                Encoding::Dpr(f) => Some((f, stash(a.node.index()))),
                _ => None,
            })
            .collect();
    let ssdc = SsdcConfig { narrow: true, value_format: None };
    let mut samples = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let budget = Instant::now();
    while samples[0].len() < 5 || (samples[0].len() < 200 && budget.elapsed().as_millis() < 300) {
        let (mut enc, mut dec) = (0.0, 0.0);
        for (encoding, data) in &lossless {
            let mut out = vec![0.0f32; data.len()];
            let t = Instant::now();
            match encoding {
                Encoding::Binarize => {
                    let mask = BitMask::encode(data);
                    enc += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    mask.relu_backward_into(data, &mut out).expect("mask length");
                    dec += t.elapsed().as_secs_f64();
                }
                _ => {
                    let csr = CsrMatrix::encode(data, ssdc);
                    enc += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    csr.decode_into(&mut out);
                    dec += t.elapsed().as_secs_f64();
                }
            }
            std::hint::black_box(&out);
        }
        let (mut denc, mut ddec) = (0.0, 0.0);
        for (format, data) in &dpr {
            let mut out = vec![0.0f32; data.len()];
            let t = Instant::now();
            let buf = DprBuffer::encode(*format, data);
            denc += t.elapsed().as_secs_f64();
            let t = Instant::now();
            buf.decode_into(&mut out);
            ddec += t.elapsed().as_secs_f64();
            std::hint::black_box(&out);
        }
        for (s, v) in samples.iter_mut().zip([enc, dec, denc, ddec]) {
            s.push(v * 1e3);
        }
    }
    samples.map(|s| median(&s))
}
