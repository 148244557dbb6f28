//! Metric values, order statistics, throughput windows and correctness
//! verdicts.

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Wall seconds of `f` and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = std::time::Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Repeats a set-up step at least 9 times and until 0.3 s of repetitions
/// have run (at most 1001). `f` returns its own duration in seconds; the
/// result is every duration plus the last value built.
pub fn repeat_setup<T>(mut f: impl FnMut() -> (f64, T)) -> (Vec<f64>, T) {
    let mut secs = Vec::new();
    let mut last = None;
    let start = std::time::Instant::now();
    while secs.len() < 9 || (secs.len() < 1001 && start.elapsed().as_secs_f64() < 0.3) {
        let (s, v) = f();
        secs.push(s);
        last = Some(v);
    }
    (secs, last.expect("at least one repetition"))
}

/// Wall seconds a throughput window spans at least.
const WINDOW_S: f64 = 1.0;

/// Throughput and CPU cost over consecutive windows of at least one wall
/// second each. Reporting the median window keeps a burst of load from
/// other tenants of the host from moving a run's figure.
pub struct Windows {
    start: std::time::Instant,
    cpu0: f64,
    samples: f64,
    rates: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Windows {
    /// Opens the first window now.
    pub fn new() -> Windows {
        Windows {
            start: std::time::Instant::now(),
            cpu0: crate::sys::cpu_seconds(),
            samples: 0.0,
            rates: Vec::new(),
            cpu_ms: Vec::new(),
        }
    }

    /// Counts `samples` completed just now, closing the window once it is
    /// long enough.
    pub fn add(&mut self, samples: f64) {
        self.samples += samples;
        let wall = self.start.elapsed().as_secs_f64();
        if wall >= WINDOW_S {
            let cpu = crate::sys::cpu_seconds();
            self.rates.push(self.samples / wall);
            self.cpu_ms.push((cpu - self.cpu0) * 1e3 / self.samples);
            self.start = std::time::Instant::now();
            self.cpu0 = cpu;
            self.samples = 0.0;
        }
    }

    /// `(samples per second, CPU milliseconds per sample)`, each the median
    /// over closed windows (the open remainder when none closed).
    pub fn finish(mut self) -> (f64, f64) {
        if self.rates.is_empty() && self.samples > 0.0 {
            let wall = self.start.elapsed().as_secs_f64();
            self.rates.push(self.samples / wall);
            self.cpu_ms.push((crate::sys::cpu_seconds() - self.cpu0) * 1e3 / self.samples);
        }
        (median(&self.rates), median(&self.cpu_ms))
    }
}

/// Named metric values in insertion order; units live in the metric
/// tables in `main.rs`.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64)>,
}

impl Metrics {
    /// Records (or overwrites) one metric; non-finite values read 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.items.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.items.push((name.to_string(), value)),
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// JSON number text for `v` (integers without a fraction).
pub fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One correctness check's outcome.
#[derive(Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Correctness verdicts plus attempted/failed operation counts.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    /// Records one check; a failing check counts as one failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail: detail.into() });
    }

    /// Counts one attempted operation (a step or a job) and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Failed operations and checks over attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
