//! Workload inputs. A task is a fixed set of class prototypes (the same on
//! every run); the workload seed draws the samples — labels and per-pixel
//! noise — so seeds vary the inputs, not the difficulty of the task.

use gist_tensor::{Shape, Tensor};
use gist_testkit::Rng;

/// Seed of every task's class prototypes.
const TASK_SEED: u64 = 42;
/// Per-pixel noise amplitude around a prototype.
const NOISE: f32 = 0.3;

/// A synthetic classification task plus the seeded sample stream.
pub struct Task {
    prototypes: Vec<Vec<f32>>,
    channels: usize,
    size: usize,
    rng: Rng,
}

impl Task {
    /// `classes` prototypes of `channels x size x size`, samples drawn from
    /// `seed`.
    pub fn new(classes: usize, channels: usize, size: usize, seed: u64) -> Task {
        let mut proto_rng = Rng::seed_from_u64(TASK_SEED);
        let prototypes = (0..classes)
            .map(|_| {
                (0..channels * size * size).map(|_| proto_rng.gen_range(-1.0f32..1.0)).collect()
            })
            .collect();
        Task { prototypes, channels, size, rng: Rng::seed_from_u64(seed ^ 0x5eed_da7a) }
    }

    /// The next minibatch of `batch` samples.
    pub fn minibatch(&mut self, batch: usize) -> (Tensor, Vec<usize>) {
        let per_image = self.channels * self.size * self.size;
        let mut data = Vec::with_capacity(batch * per_image);
        let mut labels = Vec::with_capacity(batch);
        for _ in 0..batch {
            let label = self.rng.gen_range(0..self.prototypes.len());
            labels.push(label);
            for &p in &self.prototypes[label] {
                let n = (self.rng.gen_range(-1.0f32..1.0) + self.rng.gen_range(-1.0f32..1.0)) / 2.0;
                data.push(p + NOISE * n);
            }
        }
        let shape = Shape::nchw(batch, self.channels, self.size, self.size);
        (Tensor::from_vec(shape, data).expect("sized correctly"), labels)
    }

    /// `n` minibatches of `batch` samples.
    pub fn minibatches(&mut self, n: usize, batch: usize) -> Vec<(Tensor, Vec<usize>)> {
        (0..n).map(|_| self.minibatch(batch)).collect()
    }
}
