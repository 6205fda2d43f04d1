//! The inference arena: every buffer a frozen forward pass needs, sized
//! once per `(batch, length, channels)` shape and reused forever after.
//!
//! [`crate::frozen::FrozenResNet::predict_into`] runs the whole network —
//! blocks, GAP, head, softmax, CAM — against an [`InferenceArena`], and the
//! arena is the *only* memory it touches. Buffers grow on the first call
//! for a given shape (the warmup) and never shrink, so steady-state
//! serving on a fixed window shape performs **zero heap allocations**; the
//! perf harness asserts this with the ds-obs allocation counter.
//!
//! Activations ping-pong through three flat buffers, each large enough for
//! the widest `[B, C, L]` tensor in the network: `a` holds the current
//! block input, the block writes its output to `b` and uses `c` as
//! scratch, then `a` and `b` swap (a pointer swap via [`std::mem::swap`],
//! never a copy). After the last block, `a` holds the final feature maps,
//! which GAP, the head, and the CAM read in place.

/// Reusable buffers for one frozen network's forward passes.
///
/// One arena serves one network at a time (shapes are per-network), but it
/// can be re-used across networks of the same width — `ensure` only ever
/// grows. All state is plain `Vec<f32>` + the dimensions of the most
/// recent pass; accessors slice the valid region.
#[derive(Debug, Default, Clone)]
pub struct InferenceArena {
    /// Ping buffer: block input / final feature maps `[B, C, L]`.
    buf_a: Vec<f32>,
    /// Pong buffer: block output before the swap.
    buf_b: Vec<f32>,
    /// Scratch: mid-block activation and the projection-shortcut result.
    buf_c: Vec<f32>,
    /// GAP output `[B, features]`.
    pooled: Vec<f32>,
    /// Head output `[B, classes]`.
    logits: Vec<f32>,
    /// One softmax row `[classes]`.
    softmax: Vec<f32>,
    /// Positive-class probability per batch row `[B]`.
    probs: Vec<f32>,
    /// Class-1 CAM per batch row `[B, L]`.
    cams: Vec<f32>,
    /// Backbone-specific scratch (Inception branch staging, TransApp
    /// attention scores) — only grown by [`InferenceArena::ensure_aux`];
    /// stays empty for plain ResNet plans.
    aux: Vec<f32>,
    batch: usize,
    len: usize,
    classes: usize,
}

impl InferenceArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> InferenceArena {
        InferenceArena::default()
    }

    /// Size every buffer for a `(batch, len)` pass through a network whose
    /// widest tensor has `max_channels` channels, with `features` last-block
    /// channels and `classes` logits. Grow-only: a smaller follow-up shape
    /// reuses the existing capacity without reallocating.
    pub fn ensure(
        &mut self,
        batch: usize,
        len: usize,
        max_channels: usize,
        features: usize,
        classes: usize,
    ) {
        fn grow(buf: &mut Vec<f32>, n: usize) {
            if buf.len() < n {
                buf.resize(n, 0.0);
            }
        }
        let act = batch * max_channels * len;
        grow(&mut self.buf_a, act);
        grow(&mut self.buf_b, act);
        grow(&mut self.buf_c, act);
        grow(&mut self.pooled, batch * features);
        grow(&mut self.logits, batch * classes);
        grow(&mut self.softmax, classes);
        grow(&mut self.probs, batch);
        grow(&mut self.cams, batch * len);
        self.batch = batch;
        self.len = len;
        self.classes = classes;
    }

    /// Grow the backbone-specific f32 scratch to at least `n` elements.
    /// Grow-only, like everything else here; call before [`parts`].
    ///
    /// [`parts`]: InferenceArena::parts
    pub(crate) fn ensure_aux(&mut self, n: usize) {
        if self.aux.len() < n {
            self.aux.resize(n, 0.0);
        }
    }

    /// The ping/pong/scratch activation buffers, the backbone aux scratch
    /// and the output buffers, borrowed simultaneously for one forward
    /// pass.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &mut self,
    ) -> (
        &mut Vec<f32>,
        &mut Vec<f32>,
        &mut Vec<f32>,
        &mut [f32],
        &mut [f32],
        &mut [f32],
        &mut [f32],
        &mut [f32],
        &mut [f32],
    ) {
        (
            &mut self.buf_a,
            &mut self.buf_b,
            &mut self.buf_c,
            &mut self.aux,
            &mut self.pooled,
            &mut self.logits,
            &mut self.softmax,
            &mut self.probs,
            &mut self.cams,
        )
    }

    /// Heap footprint of every buffer in bytes (capacity, not live
    /// length). Serving fronts report this per plan so operators can see
    /// what one warm arena costs before cloning plans per worker.
    pub fn heap_bytes(&self) -> usize {
        let f32s = self.buf_a.capacity()
            + self.buf_b.capacity()
            + self.buf_c.capacity()
            + self.aux.capacity()
            + self.pooled.capacity()
            + self.logits.capacity()
            + self.softmax.capacity()
            + self.probs.capacity()
            + self.cams.capacity();
        f32s * std::mem::size_of::<f32>()
    }

    /// Batch size of the most recent pass.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Window length of the most recent pass.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first `ensure`.
    pub fn is_empty(&self) -> bool {
        self.batch == 0
    }

    /// Positive-class probability per batch row of the most recent pass.
    pub fn probs(&self) -> &[f32] {
        &self.probs[..self.batch]
    }

    /// Class-1 CAM of batch row `bi` from the most recent pass.
    pub fn cam(&self, bi: usize) -> &[f32] {
        assert!(bi < self.batch, "cam row {bi} out of {}", self.batch);
        &self.cams[bi * self.len..(bi + 1) * self.len]
    }

    /// Logits of batch row `bi` from the most recent pass.
    pub fn logits_row(&self, bi: usize) -> &[f32] {
        assert!(bi < self.batch, "logits row {bi} out of {}", self.batch);
        &self.logits[bi * self.classes..(bi + 1) * self.classes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_grows_then_reuses() {
        let mut arena = InferenceArena::new();
        assert!(arena.is_empty());
        arena.ensure(4, 32, 8, 8, 2);
        assert_eq!(arena.batch(), 4);
        assert_eq!(arena.len(), 32);
        let ptr = arena.buf_a.as_ptr();
        let cap = arena.buf_a.capacity();
        // Smaller shape: no reallocation, dimensions update.
        arena.ensure(1, 32, 8, 8, 2);
        assert_eq!(arena.buf_a.as_ptr(), ptr);
        assert_eq!(arena.buf_a.capacity(), cap);
        assert_eq!(arena.batch(), 1);
        assert_eq!(arena.probs().len(), 1);
        assert_eq!(arena.cam(0).len(), 32);
        assert_eq!(arena.logits_row(0).len(), 2);
    }

    #[test]
    fn steady_state_ensure_allocates_nothing() {
        let mut arena = InferenceArena::new();
        arena.ensure(8, 64, 32, 32, 2); // warmup
        let before = ds_obs::alloc_count();
        for _ in 0..16 {
            arena.ensure(8, 64, 32, 32, 2);
            arena.ensure(3, 64, 32, 32, 2);
        }
        assert_eq!(ds_obs::alloc_count(), before, "ensure must not allocate");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn cam_row_bounds_checked() {
        let mut arena = InferenceArena::new();
        arena.ensure(2, 8, 4, 4, 2);
        let _ = arena.cam(2);
    }
}
