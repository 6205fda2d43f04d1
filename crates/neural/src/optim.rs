//! Optimizers: Adam (default in the paper's lineage of TSC work) and SGD
//! with momentum. Both operate through [`crate::VisitParams`], keeping
//! per-parameter state keyed by visit order — which layers guarantee stable.

use crate::VisitParams;

/// Adam optimizer with decoupled weight decay (AdamW-style).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Standard Adam with the given learning rate.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with decoupled weight decay.
    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Adam {
        Adam {
            weight_decay,
            ..Adam::new(lr)
        }
    }

    /// Apply one update step over all parameters of `model`.
    pub fn step(&mut self, model: &mut impl VisitParams) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let mut idx = 0usize;
        let m = &mut self.m;
        let v = &mut self.v;
        model.visit_params(&mut |params, grads| {
            if idx == m.len() {
                m.push(vec![0.0; params.len()]);
                v.push(vec![0.0; params.len()]);
            }
            let mi = &mut m[idx];
            let vi = &mut v[idx];
            assert_eq!(
                mi.len(),
                params.len(),
                "parameter shape changed between optimizer steps"
            );
            for ((p, g), (ms, vs)) in params
                .iter_mut()
                .zip(grads.iter())
                .zip(mi.iter_mut().zip(vi.iter_mut()))
            {
                *ms = b1 * *ms + (1.0 - b1) * g;
                *vs = b2 * *vs + (1.0 - b2) * g * g;
                let m_hat = *ms / bc1;
                let v_hat = *vs / bc2;
                if wd > 0.0 {
                    *p -= lr * wd * *p;
                }
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

/// SGD with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Sgd {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Sgd {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Apply one update step.
    pub fn step(&mut self, model: &mut impl VisitParams) {
        let (lr, mu) = (self.lr, self.momentum);
        let mut idx = 0usize;
        let velocity = &mut self.velocity;
        model.visit_params(&mut |params, grads| {
            if idx == velocity.len() {
                velocity.push(vec![0.0; params.len()]);
            }
            let vel = &mut velocity[idx];
            for ((p, g), v) in params.iter_mut().zip(grads.iter()).zip(vel.iter_mut()) {
                if mu > 0.0 {
                    *v = mu * *v + g;
                    *p -= lr * *v;
                } else {
                    *p -= lr * g;
                }
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy quadratic "model": params p, loss = 0.5 * ||p - target||^2.
    struct Quadratic {
        params: Vec<f32>,
        grads: Vec<f32>,
        target: Vec<f32>,
    }

    impl Quadratic {
        fn new(start: Vec<f32>, target: Vec<f32>) -> Self {
            let grads = vec![0.0; start.len()];
            Quadratic {
                params: start,
                grads,
                target,
            }
        }
        fn compute_grads(&mut self) {
            for i in 0..self.params.len() {
                self.grads[i] = self.params[i] - self.target[i];
            }
        }
        fn loss(&self) -> f32 {
            self.params
                .iter()
                .zip(&self.target)
                .map(|(p, t)| (p - t) * (p - t) / 2.0)
                .sum()
        }
    }

    impl VisitParams for Quadratic {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut Vec<f32>)) {
            f(&mut self.params, &mut self.grads);
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut model = Quadratic::new(vec![5.0, -3.0, 0.5], vec![1.0, 2.0, -1.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            model.compute_grads();
            opt.step(&mut model);
        }
        assert!(model.loss() < 1e-4, "loss {}", model.loss());
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut model = Quadratic::new(vec![5.0, -3.0], vec![0.0, 0.0]);
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        for _ in 0..300 {
            model.compute_grads();
            opt.step(&mut model);
        }
        assert!(model.loss() < 1e-4, "loss {}", model.loss());
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut model = Quadratic::new(vec![10.0], vec![10.0]); // zero task gradient
        let mut opt = Adam::with_weight_decay(0.01, 0.5);
        for _ in 0..100 {
            model.compute_grads(); // grad = 0
            opt.step(&mut model);
        }
        assert!(model.params[0] < 10.0, "decay had no effect");
    }

    #[test]
    fn adam_step_count_and_state_growth() {
        let mut model = Quadratic::new(vec![1.0, 1.0], vec![0.0, 0.0]);
        let mut opt = Adam::new(0.01);
        model.compute_grads();
        opt.step(&mut model);
        assert_eq!(opt.m.len(), 1);
        assert_eq!(opt.m[0].len(), 2);
        opt.step(&mut model);
        assert_eq!(opt.m.len(), 1, "state must not grow on later steps");
    }

    #[test]
    fn deterministic_updates() {
        let run = || {
            let mut model = Quadratic::new(vec![3.0], vec![0.0]);
            let mut opt = Adam::new(0.05);
            for _ in 0..10 {
                model.compute_grads();
                opt.step(&mut model);
            }
            model.params[0]
        };
        assert_eq!(run(), run());
    }
}
