//! Stochastic optimizers.
//!
//! The paper's benchmarks use SGD with momentum (image classification),
//! RMSProp (segmentation), ADAM (recommendation) and vanilla SGD (language
//! modelling, and for several compressors that prefer it — §V-A). All state
//! is keyed by parameter name so the same optimizer instance serves a whole
//! network.

use grace_tensor::{pool, simd, Tensor};
use std::collections::HashMap;

/// Range boundaries of a pooled update fall on multiples of this many
/// elements: a cache line's worth of `f32`s.
const GRAIN: usize = 16;

/// A stateful first-order optimizer.
///
/// `update` applies one step for one named parameter given its (aggregated)
/// gradient — Algorithm 1 line 15 generalised beyond plain SGD (§IV-A,
/// "Different optimizers").
pub trait Optimizer: Send {
    /// Applies one update step in place.
    fn update(&mut self, name: &str, value: &mut Tensor, grad: &Tensor);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Changes the learning rate (for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// The state an optimizer keeps under `name`, created by `init` on the
/// first call, and whether this call created it. A hit — every call after a
/// parameter's first — looks the name up as a `&str` and allocates nothing.
///
/// A created state is zeros, and the first update writes it without reading
/// it: it substitutes the zero, keeping the `+0.0` addend (`0.0 + x` turns
/// `−0.0` into `+0.0` exactly as `γ·0 + x` does), so the bits are those of
/// a read. Reading calloc'd pages first would map the shared zero page and
/// then copy it on the write — two faults a page instead of one.
fn state<'a, T>(
    map: &'a mut HashMap<String, T>,
    name: &str,
    init: impl FnOnce() -> T,
) -> (&'a mut T, bool) {
    let fresh = !map.contains_key(name);
    if fresh {
        map.insert(name.to_string(), init());
    }
    (map.get_mut(name).expect("inserted above"), fresh)
}

/// Vanilla SGD: `x ← x − η·g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _name: &str, value: &mut Tensor, grad: &Tensor) {
        assert_eq!(value.len(), grad.len(), "tensor length mismatch in axpy");
        let (step, g) = (-self.lr, grad.as_slice());
        // `Tensor::axpy` per element range, one range per pool thread.
        pool::split_rows(value.as_mut_slice(), g.len(), GRAIN, 2 * g.len(), |r, x| {
            simd::axpy(x, step, &g[r]);
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// SGD with (optionally Nesterov) momentum:
/// `z ← γ·z + g`; `x ← x − η·(z)` or `x ← x − η·(g + γ·z)` for Nesterov.
#[derive(Debug, Clone)]
pub struct Momentum {
    lr: f32,
    gamma: f32,
    nesterov: bool,
    velocity: HashMap<String, Tensor>,
}

impl Momentum {
    /// Creates heavy-ball momentum SGD.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `gamma` outside `[0, 1)`.
    pub fn new(lr: f32, gamma: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&gamma), "momentum must be in [0,1)");
        Momentum {
            lr,
            gamma,
            nesterov: false,
            velocity: HashMap::new(),
        }
    }

    /// Switches to the Nesterov look-ahead variant (§II).
    pub fn nesterov(mut self) -> Self {
        self.nesterov = true;
        self
    }
}

impl Optimizer for Momentum {
    fn update(&mut self, name: &str, value: &mut Tensor, grad: &Tensor) {
        assert_eq!(value.len(), grad.len(), "tensor length mismatch in axpy");
        let (v, fresh) = state(&mut self.velocity, name, || grad.zeros_like());
        assert_eq!(v.len(), grad.len(), "tensor length mismatch in add");
        let (gamma, step, nesterov) = (self.gamma, -self.lr, self.nesterov);
        let look_ahead = -self.lr * self.gamma;
        let g = grad.as_slice();
        let (xs, zs) = (value.as_mut_slice(), v.as_mut_slice());
        // Per element, exactly `Tensor::{scale, add_assign, axpy}` in that
        // order — `z·γ`, `+ g`, `x + (−η)·z`, never fused — the bits every
        // golden was recorded with; element ranges split across the pool.
        pool::split_rows2(xs, zs, g.len(), GRAIN, 4 * g.len(), |r, xs, zs| {
            let g = &g[r];
            match (fresh, nesterov) {
                (false, false) => momentum_rows::<false, false>(xs, zs, g, gamma, step, look_ahead),
                (false, true) => momentum_rows::<false, true>(xs, zs, g, gamma, step, look_ahead),
                (true, false) => momentum_rows::<true, false>(xs, zs, g, gamma, step, look_ahead),
                (true, true) => momentum_rows::<true, true>(xs, zs, g, gamma, step, look_ahead),
            }
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// One range of [`Momentum::update`], each variant its own loop. A `FRESH`
/// `z` is +0.0, and `+0.0 · γ` is +0.0 for γ ∈ [0, 1), so it is not read.
fn momentum_rows<const FRESH: bool, const NESTEROV: bool>(
    xs: &mut [f32],
    zs: &mut [f32],
    g: &[f32],
    gamma: f32,
    step: f32,
    look_ahead: f32,
) {
    for (x, (z, &g)) in xs.iter_mut().zip(zs.iter_mut().zip(g)) {
        *z = if FRESH { 0.0 + g } else { *z * gamma + g };
        if NESTEROV {
            *x += step * g;
            *x += look_ahead * *z;
        } else {
            *x += step * *z;
        }
    }
}

/// ADAM (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: HashMap<String, u64>,
    m: HashMap<String, Tensor>,
    v: HashMap<String, Tensor>,
}

impl Adam {
    /// Creates ADAM with the standard `β₁=0.9, β₂=0.999, ε=1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: HashMap::new(),
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn update(&mut self, name: &str, value: &mut Tensor, grad: &Tensor) {
        let (t, _) = state(&mut self.t, name, || 0);
        *t += 1;
        let step = *t;
        let (m, fresh) = state(&mut self.m, name, || grad.zeros_like());
        let (v, _) = state(&mut self.v, name, || grad.zeros_like());
        let bc1 = 1.0 - self.beta1.powi(step as i32);
        let bc2 = 1.0 - self.beta2.powi(step as i32);
        for i in 0..grad.len() {
            let g = grad[i];
            // `β · 0.0` is +0.0 for the positive finite βs.
            let (m0, v0) = if fresh {
                (0.0, 0.0)
            } else {
                (self.beta1 * m[i], self.beta2 * v[i])
            };
            m[i] = m0 + (1.0 - self.beta1) * g;
            v[i] = v0 + (1.0 - self.beta2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            value[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// RMSProp with the standard decay 0.9.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    eps: f32,
    mean_sq: HashMap<String, Tensor>,
}

impl RmsProp {
    /// Creates RMSProp with decay 0.9 and `ε=1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        RmsProp {
            lr,
            decay: 0.9,
            eps: 1e-8,
            mean_sq: HashMap::new(),
        }
    }
}

impl Optimizer for RmsProp {
    fn update(&mut self, name: &str, value: &mut Tensor, grad: &Tensor) {
        let (s, fresh) = state(&mut self.mean_sq, name, || grad.zeros_like());
        for i in 0..grad.len() {
            let g = grad[i];
            let s0 = if fresh { 0.0 } else { self.decay * s[i] };
            s[i] = s0 + (1.0 - self.decay) * g * g;
            value[i] -= self.lr * g / (s[i].sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// AdaGrad (Duchi et al., 2011).
#[derive(Debug, Clone)]
pub struct Adagrad {
    lr: f32,
    eps: f32,
    accum: HashMap<String, Tensor>,
}

impl Adagrad {
    /// Creates AdaGrad with `ε=1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adagrad {
            lr,
            eps: 1e-8,
            accum: HashMap::new(),
        }
    }
}

impl Optimizer for Adagrad {
    fn update(&mut self, name: &str, value: &mut Tensor, grad: &Tensor) {
        let (a, fresh) = state(&mut self.accum, name, || grad.zeros_like());
        for i in 0..grad.len() {
            let g = grad[i];
            let a0 = if fresh { 0.0 } else { a[i] };
            a[i] = a0 + g * g;
            value[i] -= self.lr * g / (a[i].sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = ½‖x − c‖² whose gradient is x − c.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let c = Tensor::from_vec(vec![1.0, -2.0, 3.0]);
        let mut x = Tensor::from_vec(vec![10.0, 10.0, 10.0]);
        for _ in 0..steps {
            let g = x.sub(&c);
            opt.update("x", &mut x, &g);
        }
        x.sub(&c).norm2()
    }

    /// Lengths either side of the pool's splits: the inline threshold
    /// (`INLINE_WORK` element-operations, 2 per element for SGD and 4 for
    /// momentum), range grains, and a split five ways.
    fn split_lengths() -> Vec<usize> {
        let t = pool::INLINE_WORK;
        let mut out = vec![0, 1, 15, 16, 17, 1000];
        for edge in [t / 4, t / 2, t, 5 * t / 2, 5 * t / 4] {
            out.extend([edge - 1, edge, edge + 1]);
        }
        out.push(100_003);
        out
    }

    fn gradient(len: usize, salt: u32) -> Tensor {
        Tensor::from_vec(
            (0..len as u32)
                .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % 2001) as f32 / 1000.0 - 1.0)
                .collect(),
        )
    }

    /// Three steps of the `name`d optimizer at `width`: the parameters, as
    /// bits.
    fn three_steps(name: &str, len: usize, width: usize) -> Vec<u32> {
        pool::with_width(width, || {
            let mut opt: Box<dyn Optimizer> = match name {
                "sgd" => Box::new(Sgd::new(0.1)),
                "momentum" => Box::new(Momentum::new(0.05, 0.9)),
                _ => Box::new(Momentum::new(0.05, 0.9).nesterov()),
            };
            let mut x = gradient(len, 7);
            for step in 0..3 {
                opt.update("p", &mut x, &gradient(len, step));
            }
            x.as_slice().iter().map(|v| v.to_bits()).collect()
        })
    }

    #[test]
    fn pooled_updates_are_bit_identical_to_the_serial_loop_at_every_width() {
        for len in split_lengths() {
            // The serial reference: the loops these updates ran before the
            // pool, element by element.
            let (mut sgd, mut mom, mut nes) =
                (gradient(len, 7), gradient(len, 7), gradient(len, 7));
            let (mut z, mut zn) = (vec![0.0f32; len], vec![0.0f32; len]);
            for step in 0..3 {
                let g = gradient(len, step);
                for i in 0..len {
                    sgd[i] += -0.1 * g[i];
                    z[i] = z[i] * 0.9 + g[i];
                    mom[i] += -0.05f32 * z[i];
                    zn[i] = zn[i] * 0.9 + g[i];
                    nes[i] += -0.05f32 * g[i];
                    nes[i] += (-0.05f32 * 0.9) * zn[i];
                }
            }
            let oracles = [sgd, mom, nes];
            for (name, oracle) in ["sgd", "momentum", "nesterov"].iter().zip(&oracles) {
                let want: Vec<u32> = oracle.as_slice().iter().map(|v| v.to_bits()).collect();
                for width in [1, 2, 3, 5] {
                    assert_eq!(
                        three_steps(name, len, width),
                        want,
                        "{name} len {len} width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(run_quadratic(&mut opt, 200) < 1e-3);
    }

    #[test]
    fn momentum_converges_faster_than_sgd() {
        let mut sgd = Sgd::new(0.05);
        let mut mom = Momentum::new(0.05, 0.9);
        let r_sgd = run_quadratic(&mut sgd, 60);
        let r_mom = run_quadratic(&mut mom, 60);
        assert!(
            r_mom < r_sgd,
            "momentum {r_mom} not faster than sgd {r_sgd}"
        );
    }

    #[test]
    fn nesterov_converges_on_quadratic() {
        let mut opt = Momentum::new(0.05, 0.9).nesterov();
        assert!(run_quadratic(&mut opt, 200) < 1e-2);
    }

    /// The three passes `Momentum::update` made before it was fused: the
    /// oracle for the one-pass loop.
    fn three_pass(v: &mut Tensor, x: &mut Tensor, g: &Tensor, lr: f32, gamma: f32, nesterov: bool) {
        v.scale(gamma);
        v.add_assign(g);
        if nesterov {
            x.axpy(-lr, g);
            x.axpy(-lr * gamma, v);
        } else {
            x.axpy(-lr, v);
        }
    }

    #[test]
    fn fused_momentum_matches_the_three_pass_sequence_bit_for_bit() {
        const SPECIAL: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x807F_FFFF), // largest negative subnormal
            -f32::MIN_POSITIVE,
        ];
        // 37 elements: four 8-lane vectors of `axpy` plus a scalar tail.
        // Elements 0..8 take the special values every seventh step, 8..16
        // stay subnormal-sized, the rest are ordinary gradients.
        let len = 37;
        // Every NaN folds to one: which payload survives `NaN + NaN` is the
        // compiler's operand-order choice in either body (debug and release
        // builds pick differently). Every other bit must match.
        let bits = |t: &Tensor| {
            let fold = |v: &f32| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() };
            t.as_slice().iter().map(fold).collect::<Vec<_>>()
        };
        for nesterov in [false, true] {
            let (lr, gamma) = (0.05, 0.9);
            let mut opt = Momentum::new(lr, gamma);
            opt.nesterov = nesterov;
            let init: Vec<f32> = (0..len).map(|i| (i as f32 - 18.0) * 0.01).collect();
            let mut fused = Tensor::from_vec(init.clone());
            let mut want = Tensor::from_vec(init);
            let mut v = Tensor::from_vec(vec![0.0; len]);
            let mut seed = 0x9e37_79b9u32;
            for step in 0..300 {
                let g: Vec<f32> = (0..len)
                    .map(|i| {
                        seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        let u = (seed >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                        match i {
                            0..8 if step % 7 == 0 => SPECIAL[(i + step) % SPECIAL.len()],
                            8..16 => u * 1e-38,
                            _ => u,
                        }
                    })
                    .collect();
                let g = Tensor::from_vec(g);
                opt.update("w", &mut fused, &g);
                three_pass(&mut v, &mut want, &g, lr, gamma, nesterov);
                assert_eq!(bits(&fused), bits(&want), "nesterov {nesterov} step {step}");
                assert_eq!(bits(&opt.velocity["w"]), bits(&v), "nesterov {nesterov}");
            }
            assert!(want.as_slice()[16..].iter().all(|x| x.is_finite()));
        }
    }

    /// A first update, which writes its state without reading it, gives
    /// the bits of one that reads explicitly zeroed state — parameters and
    /// state, over that update and the next — on gradients holding −0.0,
    /// subnormals, ±∞ and NaN.
    #[test]
    fn a_fresh_state_updates_as_an_explicitly_zeroed_one() {
        let g = Tensor::from_vec(vec![
            -0.0,
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x807F_FFFF),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -0.25,
            1e-30,
            3.0,
        ]);
        let len = g.len();
        let zeros = || Tensor::from_vec(vec![0.0; len]);
        fn check<O: Optimizer>(
            what: &str,
            [mut fresh, mut zeroed]: [O; 2],
            g: &Tensor,
            state: impl Fn(&O) -> Vec<&Tensor>,
        ) {
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let init: Vec<f32> = (0..g.len()).map(|i| i as f32 * 0.1 - 0.4).collect();
            let (mut a, mut b) = (Tensor::from_vec(init.clone()), Tensor::from_vec(init));
            for step in 0..2 {
                fresh.update("w", &mut a, g);
                zeroed.update("w", &mut b, g);
                assert_eq!(bits(&a), bits(&b), "{what} step {step}: parameters");
                let (sa, sb) = (state(&fresh), state(&zeroed));
                for (x, y) in sa.into_iter().zip(sb) {
                    assert_eq!(bits(x), bits(y), "{what} step {step}: state");
                }
            }
        }
        for nesterov in [false, true] {
            let [mut fresh, mut zeroed] = [0; 2].map(|_| Momentum::new(0.05, 0.9));
            fresh.nesterov = nesterov;
            zeroed.nesterov = nesterov;
            zeroed.velocity.insert("w".into(), zeros());
            check("momentum", [fresh, zeroed], &g, |o| vec![&o.velocity["w"]]);
        }
        let mut adam = Adam::new(0.01);
        adam.m.insert("w".into(), zeros());
        adam.v.insert("w".into(), zeros());
        check("adam", [Adam::new(0.01), adam], &g, |o| {
            vec![&o.m["w"], &o.v["w"]]
        });
        let mut rms = RmsProp::new(0.01);
        rms.mean_sq.insert("w".into(), zeros());
        check("rmsprop", [RmsProp::new(0.01), rms], &g, |o| {
            vec![&o.mean_sq["w"]]
        });
        let mut ada = Adagrad::new(0.01);
        ada.accum.insert("w".into(), zeros());
        check("adagrad", [Adagrad::new(0.01), ada], &g, |o| {
            vec![&o.accum["w"]]
        });
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.5);
        assert!(run_quadratic(&mut opt, 300) < 1e-2);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let mut opt = RmsProp::new(0.5);
        assert!(run_quadratic(&mut opt, 300) < 1e-1);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let mut opt = Adagrad::new(2.0);
        assert!(run_quadratic(&mut opt, 500) < 1e-1);
    }

    #[test]
    fn state_is_per_parameter_name() {
        let mut opt = Momentum::new(0.1, 0.9);
        let g = Tensor::from_vec(vec![1.0]);
        let mut a = Tensor::from_vec(vec![0.0]);
        let mut b = Tensor::from_vec(vec![0.0]);
        opt.update("a", &mut a, &g);
        opt.update("a", &mut a, &g);
        opt.update("b", &mut b, &g);
        // b saw only one step, so it has no accumulated velocity.
        assert!((b[0] - (-0.1)).abs() < 1e-7);
        assert!(a[0] < -0.2, "a should have accumulated velocity: {}", a[0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_lr() {
        let _ = Adam::new(-1.0);
    }
}

/// Clips a set of gradients to a maximum global ℓ₂ norm (in place),
/// returning the pre-clip norm. Standard practice for recurrent models
/// (the paper's PTB recipe).
///
/// # Panics
///
/// Panics if `max_norm` is not positive and finite.
pub fn clip_global_norm(grads: &mut [(String, Tensor)], max_norm: f32) -> f32 {
    assert!(
        max_norm.is_finite() && max_norm > 0.0,
        "max norm must be positive"
    );
    let total: f32 = grads
        .iter()
        .map(|(_, g)| {
            let n = g.norm2();
            n * n
        })
        .sum::<f32>()
        .sqrt();
    if total > max_norm {
        let scale = max_norm / total;
        for (_, g) in grads.iter_mut() {
            g.scale(scale);
        }
    }
    total
}

#[cfg(test)]
mod clip_tests {
    use super::*;

    #[test]
    fn clips_only_when_above_threshold() {
        let mut grads = vec![
            ("a".to_string(), Tensor::from_vec(vec![3.0, 0.0])),
            ("b".to_string(), Tensor::from_vec(vec![0.0, 4.0])),
        ];
        // Global norm = 5; clip at 10 leaves everything unchanged.
        let pre = clip_global_norm(&mut grads, 10.0);
        assert_eq!(pre, 5.0);
        assert_eq!(grads[0].1.as_slice(), &[3.0, 0.0]);
        // Clip at 1: everything scales by 1/5.
        let pre = clip_global_norm(&mut grads, 1.0);
        assert_eq!(pre, 5.0);
        assert!((grads[0].1[0] - 0.6).abs() < 1e-6);
        assert!((grads[1].1[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "max norm")]
    fn rejects_zero_max_norm() {
        let mut grads = vec![("a".to_string(), Tensor::from_vec(vec![1.0]))];
        let _ = clip_global_norm(&mut grads, 0.0);
    }
}
