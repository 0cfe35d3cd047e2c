//! The three workloads: their fixed shapes, their anchors, and the
//! seeded generators that turn `--seed` into requests.
//!
//! Every generated cosmology goes through [`EnsembleSpec::shard_spec`],
//! so Ω_c is re-closed by the program's own rule and every spec is
//! flat (the perturbation equations support nothing else).

use background::{Background, CosmoParams};
use boltzmann::{Preset, SpectrumMethod};
use plinger::{EnsembleSpec, RunSpec};

/// Resident workers in every pool the benchmark starts.
pub const WORKERS: usize = 2;

/// Parameter ranges of the generator.  `h` starts at the anchor's 0.5,
/// so no generated cosmology has a larger conformal age than the
/// anchor and the shared Bessel table built at set-up always covers it.
const OMEGA_B: (f64, f64) = (0.03, 0.07);
const H: (f64, f64) = (0.5, 0.56);
const N_S: (f64, f64) = (0.9, 1.05);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LosCl,
    HierarchyCl,
    SweepServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LosCl, Workload::HierarchyCl, Workload::SweepServe];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LosCl => "los_cl",
            Workload::HierarchyCl => "hierarchy_cl",
            Workload::SweepServe => "sweep_serve",
        }
    }

    /// `l_max` of the assembled spectrum (spectrum workloads only).
    pub fn l_max(self) -> usize {
        match self {
            Workload::LosCl => 1000,
            Workload::HierarchyCl => 250,
            Workload::SweepServe => 0,
        }
    }

    /// `cl_k_grid` samples per half-oscillation of `Δ_l(k)`: 2 is the
    /// library's standard grid; the workloads run coarser ones.
    fn osc_samples(self) -> f64 {
        match self {
            Workload::LosCl => 0.1,
            Workload::HierarchyCl => 0.25,
            Workload::SweepServe => 2.0,
        }
    }

    /// The anchor request: the standard-CDM spec on the workload's grid,
    /// preset and method.
    pub fn anchor(self) -> RunSpec {
        self.base(self.osc_samples())
    }

    /// The configuration behind the committed reference: the same
    /// method on the standard k-grid for the spectrum workloads, and the
    /// production preset for the sweep.
    pub fn reference_spec(self) -> RunSpec {
        match self {
            Workload::SweepServe => RunSpec {
                preset: Preset::Production,
                ..self.base(2.0)
            },
            _ => self.base(2.0),
        }
    }

    fn base(self, osc_samples: f64) -> RunSpec {
        match self {
            Workload::SweepServe => {
                // low-k transfer grid: 8 log-spaced modes up to 5e-3 Mpc⁻¹
                let ks = (0..8)
                    .map(|i| 2.0e-4 * 25.0f64.powf(i as f64 / 7.0))
                    .collect();
                RunSpec {
                    preset: Preset::Draft,
                    ..RunSpec::standard_cdm(ks)
                }
            }
            _ => {
                let tau0 = Background::new(CosmoParams::standard_cdm()).tau0();
                let ks = spectra::cl_k_grid(tau0, self.l_max(), osc_samples);
                RunSpec {
                    preset: Preset::Demo,
                    method: if self == Workload::LosCl {
                        SpectrumMethod::LineOfSight
                    } else {
                        SpectrumMethod::FullHierarchy
                    },
                    ..RunSpec::standard_cdm(ks)
                }
            }
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same request stream on every platform and every build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Additive steps of the parameter stream: the fractional parts of the
/// golden ratio, √2 and √3, one per axis.
const STEP: [f64; 3] = [
    0.618_033_988_749_894_9,
    0.414_213_562_373_095_1,
    0.732_050_807_568_877_3,
];

/// The seeded cosmology stream: an additive-recurrence (Kronecker)
/// sequence in (Ω_b, h, n_s) from a seeded start.  Any run of
/// consecutive draws covers each range evenly, so a window's median
/// cost barely depends on the seed, while the seed still changes every
/// cosmology.  Per-mode cost grows steeply as h falls (τ₀ ∝ 1/h sets
/// the hierarchy depth), which independent draws would turn into
/// seed-to-seed noise.
#[derive(Debug, Clone)]
pub struct Cosmologies([f64; 3]);

impl Cosmologies {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        Self([rng.unit(), rng.unit(), rng.unit()])
    }

    /// The next `(Ω_b, h, n_s)`.
    fn draw(&mut self) -> (f64, f64, f64) {
        let u = self.0;
        for (x, step) in self.0.iter_mut().zip(STEP) {
            *x = (*x + step).fract();
        }
        let at = |(lo, hi): (f64, f64), t: f64| lo + (hi - lo) * t;
        (at(OMEGA_B, u[0]), at(H, u[1]), at(N_S, u[2]))
    }

    /// A sweep over `base`: `n_ob × n_h × n_ns` shards, each axis sorted.
    pub fn sweep(&mut self, base: &RunSpec, n_ob: usize, n_h: usize, n_ns: usize) -> EnsembleSpec {
        let n = n_ob.max(n_h).max(n_ns);
        let draws: Vec<(f64, f64, f64)> = (0..n).map(|_| self.draw()).collect();
        let axis = |len: usize, pick: fn(&(f64, f64, f64)) -> f64| {
            let mut v: Vec<f64> = draws[..len].iter().map(pick).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        EnsembleSpec {
            base: base.clone(),
            omega_b: axis(n_ob, |d| d.0),
            h: axis(n_h, |d| d.1),
            n_s: axis(n_ns, |d| d.2),
        }
    }

    /// One cosmology on `base`'s grid: the only shard of a 1×1×1 sweep.
    pub fn single(&mut self, base: &RunSpec) -> RunSpec {
        self.sweep(base, 1, 1, 1).shard_spec(0)
    }
}
