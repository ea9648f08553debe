//! Model configuration builder.

use crate::intolerance::Intolerance;
use crate::sim::Simulation;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{window_fits, Torus, TypeField};

/// Parameters of the paper's model (§II-A) plus the simulation seed, with
/// a builder-style API.
///
/// Required: grid side `n`, horizon `w`, intolerance `τ̃`. Defaults:
/// `p = 1/2` (the paper's main setting), seed `0`.
///
/// # Example
///
/// ```
/// use seg_core::ModelConfig;
/// // Figure 1 parameters, scaled down: τ = 0.42, N = 441
/// let sim = ModelConfig::new(200, 10, 0.42).seed(1).build();
/// assert_eq!(sim.intolerance().neighborhood_size(), 441);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelConfig {
    n: u32,
    horizon: u32,
    tau_tilde: f64,
    p: f64,
    seed: u64,
}

impl ModelConfig {
    /// Starts a configuration with the three required parameters.
    ///
    /// # Panics
    ///
    /// Panics if `τ̃` is outside `[0, 1]` or the window does not fit
    /// (`2w + 1 > n`).
    pub fn new(n: u32, horizon: u32, tau_tilde: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tau_tilde),
            "intolerance must lie in [0, 1]"
        );
        assert!(window_fits(n, horizon), "window diameter exceeds grid side");
        ModelConfig {
            n,
            horizon,
            tau_tilde,
            p: 0.5,
            seed: 0,
        }
    }

    /// Sets the Bernoulli density of `+1` agents in the initial
    /// configuration (default `1/2`; the Fontes-et-al. complete-segregation
    /// experiment sweeps this).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn initial_density(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "density must lie in [0, 1]");
        self.p = p;
        self
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Grid side `n`.
    pub fn side(&self) -> u32 {
        self.n
    }

    /// Horizon `w`.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Neighborhood size `N = (2w+1)²`.
    pub fn neighborhood_size(&self) -> u32 {
        (2 * self.horizon + 1) * (2 * self.horizon + 1)
    }

    /// Initial `+1` density `p`.
    pub fn density(&self) -> f64 {
        self.p
    }

    /// The integer intolerance for this configuration.
    pub fn intolerance(&self) -> Intolerance {
        Intolerance::new(self.neighborhood_size(), self.tau_tilde)
    }

    /// Samples the initial configuration and builds the simulation.
    pub fn build(self) -> Simulation {
        let torus = Torus::new(self.n);
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        let field = TypeField::random(torus, self.p, &mut rng);
        Simulation::from_field(field, self.horizon, self.intolerance(), rng)
    }

    /// Builds the simulation around a caller-supplied initial
    /// configuration (the density setting is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the field's torus side differs from the configured `n`.
    pub fn build_with_field(self, field: TypeField) -> Simulation {
        assert_eq!(
            field.torus().side(),
            self.n,
            "field side must match configuration"
        );
        let rng = Xoshiro256pp::seed_from_u64(self.seed);
        Simulation::from_field(field, self.horizon, self.intolerance(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_grid::AgentType;

    #[test]
    fn defaults_and_accessors() {
        let c = ModelConfig::new(100, 5, 0.43);
        assert_eq!(c.side(), 100);
        assert_eq!(c.horizon(), 5);
        assert_eq!(c.neighborhood_size(), 121);
        assert_eq!(c.density(), 0.5);
    }

    #[test]
    fn build_produces_matching_simulation() {
        let sim = ModelConfig::new(64, 3, 0.4).seed(2).build();
        assert_eq!(sim.torus().side(), 64);
        assert_eq!(sim.horizon(), 3);
        assert_eq!(sim.intolerance().neighborhood_size(), 49);
    }

    #[test]
    fn density_extremes() {
        let all_plus = ModelConfig::new(32, 2, 0.4).initial_density(1.0).build();
        assert_eq!(all_plus.field().plus_total(), 32 * 32);
        let all_minus = ModelConfig::new(32, 2, 0.4).initial_density(0.0).build();
        assert_eq!(all_minus.field().plus_total(), 0);
    }

    #[test]
    fn build_with_field_uses_given_configuration() {
        let t = Torus::new(32);
        let field = TypeField::uniform(t, AgentType::Minus);
        let sim = ModelConfig::new(32, 2, 0.4).build_with_field(field);
        assert_eq!(sim.field().minus_total(), 32 * 32);
        assert!(sim.is_stable());
    }

    #[test]
    #[should_panic(expected = "window diameter")]
    fn window_must_fit() {
        let _ = ModelConfig::new(8, 4, 0.4);
    }

    #[test]
    #[should_panic(expected = "window diameter")]
    fn wrapping_horizon_is_refused() {
        // 2 · 2³¹ wraps to 0 in u32
        let _ = ModelConfig::new(16, 1 << 31, 0.45);
    }

    #[test]
    #[should_panic(expected = "field side")]
    fn field_side_mismatch_panics() {
        let t = Torus::new(16);
        let field = TypeField::uniform(t, AgentType::Plus);
        let _ = ModelConfig::new(32, 2, 0.4).build_with_field(field);
    }
}
