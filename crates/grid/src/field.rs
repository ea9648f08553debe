//! The ±1 agent-type field on the torus.

use crate::rng::Xoshiro256pp;
use crate::{Point, Torus};

/// The two agent types of the model.
///
/// The paper writes them `(+1)` and `(-1)`; the initial configuration places
/// a `Plus` at each node independently with probability `p` (§II-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum AgentType {
    /// The `(-1)` type.
    Minus,
    /// The `(+1)` type.
    Plus,
}

impl AgentType {
    /// The opposite type.
    #[inline]
    pub fn flipped(self) -> AgentType {
        match self {
            AgentType::Plus => AgentType::Minus,
            AgentType::Minus => AgentType::Plus,
        }
    }

    /// The spin value `+1` or `-1`.
    #[inline]
    pub fn spin(self) -> i8 {
        match self {
            AgentType::Plus => 1,
            AgentType::Minus => -1,
        }
    }
}

impl std::fmt::Display for AgentType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentType::Plus => write!(f, "+1"),
            AgentType::Minus => write!(f, "-1"),
        }
    }
}

/// An assignment of an [`AgentType`] to every vertex of a [`Torus`].
///
/// This is the raw configuration σ of the process. The dynamics layer
/// (`seg-core`) owns a `TypeField` plus incremental bookkeeping; analysis
/// code reads fields directly.
///
/// # Example
///
/// ```
/// use seg_grid::{Torus, TypeField, AgentType, rng::Xoshiro256pp};
/// let t = Torus::new(32);
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// let f = TypeField::random(t, 0.5, &mut rng);
/// let plus = f.plus_total();
/// assert_eq!(plus + f.minus_total(), t.len());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeField {
    torus: Torus,
    types: Vec<AgentType>,
}

impl TypeField {
    /// A field with every agent of the given `fill` type.
    pub fn uniform(torus: Torus, fill: AgentType) -> Self {
        TypeField {
            torus,
            types: vec![fill; torus.len()],
        }
    }

    /// Samples the paper's initial configuration: each agent is `Plus`
    /// independently with probability `p` (Bernoulli(p), §II-A; the main
    /// results take `p = 1/2`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn random(torus: Torus, p: f64, rng: &mut Xoshiro256pp) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        let types = (0..torus.len())
            .map(|_| {
                if rng.next_bool(p) {
                    AgentType::Plus
                } else {
                    AgentType::Minus
                }
            })
            .collect();
        TypeField { torus, types }
    }

    /// Builds a field from an explicit row-major type vector.
    ///
    /// # Panics
    ///
    /// Panics if `types.len() != torus.len()`.
    pub fn from_types(torus: Torus, types: Vec<AgentType>) -> Self {
        assert_eq!(
            types.len(),
            torus.len(),
            "type vector length must equal torus size"
        );
        TypeField { torus, types }
    }

    /// Builds a field from a function of position (useful for crafting the
    /// paper's geometric configurations in tests: firewalls, radical
    /// regions, ...).
    pub fn from_fn(torus: Torus, mut f: impl FnMut(Point) -> AgentType) -> Self {
        let types = (0..torus.len()).map(|i| f(torus.from_index(i))).collect();
        TypeField { torus, types }
    }

    /// The underlying torus.
    #[inline]
    pub fn torus(&self) -> Torus {
        self.torus
    }

    /// Type of the agent at `p`.
    #[inline]
    pub fn get(&self, p: Point) -> AgentType {
        self.types[self.torus.index(p)]
    }

    /// Type of the agent at a linear index.
    #[inline]
    pub fn get_index(&self, i: usize) -> AgentType {
        self.types[i]
    }

    /// Sets the type of the agent at `p`.
    #[inline]
    pub fn set(&mut self, p: Point, t: AgentType) {
        let i = self.torus.index(p);
        self.types[i] = t;
    }

    /// Flips the agent at `p`, returning its new type.
    #[inline]
    pub fn flip(&mut self, p: Point) -> AgentType {
        let i = self.torus.index(p);
        self.types[i] = self.types[i].flipped();
        self.types[i]
    }

    /// Number of `(+1)` agents in the whole field.
    pub fn plus_total(&self) -> usize {
        self.types.iter().filter(|t| **t == AgentType::Plus).count()
    }

    /// Number of `(-1)` agents in the whole field.
    pub fn minus_total(&self) -> usize {
        self.torus.len() - self.plus_total()
    }

    /// Whether every agent has the same type (complete segregation, §V).
    pub fn is_monochromatic(&self) -> bool {
        self.types.windows(2).all(|w| w[0] == w[1])
    }

    /// Iterates `(Point, AgentType)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Point, AgentType)> + '_ {
        self.types
            .iter()
            .enumerate()
            .map(move |(i, t)| (self.torus.from_index(i), *t))
    }

    /// Raw row-major slice of types.
    pub fn as_slice(&self) -> &[AgentType] {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_type_flip_involution() {
        assert_eq!(AgentType::Plus.flipped(), AgentType::Minus);
        assert_eq!(AgentType::Minus.flipped().flipped(), AgentType::Minus);
    }

    #[test]
    fn uniform_field_is_monochromatic() {
        let t = Torus::new(8);
        let f = TypeField::uniform(t, AgentType::Minus);
        assert!(f.is_monochromatic());
        assert_eq!(f.minus_total(), 64);
        assert_eq!(f.plus_total(), 0);
    }

    #[test]
    fn random_field_density_near_p() {
        let t = Torus::new(128);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let f = TypeField::random(t, 0.25, &mut rng);
        let frac = f.plus_total() as f64 / t.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn flip_changes_exactly_one_site() {
        let t = Torus::new(4);
        let mut f = TypeField::uniform(t, AgentType::Plus);
        let p = t.point(1, 2);
        let new = f.flip(p);
        assert_eq!(new, AgentType::Minus);
        assert_eq!(f.get(p), AgentType::Minus);
        assert_eq!(f.plus_total(), 15);
    }

    #[test]
    fn from_fn_draws_pattern() {
        let t = Torus::new(4);
        let f = TypeField::from_fn(t, |p| {
            if (p.x + p.y) % 2 == 0 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        assert_eq!(f.plus_total(), 8);
        assert_eq!(f.get(t.point(0, 0)), AgentType::Plus);
        assert_eq!(f.get(t.point(1, 0)), AgentType::Minus);
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn from_types_wrong_length_panics() {
        let t = Torus::new(4);
        let _ = TypeField::from_types(t, vec![AgentType::Plus; 3]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn random_bad_p_panics() {
        let t = Torus::new(4);
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let _ = TypeField::random(t, 1.5, &mut rng);
    }
}
