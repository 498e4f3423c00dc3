//! The named algorithm family (paper Figure 2).
//!
//! The registry holds one verified algorithm per `<m̃,k̃,ñ>` shape the paper
//! evaluates. Provenance is threefold:
//!
//! 1. **Paper-exact**: Strassen's `[[U,V,W]]` transcribed from eq. (4), plus
//!    Winograd's variant.
//! 2. **Embedded JSON**: algorithms serialized under `registry/data/`,
//!    compiled in and re-verified against the Brent equations at load
//!    ([`discovered_algorithms`]). The one file, `<2,2,3>` at rank 11, was
//!    built by composition: [`crate::compose::stack_n`] of Strassen and
//!    classical `<2,2,1>`.
//! 3. **Constructive**: direct sums / nesting / symmetry orientations of the
//!    base algorithms ([`crate::compose`]). These reproduce the published
//!    ranks for the `{2,2,3}`, `{2,2,4}` and `{2,2,5}` permutation families.
//!
//! Every entry passes the exact Brent-equation check; shapes where the best
//! verified rank exceeds the published rank are reported as such by
//! [`Registry::paper_rows`] (`r_paper` vs. the registry rank).

mod discovered;
mod family;
mod strassen;

pub use self::strassen::{strassen, winograd};
pub use discovered::discovered_algorithms;
pub use family::best_constructive;

use crate::algorithm::FmmAlgorithm;
use crate::compose;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One row of the paper's Figure 2 table.
#[derive(Clone, Debug)]
pub struct PaperEntry {
    /// Partition dimensions `<m̃, k̃, ñ>`.
    pub dims: (usize, usize, usize),
    /// Rank reported in the paper (Fig. 2, column `R`).
    pub r_paper: usize,
    /// Source cited by the paper for this algorithm.
    pub source: &'static str,
}

/// The 23 `<m̃,k̃,ñ>` algorithms of the paper's Figure 2, with their
/// published ranks.
pub const PAPER_TABLE: &[PaperEntry] = &[
    PaperEntry { dims: (2, 2, 2), r_paper: 7, source: "Strassen [11]" },
    PaperEntry { dims: (2, 3, 2), r_paper: 11, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (2, 3, 4), r_paper: 20, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (2, 4, 3), r_paper: 20, source: "Ballard et al. [10]" },
    PaperEntry { dims: (2, 5, 2), r_paper: 18, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 2, 2), r_paper: 11, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 2, 3), r_paper: 15, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 2, 4), r_paper: 20, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 3, 2), r_paper: 15, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 3, 3), r_paper: 23, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 3, 6), r_paper: 40, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 4, 2), r_paper: 20, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (3, 4, 3), r_paper: 29, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 5, 3), r_paper: 36, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 6, 3), r_paper: 40, source: "Smirnov [12]" },
    PaperEntry { dims: (4, 2, 2), r_paper: 14, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 2, 3), r_paper: 20, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (4, 2, 4), r_paper: 26, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 3, 2), r_paper: 20, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 3, 3), r_paper: 29, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 4, 2), r_paper: 26, source: "Ballard et al. [10]" },
    PaperEntry { dims: (5, 2, 2), r_paper: 18, source: "Ballard et al. [10]" },
    PaperEntry { dims: (6, 3, 3), r_paper: 40, source: "Smirnov [12]" },
];

/// A catalog of verified algorithms, keyed by partition dims. For each shape
/// the registry keeps the lowest-rank algorithm known to it.
pub struct Registry {
    by_dims: BTreeMap<(usize, usize, usize), Arc<FmmAlgorithm>>,
}

impl Registry {
    /// Build the full registry: paper-exact + discovered + constructive
    /// algorithms for the 23 paper shapes (and a few bonus shapes).
    pub fn standard() -> Self {
        let mut reg = Self { by_dims: BTreeMap::new() };
        reg.insert(strassen());
        // Embedded JSON algorithms (re-verified at load).
        for algo in discovered_algorithms() {
            reg.insert_with_orientations(&algo);
        }
        // Constructive fallbacks for every paper shape not already covered
        // by something at least as good (one shared memo across shapes).
        let targets: Vec<_> = PAPER_TABLE.iter().map(|e| e.dims).collect();
        for candidate in family::best_constructive_many(&targets, &reg) {
            reg.insert(candidate);
        }
        reg
    }

    /// A globally shared instance (built once; construction verifies every
    /// algorithm, which costs a few milliseconds).
    pub fn shared() -> Arc<Registry> {
        static SHARED: Mutex<Option<Arc<Registry>>> = Mutex::new(None);
        let mut guard = SHARED.lock();
        guard.get_or_insert_with(|| Arc::new(Registry::standard())).clone()
    }

    /// Build a registry from an explicit list of algorithms (no discovered
    /// or constructive entries added). Useful for tests and for exploring
    /// what the constructive generator achieves from a given base set.
    pub fn from_algorithms(algos: Vec<FmmAlgorithm>) -> Self {
        let mut reg = Self { by_dims: BTreeMap::new() };
        for a in algos {
            reg.insert(a);
        }
        reg
    }

    /// Insert `algo` if it improves on (or first covers) its shape.
    pub fn insert(&mut self, algo: FmmAlgorithm) {
        let dims = algo.dims();
        match self.by_dims.get(&dims) {
            Some(existing) if existing.rank() <= algo.rank() => {}
            _ => {
                self.by_dims.insert(dims, Arc::new(algo));
            }
        }
    }

    /// Insert `algo` and every symmetry orientation of it.
    pub fn insert_with_orientations(&mut self, algo: &FmmAlgorithm) {
        for o in compose::all_orientations(algo) {
            self.insert(o);
        }
    }

    /// Best known algorithm for exactly these partition dims.
    pub fn get(&self, dims: (usize, usize, usize)) -> Option<Arc<FmmAlgorithm>> {
        self.by_dims.get(&dims).cloned()
    }

    /// All registered algorithms, ordered by dims.
    pub fn all(&self) -> impl Iterator<Item = &Arc<FmmAlgorithm>> {
        self.by_dims.values()
    }

    /// Number of registered shapes.
    pub fn len(&self) -> usize {
        self.by_dims.len()
    }

    /// True when no algorithms are registered.
    pub fn is_empty(&self) -> bool {
        self.by_dims.is_empty()
    }

    /// The paper's Figure 2 rows paired with this registry's algorithm for
    /// each shape (`(entry, algorithm)`).
    pub fn paper_rows(&self) -> Vec<(PaperEntry, Arc<FmmAlgorithm>)> {
        PAPER_TABLE
            .iter()
            .map(|e| {
                let algo = self
                    .get(e.dims)
                    .unwrap_or_else(|| panic!("registry must cover paper shape {:?}", e.dims));
                (e.clone(), algo)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_all_paper_shapes() {
        let reg = Registry::standard();
        for entry in PAPER_TABLE {
            let algo = reg.get(entry.dims).unwrap_or_else(|| panic!("missing {:?}", entry.dims));
            assert_eq!(algo.dims(), entry.dims);
            // Faster than classical for all paper shapes.
            assert!(
                algo.rank() < algo.classical_rank(),
                "{:?}: rank {} not fast",
                entry.dims,
                algo.rank()
            );
            // Never better than the published rank (that would be a new
            // scientific result, i.e. almost surely a bug).
            assert!(
                algo.rank() >= entry.r_paper,
                "{:?}: rank {} beats published {}",
                entry.dims,
                algo.rank(),
                entry.r_paper
            );
        }
    }

    #[test]
    fn registry_reproduces_published_ranks_for_strassen_family() {
        let reg = Registry::standard();
        for (dims, r) in [
            ((2, 2, 2), 7),
            ((2, 3, 2), 11),
            ((3, 2, 2), 11),
            ((2, 5, 2), 18),
            ((5, 2, 2), 18),
            ((4, 2, 2), 14),
        ] {
            assert_eq!(reg.get(dims).unwrap().rank(), r, "dims {dims:?}");
        }
    }

    #[test]
    fn insert_keeps_best_rank() {
        let mut reg = Registry { by_dims: BTreeMap::new() };
        reg.insert(crate::compose::classical(2, 2, 2)); // rank 8
        assert_eq!(reg.get((2, 2, 2)).unwrap().rank(), 8);
        reg.insert(strassen()); // rank 7 improves
        assert_eq!(reg.get((2, 2, 2)).unwrap().rank(), 7);
        reg.insert(crate::compose::classical(2, 2, 2)); // rank 8 ignored
        assert_eq!(reg.get((2, 2, 2)).unwrap().rank(), 7);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn shared_registry_is_memoized() {
        let a = Registry::shared();
        let b = Registry::shared();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn paper_rows_returns_23_entries() {
        let reg = Registry::standard();
        assert_eq!(reg.paper_rows().len(), 23);
    }
}
