//! Graph-algorithm substrate for the ZAC compiler.
//!
//! The ZAC paper (HPCA 2025) relies on three classic combinatorial routines,
//! which this crate implements from scratch:
//!
//! * [`hopcroft_karp`] — maximum-cardinality bipartite matching, used to find
//!   the largest set of *reusable* qubits between two Rydberg stages
//!   (paper Sec. V-B.1).
//! * [`assignment`] — minimum-weight full matching on a dense bipartite graph
//!   (the Jonker–Volgenant / shortest-augmenting-path algorithm, the same
//!   family SciPy's `linear_sum_assignment` uses), used for gate placement and
//!   non-reuse qubit placement (paper Sec. V-B.2/3).
//! * [`mis`] — greedy maximal independent set, used to group compatible qubit
//!   movements into rearrangement jobs (paper Sec. VI, following Enola).
//!
//! A [`reference`] module provides brute-force implementations used by the
//! property-based tests to validate the production algorithms on small inputs.
//!
//! # Example
//!
//! ```
//! use zac_graph::max_bipartite_matching;
//!
//! // 2 left vertices, 2 right vertices, a perfect matching exists.
//! let adj = vec![vec![0, 1], vec![0]];
//! let m = max_bipartite_matching(&adj, 2);
//! assert_eq!(m.iter().filter(|x| x.is_some()).count(), 2);
//! ```

pub mod assignment;
pub mod hopcroft_karp;
pub mod mis;
pub mod reference;

pub use assignment::{min_weight_full_matching, AssignmentError, AssignmentWorkspace, CostMatrix};
pub use hopcroft_karp::max_bipartite_matching;
pub use mis::{greedy_maximal_independent_set, MisWorkspace};
