//! Staged circuits: the output of preprocessing (paper Fig. 4).
//!
//! After resynthesis to {CZ, U3} and 1Q-gate optimization, the circuit is
//! organized into *Rydberg stages*: sets of CZ gates that execute under one
//! Rydberg exposure, with the invariant that each qubit participates in at
//! most one gate per stage. U3 gates are attached to the stage they precede.

use std::collections::HashSet;
use std::fmt;

/// A hardware 1Q gate `U3(θ, φ, λ)` on a specific qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct U3Op {
    /// Target qubit.
    pub qubit: usize,
    /// θ parameter.
    pub theta: f64,
    /// φ parameter.
    pub phi: f64,
    /// λ parameter.
    pub lambda: f64,
}

/// A CZ gate within a staged circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gate2 {
    /// Unique id within the staged circuit (program order).
    pub id: usize,
    /// First qubit (the smaller index; CZ is symmetric).
    pub a: usize,
    /// Second qubit.
    pub b: usize,
}

impl Gate2 {
    /// Whether the gate acts on `q`.
    pub fn touches(&self, q: usize) -> bool {
        self.a == q || self.b == q
    }

    /// The other operand of the gate, given one of its qubits.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not an operand.
    pub fn other(&self, q: usize) -> usize {
        if q == self.a {
            self.b
        } else {
            assert_eq!(q, self.b, "qubit {q} not in gate {self:?}");
            self.a
        }
    }
}

/// One Rydberg stage: optional preceding 1Q gates, then parallel CZs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RydbergStage {
    /// U3 gates scheduled before this stage's Rydberg exposure.
    pub pre_1q: Vec<U3Op>,
    /// CZ gates executed in this stage (disjoint qubit sets).
    pub gates: Vec<Gate2>,
}

/// Invariant violations detected by [`StagedCircuit::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// A qubit appears in two gates of one stage.
    QubitConflict {
        /// The stage index.
        stage: usize,
        /// The conflicting qubit.
        qubit: usize,
    },
    /// A qubit index is out of range.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: usize,
    },
    /// Two gates share an id.
    DuplicateGateId {
        /// The repeated id.
        id: usize,
    },
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QubitConflict { stage, qubit } => {
                write!(f, "qubit {qubit} used twice in stage {stage}")
            }
            Self::QubitOutOfRange { qubit } => write!(f, "qubit {qubit} out of range"),
            Self::DuplicateGateId { id } => write!(f, "duplicate gate id {id}"),
        }
    }
}

impl std::error::Error for StageError {}

/// A preprocessed circuit: Rydberg stages over the {CZ, U3} gate set.
///
/// Produced by [`crate::preprocess::preprocess`]; consumed by the placement
/// and scheduling stages of every compiler in this workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedCircuit {
    /// Source circuit name.
    pub name: String,
    /// Number of qubits.
    pub num_qubits: usize,
    /// The Rydberg stages, in execution order.
    pub stages: Vec<RydbergStage>,
    /// U3 gates after the final Rydberg stage.
    pub trailing_1q: Vec<U3Op>,
}

impl StagedCircuit {
    /// Total CZ count (`g2` in the fidelity model).
    pub fn num_2q_gates(&self) -> usize {
        self.stages.iter().map(|s| s.gates.len()).sum()
    }

    /// Total U3 count (`g1` in the fidelity model).
    pub fn num_1q_gates(&self) -> usize {
        self.stages.iter().map(|s| s.pre_1q.len()).sum::<usize>() + self.trailing_1q.len()
    }

    /// Number of Rydberg stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Largest number of parallel CZs in any stage.
    pub fn max_parallelism(&self) -> usize {
        self.stages.iter().map(|s| s.gates.len()).max().unwrap_or(0)
    }

    /// All CZ gates with their stage index, in stage order.
    pub fn gates_with_stage(&self) -> impl Iterator<Item = (usize, &Gate2)> + '_ {
        self.stages.iter().enumerate().flat_map(|(t, s)| s.gates.iter().map(move |g| (t, g)))
    }

    /// Returns a copy where no stage holds more than `max` gates: oversized
    /// stages are split into consecutive chunks (their `pre_1q` gates stay
    /// with the first chunk).
    ///
    /// Used when a stage's parallelism exceeds the architecture's Rydberg
    /// site count — e.g. the FTQC hIQP workload, whose 64-gate CNOT layers
    /// split into ⌈64/15⌉ = 5 exposures on the 15-site logical architecture
    /// (paper Sec. VIII).
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    pub fn with_max_stage_width(&self, max: usize) -> StagedCircuit {
        assert!(max > 0, "stage width must be positive");
        let mut stages = Vec::new();
        for stage in &self.stages {
            if stage.gates.len() <= max {
                stages.push(stage.clone());
            } else {
                for (i, chunk) in stage.gates.chunks(max).enumerate() {
                    stages.push(RydbergStage {
                        pre_1q: if i == 0 { stage.pre_1q.clone() } else { Vec::new() },
                        gates: chunk.to_vec(),
                    });
                }
            }
        }
        StagedCircuit {
            name: self.name.clone(),
            num_qubits: self.num_qubits,
            stages,
            trailing_1q: self.trailing_1q.clone(),
        }
    }

    /// Checks the staged-circuit invariants.
    ///
    /// # Errors
    ///
    /// A [`StageError`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), StageError> {
        let mut ids = HashSet::new();
        for (t, stage) in self.stages.iter().enumerate() {
            let mut used = HashSet::new();
            for g in &stage.gates {
                for q in [g.a, g.b] {
                    if q >= self.num_qubits {
                        return Err(StageError::QubitOutOfRange { qubit: q });
                    }
                    if !used.insert(q) {
                        return Err(StageError::QubitConflict { stage: t, qubit: q });
                    }
                }
                if !ids.insert(g.id) {
                    return Err(StageError::DuplicateGateId { id: g.id });
                }
            }
            for op in &stage.pre_1q {
                if op.qubit >= self.num_qubits {
                    return Err(StageError::QubitOutOfRange { qubit: op.qubit });
                }
            }
        }
        for op in &self.trailing_1q {
            if op.qubit >= self.num_qubits {
                return Err(StageError::QubitOutOfRange { qubit: op.qubit });
            }
        }
        Ok(())
    }
}

impl fmt::Display for StagedCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} qubits, {} stages, {} CZ, {} U3",
            self.name,
            self.num_qubits,
            self.num_stages(),
            self.num_2q_gates(),
            self.num_1q_gates()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StagedCircuit {
        StagedCircuit {
            name: "s".into(),
            num_qubits: 4,
            stages: vec![
                RydbergStage {
                    pre_1q: vec![U3Op { qubit: 0, theta: 1.0, phi: 0.0, lambda: 0.0 }],
                    gates: vec![Gate2 { id: 0, a: 0, b: 1 }, Gate2 { id: 1, a: 2, b: 3 }],
                },
                RydbergStage { pre_1q: vec![], gates: vec![Gate2 { id: 2, a: 1, b: 2 }] },
            ],
            trailing_1q: vec![U3Op { qubit: 3, theta: 0.5, phi: 0.0, lambda: 0.0 }],
        }
    }

    #[test]
    fn counts() {
        let s = sample();
        assert_eq!(s.num_2q_gates(), 3);
        assert_eq!(s.num_1q_gates(), 2);
        assert_eq!(s.num_stages(), 2);
        assert_eq!(s.max_parallelism(), 2);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn gate_other() {
        let g = Gate2 { id: 0, a: 2, b: 5 };
        assert_eq!(g.other(2), 5);
        assert_eq!(g.other(5), 2);
        assert!(g.touches(2) && g.touches(5) && !g.touches(3));
    }

    #[test]
    #[should_panic(expected = "not in gate")]
    fn gate_other_panics() {
        Gate2 { id: 0, a: 2, b: 5 }.other(1);
    }

    #[test]
    fn validate_detects_conflict() {
        let mut s = sample();
        s.stages[0].gates.push(Gate2 { id: 9, a: 1, b: 3 });
        assert_eq!(s.validate().unwrap_err(), StageError::QubitConflict { stage: 0, qubit: 1 });
    }

    #[test]
    fn validate_detects_out_of_range() {
        let mut s = sample();
        s.trailing_1q.push(U3Op { qubit: 4, theta: 0.0, phi: 0.0, lambda: 0.0 });
        assert_eq!(s.validate().unwrap_err(), StageError::QubitOutOfRange { qubit: 4 });
    }

    #[test]
    fn validate_detects_duplicate_id() {
        let mut s = sample();
        s.stages[1].gates.push(Gate2 { id: 0, a: 0, b: 3 });
        assert_eq!(s.validate().unwrap_err(), StageError::DuplicateGateId { id: 0 });
    }

    #[test]
    fn stage_splitting_respects_width() {
        let s = sample();
        let split = s.with_max_stage_width(1);
        assert_eq!(split.num_stages(), 3);
        assert!(split.stages.iter().all(|st| st.gates.len() <= 1));
        assert_eq!(split.num_2q_gates(), s.num_2q_gates());
        assert_eq!(split.num_1q_gates(), s.num_1q_gates());
        assert!(split.validate().is_ok());
        // pre-1Q gates stay with the first chunk.
        assert_eq!(split.stages[0].pre_1q.len(), 1);
        assert!(split.stages[1].pre_1q.is_empty());
    }

    #[test]
    fn stage_splitting_noop_when_wide_enough() {
        let s = sample();
        assert_eq!(s.with_max_stage_width(10), s);
    }

    #[test]
    #[should_panic(expected = "stage width must be positive")]
    fn stage_splitting_zero_panics() {
        sample().with_max_stage_width(0);
    }
}
