//! The input circuit container and builder.

use crate::gate::{Gate, OneQGate, TwoQKind};
use std::fmt;

/// Error constructing a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate references qubit `qubit` but the circuit has `num_qubits`.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The circuit's qubit count.
        num_qubits: usize,
    },
    /// A two-qubit gate was applied to identical operands.
    SameQubitTwice {
        /// The repeated operand.
        qubit: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QubitOutOfRange { qubit, num_qubits } => {
                write!(f, "qubit {qubit} out of range for {num_qubits}-qubit circuit")
            }
            Self::SameQubitTwice { qubit } => {
                write!(f, "two-qubit gate applied twice to qubit {qubit}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A quantum circuit: an ordered list of gates over `num_qubits` qubits.
///
/// Builder methods append gates and panic on invalid indices (the typical
/// usage is programmatic generation); [`Circuit::try_push`] offers the
/// fallible alternative.
///
/// # Example
///
/// ```
/// use zac_circuit::Circuit;
/// let mut c = Circuit::new("bell", 2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.num_gates(), 2);
/// assert_eq!(c.num_2q_gates(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>, num_qubits: usize) -> Self {
        Self { name: name.into(), num_qubits, gates: Vec::new() }
    }

    /// The circuit's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate list in program order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total gate count.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of two-qubit gates.
    pub fn num_2q_gates(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::TwoQ { .. })).count()
    }

    /// Number of single-qubit gates.
    pub fn num_1q_gates(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::OneQ { .. })).count()
    }

    /// Appends a gate, validating operands.
    ///
    /// # Errors
    ///
    /// [`CircuitError`] if a qubit index is out of range or a 2Q gate uses
    /// the same qubit twice.
    pub fn try_push(&mut self, gate: Gate) -> Result<&mut Self, CircuitError> {
        match gate {
            Gate::OneQ { qubit, .. } => {
                if qubit >= self.num_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        qubit,
                        num_qubits: self.num_qubits,
                    });
                }
            }
            Gate::TwoQ { a, b, .. } => {
                for q in [a, b] {
                    if q >= self.num_qubits {
                        return Err(CircuitError::QubitOutOfRange {
                            qubit: q,
                            num_qubits: self.num_qubits,
                        });
                    }
                }
                if a == b {
                    return Err(CircuitError::SameQubitTwice { qubit: a });
                }
            }
        }
        self.gates.push(gate);
        Ok(self)
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands; see [`Circuit::try_push`].
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.try_push(gate).expect("invalid gate");
        self
    }

    /// Appends a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    pub fn one_q(&mut self, gate: OneQGate, qubit: usize) -> &mut Self {
        self.push(Gate::OneQ { gate, qubit })
    }

    /// Appends a Hadamard.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.one_q(OneQGate::H, q)
    }

    /// Appends a Pauli-X.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.one_q(OneQGate::X, q)
    }

    /// Appends a Pauli-Z.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.one_q(OneQGate::Z, q)
    }

    /// Appends a T gate.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.one_q(OneQGate::T, q)
    }

    /// Appends a T† gate.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.one_q(OneQGate::Tdg, q)
    }

    /// Appends an Rx rotation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.one_q(OneQGate::Rx(theta), q)
    }

    /// Appends an Ry rotation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.one_q(OneQGate::Ry(theta), q)
    }

    /// Appends an Rz rotation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.one_q(OneQGate::Rz(theta), q)
    }

    /// Appends a CX (CNOT) with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::TwoQ { kind: TwoQKind::Cx, a: c, b: t })
    }

    /// Appends a CZ.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::TwoQ { kind: TwoQKind::Cz, a, b })
    }

    /// Appends a controlled-phase gate.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn cp(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.push(Gate::TwoQ { kind: TwoQKind::Cp(theta), a, b })
    }

    /// Appends a SWAP.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::TwoQ { kind: TwoQKind::Swap, a, b })
    }

    /// Appends the standard 6-CX Toffoli decomposition with controls
    /// `a`, `b` and target `c`.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn ccx_decomposed(&mut self, a: usize, b: usize, c: usize) -> &mut Self {
        self.h(c)
            .cx(b, c)
            .tdg(c)
            .cx(a, c)
            .t(c)
            .cx(b, c)
            .tdg(c)
            .cx(a, c)
            .t(b)
            .t(c)
            .h(c)
            .cx(a, b)
            .t(a)
            .tdg(b)
            .cx(a, b)
    }

    /// Appends a controlled-SWAP (Fredkin) as CX–Toffoli–CX.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn cswap_decomposed(&mut self, ctrl: usize, x: usize, y: usize) -> &mut Self {
        self.cx(y, x).ccx_decomposed(ctrl, x, y).cx(y, x)
    }

    /// Appends the qelib1 controlled-Y decomposition (`sdg t; cx c,t; s t`).
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn cy_decomposed(&mut self, c: usize, t: usize) -> &mut Self {
        self.one_q(OneQGate::Sdg, t).cx(c, t).one_q(OneQGate::S, t)
    }

    /// Appends the qelib1 controlled-Hadamard decomposition (2 CX).
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn ch_decomposed(&mut self, c: usize, t: usize) -> &mut Self {
        self.h(t)
            .one_q(OneQGate::Sdg, t)
            .cx(c, t)
            .h(t)
            .t(t)
            .cx(c, t)
            .t(t)
            .h(t)
            .one_q(OneQGate::S, t)
            .x(t)
            .one_q(OneQGate::S, c)
    }

    /// Appends the qelib1 controlled-Rz(λ) decomposition (2 CX): on a set
    /// control the target sees exactly `Rz(λ)`.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn crz_decomposed(&mut self, lambda: f64, c: usize, t: usize) -> &mut Self {
        self.rz(lambda / 2.0, t).cx(c, t).rz(-lambda / 2.0, t).cx(c, t)
    }

    /// Appends the qelib1 controlled-U3(θ, φ, λ) decomposition (2 CX).
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn cu3_decomposed(
        &mut self,
        theta: f64,
        phi: f64,
        lambda: f64,
        c: usize,
        t: usize,
    ) -> &mut Self {
        self.one_q(OneQGate::Phase((lambda + phi) / 2.0), c)
            .one_q(OneQGate::Phase((lambda - phi) / 2.0), t)
            .cx(c, t)
            .one_q(OneQGate::U3 { theta: -theta / 2.0, phi: 0.0, lambda: -(phi + lambda) / 2.0 }, t)
            .cx(c, t)
            .one_q(OneQGate::U3 { theta: theta / 2.0, phi, lambda: 0.0 }, t)
    }

    /// Appends the qelib1 √X decomposition (`sdg; h; sdg`), which equals
    /// `Rx(π/2)` = e^{-iπ/4}·SX (qelib1 defines `sx` with a global phase of
    /// π/4; exactness up to that phase is statevector-verified in
    /// `tests/corpus.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn sx_decomposed(&mut self, q: usize) -> &mut Self {
        self.one_q(OneQGate::Sdg, q).h(q).one_q(OneQGate::Sdg, q)
    }

    /// Appends the qelib1 √X† decomposition (`s; h; s`), which equals
    /// `Rx(-π/2)` = e^{iπ/4}·SX†.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn sxdg_decomposed(&mut self, q: usize) -> &mut Self {
        self.one_q(OneQGate::S, q).h(q).one_q(OneQGate::S, q)
    }

    /// Appends the qelib1 ZZ-rotation decomposition (`cx; u1(θ) b; cx`),
    /// i.e. `diag(1, e^{iθ}, e^{iθ}, 1)` — qelib1's phase convention.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn rzz_decomposed(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.cx(a, b).one_q(OneQGate::Phase(theta), b).cx(a, b)
    }

    /// The multiset of 2Q interaction pairs `(min, max)`, in program order.
    pub fn interaction_pairs(&self) -> Vec<(usize, usize)> {
        self.gates
            .iter()
            .filter_map(|g| match *g {
                Gate::TwoQ { a, b, .. } => Some((a.min(b), a.max(b))),
                Gate::OneQ { .. } => None,
            })
            .collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({} qubits, {} 2Q, {} 1Q)",
            self.name,
            self.num_qubits,
            self.num_2q_gates(),
            self.num_1q_gates()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut c = Circuit::new("t", 3);
        c.h(0).cx(0, 1).cz(1, 2).rz(0.5, 2);
        assert_eq!(c.num_gates(), 4);
        assert_eq!(c.num_2q_gates(), 2);
        assert_eq!(c.num_1q_gates(), 2);
        assert_eq!(c.interaction_pairs(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = Circuit::new("t", 2);
        let err = c.try_push(Gate::OneQ { gate: OneQGate::H, qubit: 2 }).unwrap_err();
        assert_eq!(err, CircuitError::QubitOutOfRange { qubit: 2, num_qubits: 2 });
    }

    #[test]
    fn same_qubit_twice_rejected() {
        let mut c = Circuit::new("t", 2);
        let err = c.try_push(Gate::TwoQ { kind: TwoQKind::Cx, a: 1, b: 1 }).unwrap_err();
        assert_eq!(err, CircuitError::SameQubitTwice { qubit: 1 });
    }

    #[test]
    #[should_panic(expected = "invalid gate")]
    fn push_panics_on_invalid() {
        Circuit::new("t", 1).cx(0, 1);
    }

    #[test]
    fn toffoli_decomposition_shape() {
        let mut c = Circuit::new("ccx", 3);
        c.ccx_decomposed(0, 1, 2);
        assert_eq!(c.num_2q_gates(), 6);
        assert_eq!(c.num_1q_gates(), 9);
    }

    #[test]
    fn cswap_decomposition_shape() {
        let mut c = Circuit::new("cswap", 3);
        c.cswap_decomposed(0, 1, 2);
        assert_eq!(c.num_2q_gates(), 8);
    }

    #[test]
    fn qelib1_controlled_decomposition_shapes() {
        let mut c = Circuit::new("cy", 2);
        c.cy_decomposed(0, 1);
        assert_eq!((c.num_2q_gates(), c.num_1q_gates()), (1, 2));
        let mut c = Circuit::new("ch", 2);
        c.ch_decomposed(0, 1);
        assert_eq!((c.num_2q_gates(), c.num_1q_gates()), (2, 9));
        let mut c = Circuit::new("crz", 2);
        c.crz_decomposed(0.5, 0, 1);
        assert_eq!((c.num_2q_gates(), c.num_1q_gates()), (2, 2));
        let mut c = Circuit::new("cu3", 2);
        c.cu3_decomposed(0.1, 0.2, 0.3, 0, 1);
        assert_eq!((c.num_2q_gates(), c.num_1q_gates()), (2, 4));
        let mut c = Circuit::new("rzz", 2);
        c.rzz_decomposed(0.7, 0, 1);
        assert_eq!((c.num_2q_gates(), c.num_1q_gates()), (2, 1));
        let mut c = Circuit::new("sx", 1);
        c.sx_decomposed(0).sxdg_decomposed(0);
        assert_eq!((c.num_2q_gates(), c.num_1q_gates()), (0, 6));
    }

    #[test]
    fn display_shows_counts() {
        let mut c = Circuit::new("demo", 2);
        c.h(0).cx(0, 1);
        assert_eq!(c.to_string(), "demo(2 qubits, 1 2Q, 1 1Q)");
    }
}
