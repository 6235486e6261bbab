//! OpenQASM 2.0 import/export.
//!
//! QASMBench — the paper's benchmark source — ships OpenQASM 2.0 files, so
//! this module provides the real-world input path: a parser covering the
//! `qelib1.inc` gate vocabulary the suite uses (with Toffoli/Fredkin lowered
//! through the standard decompositions) and an emitter that round-trips any
//! [`Circuit`].
//!
//! Supported statements: `OPENQASM 2.0;`, `include`, `qreg`, `creg`, gate
//! applications on indexed (`q[3]`) or whole-register broadcast (`h q;`)
//! operands, user `gate name(params) args { ... }` definitions (inlined by
//! macro expansion with formal-parameter substitution), `barrier` (ignored),
//! `measure` (ignored — the paper's flow compiles the unitary part).
//! Classical control (`if`), `reset`, and `opaque` are not supported and
//! produce a clear error.
//!
//! Statement heads are split with a depth-aware scan, so nested parentheses
//! in gate parameters (`cu1((1+2)*pi/8) q[0],q[1];`) and whitespace between
//! the gate name and its parameter list (`rz (pi/4) q[0];`) both parse.

use crate::circuit::Circuit;
use crate::gate::OneQGate;
use crate::Gate;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::fmt;

/// Gate-definition bodies may reference earlier user gates; this bounds the
/// expansion so a (malformed) self-referential definition errors instead of
/// recursing forever.
const MAX_EXPANSION_DEPTH: usize = 16;

/// Parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qasm parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QasmError {}

fn err(line: usize, message: impl Into<String>) -> QasmError {
    QasmError { line, message: message.into() }
}

/// A tiny expression evaluator for gate parameters: numbers, `pi`, bound
/// identifiers (`vars` — formal parameters during gate-definition
/// expansion), the qelib1 unary functions (`sin cos tan exp ln sqrt`),
/// unary minus, `+ - * /`, and parentheses.
fn eval_expr(src: &str, line: usize, vars: &HashMap<String, f64>) -> Result<f64, QasmError> {
    struct P<'a> {
        s: &'a [u8],
        i: usize,
        line: usize,
        vars: &'a HashMap<String, f64>,
    }
    impl P<'_> {
        fn peek(&self) -> Option<u8> {
            self.s.get(self.i).copied()
        }
        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
                self.i += 1;
            }
        }
        fn expr(&mut self) -> Result<f64, QasmError> {
            let mut v = self.term()?;
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'+') => {
                        self.i += 1;
                        v += self.term()?;
                    }
                    Some(b'-') => {
                        self.i += 1;
                        v -= self.term()?;
                    }
                    _ => return Ok(v),
                }
            }
        }
        fn term(&mut self) -> Result<f64, QasmError> {
            let mut v = self.factor()?;
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b'*') => {
                        self.i += 1;
                        v *= self.factor()?;
                    }
                    Some(b'/') => {
                        self.i += 1;
                        v /= self.factor()?;
                    }
                    _ => return Ok(v),
                }
            }
        }
        fn paren_arg(&mut self) -> Result<f64, QasmError> {
            self.skip_ws();
            if self.peek() != Some(b'(') {
                return Err(err(self.line, "expected '(' in expression"));
            }
            self.i += 1;
            let v = self.expr()?;
            self.skip_ws();
            if self.peek() == Some(b')') {
                self.i += 1;
                Ok(v)
            } else {
                Err(err(self.line, "missing ')' in expression"))
            }
        }
        fn factor(&mut self) -> Result<f64, QasmError> {
            self.skip_ws();
            match self.peek() {
                Some(b'-') => {
                    self.i += 1;
                    Ok(-self.factor()?)
                }
                Some(b'+') => {
                    self.i += 1;
                    self.factor()
                }
                Some(b'(') => self.paren_arg(),
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                    let start = self.i;
                    while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                        self.i += 1;
                    }
                    let id = std::str::from_utf8(&self.s[start..self.i])
                        .expect("identifier bytes are ASCII");
                    if id.eq_ignore_ascii_case("pi") {
                        return Ok(PI);
                    }
                    if let Some(&v) = self.vars.get(id) {
                        return Ok(v);
                    }
                    let f: fn(f64) -> f64 = match id {
                        "sin" => f64::sin,
                        "cos" => f64::cos,
                        "tan" => f64::tan,
                        "exp" => f64::exp,
                        "ln" => f64::ln,
                        "sqrt" => f64::sqrt,
                        _ => {
                            return Err(err(
                                self.line,
                                format!("unknown identifier '{id}' in expression"),
                            ))
                        }
                    };
                    Ok(f(self.paren_arg()?))
                }
                Some(c) if c.is_ascii_digit() || c == b'.' => {
                    let start = self.i;
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E')
                    {
                        self.i += 1;
                        // Allow exponent signs.
                        if matches!(self.s.get(self.i.wrapping_sub(1)), Some(b'e') | Some(b'E'))
                            && matches!(self.peek(), Some(b'+') | Some(b'-'))
                        {
                            self.i += 1;
                        }
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(self.line, "malformed number"))
                }
                _ => Err(err(self.line, "malformed expression")),
            }
        }
    }
    let mut p = P { s: src.as_bytes(), i: 0, line, vars };
    let v = p.expr()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(err(line, format!("trailing characters in expression '{src}'")));
    }
    Ok(v)
}

/// Strips comments and splits `source` into `(line, statement)` pairs.
///
/// Statements end at `;` outside braces; a `gate … { … }` definition (whose
/// body contains `;`-separated statements) stays one unit, terminated by
/// its closing `}`.
fn split_statements(source: &str) -> Vec<(usize, String)> {
    let mut cleaned = String::new();
    for (ln, raw) in source.lines().enumerate() {
        let line = match raw.find("//") {
            Some(p) => &raw[..p],
            None => raw,
        };
        cleaned.push_str(line);
        // Keep a line marker so statements know their origin.
        cleaned.push_str(&format!("\u{0}{}\u{0}", ln + 1));
    }

    let mut raw_stmts: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut depth = 0usize;
    for ch in cleaned.chars() {
        match ch {
            '{' => {
                depth += 1;
                cur.push(ch);
            }
            '}' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
                if depth == 0 {
                    raw_stmts.push(std::mem::take(&mut cur));
                }
            }
            ';' if depth == 0 => raw_stmts.push(std::mem::take(&mut cur)),
            _ => cur.push(ch),
        }
    }
    raw_stmts.push(cur);

    let mut out = Vec::new();
    let mut current_line = 1usize;
    for stmt in raw_stmts {
        let mut text = String::new();
        // Content and markers strictly alternate (every marker is wrapped
        // in a NUL pair and statement boundaries fall inside content), so
        // odd-indexed pieces are always markers — statement content that
        // happens to be a bare number is never mistaken for one.
        for (idx, piece) in stmt.split('\u{0}').enumerate() {
            if idx % 2 == 1 {
                // A marker for line n sits at the end of line n, so content
                // after it belongs to line n+1.
                if text.trim().is_empty() {
                    if let Ok(n) = piece.trim().parse::<usize>() {
                        current_line = n + 1;
                    }
                }
                continue;
            }
            text.push_str(piece);
            text.push(' ');
        }
        let text = text.trim().to_string();
        if !text.is_empty() {
            out.push((current_line, text));
        }
    }
    out
}

/// The leading identifier of a statement (empty if none); classifies the
/// statement kind.
fn keyword(stmt: &str) -> &str {
    let s = stmt.trim_start();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    &s[..i]
}

fn is_identifier(s: &str) -> bool {
    let b = s.as_bytes();
    !b.is_empty()
        && (b[0].is_ascii_alphabetic() || b[0] == b'_')
        && b.iter().all(|c| c.is_ascii_alphanumeric() || *c == b'_')
}

/// Splits a gate-application head into `(name, parameter source, operand
/// source)` with a depth-aware scan: nested parentheses in parameters and
/// whitespace between the name and `(` are both fine.
fn split_head(stmt: &str, line: usize) -> Result<(&str, Option<&str>, &str), QasmError> {
    let s = stmt.trim();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    if i == 0 {
        return Err(err(line, format!("expected a gate name in '{s}'")));
    }
    let name = &s[..i];
    let rest = s[i..].trim_start();
    if let Some(stripped) = rest.strip_prefix('(') {
        let mut depth = 1usize;
        for (j, ch) in stripped.char_indices() {
            match ch {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok((name, Some(&stripped[..j]), &stripped[j + 1..]));
                    }
                }
                _ => {}
            }
        }
        Err(err(line, "missing ')' in gate parameters"))
    } else {
        Ok((name, None, rest))
    }
}

/// Splits on commas at parenthesis depth 0, so parameter expressions with
/// their own commas-in-parens never confuse the list structure.
fn split_top_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn eval_params(
    params_src: Option<&str>,
    line: usize,
    vars: &HashMap<String, f64>,
) -> Result<Vec<f64>, QasmError> {
    match params_src {
        Some(src) => split_top_commas(src)
            .iter()
            .filter(|e| !e.trim().is_empty())
            .map(|e| eval_expr(e.trim(), line, vars))
            .collect(),
        None => Ok(Vec::new()),
    }
}

/// A user `gate` definition, stored for macro expansion at application time.
#[derive(Debug, Clone)]
struct GateDef {
    /// Formal parameter names.
    params: Vec<String>,
    /// Formal qubit argument names.
    args: Vec<String>,
    /// Body statements (gate applications on the formal names).
    body: Vec<String>,
}

fn parse_gate_def(stmt: &str, line: usize) -> Result<(String, GateDef), QasmError> {
    let open = stmt.find('{').ok_or_else(|| err(line, "gate definition missing '{'"))?;
    let close = stmt.rfind('}').ok_or_else(|| err(line, "gate definition missing '}'"))?;
    if close < open {
        return Err(err(line, "malformed gate definition"));
    }
    let head = stmt[..open]
        .trim()
        .strip_prefix("gate")
        .ok_or_else(|| err(line, "malformed gate definition"))?;
    let (name, params_src, args_src) = split_head(head, line)?;
    let params: Vec<String> = match params_src {
        Some(src) => split_top_commas(src)
            .iter()
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect(),
        None => Vec::new(),
    };
    let args: Vec<String> =
        args_src.split(',').map(|a| a.trim().to_string()).filter(|a| !a.is_empty()).collect();
    if args.is_empty() {
        return Err(err(line, format!("gate '{name}' declares no qubit arguments")));
    }
    for ident in params.iter().chain(&args) {
        if !is_identifier(ident) {
            return Err(err(line, format!("malformed name '{ident}' in gate definition")));
        }
    }
    let body = stmt[open + 1..close]
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    Ok((name.to_string(), GateDef { params, args, body }))
}

/// A resolved gate operand: a single qubit (`q[3]`), or a whole register
/// (`q`) / register slice (`q[2:5]`, inclusive ends as in OpenQASM 3),
/// either of which broadcasts across its qubits.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Single(usize),
    Reg { offset: usize, size: usize },
}

fn resolve_operand(
    text: &str,
    line: usize,
    regs: &HashMap<String, (usize, usize)>,
) -> Result<Operand, QasmError> {
    let t = text.trim();
    if let Some(open) = t.find('[') {
        let close =
            t.find(']').filter(|&c| c > open).ok_or_else(|| err(line, "missing ']' in operand"))?;
        let rname = t[..open].trim();
        let &(offset, size) =
            regs.get(rname).ok_or_else(|| err(line, format!("unknown register '{rname}'")))?;
        let index_text = t[open + 1..close].trim();
        if let Some((lo_text, hi_text)) = index_text.split_once(':') {
            // Register slice `q[lo:hi]`: both ends inclusive, broadcast like
            // a whole register of width `hi - lo + 1`.
            let parse = |s: &str| -> Result<usize, QasmError> {
                s.trim().parse().map_err(|_| err(line, format!("malformed slice bound '{s}'")))
            };
            let (lo, hi) = (parse(lo_text)?, parse(hi_text)?);
            if lo > hi {
                return Err(err(line, format!("reversed slice {rname}[{lo}:{hi}]")));
            }
            if hi >= size {
                return Err(err(
                    line,
                    format!("slice {rname}[{lo}:{hi}] out of range for {rname}[{size}]"),
                ));
            }
            return Ok(Operand::Reg { offset: offset + lo, size: hi - lo + 1 });
        }
        let idx: usize = index_text.parse().map_err(|_| err(line, "malformed qubit index"))?;
        if idx >= size {
            return Err(err(line, format!("index {idx} out of range for {rname}[{size}]")));
        }
        Ok(Operand::Single(offset + idx))
    } else {
        let &(offset, size) =
            regs.get(t).ok_or_else(|| err(line, format!("unknown register '{t}'")))?;
        Ok(Operand::Reg { offset, size })
    }
}

/// Expands register broadcast per the OpenQASM 2.0 spec: every whole-
/// register operand must have the same size `n`, and the statement applies
/// `n` times with indexed operands held fixed.
fn expand_broadcast(operands: &[Operand], line: usize) -> Result<Vec<Vec<usize>>, QasmError> {
    let mut width: Option<usize> = None;
    for op in operands {
        if let Operand::Reg { size, .. } = *op {
            match width {
                None => width = Some(size),
                Some(w) if w == size => {}
                Some(w) => {
                    return Err(err(
                        line,
                        format!("mismatched register sizes in broadcast: {w} vs {size}"),
                    ))
                }
            }
        }
    }
    let n = width.unwrap_or(1);
    Ok((0..n)
        .map(|k| {
            operands
                .iter()
                .map(|op| match *op {
                    Operand::Single(q) => q,
                    Operand::Reg { offset, .. } => offset + k,
                })
                .collect()
        })
        .collect())
}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// # Errors
///
/// [`QasmError`] with the offending line on unsupported or malformed input.
///
/// # Example
///
/// ```
/// let qasm = r#"
///     OPENQASM 2.0;
///     include "qelib1.inc";
///     qreg q[2];
///     h q;              // whole-register broadcast
///     cx q[0], q[1];
/// "#;
/// let c = zac_circuit::qasm::parse_qasm(qasm, "bell")?;
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.num_1q_gates(), 2);
/// assert_eq!(c.num_2q_gates(), 1);
/// # Ok::<(), zac_circuit::qasm::QasmError>(())
/// ```
pub fn parse_qasm(source: &str, name: &str) -> Result<Circuit, QasmError> {
    let ops = split_statements(source);
    zac_telemetry::metrics::QASM_STATEMENTS.add(ops.len() as u64);

    // First pass: register declarations and user gate definitions (both may
    // legally appear after their textual position would suggest — QASMBench
    // files declare gates before registers and vice versa).
    let mut regs: HashMap<String, (usize, usize)> = HashMap::new();
    let mut defs: HashMap<String, GateDef> = HashMap::new();
    let mut total_qubits = 0usize;
    for (line, stmt) in &ops {
        match keyword(stmt).to_ascii_lowercase().as_str() {
            "qreg" => {
                let rest = stmt.trim_start()["qreg".len()..].trim();
                let (rname, size) = parse_reg_decl(rest, *line)?;
                if regs.insert(rname.clone(), (total_qubits, size)).is_some() {
                    return Err(err(*line, format!("duplicate qreg '{rname}'")));
                }
                total_qubits += size;
            }
            "gate" => {
                let (gname, def) = parse_gate_def(stmt, *line)?;
                if defs.insert(gname.clone(), def).is_some() {
                    return Err(err(*line, format!("duplicate gate definition '{gname}'")));
                }
            }
            _ => {}
        }
    }
    if total_qubits == 0 {
        return Err(err(1, "no qreg declaration found"));
    }

    let mut circuit = Circuit::new(name, total_qubits);
    let no_vars = HashMap::new();
    for (line, stmt) in &ops {
        let line = *line;
        match keyword(stmt).to_ascii_lowercase().as_str() {
            "openqasm" | "include" | "qreg" | "creg" | "barrier" | "measure" | "gate" => continue,
            "if" | "reset" | "opaque" => {
                return Err(err(line, format!("unsupported statement: '{stmt}'")))
            }
            _ => {}
        }

        let (gate_name, params_src, operands_src) = split_head(stmt, line)?;
        let params = eval_params(params_src, line, &no_vars)?;
        let operands: Vec<Operand> = operands_src
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|o| resolve_operand(o, line, &regs))
            .collect::<Result<_, _>>()?;
        if operands.is_empty() {
            return Err(err(line, format!("gate '{gate_name}' applied to no operands")));
        }
        for qubits in expand_broadcast(&operands, line)? {
            apply_named(&mut circuit, gate_name, &params, &qubits, &defs, line, 0)?;
        }
    }
    Ok(circuit)
}

fn parse_reg_decl(rest: &str, line: usize) -> Result<(String, usize), QasmError> {
    let open = rest.find('[').ok_or_else(|| err(line, "malformed qreg"))?;
    // The first `]` must close the `[`: `q]x[` would otherwise slice a
    // reversed range and panic.
    let close = rest.find(']').filter(|&c| c > open).ok_or_else(|| err(line, "malformed qreg"))?;
    let name = rest[..open].trim().to_string();
    let size: usize =
        rest[open + 1..close].trim().parse().map_err(|_| err(line, "malformed qreg size"))?;
    if name.is_empty() || size == 0 {
        return Err(err(line, "malformed qreg declaration"));
    }
    Ok((name, size))
}

fn one(qubits: &[usize], line: usize) -> Result<usize, QasmError> {
    if qubits.len() == 1 {
        Ok(qubits[0])
    } else {
        Err(err(line, format!("expected 1 operand, got {}", qubits.len())))
    }
}

fn two(qubits: &[usize], line: usize) -> Result<(usize, usize), QasmError> {
    match *qubits {
        [a, b] if a != b => Ok((a, b)),
        [a, _] => Err(err(line, format!("duplicate qubit operand {a}"))),
        _ => Err(err(line, format!("expected 2 operands, got {}", qubits.len()))),
    }
}

fn three(qubits: &[usize], line: usize) -> Result<(usize, usize, usize), QasmError> {
    match *qubits {
        [a, b, c] if a != b && a != c && b != c => Ok((a, b, c)),
        [_, _, _] => Err(err(line, "duplicate qubit operand in 3-qubit gate".to_string())),
        _ => Err(err(line, format!("expected 3 operands, got {}", qubits.len()))),
    }
}

fn param(params: &[f64], k: usize, line: usize, gate: &str) -> Result<f64, QasmError> {
    params.get(k).copied().ok_or_else(|| err(line, format!("{gate} needs {} parameter(s)", k + 1)))
}

/// Applies a gate by name: the built-in vocabulary directly, user-defined
/// gates by macro expansion with formal-parameter substitution.
fn apply_named(
    c: &mut Circuit,
    name: &str,
    params: &[f64],
    qubits: &[usize],
    defs: &HashMap<String, GateDef>,
    line: usize,
    depth: usize,
) -> Result<(), QasmError> {
    if depth > MAX_EXPANSION_DEPTH {
        return Err(err(
            line,
            format!(
                "gate expansion deeper than {MAX_EXPANSION_DEPTH} levels (recursive definition?)"
            ),
        ));
    }
    // Built-ins win over user definitions: files that inline qelib1 itself
    // (`gate h a { u2(0,pi) a; }`) get our native lowering.
    if apply_builtin(c, name, params, qubits, line)? {
        return Ok(());
    }
    let def = defs.get(name).ok_or_else(|| err(line, format!("unsupported gate '{name}'")))?;
    if params.len() != def.params.len() {
        return Err(err(
            line,
            format!("gate '{name}' takes {} parameter(s), got {}", def.params.len(), params.len()),
        ));
    }
    if qubits.len() != def.args.len() {
        return Err(err(
            line,
            format!("gate '{name}' takes {} operand(s), got {}", def.args.len(), qubits.len()),
        ));
    }
    let vars: HashMap<String, f64> =
        def.params.iter().cloned().zip(params.iter().copied()).collect();
    let argmap: HashMap<&str, usize> =
        def.args.iter().map(String::as_str).zip(qubits.iter().copied()).collect();
    for bstmt in &def.body {
        let (bname, bparams_src, boperands_src) = split_head(bstmt, line)?;
        if bname.eq_ignore_ascii_case("barrier") {
            continue;
        }
        let bparams = eval_params(bparams_src, line, &vars)?;
        let bqubits: Vec<usize> = boperands_src
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|a| {
                argmap.get(a).copied().ok_or_else(|| {
                    err(
                        line,
                        format!("'{a}' in the body of gate '{name}' is not a declared argument"),
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        apply_named(c, bname, &bparams, &bqubits, defs, line, depth + 1)?;
    }
    Ok(())
}

/// Applies a built-in gate; `Ok(false)` means the name is not built-in.
fn apply_builtin(
    c: &mut Circuit,
    gate: &str,
    params: &[f64],
    qubits: &[usize],
    line: usize,
) -> Result<bool, QasmError> {
    match gate.to_ascii_lowercase().as_str() {
        "h" => {
            c.h(one(qubits, line)?);
        }
        "x" => {
            c.x(one(qubits, line)?);
        }
        "y" => {
            c.one_q(OneQGate::Y, one(qubits, line)?);
        }
        "z" => {
            c.z(one(qubits, line)?);
        }
        "s" => {
            c.one_q(OneQGate::S, one(qubits, line)?);
        }
        "sdg" => {
            c.one_q(OneQGate::Sdg, one(qubits, line)?);
        }
        "t" => {
            c.t(one(qubits, line)?);
        }
        "tdg" => {
            c.tdg(one(qubits, line)?);
        }
        "sx" => {
            c.sx_decomposed(one(qubits, line)?);
        }
        "sxdg" => {
            c.sxdg_decomposed(one(qubits, line)?);
        }
        // Identity / idle: `u0(γ)` takes a duration parameter, ignored here.
        "id" | "u0" => {
            one(qubits, line)?;
        }
        "rx" => {
            c.rx(param(params, 0, line, "rx")?, one(qubits, line)?);
        }
        "ry" => {
            c.ry(param(params, 0, line, "ry")?, one(qubits, line)?);
        }
        "rz" => {
            c.rz(param(params, 0, line, "rz")?, one(qubits, line)?);
        }
        "p" | "u1" => {
            c.one_q(OneQGate::Phase(param(params, 0, line, "u1")?), one(qubits, line)?);
        }
        "u2" => {
            let phi = param(params, 0, line, "u2")?;
            let lambda = param(params, 1, line, "u2")?;
            c.one_q(OneQGate::U3 { theta: PI / 2.0, phi, lambda }, one(qubits, line)?);
        }
        "u3" | "u" => {
            let theta = param(params, 0, line, "u3")?;
            let phi = param(params, 1, line, "u3")?;
            let lambda = param(params, 2, line, "u3")?;
            c.one_q(OneQGate::U3 { theta, phi, lambda }, one(qubits, line)?);
        }
        "cx" | "cnot" => {
            let (a, b) = two(qubits, line)?;
            c.cx(a, b);
        }
        "cz" => {
            let (a, b) = two(qubits, line)?;
            c.cz(a, b);
        }
        "cp" | "cu1" => {
            let (a, b) = two(qubits, line)?;
            c.cp(param(params, 0, line, "cp")?, a, b);
        }
        "cy" => {
            let (a, b) = two(qubits, line)?;
            c.cy_decomposed(a, b);
        }
        "ch" => {
            let (a, b) = two(qubits, line)?;
            c.ch_decomposed(a, b);
        }
        "crz" => {
            let lambda = param(params, 0, line, "crz")?;
            let (a, b) = two(qubits, line)?;
            c.crz_decomposed(lambda, a, b);
        }
        "cu3" => {
            let theta = param(params, 0, line, "cu3")?;
            let phi = param(params, 1, line, "cu3")?;
            let lambda = param(params, 2, line, "cu3")?;
            let (a, b) = two(qubits, line)?;
            c.cu3_decomposed(theta, phi, lambda, a, b);
        }
        "rzz" => {
            let theta = param(params, 0, line, "rzz")?;
            let (a, b) = two(qubits, line)?;
            c.rzz_decomposed(theta, a, b);
        }
        "swap" => {
            let (a, b) = two(qubits, line)?;
            c.swap(a, b);
        }
        "ccx" | "toffoli" => {
            let (a, b, t) = three(qubits, line)?;
            c.ccx_decomposed(a, b, t);
        }
        "cswap" | "fredkin" => {
            let (a, b, t) = three(qubits, line)?;
            c.cswap_decomposed(a, b, t);
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Emits a [`Circuit`] as OpenQASM 2.0.
///
/// # Example
///
/// ```
/// use zac_circuit::Circuit;
/// let mut c = Circuit::new("bell", 2);
/// c.h(0).cx(0, 1);
/// let qasm = zac_circuit::qasm::to_qasm(&c);
/// assert!(qasm.contains("cx q[0], q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    for g in circuit.gates() {
        match *g {
            Gate::OneQ { gate, qubit } => {
                let stmt = match gate {
                    OneQGate::H => "h".to_string(),
                    OneQGate::X => "x".to_string(),
                    OneQGate::Y => "y".to_string(),
                    OneQGate::Z => "z".to_string(),
                    OneQGate::S => "s".to_string(),
                    OneQGate::Sdg => "sdg".to_string(),
                    OneQGate::T => "t".to_string(),
                    OneQGate::Tdg => "tdg".to_string(),
                    OneQGate::Rx(t) => format!("rx({t})"),
                    OneQGate::Ry(t) => format!("ry({t})"),
                    OneQGate::Rz(t) => format!("rz({t})"),
                    OneQGate::Phase(t) => format!("u1({t})"),
                    OneQGate::U3 { theta, phi, lambda } => {
                        format!("u3({theta},{phi},{lambda})")
                    }
                };
                out.push_str(&format!("{stmt} q[{qubit}];\n"));
            }
            Gate::TwoQ { kind, a, b } => {
                let stmt = match kind {
                    crate::TwoQKind::Cx => format!("cx q[{a}], q[{b}];"),
                    crate::TwoQKind::Cz => format!("cz q[{a}], q[{b}];"),
                    crate::TwoQKind::Cp(t) => format!("cu1({t}) q[{a}], q[{b}];"),
                    crate::TwoQKind::Swap => format!("swap q[{a}], q[{b}];"),
                };
                out.push_str(&stmt);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_vars() -> HashMap<String, f64> {
        HashMap::new()
    }

    #[test]
    fn parse_bell() {
        let c = parse_qasm(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
            "bell",
        )
        .unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_1q_gates(), 1);
        assert_eq!(c.num_2q_gates(), 1);
    }

    /// A `]` before the `[` is a malformed declaration, not a panic.
    #[test]
    fn reversed_register_brackets_are_malformed() {
        for src in ["OPENQASM 2.0; qreg q]x[;", "OPENQASM 2.0; qreg q]2[3];"] {
            let e = parse_qasm(src, "rev").unwrap_err();
            assert_eq!(e.message, "malformed qreg", "{src}");
        }
        let e = parse_qasm("OPENQASM 2.0; qreg q[2]; h q]0[;", "rev").unwrap_err();
        assert!(e.message.contains("operand") || e.message.contains("register"), "{e}");
    }

    #[test]
    fn parse_multiple_registers() {
        let c = parse_qasm("OPENQASM 2.0; qreg a[2]; qreg b[3]; cx a[1], b[0]; x b[2];", "regs")
            .unwrap();
        assert_eq!(c.num_qubits(), 5);
        // a[1] = global 1, b[0] = global 2, b[2] = global 4.
        assert_eq!(c.interaction_pairs(), vec![(1, 2)]);
    }

    #[test]
    fn parse_parameterized_gates() {
        let c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; rz(pi/4) q[0]; u3(1.5, -0.25, 2e-1) q[1]; cu1(pi/2) q[0], q[1];",
            "params",
        )
        .unwrap();
        assert_eq!(c.num_1q_gates(), 2);
        assert_eq!(c.num_2q_gates(), 1);
        match c.gates()[0] {
            Gate::OneQ { gate: OneQGate::Rz(t), .. } => {
                assert!((t - PI / 4.0).abs() < 1e-12)
            }
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    fn parse_expression_arithmetic() {
        assert!((eval_expr("pi/2", 1, &no_vars()).unwrap() - PI / 2.0).abs() < 1e-12);
        assert!((eval_expr("-pi*3/4", 1, &no_vars()).unwrap() + 3.0 * PI / 4.0).abs() < 1e-12);
        assert!((eval_expr("(1+2)*3", 1, &no_vars()).unwrap() - 9.0).abs() < 1e-12);
        assert!((eval_expr("2e-1", 1, &no_vars()).unwrap() - 0.2).abs() < 1e-12);
        assert!(eval_expr("pi+", 1, &no_vars()).is_err());
        assert!(eval_expr("(1", 1, &no_vars()).is_err());
    }

    #[test]
    fn expression_functions_and_bindings() {
        assert!((eval_expr("cos(0)", 1, &no_vars()).unwrap() - 1.0).abs() < 1e-12);
        assert!((eval_expr("sin(pi/2)", 1, &no_vars()).unwrap() - 1.0).abs() < 1e-12);
        assert!((eval_expr("sqrt(4)", 1, &no_vars()).unwrap() - 2.0).abs() < 1e-12);
        assert!((eval_expr("ln(exp(1))", 1, &no_vars()).unwrap() - 1.0).abs() < 1e-12);
        assert!((eval_expr("tan(0)", 1, &no_vars()).unwrap()).abs() < 1e-12);
        let vars: HashMap<String, f64> = [("theta".to_string(), 0.5)].into_iter().collect();
        assert!((eval_expr("theta*2", 1, &vars).unwrap() - 1.0).abs() < 1e-12);
        assert!((eval_expr("-theta/2 + pi", 1, &vars).unwrap() - (PI - 0.25)).abs() < 1e-12);
        assert!(eval_expr("theta", 1, &no_vars()).is_err());
        assert!(eval_expr("sin 1", 1, &no_vars()).is_err());
    }

    /// Regression (issue): the old head splitter used `find(')')` and broke
    /// on nested parentheses in parameters.
    #[test]
    fn nested_paren_parameters() {
        let c =
            parse_qasm("OPENQASM 2.0; qreg q[2]; cu1((1+2)*pi/8) q[0],q[1];", "nested").unwrap();
        assert_eq!(c.num_2q_gates(), 1);
        match c.gates()[0] {
            Gate::TwoQ { kind: crate::TwoQKind::Cp(t), .. } => {
                assert!((t - 3.0 * PI / 8.0).abs() < 1e-12)
            }
            ref g => panic!("unexpected {g:?}"),
        }

        let c =
            parse_qasm("OPENQASM 2.0; qreg q[1]; u3( pi/2, 0, (pi) ) q[0];", "nested3").unwrap();
        match c.gates()[0] {
            Gate::OneQ { gate: OneQGate::U3 { theta, phi, lambda }, .. } => {
                assert!((theta - PI / 2.0).abs() < 1e-12);
                assert_eq!(phi, 0.0);
                assert!((lambda - PI).abs() < 1e-12);
            }
            ref g => panic!("unexpected {g:?}"),
        }
    }

    /// Regression (issue): whitespace between the gate name and `(`, and
    /// around operand commas, must parse.
    #[test]
    fn whitespace_tolerant_statements() {
        let c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; rz (pi/4) q[0]; cx q[0] , q[1]; cu1 ( pi/2 ) q[0] ,q[1];",
            "ws",
        )
        .unwrap();
        assert_eq!(c.num_1q_gates(), 1);
        assert_eq!(c.num_2q_gates(), 2);
        match c.gates()[0] {
            Gate::OneQ { gate: OneQGate::Rz(t), .. } => assert!((t - PI / 4.0).abs() < 1e-12),
            ref g => panic!("unexpected {g:?}"),
        }
    }

    #[test]
    fn broadcast_single_qubit_gate() {
        let c = parse_qasm("OPENQASM 2.0; qreg q[4]; h q;", "bcast1").unwrap();
        assert_eq!(c.num_1q_gates(), 4);
        for (k, g) in c.gates().iter().enumerate() {
            assert_eq!(*g, Gate::OneQ { gate: OneQGate::H, qubit: k });
        }
    }

    #[test]
    fn broadcast_two_qubit_gates() {
        // reg ⊗ reg: pairwise.
        let c = parse_qasm("OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a, b;", "bcast2").unwrap();
        assert_eq!(c.interaction_pairs(), vec![(0, 2), (1, 3)]);
        // single ⊗ reg: the indexed operand is held fixed.
        let c = parse_qasm("OPENQASM 2.0; qreg a[2]; qreg b[2]; cx a[0], b;", "bcast3").unwrap();
        assert_eq!(c.interaction_pairs(), vec![(0, 2), (0, 3)]);
    }

    #[test]
    fn broadcast_size_mismatch_rejected() {
        let e = parse_qasm("OPENQASM 2.0; qreg a[2]; qreg b[3]; cx a, b;", "bad").unwrap_err();
        assert!(e.message.contains("mismatched register sizes"), "{e}");
    }

    #[test]
    fn register_slices_broadcast() {
        // Slice ⊗ slice: pairwise over the inclusive ranges.
        let c = parse_qasm("OPENQASM 2.0; qreg q[6]; cx q[0:2], q[3:5];", "slice2").unwrap();
        assert_eq!(c.interaction_pairs(), vec![(0, 3), (1, 4), (2, 5)]);
        // Slice ⊗ single: the indexed operand is held fixed.
        let c = parse_qasm("OPENQASM 2.0; qreg q[5]; cx q[1:3], q[4];", "slicefix").unwrap();
        assert_eq!(c.interaction_pairs(), vec![(1, 4), (2, 4), (3, 4)]);
        // One-qubit gates broadcast over a slice too.
        let c = parse_qasm("OPENQASM 2.0; qreg q[5]; h q[2:4];", "slice1").unwrap();
        assert_eq!(c.num_1q_gates(), 3);
        for (k, g) in c.gates().iter().enumerate() {
            assert_eq!(*g, Gate::OneQ { gate: OneQGate::H, qubit: k + 2 });
        }
        // A width-1 slice behaves like the indexed qubit.
        let c = parse_qasm("OPENQASM 2.0; qreg q[3]; cx q[1:1], q[2];", "slicew1").unwrap();
        assert_eq!(c.interaction_pairs(), vec![(1, 2)]);
        // Slices of different widths are a broadcast mismatch.
        let e = parse_qasm("OPENQASM 2.0; qreg q[6]; cx q[0:1], q[2:5];", "slicemis").unwrap_err();
        assert!(e.message.contains("mismatched register sizes"), "{e}");
    }

    #[test]
    fn malformed_register_slices_rejected() {
        let e = parse_qasm("OPENQASM 2.0;\nqreg q[6];\ncx q[3:1], q[4:5];", "rev").unwrap_err();
        assert!(e.message.contains("reversed slice"), "{e}");
        assert_eq!(e.line, 3, "error carries the offending line");
        let e = parse_qasm("OPENQASM 2.0; qreg q[4]; h q[2:7];", "oob").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        let e = parse_qasm("OPENQASM 2.0; qreg q[4]; h q[1:x];", "badhi").unwrap_err();
        assert!(e.message.contains("malformed slice bound"), "{e}");
        let e = parse_qasm("OPENQASM 2.0; qreg q[4]; h q[:2];", "nolo").unwrap_err();
        assert!(e.message.contains("malformed slice bound"), "{e}");
    }

    #[test]
    fn duplicate_qubit_operands_rejected_not_panicking() {
        let e = parse_qasm("OPENQASM 2.0; qreg q[2]; cx q[0], q[0];", "dup").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        let e = parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[0];", "dup3").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn qelib1_extended_vocabulary() {
        let c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; cy q[0],q[1]; ch q[0],q[1]; crz(pi/3) q[0],q[1]; \
             cu3(0.5,0.1,-0.2) q[0],q[1]; rzz(0.3) q[0],q[1]; u0(1) q[0]; id q[1];",
            "qelib1",
        )
        .unwrap();
        // cy: 1 CX, ch: 2, crz: 2, cu3: 2, rzz: 2; u0/id contribute nothing.
        assert_eq!(c.num_2q_gates(), 9);
        assert!(c.num_1q_gates() > 0);
    }

    #[test]
    fn sx_and_sxdg_lower_to_their_qelib1_decompositions() {
        let c = parse_qasm("OPENQASM 2.0; qreg q[2]; sx q[0]; sxdg q[1];", "sx").unwrap();
        use crate::OneQGate::{Sdg, H, S};
        let expected = [(Sdg, 0), (H, 0), (Sdg, 0), (S, 1), (H, 1), (S, 1)];
        assert_eq!(c.num_gates(), expected.len());
        for (g, (gate, qubit)) in c.gates().iter().zip(expected) {
            assert_eq!(*g, Gate::OneQ { gate, qubit });
        }
    }

    #[test]
    fn gate_definitions_inline() {
        let c = parse_qasm(
            "OPENQASM 2.0; qreg q[3]; \
             gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; } \
             majority q[0],q[1],q[2];",
            "maj",
        )
        .unwrap();
        // cx + cx + the 6-CX Toffoli lowering.
        assert_eq!(c.num_2q_gates(), 8);
        // First expanded gate: cx q[2],q[1].
        assert_eq!(c.gates()[0], Gate::TwoQ { kind: crate::TwoQKind::Cx, a: 2, b: 1 });
    }

    #[test]
    fn gate_definition_parameter_substitution() {
        let c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; \
             gate rzx(theta) a,b { h b; cx a,b; rz(theta*2) b; cx a,b; h b; } \
             rzx(pi/4) q[0],q[1];",
            "rzx",
        )
        .unwrap();
        assert_eq!(c.num_2q_gates(), 2);
        let rz = c
            .gates()
            .iter()
            .find_map(|g| match *g {
                Gate::OneQ { gate: OneQGate::Rz(t), qubit } => Some((t, qubit)),
                _ => None,
            })
            .expect("expanded rz");
        assert!((rz.0 - PI / 2.0).abs() < 1e-12);
        assert_eq!(rz.1, 1);
    }

    #[test]
    fn gate_definitions_can_reference_earlier_definitions() {
        let c = parse_qasm(
            "OPENQASM 2.0; qreg q[2]; \
             gate inner a { h a; } \
             gate outer a,b { inner a; cx a,b; inner b; } \
             outer q[0],q[1];",
            "nesting",
        )
        .unwrap();
        assert_eq!(c.num_1q_gates(), 2);
        assert_eq!(c.num_2q_gates(), 1);
    }

    #[test]
    fn gate_definition_broadcast_application() {
        let c = parse_qasm("OPENQASM 2.0; qreg q[3]; gate flip a { x a; } flip q;", "bcast-def")
            .unwrap();
        assert_eq!(c.num_1q_gates(), 3);
    }

    #[test]
    fn recursive_gate_definition_rejected() {
        let e =
            parse_qasm("OPENQASM 2.0; qreg q[1]; gate loop a { loop a; } loop q[0];", "recurse")
                .unwrap_err();
        assert!(e.message.contains("expansion deeper"), "{e}");
    }

    #[test]
    fn gate_definition_unknown_operand_rejected() {
        let e = parse_qasm("OPENQASM 2.0; qreg q[1]; gate bad a { x b; } bad q[0];", "badarg")
            .unwrap_err();
        assert!(e.message.contains("not a declared argument"), "{e}");
    }

    /// Regression (review): a statement split across lines with a bare
    /// number alone on a line must not confuse that number with the
    /// internal line markers.
    #[test]
    fn multiline_statement_with_bare_number_content() {
        let c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(pi/\n4\n) q[0];", "multiline").unwrap();
        assert_eq!(c.num_1q_gates(), 1);
        match c.gates()[0] {
            Gate::OneQ { gate: OneQGate::Rz(t), .. } => assert!((t - PI / 4.0).abs() < 1e-12),
            ref g => panic!("unexpected {g:?}"),
        }
    }

    /// Regression (review): redeclaring a register or a gate must error
    /// instead of silently overwriting (which left phantom qubit width).
    #[test]
    fn duplicate_declarations_rejected() {
        let e = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\nh q;", "dupreg").unwrap_err();
        assert!(e.message.contains("duplicate qreg"), "{e}");
        assert_eq!(e.line, 3);
        let e = parse_qasm(
            "OPENQASM 2.0; qreg q[1]; gate g a { x a; } gate g a { h a; } g q[0];",
            "dupdef",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate gate definition"), "{e}");
    }

    /// Regression (review): statements that start with a non-identifier
    /// character are malformed input and must error, not vanish silently.
    #[test]
    fn garbage_statements_rejected_not_dropped() {
        let e = parse_qasm("OPENQASM 2.0; qreg q[1]; { x q[0]; }", "stray").unwrap_err();
        assert!(e.message.contains("expected a gate name"), "{e}");
        let e = parse_qasm("OPENQASM 2.0; qreg q[1]; 2;", "number").unwrap_err();
        assert!(!e.message.is_empty());
    }

    #[test]
    fn comments_and_barriers_ignored() {
        let c = parse_qasm(
            "OPENQASM 2.0; // header\nqreg q[2];\nh q[0]; // do H\nbarrier q[0];\ncreg c[2];\nmeasure q[0] -> c[0];\n",
            "comments",
        )
        .unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn ccx_lowered_on_parse() {
        let c = parse_qasm("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];", "ccx").unwrap();
        assert_eq!(c.num_2q_gates(), 6);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nbogus q[0];", "bad").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));

        let e = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[4];", "oob").unwrap_err();
        assert!(e.message.contains("out of range"));

        let e = parse_qasm("OPENQASM 2.0;\nh q[0];", "noreg").unwrap_err();
        assert!(e.message.contains("no qreg"));
    }

    #[test]
    fn classical_control_rejected() {
        let e =
            parse_qasm("OPENQASM 2.0; qreg q[1]; creg c[1]; if(c==1) x q[0];", "if").unwrap_err();
        assert!(e.message.contains("unsupported"));
        let e = parse_qasm("OPENQASM 2.0; qreg q[1]; reset q[0];", "reset").unwrap_err();
        assert!(e.message.contains("unsupported"));
        let e = parse_qasm("OPENQASM 2.0; qreg q[1]; opaque magic a;", "opaque").unwrap_err();
        assert!(e.message.contains("unsupported"));
    }

    #[test]
    fn roundtrip_preserves_gates() {
        let mut c = Circuit::new("rt", 3);
        c.h(0).t(1).rz(0.7, 2).cx(0, 1).cz(1, 2).cp(0.3, 0, 2).swap(0, 2);
        let qasm = to_qasm(&c);
        let back = parse_qasm(&qasm, "rt").unwrap();
        assert_eq!(back.num_qubits(), c.num_qubits());
        assert_eq!(back.num_gates(), c.num_gates());
        assert_eq!(back.interaction_pairs(), c.interaction_pairs());
    }

    #[test]
    fn roundtrip_is_semantically_exact() {
        // The emitted QASM re-parses to the same gate list.
        let mut c = Circuit::new("exact", 2);
        c.one_q(OneQGate::U3 { theta: 0.1, phi: 0.2, lambda: 0.3 }, 0);
        c.one_q(OneQGate::Sdg, 1);
        c.cx(1, 0);
        let back = parse_qasm(&to_qasm(&c), "exact").unwrap();
        assert_eq!(back.gates(), c.gates());
    }

    #[test]
    fn suite_circuits_roundtrip_through_qasm() {
        // All 17 paper-suite circuits, not a prefix.
        let entries = crate::bench_circuits::paper_suite();
        assert_eq!(entries.len(), 17);
        for entry in entries {
            let name = entry.circuit.name().to_owned();
            let qasm = to_qasm(&entry.circuit);
            let back = parse_qasm(&qasm, &name).unwrap();
            assert_eq!(back.num_2q_gates(), entry.circuit.num_2q_gates(), "{name}");
            assert_eq!(back.num_1q_gates(), entry.circuit.num_1q_gates(), "{name}");
            assert_eq!(back.gates(), entry.circuit.gates(), "{name}");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Random circuits over the full emittable gate set.
        fn arb_circuit() -> impl Strategy<Value = Circuit> {
            (2usize..8).prop_flat_map(|n| {
                let g = (0usize..17, 0..n, 0..n, -6.3..6.3f64, -6.3..6.3f64, -6.3..6.3f64);
                proptest::collection::vec(g, 0..30).prop_map(move |ops| {
                    let mut c = Circuit::new("prop_rt", n);
                    for (k, a, b, t, p, l) in ops {
                        match k {
                            0 => {
                                c.h(a);
                            }
                            1 => {
                                c.x(a);
                            }
                            2 => {
                                c.one_q(OneQGate::Y, a);
                            }
                            3 => {
                                c.z(a);
                            }
                            4 => {
                                c.one_q(OneQGate::S, a);
                            }
                            5 => {
                                c.one_q(OneQGate::Sdg, a);
                            }
                            6 => {
                                c.t(a);
                            }
                            7 => {
                                c.tdg(a);
                            }
                            8 => {
                                c.rx(t, a);
                            }
                            9 => {
                                c.ry(t, a);
                            }
                            10 => {
                                c.rz(t, a);
                            }
                            11 => {
                                c.one_q(OneQGate::Phase(t), a);
                            }
                            12 => {
                                c.one_q(OneQGate::U3 { theta: t, phi: p, lambda: l }, a);
                            }
                            13 if a != b => {
                                c.cx(a, b);
                            }
                            14 if a != b => {
                                c.cz(a, b);
                            }
                            15 if a != b => {
                                c.cp(t, a, b);
                            }
                            16 if a != b => {
                                c.swap(a, b);
                            }
                            _ => {}
                        }
                    }
                    c
                })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any emittable circuit round-trips `to_qasm` → `parse_qasm`
            /// exactly (Rust float formatting is shortest-roundtrip, and the
            /// evaluator parses literals with `str::parse::<f64>`).
            #[test]
            fn random_circuits_roundtrip_exactly(c in arb_circuit()) {
                let back = parse_qasm(&to_qasm(&c), "prop_rt").unwrap();
                prop_assert_eq!(back.num_qubits(), c.num_qubits());
                prop_assert_eq!(back.gates(), c.gates());
            }
        }
    }
}
