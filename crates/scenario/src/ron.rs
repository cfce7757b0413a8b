//! A hand-rolled RON (Rusty Object Notation) codec for [`ScenarioSpec`].
//!
//! The workspace builds offline with no serde, so — like the snapshot JSON
//! codec in `basil-bench` — this module parses exactly the subset of RON
//! the scenario grammar uses: named structs with named fields
//! (`Name(field: value, ...)`), unit and tuple enum variants
//! (`Clients`, `Replica(3)`, `Some(x)`, `None`), lists, strings, booleans,
//! and numbers. `encode` emits the canonical form that `decode` reads back
//! (round-trip is tested), which is the format of the committed corpus
//! under `tests/corpus/`.

use crate::spec::{
    Expectation, FaultBudget, FaultEvent, RecoveryMode, ScenarioSpec, Selector, SpecError,
    WorkloadSpec,
};
use basil_common::Duration;
use basil_core::{ClientStrategy, ReplicaBehavior};
use basil_simnet::LinkFaultKind;

/// A parsed RON value.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    /// Raw number token (parsed per-field to keep u64 precision).
    Num(String),
    Str(String),
    Bool(bool),
    /// Bare identifier: a unit enum variant (`Clients`, `None`).
    Unit(String),
    /// `Name(...)` with named and/or positional arguments. `name` is empty
    /// for an anonymous struct `(field: value, ...)`.
    Call {
        name: String,
        named: Vec<(String, Val)>,
        positional: Vec<Val>,
    },
    List(Vec<Val>),
}

// ---------------------------------------------------------------- lexer --

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Comma,
}

fn lex(src: &str) -> Result<Vec<Tok>, SpecError> {
    let mut toks = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                chars.next();
            }
            '/' => {
                // Line comment `// ...`.
                chars.next();
                if chars.next() != Some('/') {
                    return Err(SpecError("stray '/' (expected //)".into()));
                }
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            '[' => {
                chars.next();
                toks.push(Tok::LBracket);
            }
            ']' => {
                chars.next();
                toks.push(Tok::RBracket);
            }
            ':' => {
                chars.next();
                toks.push(Tok::Colon);
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            other => {
                                return Err(SpecError(format!("bad escape {other:?} in string")))
                            }
                        },
                        Some(c) => s.push(c),
                        None => return Err(SpecError("unterminated string".into())),
                    }
                }
                toks.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E' | '_') {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Num(s.replace('_', "")));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(s));
            }
            other => return Err(SpecError(format!("unexpected character {other:?}"))),
        }
    }
    Ok(toks)
}

// --------------------------------------------------------------- parser --

/// Deepest nesting of lists and calls the parser accepts. The corpus nests
/// three deep; the bound keeps a hostile spec from overflowing the stack.
const MAX_DEPTH: usize = 16;

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, SpecError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| SpecError("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Tok) -> Result<(), SpecError> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(SpecError(format!("expected {want:?}, got {got:?}")))
        }
    }

    /// Parses one value nested `depth` lists or calls deep.
    fn value(&mut self, depth: usize) -> Result<Val, SpecError> {
        if depth > MAX_DEPTH {
            return Err(SpecError(format!("nested deeper than {MAX_DEPTH}")));
        }
        match self.next()? {
            Tok::Str(s) => Ok(Val::Str(s)),
            Tok::Num(s) => Ok(Val::Num(s)),
            Tok::LBracket => {
                let mut items = Vec::new();
                loop {
                    if self.peek() == Some(&Tok::RBracket) {
                        self.pos += 1;
                        break;
                    }
                    items.push(self.value(depth + 1)?);
                    match self.next()? {
                        Tok::Comma => {}
                        Tok::RBracket => break,
                        t => return Err(SpecError(format!("expected , or ] in list, got {t:?}"))),
                    }
                }
                Ok(Val::List(items))
            }
            Tok::LParen => self.call(String::new(), depth),
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(Val::Bool(true)),
                "false" => Ok(Val::Bool(false)),
                _ => {
                    if self.peek() == Some(&Tok::LParen) {
                        self.pos += 1;
                        self.call(name, depth)
                    } else {
                        Ok(Val::Unit(name))
                    }
                }
            },
            t => Err(SpecError(format!("unexpected token {t:?}"))),
        }
    }

    /// Parses the arguments of `name(...)` after the opening paren; the call
    /// itself is nested `depth` deep.
    fn call(&mut self, name: String, depth: usize) -> Result<Val, SpecError> {
        let mut named = Vec::new();
        let mut positional = Vec::new();
        loop {
            if self.peek() == Some(&Tok::RParen) {
                self.pos += 1;
                break;
            }
            // `ident:` introduces a named field; anything else is positional.
            let is_named = matches!(self.peek(), Some(Tok::Ident(_)))
                && self.toks.get(self.pos + 1) == Some(&Tok::Colon);
            if is_named {
                let Tok::Ident(field) = self.next()? else {
                    unreachable!()
                };
                self.expect(&Tok::Colon)?;
                named.push((field, self.value(depth + 1)?));
            } else {
                positional.push(self.value(depth + 1)?);
            }
            match self.next()? {
                Tok::Comma => {}
                Tok::RParen => break,
                t => return Err(SpecError(format!("expected , or ) in call, got {t:?}"))),
            }
        }
        Ok(Val::Call {
            name,
            named,
            positional,
        })
    }
}

// -------------------------------------------------------------- decoder --

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

impl Val {
    fn as_u64(&self, field: &str) -> Result<u64, SpecError> {
        match self {
            Val::Num(s) => s.parse().map_err(|_| err(format!("{field}: bad u64 {s}"))),
            _ => Err(err(format!("{field}: expected a number"))),
        }
    }

    fn as_u32(&self, field: &str) -> Result<u32, SpecError> {
        match self {
            Val::Num(s) => s.parse().map_err(|_| err(format!("{field}: bad u32 {s}"))),
            _ => Err(err(format!("{field}: expected a number"))),
        }
    }

    fn as_i64(&self, field: &str) -> Result<i64, SpecError> {
        match self {
            Val::Num(s) => s.parse().map_err(|_| err(format!("{field}: bad i64 {s}"))),
            _ => Err(err(format!("{field}: expected a number"))),
        }
    }

    fn as_f64(&self, field: &str) -> Result<f64, SpecError> {
        match self {
            Val::Num(s) => s.parse().map_err(|_| err(format!("{field}: bad f64 {s}"))),
            _ => Err(err(format!("{field}: expected a number"))),
        }
    }

    fn as_bool(&self, field: &str) -> Result<bool, SpecError> {
        match self {
            Val::Bool(b) => Ok(*b),
            _ => Err(err(format!("{field}: expected true/false"))),
        }
    }

    fn as_str(&self, field: &str) -> Result<&str, SpecError> {
        match self {
            Val::Str(s) => Ok(s),
            _ => Err(err(format!("{field}: expected a string"))),
        }
    }

    fn as_opt_u64(&self, field: &str) -> Result<Option<u64>, SpecError> {
        match self {
            Val::Unit(n) if n == "None" => Ok(None),
            Val::Call {
                name, positional, ..
            } if name == "Some" && positional.len() == 1 => Ok(Some(positional[0].as_u64(field)?)),
            _ => Err(err(format!("{field}: expected Some(n) or None"))),
        }
    }

    fn field<'a>(&'a self, name: &str) -> Result<&'a Val, SpecError> {
        match self {
            Val::Call { named, .. } => named
                .iter()
                .find(|(f, _)| f == name)
                .map(|(_, v)| v)
                .ok_or_else(|| err(format!("missing field `{name}`"))),
            _ => Err(err(format!("expected a struct with field `{name}`"))),
        }
    }

    fn opt_field<'a>(&'a self, name: &str) -> Option<&'a Val> {
        match self {
            Val::Call { named, .. } => named.iter().find(|(f, _)| f == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn call_name(&self) -> Result<&str, SpecError> {
        match self {
            Val::Call { name, .. } => Ok(name),
            Val::Unit(name) => Ok(name),
            _ => Err(err("expected a named value")),
        }
    }
}

fn decode_selector(v: &Val, field: &str) -> Result<Selector, SpecError> {
    match v {
        Val::Unit(n) if n == "Any" => Ok(Selector::Any),
        Val::Unit(n) if n == "Clients" => Ok(Selector::Clients),
        Val::Unit(n) if n == "Replicas" => Ok(Selector::Replicas),
        Val::Call {
            name, positional, ..
        } if name == "Replica" && positional.len() == 1 => {
            Ok(Selector::Replica(positional[0].as_u32(field)?))
        }
        _ => Err(err(format!(
            "{field}: expected Any | Clients | Replicas | Replica(i)"
        ))),
    }
}

fn decode_recovery(v: &Val) -> Result<RecoveryMode, SpecError> {
    match v {
        Val::Unit(n) if n == "Warm" => Ok(RecoveryMode::Warm),
        Val::Unit(n) if n == "Amnesia" => Ok(RecoveryMode::Amnesia),
        _ => Err(err("recovery: expected Warm | Amnesia")),
    }
}

fn decode_fault(v: &Val) -> Result<FaultEvent, SpecError> {
    let name = v.call_name()?;
    if let Some(kind) = decode_link_kind(name, v)? {
        return Ok(FaultEvent::Link {
            kind,
            from: decode_selector(v.field("from")?, "from")?,
            to: decode_selector(v.field("to")?, "to")?,
            at_ms: v.field("at_ms")?.as_u64("at_ms")?,
            until_ms: v.field("until_ms")?.as_u64("until_ms")?,
        });
    }
    match name {
        "Crash" => Ok(FaultEvent::Crash {
            replica: v.field("replica")?.as_u32("replica")?,
            at_ms: v.field("at_ms")?.as_u64("at_ms")?,
            restart_ms: v.field("restart_ms")?.as_opt_u64("restart_ms")?,
            recovery: decode_recovery(v.field("recovery")?)?,
        }),
        "ClockSkew" => Ok(FaultEvent::ClockSkew {
            replica: v.field("replica")?.as_u32("replica")?,
            skew_us: v.field("skew_us")?.as_i64("skew_us")?,
        }),
        "SlowReplica" => Ok(FaultEvent::SlowReplica {
            replica: v.field("replica")?.as_u32("replica")?,
            cores: v.field("cores")?.as_u32("cores")?,
        }),
        "Misbehave" => Ok(FaultEvent::Misbehave {
            replica: v.field("replica")?.as_u32("replica")?,
            behavior: v
                .field("behavior")?
                .as_str("behavior")?
                .parse::<ReplicaBehavior>()
                .map_err(SpecError)?,
            at_ms: v.field("at_ms")?.as_u64("at_ms")?,
            revert_ms: v.field("revert_ms")?.as_opt_u64("revert_ms")?,
        }),
        other => Err(err(format!("unknown fault kind `{other}`"))),
    }
}

fn decode_workload(v: &Val) -> Result<WorkloadSpec, SpecError> {
    match v.call_name()? {
        "RwUniform" => Ok(WorkloadSpec::RwUniform {
            reads: v.field("reads")?.as_u32("reads")?,
            writes: v.field("writes")?.as_u32("writes")?,
            keys: v.field("keys")?.as_u64("keys")?,
        }),
        "RwZipf" => Ok(WorkloadSpec::RwZipf {
            reads: v.field("reads")?.as_u32("reads")?,
            writes: v.field("writes")?.as_u32("writes")?,
            keys: v.field("keys")?.as_u64("keys")?,
            theta: v.field("theta")?.as_f64("theta")?,
        }),
        other => Err(err(format!("unknown workload `{other}`"))),
    }
}

/// Parses a [`ScenarioSpec`] from its RON form. Parsing does *not*
/// validate the spec — call [`ScenarioSpec::validate`] on the result.
pub fn decode(src: &str) -> Result<ScenarioSpec, SpecError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let root = p.value(0)?;
    if p.pos != p.toks.len() {
        return Err(err("trailing input after the spec"));
    }
    if root.call_name()? != "ScenarioSpec" {
        return Err(err("expected a ScenarioSpec(...) document"));
    }

    let faults = match root.field("faults")? {
        Val::List(items) => items
            .iter()
            .map(decode_fault)
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(err("faults: expected a list")),
    };
    let expect = match root.opt_field("expect") {
        None => None,
        Some(Val::Unit(n)) if n == "None" => None,
        Some(Val::Call {
            name, positional, ..
        }) if name == "Some" && positional.len() == 1 => {
            let e = &positional[0];
            Some(Expectation {
                committed: e.field("committed")?.as_u64("committed")?,
                aborted_attempts: e.field("aborted_attempts")?.as_u64("aborted_attempts")?,
                byz_committed: e.field("byz_committed")?.as_u64("byz_committed")?,
                digest: e.field("digest")?.as_str("digest")?.to_string(),
            })
        }
        Some(_) => return Err(err("expect: expected Some((...)) or None")),
    };

    Ok(ScenarioSpec {
        name: root.field("name")?.as_str("name")?.to_string(),
        seed: root.field("seed")?.as_u64("seed")?,
        clients: root.field("clients")?.as_u32("clients")?,
        byz_clients: root.field("byz_clients")?.as_u32("byz_clients")?,
        byz_strategy: root
            .field("byz_strategy")?
            .as_str("byz_strategy")?
            .parse::<ClientStrategy>()
            .map_err(SpecError)?,
        byz_fraction: root.field("byz_fraction")?.as_f64("byz_fraction")?,
        f: root.field("f")?.as_u32("f")?,
        batch_size: root.field("batch_size")?.as_u32("batch_size")?,
        relax_st2: root.field("relax_st2")?.as_bool("relax_st2")?,
        warmup_ms: root.field("warmup_ms")?.as_u64("warmup_ms")?,
        duration_ms: root.field("duration_ms")?.as_u64("duration_ms")?,
        tail_ms: root.field("tail_ms")?.as_u64("tail_ms")?,
        budget: {
            let b = root.field("budget")?;
            FaultBudget {
                crash: b.field("crash")?.as_u32("crash")?,
                deceit: b.field("deceit")?.as_u32("deceit")?,
            }
        },
        workload: decode_workload(root.field("workload")?)?,
        faults,
        expect,
    })
}

// ---------------------------------------------------------- link faults --
//
// A `FaultEvent::Link` is spelled by its kind, `DropLink`, `DelayLink`,
// `ReplayLink` or `CorruptLink`, with the arguments `from`, `to`, `at_ms`,
// `until_ms` and then `extra_us` for a delay or `probability` for the rest.

/// The kind a link-fault name spells, or `None` if `name` is not one.
fn decode_link_kind(name: &str, v: &Val) -> Result<Option<LinkFaultKind>, SpecError> {
    let probability = || v.field("probability")?.as_f64("probability");
    Ok(Some(match name {
        "DropLink" => LinkFaultKind::Drop {
            probability: probability()?,
        },
        "DelayLink" => LinkFaultKind::Delay {
            // Saturating: `validate` refuses a delay anywhere near this long.
            extra: Duration::from_nanos(
                v.field("extra_us")?
                    .as_u64("extra_us")?
                    .saturating_mul(1_000),
            ),
        },
        "ReplayLink" => LinkFaultKind::Replay {
            probability: probability()?,
        },
        "CorruptLink" => LinkFaultKind::Corrupt {
            probability: probability()?,
        },
        _ => return Ok(None),
    }))
}

/// The name and the kind-specific argument [`decode_link_kind`] reads back.
fn fmt_link_kind(kind: LinkFaultKind) -> (&'static str, String) {
    match kind {
        LinkFaultKind::Drop { probability } => {
            ("DropLink", format!("probability: {probability:?}"))
        }
        LinkFaultKind::Delay { extra } => ("DelayLink", format!("extra_us: {}", extra.as_micros())),
        LinkFaultKind::Replay { probability } => {
            ("ReplayLink", format!("probability: {probability:?}"))
        }
        LinkFaultKind::Corrupt { probability } => {
            ("CorruptLink", format!("probability: {probability:?}"))
        }
    }
}

// -------------------------------------------------------------- encoder --

fn fmt_sel(s: Selector) -> String {
    match s {
        Selector::Any => "Any".into(),
        Selector::Clients => "Clients".into(),
        Selector::Replicas => "Replicas".into(),
        Selector::Replica(i) => format!("Replica({i})"),
    }
}

fn fmt_opt(v: Option<u64>) -> String {
    match v {
        Some(n) => format!("Some({n})"),
        None => "None".into(),
    }
}

fn fmt_fault(ev: &FaultEvent) -> String {
    match ev {
        FaultEvent::Crash {
            replica,
            at_ms,
            restart_ms,
            recovery,
        } => format!(
            "Crash(replica: {replica}, at_ms: {at_ms}, restart_ms: {}, recovery: {recovery})",
            fmt_opt(*restart_ms)
        ),
        FaultEvent::Link {
            kind,
            from,
            to,
            at_ms,
            until_ms,
        } => {
            let (name, arg) = fmt_link_kind(*kind);
            format!(
                "{name}(from: {}, to: {}, at_ms: {at_ms}, until_ms: {until_ms}, {arg})",
                fmt_sel(*from),
                fmt_sel(*to)
            )
        }
        FaultEvent::ClockSkew { replica, skew_us } => {
            format!("ClockSkew(replica: {replica}, skew_us: {skew_us})")
        }
        FaultEvent::SlowReplica { replica, cores } => {
            format!("SlowReplica(replica: {replica}, cores: {cores})")
        }
        FaultEvent::Misbehave {
            replica,
            behavior,
            at_ms,
            revert_ms,
        } => format!(
            "Misbehave(replica: {replica}, behavior: \"{behavior}\", at_ms: {at_ms}, revert_ms: {})",
            fmt_opt(*revert_ms)
        ),
    }
}

/// Serializes a [`ScenarioSpec`] to its canonical RON form (the corpus
/// file format; [`decode`] reads it back bit-for-bit).
pub fn encode(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    out.push_str("ScenarioSpec(\n");
    out.push_str(&format!("    name: {:?},\n", spec.name));
    out.push_str(&format!("    seed: {},\n", spec.seed));
    out.push_str(&format!("    clients: {},\n", spec.clients));
    out.push_str(&format!("    byz_clients: {},\n", spec.byz_clients));
    out.push_str(&format!("    byz_strategy: \"{}\",\n", spec.byz_strategy));
    out.push_str(&format!("    byz_fraction: {:?},\n", spec.byz_fraction));
    out.push_str(&format!("    f: {},\n", spec.f));
    out.push_str(&format!("    batch_size: {},\n", spec.batch_size));
    out.push_str(&format!("    relax_st2: {},\n", spec.relax_st2));
    out.push_str(&format!("    warmup_ms: {},\n", spec.warmup_ms));
    out.push_str(&format!("    duration_ms: {},\n", spec.duration_ms));
    out.push_str(&format!("    tail_ms: {},\n", spec.tail_ms));
    out.push_str(&format!(
        "    budget: (crash: {}, deceit: {}),\n",
        spec.budget.crash, spec.budget.deceit
    ));
    match spec.workload {
        WorkloadSpec::RwUniform {
            reads,
            writes,
            keys,
        } => out.push_str(&format!(
            "    workload: RwUniform(reads: {reads}, writes: {writes}, keys: {keys}),\n"
        )),
        WorkloadSpec::RwZipf {
            reads,
            writes,
            keys,
            theta,
        } => out.push_str(&format!(
            "    workload: RwZipf(reads: {reads}, writes: {writes}, keys: {keys}, theta: {theta:?}),\n"
        )),
    }
    if spec.faults.is_empty() {
        out.push_str("    faults: [],\n");
    } else {
        out.push_str("    faults: [\n");
        for ev in &spec.faults {
            out.push_str(&format!("        {},\n", fmt_fault(ev)));
        }
        out.push_str("    ],\n");
    }
    match &spec.expect {
        None => out.push_str("    expect: None,\n"),
        Some(e) => {
            out.push_str("    expect: Some((\n");
            out.push_str(&format!("        committed: {},\n", e.committed));
            out.push_str(&format!(
                "        aborted_attempts: {},\n",
                e.aborted_attempts
            ));
            out.push_str(&format!("        byz_committed: {},\n", e.byz_committed));
            out.push_str(&format!("        digest: {:?},\n", e.digest));
            out.push_str("    )),\n");
        }
    }
    out.push_str(")\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultBudget;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "round-trip".into(),
            seed: u64::MAX - 3, // exceeds f64 precision: must survive
            clients: 6,
            byz_clients: 2,
            byz_strategy: ClientStrategy::StallLate,
            byz_fraction: 0.75,
            f: 1,
            batch_size: 8,
            relax_st2: false,
            warmup_ms: 40,
            duration_ms: 250,
            tail_ms: 70,
            budget: FaultBudget {
                crash: 1,
                deceit: 1,
            },
            workload: WorkloadSpec::RwZipf {
                reads: 2,
                writes: 2,
                keys: 5_000,
                theta: 0.9,
            },
            faults: vec![
                FaultEvent::Crash {
                    replica: 4,
                    at_ms: 60,
                    restart_ms: Some(120),
                    recovery: RecoveryMode::Amnesia,
                },
                FaultEvent::Link {
                    kind: LinkFaultKind::Drop { probability: 1.0 },
                    from: Selector::Replica(4),
                    to: Selector::Any,
                    at_ms: 130,
                    until_ms: 170,
                },
                FaultEvent::Link {
                    kind: LinkFaultKind::Drop { probability: 1.0 },
                    from: Selector::Any,
                    to: Selector::Replica(4),
                    at_ms: 130,
                    until_ms: 170,
                },
                FaultEvent::Link {
                    kind: LinkFaultKind::Drop { probability: 0.25 },
                    from: Selector::Clients,
                    to: Selector::Replica(4),
                    at_ms: 50,
                    until_ms: 100,
                },
                FaultEvent::Link {
                    kind: LinkFaultKind::Delay {
                        extra: Duration::from_micros(300),
                    },
                    from: Selector::Any,
                    to: Selector::Replicas,
                    at_ms: 50,
                    until_ms: 110,
                },
                FaultEvent::Link {
                    kind: LinkFaultKind::Replay { probability: 0.1 },
                    from: Selector::Replicas,
                    to: Selector::Clients,
                    at_ms: 60,
                    until_ms: 90,
                },
                FaultEvent::Link {
                    kind: LinkFaultKind::Corrupt { probability: 0.05 },
                    from: Selector::Replica(2),
                    to: Selector::Any,
                    at_ms: 70,
                    until_ms: 120,
                },
                FaultEvent::ClockSkew {
                    replica: 1,
                    skew_us: -1_500,
                },
                FaultEvent::SlowReplica {
                    replica: 3,
                    cores: 1,
                },
                FaultEvent::Misbehave {
                    replica: 2,
                    behavior: ReplicaBehavior::WithholdVotes,
                    at_ms: 80,
                    revert_ms: None,
                },
            ],
            expect: Some(Expectation {
                committed: 123,
                aborted_attempts: 4,
                byz_committed: 9,
                digest: "abcd".into(),
            }),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let spec = sample();
        let text = encode(&spec);
        let back = decode(&text).expect("decodes");
        assert_eq!(back, spec);
        // Canonical: a second encode is byte-identical.
        assert_eq!(encode(&back), text);
    }

    #[test]
    fn comments_and_whitespace_are_tolerated() {
        let spec = ScenarioSpec {
            expect: None,
            faults: vec![],
            ..sample()
        };
        let mut text = String::from("// a corpus file\n");
        text.push_str(&encode(&spec));
        let back = decode(&text).expect("decodes with comment");
        assert_eq!(back, spec);
    }

    #[test]
    fn decode_errors_are_reported() {
        assert!(decode("NotASpec(name: \"x\")").is_err());
        assert!(decode("ScenarioSpec(name: \"x\"").is_err(), "unterminated");
        let mut broken = encode(&sample());
        broken = broken.replace("byz_strategy: \"stall-late\"", "byz_strategy: \"nope\"");
        assert!(decode(&broken).is_err(), "unknown strategy rejected");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "(", "a("] {
            let err = decode(&open.repeat(100_000)).expect_err("nesting is bounded");
            assert!(err.0.contains("nested deeper"), "{open}: {err:?}");
        }
    }

    #[test]
    fn missing_recovery_field_is_rejected() {
        // A crash names what the replica remembers: there is no default.
        let text = encode(&sample()).replace(", recovery: Amnesia", "");
        assert!(decode(&text).is_err());
        assert!(decode(&encode(&sample()).replace("Amnesia", "Hot")).is_err());
    }

    #[test]
    fn missing_expect_field_defaults_to_none() {
        let spec = ScenarioSpec {
            expect: None,
            ..sample()
        };
        let text = encode(&spec).replace("    expect: None,\n", "");
        assert_eq!(decode(&text).expect("decodes"), spec);
    }
}
