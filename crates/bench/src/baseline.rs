//! Shared schema for the machine-readable `BENCH_*.json` baselines, and the
//! one evaluator every CI guard runs over it.
//!
//! Every experiment that feeds a CI guard emits the same shape — no serde
//! in the dependency tree, so the emitter is a small hand-rolled builder
//! and the parser a small recursive descent over this one shape:
//!
//! ```json
//! {
//!   "experiment": "e17-ingest",
//!   "schema_version": 1,
//!   "config": { "n": 48, "updates": 7000, "trials": 1 },
//!   "rows": [
//!     { "mode": "scalar", "updates_per_sec": 1234.5, "pass": true }
//!   ],
//!   "summary": { "best_batched_updates_per_sec": 9876.5, "pass": true }
//! }
//! ```
//!
//! * `config` — the knobs the measurement ran with (workload sizes, seeds,
//!   trial counts): everything needed to interpret or reproduce the rows.
//! * `rows` — one object per measured configuration, each carrying its own
//!   `pass` verdict so a guard can point at the exact failing row.
//! * `summary` — the aggregates guards compare against, plus the overall
//!   `pass` verdict.
//!
//! Values are rendered deterministically in insertion order; floats use a
//! fixed number of decimals chosen per field, so re-running with identical
//! results produces byte-identical files.
//!
//! ## Gates
//!
//! A [`Guard`] holds one experiment's bounds as a `const` table of [`Gate`]
//! rows, each a `(document path, comparator, bound)`. One evaluator turns
//! that table into all three verdicts: the `pass` flags a writer records
//! ([`Scope::Row`] and [`Scope::Summary`] gates), the verdict on the
//! checked-in file (its recorded summary `pass` plus [`Scope::CheckedIn`]
//! gates), and the verdict on a fresh quick run (every gate but the
//! checked-in ones). Fresh runs are judged on the typed values of the
//! in-memory document, never on its rounded text.
//!
//! Paths: `config.<key>`, `summary.<key>`, `schema_version`, and
//! `rows[<selector>].<key>`, where the selector is `*` or comma-separated
//! `key=value` pairs matched against each row's rendered values (strings
//! unquoted), e.g. `rows[mode=striped,batch=256,threads=2].updates_per_sec`.
//! In a bound, a bare `<key>` names a field of the row being gated. Bools
//! compare as 1 and 0. A path that resolves to nothing is a failure that
//! names the path, never a silent pass.

use std::fmt::Write as _;

/// One JSON value of a baseline document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Int(u64),
    /// A float and the fixed number of decimals it renders with.
    Float(f64, usize),
    Bool(bool),
    Str(String),
    Null,
}

impl Value {
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v, decimals) => format!("{v:.decimals$}"),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("\"{s}\""),
            Value::Null => "null".to_string(),
        }
    }

    /// The number a gate compares: numbers as themselves, bools as 1 or 0.
    pub fn number(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v, _) => Some(*v),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            Value::Str(_) | Value::Null => None,
        }
    }

    /// Rendered text with string quotes dropped, for row selectors.
    fn plain(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            v => v.render(),
        }
    }
}

/// An ordered list of `"key": value` pairs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fields {
    parts: Vec<(String, Value)>,
}

impl Fields {
    pub fn new() -> Fields {
        Fields::default()
    }

    pub fn value(mut self, key: &str, v: Value) -> Fields {
        self.parts.push((key.to_string(), v));
        self
    }

    pub fn u64(self, key: &str, v: u64) -> Fields {
        self.value(key, Value::Int(v))
    }

    pub fn usize(self, key: &str, v: usize) -> Fields {
        self.u64(key, v as u64)
    }

    /// A float with `decimals` fixed decimal places.
    pub fn f64(self, key: &str, v: f64, decimals: usize) -> Fields {
        self.value(key, Value::Float(v, decimals))
    }

    pub fn bool(self, key: &str, v: bool) -> Fields {
        self.value(key, Value::Bool(v))
    }

    /// A string value (callers pass identifiers, never text needing
    /// escapes).
    pub fn str(self, key: &str, v: &str) -> Fields {
        self.value(key, Value::Str(v.to_string()))
    }

    /// `Some(n)` as a number, `None` as JSON `null`.
    pub fn opt_usize(self, key: &str, v: Option<usize>) -> Fields {
        self.opt_u64(key, v.map(|n| n as u64))
    }

    /// `Some(n)` as a number, `None` as JSON `null`.
    pub fn opt_u64(self, key: &str, v: Option<u64>) -> Fields {
        self.value(key, v.map_or(Value::Null, Value::Int))
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.parts.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.parts
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn render_inline(&self) -> String {
        let body = self
            .parts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", v.render()))
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }

    fn render_block(&self, indent: &str) -> String {
        if self.parts.is_empty() {
            return "{}".to_string();
        }
        let body = self
            .parts
            .iter()
            .map(|(k, v)| format!("{indent}  \"{k}\": {}", v.render()))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n{indent}}}")
    }
}

/// One `BENCH_*.json` document in the shared schema.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    pub experiment: String,
    pub schema_version: Value,
    pub config: Fields,
    pub rows: Vec<Fields>,
    pub summary: Fields,
}

impl Baseline {
    pub fn new(experiment: &str) -> Baseline {
        Baseline {
            experiment: experiment.to_string(),
            schema_version: Value::Int(1),
            config: Fields::new(),
            rows: Vec::new(),
            summary: Fields::new(),
        }
    }

    /// Sets the `config` block (builder style).
    pub fn config(mut self, fields: Fields) -> Baseline {
        self.config = fields;
        self
    }

    /// Appends one row; its `pass` flag is stamped by [`Guard::stamp`].
    pub fn row(&mut self, fields: Fields) {
        self.rows.push(fields);
    }

    /// Sets the `summary` block; its `pass` flag is stamped by
    /// [`Guard::stamp`].
    pub fn summary(mut self, fields: Fields) -> Baseline {
        self.summary = fields;
        self
    }

    /// Renders the document. Deterministic for identical inputs.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"{}\",", self.experiment);
        let _ = writeln!(
            out,
            "  \"schema_version\": {},",
            self.schema_version.render()
        );
        let _ = writeln!(out, "  \"config\": {},", self.config.render_block("  "));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(out, "    {}{comma}", r.render_inline());
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"summary\": {}", self.summary.render_block("  "));
        out.push_str("}\n");
        out
    }

    /// Parses a document in the shared schema (the inverse of
    /// [`render`](Self::render), byte for byte).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let mut doc = Baseline::new("");
        p.eat(b'{')?;
        loop {
            let key = p.string()?;
            p.eat(b':')?;
            match key.as_str() {
                "experiment" => doc.experiment = p.string()?,
                "schema_version" => doc.schema_version = p.value()?,
                "config" => doc.config = p.fields()?,
                "summary" => doc.summary = p.fields()?,
                "rows" => {
                    p.eat(b'[')?;
                    while !p.peek(b']') {
                        doc.rows.push(p.fields()?);
                        p.comma();
                    }
                    p.eat(b']')?;
                }
                other => return Err(format!("unknown top-level key {other:?}")),
            }
            if !p.comma() {
                break;
            }
        }
        p.eat(b'}')?;
        Ok(doc)
    }

    /// Every value `path` selects, each tagged with its row index (`None`
    /// outside `rows`). Errors name the path when nothing resolves.
    pub fn resolve(&self, path: &str) -> Result<Vec<(Option<usize>, &Value)>, String> {
        let unresolved = || format!("unresolved path `{path}`");
        let single = if path == "schema_version" {
            Some(Some(&self.schema_version))
        } else if let Some(key) = path.strip_prefix("config.") {
            Some(self.config.get(key))
        } else {
            path.strip_prefix("summary.")
                .map(|key| self.summary.get(key))
        };
        if let Some(v) = single {
            return v.map(|v| vec![(None, v)]).ok_or_else(unresolved);
        }
        let (selector, key) = path
            .strip_prefix("rows[")
            .and_then(|rest| rest.split_once("]."))
            .ok_or_else(unresolved)?;
        let wanted: Vec<(&str, &str)> = if selector == "*" {
            Vec::new()
        } else {
            selector
                .split(',')
                .map(|kv| kv.split_once('=').ok_or_else(unresolved))
                .collect::<Result<_, _>>()?
        };
        let mut out = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            let selected = wanted
                .iter()
                .all(|(k, v)| row.get(k).is_some_and(|x| x.plain() == *v));
            if selected {
                out.push((Some(i), row.get(key).ok_or_else(unresolved)?));
            }
        }
        if out.is_empty() {
            return Err(unresolved());
        }
        Ok(out)
    }

    /// The single number `path` names; with `row`, a bare key is a field
    /// of that row.
    fn number(&self, path: &str, row: Option<usize>) -> Result<f64, String> {
        let values = match row {
            Some(i) if !path.contains('.') => {
                let v = self.rows[i].get(path);
                vec![(row, v.ok_or_else(|| format!("unresolved path `{path}`"))?)]
            }
            _ => self.resolve(path)?,
        };
        match values.as_slice() {
            [(_, v)] => v
                .number()
                .ok_or_else(|| format!("`{path}` = {} is not a number", v.render())),
            _ => Err(format!("`{path}` selects {} values, not one", values.len())),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn peek(&mut self, c: u8) -> bool {
        self.skip_ws();
        self.s.get(self.i) == Some(&c)
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if !self.peek(c) {
            return Err(format!("expected `{}` at byte {}", c as char, self.i));
        }
        self.i += 1;
        Ok(())
    }

    /// Consumes a `,` if one is next.
    fn comma(&mut self) -> bool {
        self.eat(b',').is_ok()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while self.s.get(self.i).is_some_and(|&c| c != b'"') {
            self.i += 1;
        }
        let s = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.eat(b'"')?;
        Ok(s)
    }

    fn fields(&mut self) -> Result<Fields, String> {
        let mut f = Fields::new();
        self.eat(b'{')?;
        while !self.peek(b'}') {
            let key = self.string()?;
            self.eat(b':')?;
            f = f.value(&key, self.value()?);
            self.comma();
        }
        self.eat(b'}')?;
        Ok(f)
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.peek(b'"') {
            return self.string().map(Value::Str);
        }
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|&c| c.is_ascii_alphanumeric() || b".-+".contains(&c))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
        let bad = || format!("bad value `{text}` at byte {start}");
        Ok(match text {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            "null" => Value::Null,
            _ => match text.split_once('.') {
                Some((_, frac)) => Value::Float(text.parse().map_err(|_| bad())?, frac.len()),
                None => Value::Int(text.parse().map_err(|_| bad())?),
            },
        })
    }
}

/// How a gated value compares with its bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cmp {
    Eq,
    Gt,
    Ge,
    Le,
    /// The path resolves; the value is not compared.
    Present,
}

impl Cmp {
    fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Present => true,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Eq => "==",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Le => "<=",
            Cmp::Present => "present",
        }
    }
}

/// What a gated value is compared against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    Num(f64),
    /// `factor ×` the number at another path.
    Path(&'static str, f64),
    /// The sum of the numbers at these paths, plus a constant.
    Sum(&'static [&'static str], f64),
    /// A regression floor: the gated value times the factor is compared
    /// with the checked-in baseline's number at this path.
    Baseline(&'static str, f64),
}

impl Bound {
    pub const TRUE: Bound = Bound::Num(1.0);
    pub const FALSE: Bound = Bound::Num(0.0);
}

/// Which verdicts a gate feeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scope {
    /// The recorded `pass` of every row the path selects, and so the
    /// summary's.
    Row,
    /// The recorded summary `pass`.
    Summary,
    /// Fresh quick runs only; never recorded.
    Fresh,
    /// The checked-in file only.
    CheckedIn,
}

/// One bound, stated once: `path cmp bound`, optionally only `when` a
/// condition on the same document holds (a skipped gate is reported, not
/// silently passed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    pub scope: Scope,
    pub path: &'static str,
    pub cmp: Cmp,
    pub bound: Bound,
    pub when: Option<(&'static str, Cmp, f64)>,
}

impl Gate {
    const fn new(scope: Scope, path: &'static str, cmp: Cmp, bound: Bound) -> Gate {
        Gate {
            scope,
            path,
            cmp,
            bound,
            when: None,
        }
    }

    pub const fn row(path: &'static str, cmp: Cmp, bound: Bound) -> Gate {
        Gate::new(Scope::Row, path, cmp, bound)
    }

    pub const fn summary(path: &'static str, cmp: Cmp, bound: Bound) -> Gate {
        Gate::new(Scope::Summary, path, cmp, bound)
    }

    pub const fn fresh(path: &'static str, cmp: Cmp, bound: Bound) -> Gate {
        Gate::new(Scope::Fresh, path, cmp, bound)
    }

    pub const fn checked_in(path: &'static str, cmp: Cmp, bound: Bound) -> Gate {
        Gate::new(Scope::CheckedIn, path, cmp, bound)
    }

    pub const fn when(mut self, path: &'static str, cmp: Cmp, value: f64) -> Gate {
        self.when = Some((path, cmp, value));
        self
    }

    fn describe(&self) -> String {
        let bound = match self.bound {
            Bound::Num(v) => format!("{v}"),
            Bound::Path(p, 1.0) => p.to_string(),
            Bound::Path(p, f) => format!("{f} × {p}"),
            Bound::Sum(ps, 0.0) => ps.join(" + "),
            Bound::Sum(ps, c) => format!("{} + {c}", ps.join(" + ")),
            Bound::Baseline(p, f) => format!("checked-in {p} / {f}"),
        };
        match self.cmp {
            Cmp::Present => format!("{} present", self.path),
            cmp => format!("{} {} {bound}", self.path, cmp.symbol()),
        }
    }
}

/// The outcome of one gate on one selected value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Verdict {
    Pass,
    Fail(String),
    Skip(String),
}

/// One gate's verdict on one row (`None`: the summary, or an unresolved
/// path).
#[derive(Clone, Debug)]
pub(crate) struct Outcome {
    pub gate: Gate,
    pub row: Option<usize>,
    pub verdict: Verdict,
}

impl Outcome {
    /// A skip is reported but does not fail.
    pub(crate) fn failed(&self) -> bool {
        matches!(self.verdict, Verdict::Fail(_))
    }
}

/// Evaluates every gate in `scopes` over `doc`; `baseline` supplies
/// [`Bound::Baseline`] values and the recorded side of a skip line.
pub(crate) fn evaluate(
    gates: &[Gate],
    scopes: &[Scope],
    doc: &Baseline,
    baseline: Option<&Baseline>,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    for gate in gates.iter().filter(|g| scopes.contains(&g.scope)) {
        let mut push = |row, verdict| {
            out.push(Outcome {
                gate: *gate,
                row,
                verdict,
            })
        };
        if let Some((path, cmp, value)) = gate.when {
            match doc.number(path, None) {
                Ok(v) if cmp.holds(v, value) => {}
                Ok(v) => {
                    let recorded = baseline
                        .and_then(|b| b.number(path, None).ok())
                        .map_or("unrecorded".to_string(), |r| r.to_string());
                    push(
                        None,
                        Verdict::Skip(format!(
                            "needs {path} {} {value}: detected {v} \
                             (checked-in baseline recorded {recorded})",
                            cmp.symbol()
                        )),
                    );
                    continue;
                }
                Err(e) => {
                    push(None, Verdict::Fail(e));
                    continue;
                }
            }
        }
        let selected = match doc.resolve(gate.path) {
            Ok(selected) => selected,
            Err(e) => {
                push(None, Verdict::Fail(e));
                continue;
            }
        };
        for (row, value) in selected {
            push(row, judge(gate, doc, baseline, row, value));
        }
    }
    out
}

fn judge(
    gate: &Gate,
    doc: &Baseline,
    baseline: Option<&Baseline>,
    row: Option<usize>,
    value: &Value,
) -> Verdict {
    if gate.cmp == Cmp::Present {
        return Verdict::Pass;
    }
    let Some(lhs) = value.number() else {
        return Verdict::Fail(format!("{} is not a number", value.render()));
    };
    let (lhs, rhs) = match gate.bound {
        Bound::Num(v) => (Ok(lhs), Ok(v)),
        Bound::Path(p, f) => (Ok(lhs), doc.number(p, row).map(|v| f * v)),
        Bound::Sum(ps, c) => (
            Ok(lhs),
            ps.iter()
                .map(|p| doc.number(p, row))
                .sum::<Result<f64, _>>()
                .map(|s| s + c),
        ),
        Bound::Baseline(p, f) => (
            Ok(lhs * f),
            baseline
                .ok_or_else(|| "no checked-in baseline".to_string())
                .and_then(|b| b.number(p, None)),
        ),
    };
    match (lhs, rhs) {
        (Ok(l), Ok(r)) if gate.cmp.holds(l, r) => Verdict::Pass,
        (Ok(l), Ok(r)) => Verdict::Fail(format!(
            "{} (compared {l} {} {r})",
            value.render(),
            gate.cmp.symbol()
        )),
        (_, Err(e)) | (Err(e), _) => Verdict::Fail(e),
    }
}

/// One guarded experiment: its `check-*` command, default baseline file,
/// gate table, and quick/full measurement.
pub struct Guard {
    pub command: &'static str,
    pub file: &'static str,
    /// A `summary.<key>` field that restates the summary verdict (written
    /// just before `pass`, and required `true` in the checked-in file with
    /// it).
    pub verdict_field: Option<&'static str>,
    pub gates: &'static [Gate],
    /// Runs the experiment (`true` = quick) and returns its document
    /// without `pass` flags.
    pub measure: fn(bool) -> Baseline,
}

impl Guard {
    /// Stamps the recorded verdicts: each row's `pass` (its
    /// [`Scope::Row`] gates), then the verdict field and summary `pass`
    /// (every row and summary gate).
    pub fn stamp(&self, mut doc: Baseline) -> Baseline {
        let outcomes = evaluate(self.gates, &[Scope::Row, Scope::Summary], &doc, None);
        for (i, row) in doc.rows.iter_mut().enumerate() {
            let failed = outcomes
                .iter()
                .any(|o| o.gate.scope == Scope::Row && o.row == Some(i) && o.failed());
            row.parts.push(("pass".to_string(), Value::Bool(!failed)));
        }
        let pass = !outcomes.iter().any(Outcome::failed);
        for path in self.recorded_flags() {
            let key = path.trim_start_matches("summary.");
            doc.summary.parts.push((key.to_string(), Value::Bool(pass)));
        }
        doc
    }

    /// The summary paths that record the summary verdict.
    fn recorded_flags(&self) -> impl Iterator<Item = &'static str> {
        self.verdict_field.into_iter().chain(["summary.pass"])
    }

    /// Runs the experiment, prints the stamped document and writes it to
    /// the guard's baseline file.
    pub fn record(&self, quick: bool) {
        let doc = self.stamp((self.measure)(quick));
        print!("{}", doc.render());
        match std::fs::write(self.file, doc.render()) {
            Ok(()) => println!("  wrote {}", self.file),
            Err(e) => eprintln!("  could not write {}: {e}", self.file),
        }
    }

    /// The checked-in file's verdict: its recorded summary `pass` (and
    /// verdict field) plus the [`Scope::CheckedIn`] gates.
    pub(crate) fn checked_in(&self, baseline: &Baseline) -> Vec<Outcome> {
        let gates: Vec<Gate> = self
            .recorded_flags()
            .map(|path| Gate::checked_in(path, Cmp::Eq, Bound::TRUE))
            .chain(self.gates.iter().copied())
            .collect();
        evaluate(&gates, &[Scope::CheckedIn], baseline, None)
    }

    /// A fresh stamped run's verdict: every row, summary and fresh gate.
    pub(crate) fn fresh(&self, doc: &Baseline, baseline: &Baseline) -> Vec<Outcome> {
        let scopes = [Scope::Row, Scope::Summary, Scope::Fresh];
        evaluate(self.gates, &scopes, doc, Some(baseline))
    }

    /// The CI guard: judges the checked-in baseline, then a fresh quick
    /// run against it. Prints every failure (naming the path and row) and
    /// every skip; returns `false` on any failure.
    pub fn check(&self, baseline_path: &str) -> bool {
        let name = self.command;
        let parsed = std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| Baseline::parse(&text));
        let baseline = match parsed {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{name}: cannot read {baseline_path}: {e}");
                return false;
            }
        };
        let mut ok = report(name, baseline_path, &baseline, &self.checked_in(&baseline));
        let fresh = self.stamp((self.measure)(true));
        ok &= report(
            name,
            "fresh quick run",
            &fresh,
            &self.fresh(&fresh, &baseline),
        );
        if ok {
            println!("{name}: OK");
        }
        ok
    }
}

/// Prints one verdict: a line per failure or skip, one `ok` line per
/// passing gate. Returns whether nothing failed.
fn report(name: &str, what: &str, doc: &Baseline, outcomes: &[Outcome]) -> bool {
    let mut ok = true;
    let mut i = 0;
    while i < outcomes.len() {
        let gate = outcomes[i].gate;
        let same = outcomes[i..].iter().take_while(|o| o.gate == gate).count();
        let mut passed = 0;
        for o in &outcomes[i..i + same] {
            let at = o.row.map_or(String::new(), |r| {
                format!(" at rows[{r}] {}", doc.rows[r].render_inline())
            });
            match &o.verdict {
                Verdict::Pass => passed += 1,
                Verdict::Fail(why) => {
                    ok = false;
                    eprintln!("{name}: FAIL — {what}: {}{at}: {why}", gate.describe());
                }
                Verdict::Skip(why) => {
                    println!("{name}: SKIPPED {} — {why}", gate.describe());
                }
            }
        }
        if passed == same {
            let seen = match doc.resolve(gate.path).as_deref() {
                Ok([(_, v)]) => format!(" (value {})", v.render()),
                _ => format!(" ({same} rows)"),
            };
            println!("{name}: ok — {what}: {}{seen}", gate.describe());
        }
        i += same;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        let mut b = Baseline::new("e99-sample").config(
            Fields::new()
                .usize("n", 48)
                .u64("seed", 7)
                .str("mode", "quick"),
        );
        b.row(
            Fields::new()
                .str("mode", "scalar")
                .opt_usize("batch", None)
                .f64("updates_per_sec", 1234.567, 1),
        );
        b.row(
            Fields::new()
                .str("mode", "batched")
                .opt_usize("batch", Some(256))
                .f64("updates_per_sec", 8000.0, 1),
        );
        b.summary(Fields::new().f64("best", 8000.0, 1).bool("exact", true))
    }

    const SAMPLE: Guard = Guard {
        command: "check-sample",
        file: "BENCH_sample.json",
        verdict_field: Some("summary.acceptable"),
        gates: &[
            Gate::row("rows[*].updates_per_sec", Cmp::Ge, Bound::Num(2000.0)),
            Gate::summary("summary.exact", Cmp::Eq, Bound::TRUE),
            Gate::fresh(
                "summary.best",
                Cmp::Ge,
                Bound::Baseline("summary.best", 5.0),
            ),
        ],
        measure: |_| sample(),
    };

    #[test]
    fn renders_shared_schema() {
        let s = SAMPLE.stamp(sample()).render();
        assert!(s.contains("\"experiment\": \"e99-sample\""));
        assert!(s.contains("\"schema_version\": 1"));
        assert!(s.contains("\"config\": {"));
        assert!(s.contains("\"batch\": null"));
        assert!(s.contains("\"updates_per_sec\": 1234.6, \"pass\": false"));
        assert!(s.contains("\"updates_per_sec\": 8000.0, \"pass\": true"));
        assert!(s.contains("\"acceptable\": false,\n    \"pass\": false\n  }"));
        // Deterministic render.
        assert_eq!(s, SAMPLE.stamp(sample()).render());
    }

    #[test]
    fn parse_inverts_render() {
        let doc = SAMPLE.stamp(sample());
        let text = doc.render();
        let back = Baseline::parse(&text).unwrap();
        assert_eq!(back.render(), text);
        assert_eq!(
            back.resolve("summary.best").unwrap()[0].1.number(),
            Some(8000.0)
        );
        assert!(Baseline::parse("{\"rows\": [}").is_err());
    }

    #[test]
    fn selectors_pick_rows_and_unresolved_paths_fail() {
        let doc = sample();
        let picked = doc.resolve("rows[mode=batched,batch=256].updates_per_sec");
        assert_eq!(picked.unwrap().len(), 1);
        assert_eq!(doc.resolve("rows[*].updates_per_sec").unwrap().len(), 2);
        for missing in [
            "rows[mode=striped].updates_per_sec",
            "summary.nope",
            "rows[*].nope",
        ] {
            let err = doc.resolve(missing).unwrap_err();
            assert!(err.contains(missing), "{err}");
        }
        let gates = [Gate::summary("summary.nope", Cmp::Eq, Bound::TRUE)];
        let out = evaluate(&gates, &[Scope::Summary], &doc, None);
        assert!(matches!(&out[0].verdict, Verdict::Fail(e) if e.contains("summary.nope")));
    }

    #[test]
    fn fresh_gates_read_typed_values_and_baseline_floors() {
        // 1999.96 renders as "2000.0" but is below the bound: the typed
        // value decides, not the rounded text.
        let mut doc = sample();
        *doc.rows[1].get_mut("updates_per_sec").unwrap() = Value::Float(1999.96, 1);
        let stamped = SAMPLE.stamp(doc);
        assert!(stamped
            .render()
            .contains("\"updates_per_sec\": 2000.0, \"pass\": false"));

        let base = SAMPLE.stamp(sample());
        let mut slow = sample();
        *slow.summary.get_mut("best").unwrap() = Value::Float(1599.9, 1);
        let out = SAMPLE.fresh(&SAMPLE.stamp(slow), &base);
        let floor = out.iter().find(|o| o.gate.scope == Scope::Fresh).unwrap();
        assert!(matches!(floor.verdict, Verdict::Fail(_)));

        let conditional =
            [
                Gate::fresh("summary.best", Cmp::Le, Bound::Num(0.0)).when(
                    "config.n",
                    Cmp::Ge,
                    64.0,
                ),
            ];
        let out = evaluate(&conditional, &[Scope::Fresh], &base, Some(&base));
        assert!(matches!(&out[0].verdict, Verdict::Skip(why) if why.contains("detected 48")));
    }

    #[test]
    fn checked_in_verdict_reads_the_recorded_flags() {
        let mut doc = SAMPLE.stamp(sample());
        assert!(SAMPLE
            .checked_in(&doc)
            .iter()
            .any(|o| o.verdict != Verdict::Pass));
        for key in ["acceptable", "pass"] {
            *doc.summary.get_mut(key).unwrap() = Value::Bool(true);
        }
        assert!(SAMPLE
            .checked_in(&doc)
            .iter()
            .all(|o| o.verdict == Verdict::Pass));
    }
}
