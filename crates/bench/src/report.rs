//! The one shape every `BENCH_*.json` target returns, and the one code
//! path that writes it.
//!
//! A [`Report`] is an ordered JSON object plus a set of named **gates** —
//! the contracts the run must keep (byte-identity across worker counts,
//! exact attribution sums, zero loss, …). Gates are rendered as the
//! file's first field, `"gates": {name: bool}`, and [`Report::publish`]
//! turns every false gate and every failed write into a problem line, on
//! which the `figures` binary exits non-zero. CI therefore checks the
//! exit status rather than the file's contents.
//!
//! Layout: the top-level fields sit one per line; a top-level array or
//! object puts each entry on its own line; anything nested deeper stays
//! on one line, so a table row is one line of the file.

use chiron_obs::perfetto::Escaped;
use std::fmt;
use std::path::Path;

/// A JSON value. Numbers are rendered at a fixed precision: an `f64`
/// converts at 3 decimals, [`usd`] at 6; a non-finite number is rendered
/// as `null`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered exactly (wide enough for any `u64` digest).
    Int(i128),
    /// A float with its number of decimals.
    Num(f64, usize),
    /// A string.
    Str(String),
    /// Pre-rendered JSON, written verbatim.
    Raw(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Obj),
}

/// Money: pool rents are ~1e-4 USD over a 240 s run, which 3 decimals
/// would collapse to zero.
pub(crate) fn usd(v: f64) -> Json {
    Json::Num(v, 6)
}

/// A digest rendered as 16 hex digits.
pub(crate) fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

json_from!(
    bool => |v| Json::Bool(v),
    f64 => |v| Json::Num(v, 3),
    u8 => |v| Json::Int(v.into()),
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as i128),
    i64 => |v| Json::Int(v.into()),
    &str => |v| Json::Str(v.to_owned()),
    String => |v| Json::Str(v),
    Obj => |v| Json::Obj(v),
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(v: [T; N]) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// A JSON object whose fields keep their insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Obj(Vec<(&'static str, Json)>);

impl Obj {
    /// An empty object.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a field.
    #[must_use]
    pub(crate) fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.0.push((key, value.into()));
        self
    }

    /// The value of field `key`, if present.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push_str(&format!("\"{}\"", Escaped(s)));
}

impl Json {
    /// Renders at `depth` (0 = the file's top-level object): containers at
    /// depth 0 and 1 put one entry per line, deeper ones stay inline.
    fn render(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(v, decimals) if v.is_finite() => {
                out.push_str(&format!("{v:.decimals$}"));
            }
            Json::Num(..) => out.push_str("null"),
            Json::Str(s) => push_str(out, s),
            Json::Raw(raw) => out.push_str(raw),
            Json::Arr(items) => render_entries(out, depth, ('[', ']'), items, |out, item| {
                item.render(out, depth + 1);
            }),
            Json::Obj(Obj(fields)) => {
                render_entries(out, depth, ('{', '}'), fields, |out, (key, value)| {
                    push_str(out, key);
                    out.push_str(": ");
                    value.render(out, depth + 1);
                });
            }
        }
    }
}

fn render_entries<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    entries: &[T],
    mut entry: impl FnMut(&mut String, &T),
) {
    let (lead, sep, tail) = if depth <= 1 && !entries.is_empty() {
        let pad = "  ".repeat(depth);
        (
            format!("\n{pad}  "),
            format!(",\n{pad}  "),
            format!("\n{pad}"),
        )
    } else {
        (String::new(), ", ".to_owned(), String::new())
    };
    out.push(open);
    for (i, e) in entries.iter().enumerate() {
        out.push_str(if i == 0 { &lead } else { &sep });
        entry(out, e);
    }
    out.push_str(&tail);
    out.push(close);
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, 0);
        f.write_str(&out)
    }
}

/// Everything a BENCH target produces: its JSON file, the gates the run
/// must keep, extra artifacts (traces, flame profiles) and a
/// human-readable summary.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// File the JSON is written to, e.g. `BENCH_FLEET.json`.
    pub(crate) file: &'static str,
    /// The report's fields, in file order (the gates are rendered first).
    pub(crate) json: Obj,
    /// Named contracts, in the order they were recorded.
    pub(crate) gates: Vec<(&'static str, bool)>,
    /// `(file name, contents)` written next to the JSON.
    pub(crate) artifacts: Vec<(&'static str, String)>,
    /// Human-readable summary printed before the JSON (may be empty).
    pub(crate) text: String,
}

impl Report {
    /// An empty report destined for `file`.
    pub(crate) fn new(file: &'static str) -> Self {
        Self {
            file,
            ..Self::default()
        }
    }

    /// Records gate `name`.
    pub(crate) fn gate(&mut self, name: &'static str, ok: bool) {
        self.gates.push((name, ok));
    }

    /// The contents of artifact `file`, if the report carries one.
    #[cfg(test)]
    pub(crate) fn artifact(&self, file: &str) -> Option<&str> {
        self.artifacts
            .iter()
            .find(|(f, _)| *f == file)
            .map(|(_, contents)| contents.as_str())
    }

    /// The JSON document: `"gates"` first, then the fields.
    pub(crate) fn render(&self) -> String {
        let gates = self
            .gates
            .iter()
            .fold(Obj::new(), |o, &(name, ok)| o.field(name, ok));
        let mut top = Obj::new().field("gates", gates);
        top.0.extend(self.json.0.iter().cloned());
        Json::Obj(top).to_string()
    }

    /// Writes the JSON and every artifact under `dir` and returns one line
    /// per problem: each false gate and each failed write. `figures`
    /// exits non-zero when any report returns a problem.
    pub fn publish(&self, dir: &Path) -> Vec<String> {
        let mut problems: Vec<String> = self
            .gates
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| format!("{}: gate {name} is false", self.file))
            .collect();
        let json = self.render() + "\n";
        let files = std::iter::once((self.file, json.as_str()))
            .chain(self.artifacts.iter().map(|(f, c)| (*f, c.as_str())));
        for (file, contents) in files {
            match std::fs::write(dir.join(file), contents) {
                Ok(()) => eprintln!("wrote {file}"),
                Err(e) => problems.push(format!("could not write {file}: {e}")),
            }
        }
        problems
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.text.is_empty() {
            writeln!(f, "{}", self.text)?;
        }
        f.write_str(&self.render())
    }
}

/// Asserts that `report` records `count` gates and that each holds, except
/// the wall-clock gates named in `exempt` (unoptimised test builds do not
/// meet them reliably), which must be recorded all the same.
#[cfg(test)]
pub(crate) fn assert_gates(report: &Report, count: usize, exempt: &[&str]) {
    assert_eq!(report.gates.len(), count, "gates of {}", report.file);
    for name in exempt {
        assert!(
            report.gates.iter().any(|(n, _)| n == name),
            "no gate {name}"
        );
    }
    let failed: Vec<&str> = report
        .gates
        .iter()
        .filter(|&&(name, ok)| !ok && !exempt.contains(&name))
        .map(|&(name, _)| name)
        .collect();
    assert!(failed.is_empty(), "{failed:?} false:\n{}", report.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("BENCH_TEST.json");
        r.gate("zero_loss", true);
        r.gate("spill_exercised", true);
        let rows = vec![
            Obj::new()
                .field("ms", 1.23456)
                .field("split", [0.5, f64::NAN])
                .field("nested", Obj::new().field("x", Json::Null)),
            Obj::new().field("ms", f64::INFINITY).field("ok", false),
        ];
        r.json = Obj::new()
            .field("workers", 4u64)
            .field("scenario", "a \"b\"")
            .field("rows", rows)
            .field("cost", usd(1.5e-4))
            .field("digest", hex(0xabc))
            .field("empty", Vec::<u64>::new())
            .field("first_alert_s", Option::<f64>::None)
            .field("big", u64::MAX);
        r
    }

    #[test]
    fn renders_ordered_fields_nulls_nesting_and_gates() {
        let expected = concat!(
            "{\n",
            "  \"gates\": {\n",
            "    \"zero_loss\": true,\n",
            "    \"spill_exercised\": true\n",
            "  },\n",
            "  \"workers\": 4,\n",
            "  \"scenario\": \"a \\\"b\\\"\",\n",
            "  \"rows\": [\n",
            "    {\"ms\": 1.235, \"split\": [0.500, null], \"nested\": {\"x\": null}},\n",
            "    {\"ms\": null, \"ok\": false}\n",
            "  ],\n",
            "  \"cost\": 0.000150,\n",
            "  \"digest\": \"0000000000000abc\",\n",
            "  \"empty\": [],\n",
            "  \"first_alert_s\": null,\n",
            "  \"big\": 18446744073709551615\n",
            "}"
        );
        let report = sample();
        assert_eq!(report.render(), expected);
        assert_eq!(report.json.get("workers"), Some(&Json::Int(4)));
        assert_eq!(report.json.get("missing"), None);
    }

    #[test]
    fn publish_fails_the_run_on_a_false_gate_or_a_failed_write() {
        let dir = std::env::temp_dir().join(format!("chiron-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut report = sample();
        report.artifacts.push(("trace.txt", "events".into()));
        // Every gate holds and both files land: nothing to report.
        assert!(report.publish(&dir).is_empty());
        let written = std::fs::read_to_string(dir.join("BENCH_TEST.json")).expect("written");
        assert_eq!(written, report.render() + "\n");
        let artifact = std::fs::read_to_string(dir.join("trace.txt")).expect("artifact");
        assert_eq!(artifact, "events");
        // One false gate is enough.
        report.gate("regime_detected", false);
        let problems = report.publish(&dir);
        assert_eq!(problems, ["BENCH_TEST.json: gate regime_detected is false"]);
        // A path under a missing directory cannot be written, whatever the
        // process's privileges; each failed file is its own problem.
        report.gates.pop();
        let problems = report.publish(&dir.join("missing"));
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("could not write BENCH_TEST.json"));
        assert!(problems[1].starts_with("could not write trace.txt"));
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}
