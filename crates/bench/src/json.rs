//! The snapshot document model: a small JSON value with one writer and
//! one reader (for the subset `bench_snapshot` writes), the [`Row`] every
//! snapshot section is built from, and [`drift`], the comparison behind
//! `bench_snapshot --check`.
//!
//! A field's role is fixed by its name, so a document read back from disk
//! splits into the same rows it was written from: [`KEY_FIELDS`] identify
//! a row within its array, `is_host_field` names the host measurements
//! that are never compared, and every other field is deterministic.

use std::collections::BTreeMap;
use std::fmt;

use cc_model::util::json_escape;

/// A JSON value (no `null`). Numbers keep their literal text, so reading
/// and re-writing a document reproduces every number and equality is
/// exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

macro_rules! from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x.to_string())
            }
        }
    )*};
}
from_num!(u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// A 64-bit digest as a `0x`-prefixed, zero-padded hex string.
    pub fn hex(h: u64) -> Json {
        Json::Str(format!("{h:#018x}"))
    }

    /// `x` with a fixed number of decimals.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(format!("{x:.decimals$}"))
    }

    /// The value of field `key`, if `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable access to field `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The document layout: top-level fields one per line, every array of
    /// objects one element per line, everything else inline.
    pub fn pretty(&self) -> String {
        self.render(0)
    }

    fn render(&self, depth: usize) -> String {
        let pad = |d: usize| "  ".repeat(d);
        match self {
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.clone(),
            Json::Str(s) => format!("\"{}\"", json_escape(s)),
            Json::Arr(items) if is_rows(items) => {
                let rows: Vec<_> = items
                    .iter()
                    .map(|v| pad(depth + 1) + &v.render(depth + 1))
                    .collect();
                format!("[\n{}\n{}]", rows.join(",\n"), pad(depth))
            }
            Json::Arr(items) => {
                let items: Vec<_> = items.iter().map(|v| v.render(depth)).collect();
                format!("[{}]", items.join(", "))
            }
            Json::Obj(fields) => {
                let field = |(k, v): &(String, Json)| {
                    format!("\"{}\": {}", json_escape(k), v.render(depth.max(1)))
                };
                let fields: Vec<_> = fields.iter().map(field).collect();
                match depth {
                    0 => format!("{{\n  {}\n}}", fields.join(",\n  ")),
                    _ => format!("{{{}}}", fields.join(", ")),
                }
            }
        }
    }

    /// Reads the JSON subset the writer emits: no `null`, and only the
    /// string escapes `json_escape` produces.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value()?;
        match p.peek() {
            None => Ok(v),
            Some(_) => Err(p.err("trailing characters")),
        }
    }
}

/// Inline, except that lists of objects put one object per line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(1))
    }
}

fn is_rows(items: &[Json]) -> bool {
    !items.is_empty() && items.iter().all(|v| matches!(v, Json::Obj(_)))
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.i)
    }

    /// The next non-blank byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.s[self.i..];
        self.i += rest.len() - rest.trim_start().len();
        self.s.as_bytes().get(self.i).copied()
    }

    /// Consumes `c` if it is the next non-blank byte.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.eat(c) {
            true => Ok(()),
            false => Err(self.err(&format!("expected '{}'", c as char))),
        }
    }

    /// The comma-separated items of an array or object, up to `close`.
    fn items<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        while !self.eat(close) {
            if !out.is_empty() {
                self.expect(b',')?;
            }
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn field(&mut self) -> Result<(String, Json), String> {
        let k = self.string()?;
        self.expect(b':')?;
        Ok((k, self.value()?))
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat(b'{') {
            return self.items(b'}', Self::field).map(Json::Obj);
        }
        if self.eat(b'[') {
            return self.items(b']', Self::value).map(Json::Arr);
        }
        if self.peek() == Some(b'"') {
            return self.string().map(Json::Str);
        }
        let rest = &self.s[self.i..];
        for (word, b) in [("true", true), ("false", false)] {
            if rest.starts_with(word) {
                self.i += word.len();
                return Ok(Json::Bool(b));
            }
        }
        let number = |c: char| c.is_ascii_digit() || "+-.eE".contains(c);
        let len = rest.len() - rest.trim_start_matches(number).len();
        if len == 0 {
            return Err(self.err("expected a value"));
        }
        self.i += len;
        Ok(Json::Num(rest[..len].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.s[self.i..].char_indices();
        while let Some((at, c)) = chars.next() {
            let escape = match c {
                '"' => {
                    self.i += at + 1;
                    return Ok(out);
                }
                '\\' => chars.next().map(|(_, e)| e),
                c => {
                    out.push(c);
                    continue;
                }
            };
            // The escapes `json_escape` writes.
            let c = match escape {
                Some('n') => Some('\n'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                    u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32)
                }
                e => e.filter(|e| matches!(e, '"' | '\\')),
            };
            out.push(c.ok_or_else(|| self.err("bad escape"))?);
        }
        Err(self.err("unterminated string"))
    }
}

/// Fields that identify a row within its array; the row key is the
/// `name=value` list of those present, in this order.
pub const KEY_FIELDS: [&str; 9] = [
    "instance", "workload", "scenario", "pipeline", "bench", "det", "phase", "n", "workers",
];

/// Whether field `name` measures the host (`*_ns`, `*speedup`,
/// `wall_ms`, `requests_per_sec`, `threads`); `--check` never compares
/// those.
fn is_host_field(name: &str) -> bool {
    name.ends_with("_ns")
        || name.ends_with("speedup")
        || matches!(name, "wall_ms" | "requests_per_sec" | "threads")
}

/// One row of a snapshot section, built field by field in output order:
/// key fields identify it, deterministic fields are compared by
/// `--check`, host fields never are. A deterministic field may hold rows
/// itself (per-phase statistics, a nested list). Every builder asserts
/// that the role it declares is the role the field's name implies.
#[derive(Debug, Default)]
pub struct Row(Vec<(String, Json)>);

impl Row {
    fn with(mut self, name: &str, value: Json, role: (bool, bool)) -> Row {
        let implied = (KEY_FIELDS.contains(&name), is_host_field(name));
        assert_eq!(implied, role, "field {name:?} declared with the wrong role");
        self.0.push((name.to_string(), value));
        self
    }

    /// Adds a key field.
    pub fn key(self, name: &str, value: impl Into<Json>) -> Row {
        self.with(name, value.into(), (true, false))
    }

    /// Adds a deterministic field.
    pub fn det(self, name: &str, value: impl Into<Json>) -> Row {
        self.with(name, value.into(), (false, false))
    }

    /// Adds a host measurement.
    pub fn host(self, name: &str, value: impl Into<Json>) -> Row {
        self.with(name, value.into(), (false, true))
    }
}

impl From<Row> for Json {
    fn from(row: Row) -> Json {
        Json::Obj(row.0)
    }
}

fn row_key(row: &Json) -> String {
    let field = |k: &&str| match row.get(k)? {
        Json::Str(s) => Some(format!("{k}={s}")),
        v => Some(format!("{k}={v}")),
    };
    KEY_FIELDS
        .iter()
        .filter_map(field)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The deterministic leaves of `v` by path: object fields as `.name`
/// (host fields skipped), the rows of a row list as `[row key]`, with
/// `#i` appended to the `i`-th repeat of a key so that a duplicated row
/// cannot hide behind the first.
fn leaves(path: String, v: &Json, out: &mut BTreeMap<String, String>) {
    match v {
        Json::Obj(fields) => {
            for (k, v) in fields.iter().filter(|(k, _)| !is_host_field(k)) {
                leaves(format!("{path}.{k}"), v, out);
            }
        }
        Json::Arr(rows) if is_rows(rows) => {
            let mut seen = BTreeMap::new();
            for row in rows {
                let key = row_key(row);
                let repeat = seen.entry(key.clone()).and_modify(|i| *i += 1).or_insert(0);
                let label = if *repeat == 0 {
                    key
                } else {
                    format!("{key} #{repeat}")
                };
                leaves(format!("{path}[{label}]"), row, out);
            }
        }
        leaf => {
            out.insert(path, leaf.to_string());
        }
    }
}

/// Every difference in a deterministic field between the `baseline` and
/// `current` documents, one message each, naming the section, the row
/// key and the field. Only the sections of `current` are compared; a
/// section, row or field present on one side only is a difference too.
pub fn drift(baseline: &Json, current: &Json) -> Vec<String> {
    let Json::Obj(sections) = current else {
        return vec!["the current snapshot is not an object".into()];
    };
    let mut out = Vec::new();
    for (name, got) in sections {
        let Some(want) = baseline.get(name) else {
            out.push(format!("{name}: section missing from the baseline"));
            continue;
        };
        let (mut w, mut g) = (BTreeMap::new(), BTreeMap::new());
        leaves(name.clone(), want, &mut w);
        leaves(name.clone(), got, &mut g);
        for (path, want) in w {
            match g.remove(&path) {
                Some(got) if got == want => {}
                Some(got) => out.push(format!("{path}: baseline {want} != current {got}")),
                None => out.push(format!("{path}: missing from the current run")),
            }
        }
        out.extend(
            g.into_keys()
                .map(|path| format!("{path}: missing from the baseline")),
        );
    }
    out
}
