//! The one JSON format of the `BENCH_*.json` reports: an ordered writer
//! and the matching reader.
//!
//! The writer ([`Obj`], [`Arr`]) emits members in the order they are
//! added — a fixed order, not a sorted one. Its scalars are integers,
//! booleans and strings (escaped through [`obs::json_escape`]); there
//! are no floats, so a same-seed document is byte-identical on every
//! platform. The reader is just enough to read a report back without a
//! JSON dependency: locate a key's value in an object, split an array
//! into its top-level objects, and read unsigned integers and strings.
//! It is not a general parser — nesting is handled by bracket matching
//! over the document's structure, with string contents skipped.

use std::fmt::Write as _;

/// A value the writer can emit.
pub trait Value {
    /// Appends this value's JSON text to `out`.
    fn write_to(self, out: &mut String);
}

macro_rules! plain_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_to(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
plain_value!(u64, usize, i64, bool);

impl Value for &str {
    fn write_to(self, out: &mut String) {
        out.push('"');
        out.push_str(&obs::json_escape(self));
        out.push('"');
    }
}

/// JSON text already rendered elsewhere, spliced in verbatim — for a
/// format another crate owns, such as `obs::MetricsSnapshot::to_json_lines`.
#[derive(Debug, Clone, Copy)]
pub struct Raw<'a>(pub &'a str);

impl Value for Raw<'_> {
    fn write_to(self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// An object under construction; members keep the order they are added in.
#[derive(Debug, Clone)]
#[must_use]
pub struct Obj(String);

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj(String::from("{"))
    }

    /// Appends the member `"key": value`.
    pub fn field(mut self, key: &str, value: impl Value) -> Self {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        key.write_to(&mut self.0);
        self.0.push(':');
        value.write_to(&mut self.0);
        self
    }

    /// The object as a finished, newline-terminated document.
    #[must_use]
    pub fn finish(self) -> String {
        let mut doc = String::new();
        self.write_to(&mut doc);
        doc.push('\n');
        doc
    }
}

impl Value for Obj {
    fn write_to(self, out: &mut String) {
        out.push_str(&self.0);
        out.push('}');
    }
}

/// An array under construction.
#[derive(Debug, Clone)]
#[must_use]
pub struct Arr(String);

impl Default for Arr {
    fn default() -> Self {
        Self::new()
    }
}

impl Arr {
    /// An empty array.
    pub fn new() -> Self {
        Arr(String::from("["))
    }

    /// Appends one element.
    pub fn push(mut self, value: impl Value) -> Self {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        value.write_to(&mut self.0);
        self
    }
}

impl Value for Arr {
    fn write_to(self, out: &mut String) {
        out.push_str(&self.0);
        out.push(']');
    }
}

impl<V: Value> FromIterator<V> for Arr {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        iter.into_iter().fold(Arr::new(), Arr::push)
    }
}

/// Yields `(byte offset, char)` for every character outside string
/// literals, plus the opening quote of each string — the structure of
/// the document with string contents (and their escapes) skipped.
fn structural(doc: &str) -> impl Iterator<Item = (usize, char)> + '_ {
    let mut in_str = false;
    let mut escaped = false;
    doc.char_indices().filter(move |&(_, c)| {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            return false;
        }
        in_str = c == '"';
        true
    })
}

/// The value at the start of `rest` — an object/array including its
/// brackets, or a scalar up to the enclosing `,`/`}`/`]` outside any
/// string literal.
fn value_at(rest: &str) -> Option<&str> {
    match rest.chars().next()? {
        '{' | '[' => {
            let mut depth = 0usize;
            for (i, c) in structural(rest) {
                match c {
                    '{' | '[' => depth += 1,
                    '}' | ']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(&rest[..=i]);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        _ => {
            let end = structural(rest)
                .find(|&(_, c)| matches!(c, ',' | '}' | ']'))
                .map_or(rest.len(), |(i, _)| i);
            Some(rest[..end].trim())
        }
    }
}

/// Returns the raw text of the value following `"key":` among the
/// top-level members of the object `doc` — an object/array including
/// its brackets, or a scalar up to the enclosing `,`/`}`/`]`. Keys of
/// nested objects never match: reach them by walking the path one
/// level at a time.
#[must_use]
pub fn json_section<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let mut depth = 0usize;
    for (i, c) in structural(doc) {
        match c {
            // A string opening at depth 1 followed by `:` is a member key.
            '"' if depth == 1 && doc[i..].starts_with(&needle) => {
                return value_at(&doc[i + needle.len()..]);
            }
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    None
}

/// Splits an array slice (as returned by [`json_section`], brackets
/// included) into its top-level `{…}` object slices.
#[must_use]
pub fn json_objects(array: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in structural(array) {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = start.take() {
                        out.push(&array[s..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Reads the unsigned integer value of the top-level member `"key"` of
/// an object slice.
#[must_use]
pub fn json_u64(obj: &str, key: &str) -> Option<u64> {
    json_section(obj, key)?.parse().ok()
}

/// Reads the string value of the top-level member `"key"` of an object
/// slice, with its escapes decoded.
#[must_use]
pub fn json_str(obj: &str, key: &str) -> Option<String> {
    let raw = json_section(obj, key)?
        .strip_prefix('"')?
        .strip_suffix('"')?;
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
            }
            c => c,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\"bench\":\"obs_report\",\"seed\":2008,\
         \"catalogue\":[{\"spec\":\"CRC-32\",\"m\":8,\"throughput_bps\":1600000000},\
         {\"spec\":\"odd{\\\"}name\",\"m\":32,\"throughput_bps\":6400000000}],\
         \"storm\":{\"queue_depth\":{\"p99\":7,\"max\":9},\"passed\":true}}";

    #[test]
    fn sections_scalars_and_strings_extract() {
        assert_eq!(json_section(DOC, "seed"), Some("2008"));
        assert_eq!(json_u64(DOC, "seed"), Some(2008));
        assert_eq!(json_str(DOC, "bench").as_deref(), Some("obs_report"));
        let storm = json_section(DOC, "storm").unwrap();
        assert!(storm.starts_with('{') && storm.ends_with('}'));
        assert_eq!(json_section(storm, "passed"), Some("true"));
    }

    #[test]
    fn keys_match_only_at_the_top_level() {
        let storm = json_section(DOC, "storm").unwrap();
        assert_eq!(json_u64(storm, "p99"), None, "p99 is under queue_depth");
        assert_eq!(json_u64(DOC, "m"), None, "m is inside catalogue entries");
        assert_eq!(json_section(DOC, "queue_depth"), None);
        let walked = json_section(storm, "queue_depth").and_then(|q| json_u64(q, "p99"));
        assert_eq!(walked, Some(7));
    }

    #[test]
    fn arrays_split_into_objects_despite_tricky_strings() {
        let cat = json_section(DOC, "catalogue").unwrap();
        let objs = json_objects(cat);
        assert_eq!(objs.len(), 2);
        assert_eq!(json_str(objs[0], "spec").as_deref(), Some("CRC-32"));
        assert_eq!(json_u64(objs[0], "throughput_bps"), Some(1_600_000_000));
        assert_eq!(json_str(objs[1], "spec").as_deref(), Some("odd{\"}name"));
        assert_eq!(json_u64(objs[1], "m"), Some(32));
    }

    #[test]
    fn missing_keys_are_none() {
        assert_eq!(json_section(DOC, "nope"), None);
        assert_eq!(json_u64(DOC, "bench"), None, "strings do not parse as u64");
    }

    #[test]
    fn scalar_strings_holding_separators_read_in_full() {
        let doc = "{\"trace\":\"[Open(0), Feed(1)]\",\"n\":2}";
        assert_eq!(json_section(doc, "trace"), Some("\"[Open(0), Feed(1)]\""));
        assert_eq!(json_u64(doc, "n"), Some(2));
    }

    #[test]
    fn the_committed_counterexample_trace_reads_in_full() {
        let doc = include_str!("../../../baselines/BENCH_analyze.json");
        let models = json_objects(json_section(doc, "model_checking").unwrap());
        let bug = models
            .iter()
            .find(|m| json_str(m, "model").as_deref() == Some("service-prefix-transact-bug"))
            .unwrap();
        let violation = json_objects(json_section(bug, "violations").unwrap())[0];
        assert_eq!(json_u64(violation, "trace_len"), Some(7));
        assert_eq!(
            json_str(violation, "trace").as_deref(),
            Some("[Open(0), Open(1), Feed(0), Feed(0), Feed(1), ArmFault, Pump]")
        );
    }

    #[test]
    fn writer_output_reads_back() {
        let tricky = "q\"b\\s\n\r\t\u{1}\u{1f}end";
        let rows: Arr = (0..3u64)
            .map(|i| {
                Obj::new()
                    .field("i", i)
                    .field("tags", Arr::new().push("a,b").push(i))
            })
            .collect();
        let doc = Obj::new()
            .field("name", tricky)
            .field("max", u64::MAX)
            .field("neg", -5i64)
            .field("yes", true)
            .field("no", false)
            .field("rows", Arr::new().push(rows).push(Arr::new()))
            .field("empty", Obj::new())
            .finish();
        assert!(
            doc.ends_with("}\n") && doc.matches('\n').count() == 1,
            "{doc}"
        );
        assert_eq!(json_str(&doc, "name").as_deref(), Some(tricky));
        assert_eq!(json_u64(&doc, "max"), Some(u64::MAX));
        assert_eq!(json_section(&doc, "neg"), Some("-5"));
        assert_eq!(json_section(&doc, "yes"), Some("true"));
        assert_eq!(json_section(&doc, "no"), Some("false"));
        assert_eq!(json_section(&doc, "empty"), Some("{}"));
        let rows = json_section(&doc, "rows").unwrap();
        assert!(rows.ends_with(",[]]"), "{rows}");
        let objs = json_objects(rows);
        assert_eq!(objs.len(), 3);
        for (i, o) in (0u64..).zip(&objs) {
            assert_eq!(json_u64(o, "i"), Some(i));
            assert_eq!(json_section(o, "tags"), Some(&*format!("[\"a,b\",{i}]")));
        }
    }

    #[test]
    fn raw_lines_splice_verbatim() {
        let mut registry = obs::MetricsRegistry::new();
        let hits = registry.counter("a.hits");
        registry.inc(hits);
        let lines = registry.snapshot().to_json_lines();
        let doc = Obj::new()
            .field("metrics", lines.lines().map(Raw).collect::<Arr>())
            .finish();
        let objs = json_objects(json_section(&doc, "metrics").unwrap());
        assert_eq!(objs, lines.lines().collect::<Vec<_>>());
        assert_eq!(json_str(objs[0], "name").as_deref(), Some("a.hits"));
    }
}
