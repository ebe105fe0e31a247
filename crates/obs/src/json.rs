//! Minimal JSON *extraction* — the read-side counterpart of the
//! hand-rolled exporters.
//!
//! The bench binaries emit flat, sorted, integer-only JSON documents
//! (`BENCH_obs.json`, `BENCH_analyze.json`). The `gate` binary needs to
//! read those documents back without pulling a JSON dependency into the
//! workspace, so this module provides just enough: locate a key's value
//! in an object, split an array into its top-level objects, and pull
//! unsigned integers and strings out of objects. It is not a general
//! JSON parser — nesting is handled only by bracket matching, and
//! numbers are expected to be unsigned integers (the exporters
//! guarantee both).

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
/// brackets, or a scalar up to the enclosing `,`/`}`/`]`.
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
            let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
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

/// Reads the (unescaped-as-written) string value of the top-level
/// member `"key"` of an object slice.
#[must_use]
pub fn json_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let raw = json_section(obj, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
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
        assert_eq!(json_str(DOC, "bench"), Some("obs_report"));
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
        assert_eq!(json_str(objs[0], "spec"), Some("CRC-32"));
        assert_eq!(json_u64(objs[0], "throughput_bps"), Some(1_600_000_000));
        assert_eq!(json_u64(objs[1], "m"), Some(32));
    }

    #[test]
    fn missing_keys_are_none() {
        assert_eq!(json_section(DOC, "nope"), None);
        assert_eq!(json_u64(DOC, "bench"), None, "strings do not parse as u64");
    }
}
