//! The workspace's one JSON module, with no external dependencies: a
//! reader and a writer over one value type, [`Json`].
//!
//! The reader ([`parse`]) is a recursive-descent parser over the full
//! grammar, built for hostile input as the service's front door: errors
//! carry the byte offset, nesting is bounded so no line can overflow a
//! worker's stack, and parsing is linear in the input. Objects keep their
//! members in input order, duplicates included.
//!
//! The writer is the only code that lays out JSON text, in two forms:
//! [`Json::pretty`] is Python's `json.dumps(v, indent=2,
//! ensure_ascii=False)` and [`Json::compact`] adds `separators=(",",
//! ":")`. A number carries its text: the reader keeps the literal it read,
//! and writers make numbers only through typed constructors (`From` an
//! integer, [`Json::fixed`], [`Json::float`]), so every written document
//! parses back and its bytes are deterministic.

/// The deepest array/object nesting [`parse`] accepts, the usual limit of
/// Rust JSON readers. The parser recurses once per level, so this bounds
/// its stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects are member lists in insertion (or input) order,
/// so a document is written back in the order it was built or read.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its text.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: its members in order, duplicate keys kept.
    Obj(Vec<(String, Json)>),
}

/// The text of a JSON number: the literal the reader read, or what a
/// typed constructor wrote. Two numbers are equal when their texts are.
#[derive(Clone, Debug, PartialEq)]
pub struct Number(String);

/// A [`Json`] object literal, members in the order written, each value
/// converted with `Json::from`:
/// `json_obj! { "plan" => name, "seed" => 1u64, "wasted_s" => Json::fixed(w, 3) }`.
#[macro_export]
macro_rules! json_obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.into(), $crate::json::Json::from($value))),*])
    };
}

/// `From` conversions: each `type => |value| json` arm is one impl.
macro_rules! from {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

from! {
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
    u32 => |n| Json::Num(Number(n.to_string())),
    u64 => |n| Json::Num(Number(n.to_string())),
    usize => |n| Json::Num(Number(n.to_string())),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object with `members` in the given order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` with exactly `decimals` digits after the point, as `{:.N}`
    /// prints it; `null` when `x` is not finite.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        if x.is_finite() {
            Json::Num(Number(format!("{x:.decimals$}")))
        } else {
            Json::Null
        }
    }

    /// `x` in the shortest text that reads back to the same `f64`, with a
    /// `.0` on an integral value below 10^15 so it still reads as a float;
    /// `null` when `x` is not finite.
    pub fn float(x: f64) -> Json {
        if x.fract() == 0.0 && x.abs() < 1e15 {
            Json::fixed(x, 1)
        } else if x.is_finite() {
            Json::Num(Number(x.to_string()))
        } else {
            Json::Null
        }
    }

    /// The *last* member named `key` of an object (a later duplicate
    /// overrides an earlier one); `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets the member `key` of an object: the member [`Json::get`] finds
    /// takes `value` in place, or a new member is appended. Returns
    /// `false`, changing nothing, on a non-object.
    pub fn set(&mut self, key: &str, value: Json) -> bool {
        let Json::Obj(members) = self else {
            return false;
        };
        match members.iter_mut().rev().find(|(k, _)| k == key) {
            Some(member) => member.1 = value,
            None => members.push((key.to_string(), value)),
        }
        true
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number's value, if this is a number (JSON does not
    /// distinguish integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            // Every text was made by `f64`'s own formatting or accepted by
            // its parser, so it parses.
            Json::Num(n) => n.0.parse().ok(),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self.as_f64()? {
            n if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value in Python's `json.dumps(v, indent=2, ensure_ascii=False)`
    /// layout: one member or element per line, two spaces per level,
    /// `"key": value`, and `[]`/`{}` for empty containers.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// The value on one line with no spaces, Python's
    /// `separators=(",", ":")`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value; `indent` is the nesting level in the pretty
    /// form, `None` in the compact one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.0),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Obj(members) => {
                write_seq(out, indent, ('{', '}'), members, |out, (k, v), inner| {
                    write_str(out, k);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner)
                })
            }
        }
    }
}

/// Writes a container: `open`, each of `items` written by `item` one
/// level deeper (on its own line in the pretty form), then `close`.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    item: impl Fn(&mut String, &T, Option<usize>),
) {
    let inner = indent.map(|level| level + 1);
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        newline(out, inner);
        item(out, x, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

/// Starts a pretty-form line at nesting `level`; nothing in the compact
/// form.
fn newline(out: &mut String, level: Option<usize>) {
    if let Some(level) = level {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
}

/// Writes `s` as a string literal. The escapes are Python's
/// `json.dumps(..., ensure_ascii=False)`: `"`, `\` and the control
/// characters, with the short forms where JSON has one and `\u00xx`
/// otherwise.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // end on char boundaries and are copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (so `{"a":1} garbage` is rejected, not silently truncated).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Runs `body` (an array or object) one nesting level deeper.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = &self.text[start..self.pos];
        match raw.parse::<f64>() {
            Ok(_) => Ok(Json::Num(Number(raw.to_string()))),
            Err(_) => Err(format!("bad number {raw:?} at byte {start}")),
        }
    }

    /// The code unit of the `\uXXXX` escape whose `u` is at `self.pos`;
    /// leaves `self.pos` on its last hex digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or("truncated \\u escape")?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".to_string());
        }
        self.pos += 4;
        Ok(u32::from_str_radix(&self.text[self.pos - 3..=self.pos], 16).unwrap_or(0))
    }

    /// Decodes the `\u` escape whose `u` is at `self.pos`, joining a
    /// UTF-16 surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos - 1;
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
        }
        // Only a surrogate left unpaired is not a character.
        char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {at}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => out.push(self.unicode_escape()?),
                other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_query_shapes() {
        let q = parse(
            r#"{"id":"q1","kind":"drill","machines":16,"failures":[[5,"hardware"]],"deep":{"a":null,"b":true}}"#,
        )
        .unwrap();
        assert_eq!(q.get("id").unwrap().as_str(), Some("q1"));
        assert_eq!(q.get("machines").unwrap().as_u64(), Some(16));
        let failures = q.get("failures").unwrap().as_array().unwrap();
        assert_eq!(failures[0].as_array().unwrap()[0].as_u64(), Some(5));
        assert_eq!(q.get("deep").unwrap().get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} extra"#).unwrap_err().contains("trailing"));
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1,2,").is_err());
        assert!(parse(r#""open"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1.2.3").is_err());
    }

    #[test]
    fn error_messages_are_stable() {
        // Serve responses and the benchmark's reject lines quote these.
        assert_eq!(
            parse("not json").unwrap_err(),
            "expected \"null\" at byte 0"
        );
        assert_eq!(parse("xyz").unwrap_err(), "unexpected 'x' at byte 0");
        assert_eq!(
            parse(r#"{"a":1"#).unwrap_err(),
            "expected ',' or '}' at byte 6"
        );
        assert_eq!(parse("[1 2]").unwrap_err(), "expected ',' or ']' at byte 3");
        assert_eq!(parse(r#""open"#).unwrap_err(), "unterminated string");
        assert_eq!(
            parse(r#""\x""#).unwrap_err(),
            "bad escape Some(120) at byte 2"
        );
        assert_eq!(parse(r#""\u12zz""#).unwrap_err(), "bad \\u escape");
        assert_eq!(parse(r#""\u+041""#).unwrap_err(), "bad \\u escape");
        assert_eq!(parse(r#""\u12""#).unwrap_err(), "truncated \\u escape");
        assert_eq!(parse("-").unwrap_err(), "bad number \"-\" at byte 0");
        assert_eq!(parse("{1:2}").unwrap_err(), "expected '\"' at byte 1");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        let lit = |s: &str| Json::from(s).compact();
        assert_eq!(lit("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(lit("\u{1}"), "\"\\u0001\"");
        assert_eq!(lit("\u{8}\u{c}\u{7f}—"), "\"\\b\\f\u{7f}—\"");
        let all: String = (0u8..0x80).map(char::from).chain("—😀".chars()).collect();
        assert_eq!(parse(&lit(&all)).unwrap().as_str(), Some(&*all));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&deep(MAX_DEPTH + 1)).unwrap_err(),
            "nesting deeper than 128 at byte 128"
        );
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            parse(&objects).unwrap_err(),
            "nesting deeper than 128 at byte 640"
        );
        // Far past any stack: rejected at the limit, never recursed into.
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        // Depth is per path, not cumulative across siblings.
        let wide = format!("[{}]", vec![deep(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One copy per run between quotes and backslashes: half a
        // megabyte of string is a few copies, not a rescan of the rest of
        // the input per character (seconds, before runs were copied).
        let body = "é".repeat(1 << 17) + "\\n" + &"x".repeat(1 << 18);
        let start = std::time::Instant::now();
        let v = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(v.as_str().map(str::len), Some(1 << 19 | 1));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // Python's `json.dumps` writes every non-BMP character this way.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""a\uD83D\uDE00b""#).unwrap().as_str(), Some("a😀b"));
        assert_eq!(parse(r#""\u00e9\u2014""#).unwrap().as_str(), Some("é—"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
        ] {
            assert_eq!(
                parse(lone).unwrap_err(),
                "lone surrogate at byte 1",
                "{lone}"
            );
        }
        assert_eq!(parse(r#""\ud83d\u12zz""#).unwrap_err(), "bad \\u escape");
    }

    #[test]
    fn numbers_parse_and_gate_integers() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e2").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = parse(r#"[1.0, 1e2, -0.50, 7]"#).unwrap();
        assert_eq!(v.compact(), "[1.0,1e2,-0.50,7]");
        assert_eq!(v.as_array().unwrap()[1].as_f64(), Some(100.0));
    }

    #[test]
    fn members_come_back_in_input_order_and_the_last_duplicate_wins() {
        let v = parse(r#"{"z":1,"a":2,"m":{"y":3,"b":4},"a":5}"#).unwrap();
        let Json::Obj(members) = &v else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m", "a"]);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(5));
        assert_eq!(v.compact(), r#"{"z":1,"a":2,"m":{"y":3,"b":4},"a":5}"#);
        let id = parse(r#"{"id":"a","id":"b"}"#).unwrap();
        assert_eq!(id.get("id").and_then(Json::as_str), Some("b"));
    }

    #[test]
    fn set_replaces_in_place_or_appends() {
        let mut v = parse(r#"{"a":1,"b":2,"a":3,"c":4}"#).unwrap();
        assert!(v.set("a", Json::from(9u64)));
        assert!(v.set("d", Json::Null));
        assert_eq!(v.compact(), r#"{"a":1,"b":2,"a":9,"c":4,"d":null}"#);
        assert_eq!(v.get("a"), Some(&Json::from(9u64)));
        assert!(!Json::from(1u64).set("a", Json::Null));
    }

    #[test]
    fn typed_numbers_and_non_finite_values() {
        assert_eq!(Json::fixed(2.0 / 3.0, 3).compact(), "0.667");
        assert_eq!(Json::fixed(99_884_400.0, 0).compact(), "99884400");
        assert_eq!(Json::float(1_905_799.0).compact(), "1905799.0");
        assert_eq!(Json::float(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::float(1e15).compact(), "1000000000000000");
        assert_eq!(Json::from(u64::MAX).compact(), "18446744073709551615");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::fixed(x, 3), Json::Null);
            assert_eq!(Json::float(x), Json::Null);
            assert_eq!(Json::fixed(x, 3).compact(), "null");
        }
    }

    #[test]
    fn both_forms_match_python() {
        let v = Json::obj([
            ("a", Json::from(vec![1u64, 2])),
            ("e", Json::Arr(vec![])),
            ("o", Json::obj([("k", Json::Null)])),
            ("n", Json::obj::<&str>([])),
            ("s", Json::from("é\u{1}")),
        ]);
        // json.dumps(v, indent=2, ensure_ascii=False)
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"e\": [],\n  \"o\": {\n    \"k\": null\n  },\n  \
             \"n\": {},\n  \"s\": \"é\\u0001\"\n}"
        );
        // json.dumps(v, separators=(",", ":"), ensure_ascii=False)
        assert_eq!(
            v.compact(),
            r#"{"a":[1,2],"e":[],"o":{"k":null},"n":{},"s":"é\u0001"}"#
        );
        assert_eq!(Json::from(true).pretty(), "true");
    }
}
