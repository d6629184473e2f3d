//! One declaration per serialized struct: the JSON value and its parser,
//! the string escaper, and the [`record!`](crate::record!) macro that
//! derives a struct's JSON writer *and* reader from a single field list.
//!
//! A declaration names every field once, in emission order, with a codec
//! that fixes its JSON shape:
//!
//! | codec         | Rust type            | JSON                                         |
//! |---------------|----------------------|----------------------------------------------|
//! | [`Counter`]   | any integer          | exact integer                                |
//! | [`Exact`]     | `f64`                | shortest round-trip decimal                  |
//! | [`Fixed<N>`]  | `f64`                | `N` fraction digits                          |
//! | [`Ratio`]     | `Option<f64>`        | 6 fraction digits, `null` when `None`        |
//! | [`Interval`]  | `(u64, u64)`         | `[lo,hi]`                                    |
//! | [`Sparse`]    | `[u64; N]`           | nonzero entries as `[[index,value],..]`      |
//! | [`Nested`]    | a record             | nested object                                |
//! | [`Hist`]      | `Log2Hist`           | as `Nested`, reported as a histogram         |
//! | [`Quantiles`] | `HistQuantiles`      | as `Nested`, reported as quantiles           |
//! | [`List`]      | `Vec` of records     | array of objects                             |
//! | [`Table`]     | tag-keyed map        | `[{"tag","label",..row}]` in tag order       |
//! | [`Str`]/[`Bool`] | `String`/`bool`   | string / boolean                             |
//! | [`Null<C>`]   | `Option<T>`          | as `C`, `null` when `None`                   |
//! | [`Omit<C>`]   | `Option<T>`          | as `C`, key left out when `None`             |
//!
//! A field written `name: Codec = getter` is *computed*: emitted from
//! `getter(&self)` and never read back (`ipc`, `total`, ...).
//!
//! ```
//! #[derive(Debug, Default, PartialEq)]
//! struct Pair { a: u64, ratio: Option<f64> }
//! prodigy_sim::record!(Pair { a: Counter, ratio: Ratio, twice: Counter = |p: &Pair| 2 * p.a });
//!
//! use prodigy_sim::record::{parse_json, Record};
//! let p = Pair { a: 3, ratio: None };
//! assert_eq!(p.to_json(), r#"{"a":3,"ratio":null,"twice":6}"#);
//! assert_eq!(Pair::read(&parse_json(&p.to_json()).unwrap()).unwrap(), p);
//! ```
//!
//! Reading is strict: a missing key or a wrong-typed value is an `Err`, so
//! a persisted entry written by a different declaration never reads back
//! as a silently defaulted struct. Everything is hand-rolled: the offline
//! build has no serde.

use crate::telemetry::{source_tag_label, SourceTag};
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::marker::PhantomData;
use std::str::FromStr;

// ------------------------------------------------------------------ JSON

/// A parsed JSON value. Numbers keep their raw source text so 64-bit
/// counters compare and re-emit exactly even where `f64` would round.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number: parsed value plus raw source text.
    Num(f64, String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted (duplicate keys: last wins).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Exact integer parsed from a number's raw source text.
    pub fn as_int<T: FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(_, raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Canonical serialization: object keys in sorted order, numbers
    /// re-emitting their raw source text.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(_, raw) => out.push_str(raw),
            Json::Str(s) => push_str_lit(out, s),
            Json::Arr(items) => write_array(out, items, Json::write),
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, item)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str_lit(out, k);
                    out.push(':');
                    item.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes `[`, each item through `f` (comma-separated), then `]`.
fn write_array<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut f: impl FnMut(I::Item, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        f(item, out);
    }
    out.push(']');
}

fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// Deepest array/object nesting [`parse_json`] accepts. Every report this
/// repo writes nests under ten levels; the limit turns a hostile or corrupt
/// input into an `Err` instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Returns a message with a byte offset on error.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut p = Parser {
        b,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not produced by this
                            // repo's serializers; map lone surrogates to
                            // the replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = &self.b[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8")?
                        .chars()
                        .next()
                        .unwrap();
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .map(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        let v: f64 = raw
            .parse()
            .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
        Ok(Json::Num(v, raw.to_string()))
    }
}

// --------------------------------------------------------------- records

/// What a declared field holds: the codec's shape, or `Computed` for a
/// write-only field. Tools select fields by kind (e.g. `prodigy-diff`
/// accepts every `Quantiles` and `Ratio` field of a cell as an SLO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact integer counter.
    Counter,
    /// Losslessly round-tripped `f64`.
    Exact,
    /// `f64` with a fixed number of fraction digits.
    Fixed,
    /// Optional 6-digit fraction, `null` when absent.
    Ratio,
    /// Integer pair.
    Interval,
    /// Sparse integer array.
    Sparse,
    /// Log2 histogram.
    Hist,
    /// Histogram quantile intervals.
    Quantiles,
    /// Nested record.
    Record,
    /// Array of records.
    List,
    /// Tag-keyed table.
    Table,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// Write-only value derived from other fields.
    Computed,
}

/// A struct whose JSON shape is declared with [`record!`](crate::record!).
pub trait Record: Default {
    /// Every declared field, in emission order, with its kind.
    const FIELDS: &'static [(&'static str, Kind)];

    /// Writes the declared fields into an open object.
    fn write_fields(&self, w: &mut Fields<'_>);

    /// Reads the stored (non-computed) fields from an object.
    ///
    /// # Errors
    /// A message naming the first missing or malformed field.
    fn read_fields(&mut self, v: &Json) -> Result<(), String>;

    /// Serializes to a JSON object.
    fn to_json(&self) -> String {
        let mut s = String::new();
        Nested::write(self, &mut s);
        s
    }

    /// Reconstructs a value from a parsed object; computed fields are not
    /// read, and fields the declaration leaves out keep their defaults.
    ///
    /// # Errors
    /// A message naming the first missing or malformed field.
    fn read(v: &Json) -> Result<Self, String> {
        Nested::read(v)
    }
}

/// Names of `R`'s declared fields of one kind, in declaration order.
pub fn fields_of<R: Record>(kind: Kind) -> Vec<&'static str> {
    R::FIELDS
        .iter()
        .filter(|(_, k)| *k == kind)
        .map(|(n, _)| *n)
        .collect()
}

/// An object being written: emits `"name":value` pairs with separators.
pub struct Fields<'a> {
    out: &'a mut String,
    first: bool,
}

impl Fields<'_> {
    /// Writes one object, `{` + the fields `f` puts + `}`.
    pub fn object(out: &mut String, f: impl FnOnce(&mut Fields<'_>)) {
        out.push('{');
        f(&mut Fields { out, first: true });
        out.push('}');
    }

    /// Writes one field through codec `C` (or nothing when `C` omits it).
    pub fn put<T, C: Codec<T>>(&mut self, name: &str, v: &T) {
        if C::omit(v) {
            return;
        }
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_str_lit(self.out, name);
        self.out.push(':');
        C::write(v, self.out);
    }
}

/// Reads field `name` of object `v` through codec `C`.
///
/// # Errors
/// A message prefixed with the field name.
pub fn get<T, C: Codec<T>>(v: &Json, name: &str) -> Result<T, String> {
    match v.get(name) {
        Some(x) => C::read(x),
        None => C::read_absent(),
    }
    .map_err(|e| format!("{name}: {e}"))
}

/// The kind a codec reports for its fields.
pub trait CodecKind {
    /// See [`Kind`].
    const KIND: Kind;
}

/// How one field's value maps to and from JSON.
pub trait Codec<T>: CodecKind {
    /// Appends the JSON text of `v`.
    fn write(v: &T, out: &mut String);

    /// Parses a present value.
    ///
    /// # Errors
    /// A message describing the mismatch.
    fn read(v: &Json) -> Result<T, String>;

    /// Whether the field is left out of its object.
    fn omit(_v: &T) -> bool {
        false
    }

    /// The value of an absent key (an error unless the codec omits).
    ///
    /// # Errors
    /// `"missing"` for every codec but [`Omit`].
    fn read_absent() -> Result<T, String> {
        Err("missing".to_string())
    }
}

macro_rules! codecs {
    ($($(#[$doc:meta])* $name:ident => $kind:ident;)*) => {$(
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name;
        impl CodecKind for $name {
            const KIND: Kind = Kind::$kind;
        }
    )*};
}

codecs! {
    /// Exact integer (`u64`, `u32`, `usize`, `u128`).
    Counter => Counter;
    /// Losslessly round-tripped `f64` (shortest representation).
    Exact => Exact;
    /// `Option<f64>` with 6 fraction digits, `null` when `None`.
    Ratio => Ratio;
    /// An integer pair.
    Interval => Interval;
    /// A sparse integer array.
    Sparse => Sparse;
    /// A [`crate::Log2Hist`] record.
    Hist => Hist;
    /// A [`crate::HistQuantiles`] record.
    Quantiles => Quantiles;
    /// A nested [`Record`].
    Nested => Record;
    /// A `Vec` of records.
    List => List;
    /// A tag-keyed table (`BTreeMap<SourceTag, row>`).
    Table => Table;
    /// A string.
    Str => Str;
    /// A boolean.
    Bool => Bool;
}

/// `f64` with `N` fraction digits.
#[derive(Debug)]
pub struct Fixed<const N: usize>;

/// `Option<T>` written as `null` when `None`.
#[derive(Debug)]
pub struct Null<C>(PhantomData<C>);

/// `Option<T>` whose key is left out when `None`.
#[derive(Debug)]
pub struct Omit<C>(PhantomData<C>);

impl<const N: usize> CodecKind for Fixed<N> {
    const KIND: Kind = Kind::Fixed;
}
impl<C: CodecKind> CodecKind for Null<C> {
    const KIND: Kind = C::KIND;
}
impl<C: CodecKind> CodecKind for Omit<C> {
    const KIND: Kind = C::KIND;
}

fn num(v: &Json) -> Result<(f64, &str), String> {
    match v {
        Json::Num(n, raw) => Ok((*n, raw)),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

impl<T: Display + FromStr> Codec<T> for Counter {
    fn write(v: &T, out: &mut String) {
        let _ = write!(out, "{v}");
    }
    fn read(v: &Json) -> Result<T, String> {
        let raw = num(v)?.1;
        raw.parse().map_err(|_| format!("bad integer {raw}"))
    }
}

impl Codec<f64> for Exact {
    fn write(v: &f64, out: &mut String) {
        // Non-finite values have no JSON number form; `null` then fails
        // to read back, so such an entry is never served.
        if v.is_finite() {
            let _ = write!(out, "{v:?}");
        } else {
            out.push_str("null");
        }
    }
    fn read(v: &Json) -> Result<f64, String> {
        let raw = num(v)?.1;
        raw.parse().map_err(|_| format!("bad float {raw}"))
    }
}

impl<const N: usize> Codec<f64> for Fixed<N> {
    fn write(v: &f64, out: &mut String) {
        let _ = write!(out, "{v:.N$}");
    }
    fn read(v: &Json) -> Result<f64, String> {
        Ok(num(v)?.0)
    }
}

impl Codec<Option<f64>> for Ratio {
    fn write(v: &Option<f64>, out: &mut String) {
        Null::<Fixed<6>>::write(v, out)
    }
    fn read(v: &Json) -> Result<Option<f64>, String> {
        Null::<Fixed<6>>::read(v)
    }
}

impl Codec<String> for Str {
    fn write(v: &String, out: &mut String) {
        push_str_lit(out, v);
    }
    fn read(v: &Json) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected a string, got {v:?}"))
    }
}

impl Codec<bool> for Bool {
    fn write(v: &bool, out: &mut String) {
        out.push_str(if *v { "true" } else { "false" });
    }
    fn read(v: &Json) -> Result<bool, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, got {other:?}")),
        }
    }
}

impl<T, C: Codec<T>> Codec<Option<T>> for Null<C> {
    fn write(v: &Option<T>, out: &mut String) {
        match v {
            Some(x) => C::write(x, out),
            None => out.push_str("null"),
        }
    }
    fn read(v: &Json) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            x => C::read(x).map(Some),
        }
    }
}

impl<T, C: Codec<T>> Codec<Option<T>> for Omit<C> {
    fn write(v: &Option<T>, out: &mut String) {
        if let Some(x) = v {
            C::write(x, out);
        }
    }
    fn read(v: &Json) -> Result<Option<T>, String> {
        C::read(v).map(Some)
    }
    fn omit(v: &Option<T>) -> bool {
        v.is_none()
    }
    fn read_absent() -> Result<Option<T>, String> {
        Ok(None)
    }
}

impl<T: Record> Codec<T> for Nested {
    fn write(v: &T, out: &mut String) {
        Fields::object(out, |w| v.write_fields(w));
    }
    fn read(v: &Json) -> Result<T, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err(format!("expected an object, got {v:?}"));
        }
        let mut r = T::default();
        r.read_fields(v)?;
        Ok(r)
    }
}

impl<A: Display + FromStr, B: Display + FromStr> Codec<(A, B)> for Interval {
    fn write((a, b): &(A, B), out: &mut String) {
        let _ = write!(out, "[{a},{b}]");
    }
    fn read(v: &Json) -> Result<(A, B), String> {
        match array(v)? {
            [a, b] => Ok((Counter::read(a)?, Counter::read(b)?)),
            _ => Err(format!("expected a pair, got {v:?}")),
        }
    }
}

impl<const N: usize> Codec<[u64; N]> for Sparse {
    fn write(v: &[u64; N], out: &mut String) {
        let nonzero = v.iter().enumerate().filter(|(_, &n)| n > 0);
        write_array(out, nonzero, |(i, n), out| Interval::write(&(i, *n), out));
    }
    fn read(v: &Json) -> Result<[u64; N], String> {
        let mut a = [0; N];
        for pair in array(v)? {
            let (i, n): (usize, u64) = Interval::read(pair)?;
            *a.get_mut(i).ok_or(format!("index {i} out of range"))? += n;
        }
        Ok(a)
    }
}

// Nested records that report their own kind.
macro_rules! nested_as {
    ($($codec:ident),*) => {$(
        impl<T: Record> Codec<T> for $codec {
            fn write(v: &T, out: &mut String) {
                Nested::write(v, out);
            }
            fn read(v: &Json) -> Result<T, String> {
                Nested::read(v)
            }
        }
    )*};
}

nested_as!(Hist, Quantiles);

fn array(v: &Json) -> Result<&[Json], String> {
    v.as_arr()
        .ok_or_else(|| format!("expected an array, got {v:?}"))
}

impl<T: Record> Codec<Vec<T>> for List {
    fn write(v: &Vec<T>, out: &mut String) {
        write_array(out, v, Nested::write);
    }
    fn read(v: &Json) -> Result<Vec<T>, String> {
        array(v)?.iter().map(Nested::read).collect()
    }
}

/// One row of a tag-keyed [`Table`]: its fields follow the row's `tag` and
/// computed `label` inside the same object.
pub trait Row: Sized {
    /// Writes the row's fields.
    fn write_row(&self, w: &mut Fields<'_>);
    /// Reads the row's fields.
    ///
    /// # Errors
    /// A message naming the first missing or malformed field.
    fn read_row(v: &Json) -> Result<Self, String>;
}

impl<T: Record> Row for T {
    fn write_row(&self, w: &mut Fields<'_>) {
        self.write_fields(w);
    }
    fn read_row(v: &Json) -> Result<Self, String> {
        Nested::read(v)
    }
}

/// Resident-line counts per source: the row is one `lines` counter.
impl Row for u64 {
    fn write_row(&self, w: &mut Fields<'_>) {
        w.put::<_, Counter>("lines", self);
    }
    fn read_row(v: &Json) -> Result<Self, String> {
        get::<_, Counter>(v, "lines")
    }
}

impl<V: Row> Codec<BTreeMap<SourceTag, V>> for Table {
    fn write(v: &BTreeMap<SourceTag, V>, out: &mut String) {
        write_array(out, v, |(tag, row), out| {
            Fields::object(out, |w| {
                w.put::<_, Counter>("tag", tag);
                w.put::<_, Str>("label", &source_tag_label(*tag));
                row.write_row(w);
            })
        });
    }
    fn read(v: &Json) -> Result<BTreeMap<SourceTag, V>, String> {
        let mut m = BTreeMap::new();
        for entry in array(v)? {
            m.insert(get::<_, Counter>(entry, "tag")?, V::read_row(entry)?);
        }
        Ok(m)
    }
}

/// Declares a struct's JSON shape once; implements [`Record`] (writer,
/// reader and field list) from it. See the [module docs](crate::record).
///
/// Stored fields read back into `Default::default()`, so a field the
/// declaration leaves out is simply not serialized.
#[macro_export]
macro_rules! record {
    (@kind $codec:ty) => { <$codec as $crate::record::CodecKind>::KIND };
    (@kind $codec:ty, $get:expr) => { $crate::record::Kind::Computed };
    (@put $s:ident, $w:ident, $name:ident, $codec:ty) => {
        $w.put::<_, $codec>(stringify!($name), &$s.$name)
    };
    (@put $s:ident, $w:ident, $name:ident, $codec:ty, $get:expr) => {
        $w.put::<_, $codec>(stringify!($name), &($get)($s))
    };
    (@get $s:ident, $v:ident, $name:ident, $codec:ty) => {
        $s.$name = $crate::record::get::<_, $codec>($v, stringify!($name))?
    };
    (@get $s:ident, $v:ident, $name:ident, $codec:ty, $get:expr) => {};
    ($ty:ty { $($name:ident : $codec:ty $(= $get:expr)?),* $(,)? }) => {
        impl $crate::record::Record for $ty {
            const FIELDS: &'static [(&'static str, $crate::record::Kind)] = {
                #[allow(unused_imports)]
                use $crate::record::*;
                &[$((stringify!($name), $crate::record!(@kind $codec $(, $get)?))),*]
            };
            fn write_fields(&self, w: &mut $crate::record::Fields<'_>) {
                #[allow(unused_imports)]
                use $crate::record::*;
                $($crate::record!(@put self, w, $name, $codec $(, $get)?);)*
            }
            fn read_fields(&mut self, v: &$crate::record::Json) -> Result<(), String> {
                #[allow(unused_imports)]
                use $crate::record::*;
                $($crate::record!(@get self, v, $name, $codec $(, $get)?);)*
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_repo_shapes() {
        let v =
            parse_json(r#"{"a":[1,2.5,null,true],"b":{"c":"xA"},"n":123456789123456789}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("xA"));
        // Raw text preserved for 64-bit-exact integers.
        assert_eq!(
            v.get("n").unwrap().as_int::<u64>(),
            Some(123456789123456789)
        );
        assert!(parse_json("{\"a\":[1,2,").is_err());
        assert!(parse_json("nope").is_err());
        assert!(parse_json("1 2").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(parse_json(&deep).unwrap_err().contains("nesting deeper"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let over = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn escape_handles_specials_and_round_trips() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let s = "tab\there \"q\" \u{1f}";
        let mut out = String::new();
        Json::Str(s.into()).write(&mut out);
        assert_eq!(parse_json(&out).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn reads_are_strict_and_name_the_field() {
        use crate::{PollutionCounts, TelemetrySummary};
        // Absent `Omit` fields are left out and read back as `None`.
        let t = TelemetrySummary::default();
        let text = t.to_json();
        assert!(
            !text.contains("tiers") && !text.contains("occupancy"),
            "{text}"
        );
        assert_eq!(TelemetrySummary::read(&parse_json(&text).unwrap()), Ok(t));
        let read = |s: &str| PollutionCounts::read(&parse_json(s).unwrap()).unwrap_err();
        assert_eq!(read(r#"{"l1":1,"l2":2}"#), "l3: missing");
        assert!(read(r#"{"l1":1,"l2":-2,"l3":3}"#).starts_with("l2: bad integer"));
        assert!(read("[]").starts_with("expected an object"));
    }
}
