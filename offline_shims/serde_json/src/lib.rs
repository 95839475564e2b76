//! Minimal offline stand-in for `serde_json` 1 — see
//! `offline_shims/README.md`. Real JSON parsing and printing over the
//! `serde` shim's in-memory [`Value`] model.

pub use serde::{Error, Object, Value};
use serde::{Deserialize, Serialize};

pub type Result<T> = std::result::Result<T, Error>;

/// Parses JSON text into any shim-`Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let v = parse::parse(s)?;
    T::from_value(&v)
}

/// Parses JSON bytes into any shim-`Deserialize` type.
pub fn from_slice<T: Deserialize>(b: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(b).map_err(|e| Error(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

/// Converts any shim-`Serialize` type to its `Value`.
pub fn to_value<T: Serialize>(v: T) -> Result<Value> {
    Ok(v.to_value())
}

/// Compact JSON text (`{"k":1}` — no spaces, like the real crate).
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    let mut out = String::new();
    print::compact(&v.to_value(), &mut out);
    Ok(out)
}

/// Pretty JSON text (2-space indent, like the real crate).
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String> {
    let mut out = String::new();
    print::pretty(&v.to_value(), 0, &mut out);
    Ok(out)
}

/// Compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(v: &T) -> Result<Vec<u8>> {
    to_string(v).map(String::into_bytes)
}

/// Builds a [`Value`] from a JSON-ish literal: nested `{...}`/`[...]`
/// literals, `null`, and arbitrary `Serialize` expressions as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut __o = $crate::Object::new();
        $crate::json_object_entries!(__o $($tt)*);
        $crate::Value::Object(__o)
    }};
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut __a: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array_elems!(__a $($tt)*);
        $crate::Value::Array(__a)
    }};
    ($other:expr) => { ::serde::Serialize::to_value(&$other) };
}

/// `json!` internal: munch `"key": value, ...` object entries.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_entries {
    ($o:ident) => {};
    ($o:ident $k:literal : null $(, $($rest:tt)*)?) => {
        $o.insert($k, $crate::Value::Null);
        $( $crate::json_object_entries!($o $($rest)*); )?
    };
    ($o:ident $k:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $o.insert($k, $crate::json!({ $($inner)* }));
        $( $crate::json_object_entries!($o $($rest)*); )?
    };
    ($o:ident $k:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $o.insert($k, $crate::json!([ $($inner)* ]));
        $( $crate::json_object_entries!($o $($rest)*); )?
    };
    ($o:ident $k:literal : $v:expr $(, $($rest:tt)*)?) => {
        $o.insert($k, ::serde::Serialize::to_value(&$v));
        $( $crate::json_object_entries!($o $($rest)*); )?
    };
}

/// `json!` internal: munch array elements.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_elems {
    ($a:ident) => {};
    ($a:ident null $(, $($rest:tt)*)?) => {
        $a.push($crate::Value::Null);
        $( $crate::json_array_elems!($a $($rest)*); )?
    };
    ($a:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $a.push($crate::json!({ $($inner)* }));
        $( $crate::json_array_elems!($a $($rest)*); )?
    };
    ($a:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $a.push($crate::json!([ $($inner)* ]));
        $( $crate::json_array_elems!($a $($rest)*); )?
    };
    ($a:ident $v:expr $(, $($rest:tt)*)?) => {
        $a.push(::serde::Serialize::to_value(&$v));
        $( $crate::json_array_elems!($a $($rest)*); )?
    };
}

mod parse {
    use super::{Error, Object, Value};

    pub fn parse(s: &str) -> Result<Value, Error> {
        let mut p = Parser {
            s,
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(Error(format!("trailing characters at byte {}", p.i)));
        }
        Ok(v)
    }

    struct Parser<'a> {
        /// The text being parsed, and its bytes.
        s: &'a str,
        b: &'a [u8],
        i: usize,
    }

    impl<'a> Parser<'a> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn err(&self, msg: &str) -> Error {
            Error(format!("{msg} at byte {}", self.i))
        }

        fn eat(&mut self, c: u8) -> Result<(), Error> {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected `{}`", c as char)))
            }
        }

        fn value(&mut self) -> Result<Value, Error> {
            match self.b.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.lit("true", Value::Bool(true)),
                Some(b'f') => self.lit("false", Value::Bool(false)),
                Some(b'n') => self.lit("null", Value::Null),
                Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
                _ => Err(self.err("expected a JSON value")),
            }
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, Error> {
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(self.err(&format!("expected `{word}`")))
            }
        }

        fn object(&mut self) -> Result<Value, Error> {
            self.eat(b'{')?;
            let mut o = Object::new();
            self.ws();
            if self.b.get(self.i) == Some(&b'}') {
                self.i += 1;
                return Ok(Value::Object(o));
            }
            loop {
                self.ws();
                let key = self.string()?;
                self.ws();
                self.eat(b':')?;
                self.ws();
                let val = self.value()?;
                o.insert(key, val);
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Value::Object(o));
                    }
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, Error> {
            self.eat(b'[')?;
            let mut a = Vec::new();
            self.ws();
            if self.b.get(self.i) == Some(&b']') {
                self.i += 1;
                return Ok(Value::Array(a));
            }
            loop {
                self.ws();
                a.push(self.value()?);
                self.ws();
                match self.b.get(self.i) {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Value::Array(a));
                    }
                    _ => return Err(self.err("expected `,` or `]`")),
                }
            }
        }

        fn string(&mut self) -> Result<String, Error> {
            self.eat(b'"')?;
            let mut s = String::new();
            loop {
                match self.b.get(self.i) {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(s);
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                self.i += 1;
                                let cp = match self.hex4()? {
                                    // A high surrogate must be followed by
                                    // the escape of a low one.
                                    hi @ 0xD800..=0xDBFF => {
                                        if !self.b[self.i..].starts_with(b"\\u") {
                                            return Err(self.err("unpaired surrogate"));
                                        }
                                        self.i += 2;
                                        match self.hex4()? {
                                            lo @ 0xDC00..=0xDFFF => {
                                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                            }
                                            _ => return Err(self.err("unpaired surrogate")),
                                        }
                                    }
                                    cp => cp,
                                };
                                // `None` only for a lone low surrogate.
                                let c = char::from_u32(cp)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?;
                                s.push(c);
                                continue;
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                        self.i += 1;
                    }
                    Some(_) => {
                        // Copy the run up to the next `"` or `\`: both are
                        // ASCII, so the run ends on a char boundary.
                        let end = self.b[self.i..]
                            .iter()
                            .position(|&c| c == b'"' || c == b'\\')
                            .map_or(self.b.len(), |k| self.i + k);
                        s.push_str(&self.s[self.i..end]);
                        self.i = end;
                    }
                }
            }
        }

        /// Reads the four hex digits of a `\u` escape, starting at `self.i`.
        fn hex4(&mut self) -> Result<u32, Error> {
            let b: &'a [u8] = self.b;
            let digits = b
                .get(self.i..self.i + 4)
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let cp = digits
                .iter()
                .try_fold(0u32, |cp, &d| Some(cp << 4 | (d as char).to_digit(16)?))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            self.i += 4;
            Ok(cp)
        }

        fn number(&mut self) -> Result<Value, Error> {
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            let mut is_float = false;
            while let Some(c) = self.b.get(self.i) {
                match c {
                    b'0'..=b'9' => self.i += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_float = true;
                        self.i += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
            if !is_float {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            }
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

mod print {
    use super::Value;

    pub fn compact(v: &Value, out: &mut String) {
        v.write_compact(out);
    }

    pub fn pretty(v: &Value, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match v {
            Value::Array(a) if !a.is_empty() => {
                out.push_str("[\n");
                for (i, e) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad_in);
                    pretty(e, indent + 1, out);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(o) if !o.is_empty() => {
                out.push_str("{\n");
                for (i, (k, val)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad_in);
                    ::serde::escape_json_str(k, out);
                    out.push_str(": ");
                    pretty(val, indent + 1, out);
                }
                out.push('\n');
                out.push_str(&pad);
                out.push('}');
            }
            other => compact(other, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v: Value =
            from_str(r#"{"a": 1, "b": [1.5, -2, "x\n", true, null], "c": {"d": "é"}}"#).unwrap();
        assert_eq!(v["a"], Value::Int(1));
        assert_eq!(v["b"].as_array().unwrap().len(), 5);
        assert_eq!(v["c"]["d"].as_str(), Some("é"));
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back2);
    }

    #[test]
    fn json_macro_and_numbers() {
        let n = 3usize;
        let v = json!({"count": n, "ratio": 0.5, "name": "k", "list": [1, 2]});
        assert_eq!(v["count"], Value::Int(3));
        assert_eq!(to_string(&json!({"a": 2.0})).unwrap(), r#"{"a":2.0}"#);
        assert!(from_str::<Value>("{bad").is_err());
    }
}
