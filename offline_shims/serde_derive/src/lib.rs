//! Minimal offline stand-in for `serde_derive` — see
//! `offline_shims/README.md`.
//!
//! Hand-rolled token parsing (no `syn`/`quote`): supports non-generic
//! structs with named fields, enums with unit and struct variants
//! (externally tagged by default), and the type-level attributes
//! `#[serde(tag = "...")]` and `#[serde(rename_all = "snake_case")]`.
//! Anything else panics at compile time with a clear message, a
//! `#[serde(...)]` on a field or variant included: doc comments and other
//! attributes pass there.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    emit(gen_serialize(&item))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    emit(gen_deserialize(&item))
}

fn emit(code: String) -> TokenStream {
    code.parse()
        .unwrap_or_else(|e| panic!("serde_derive shim generated invalid code: {e}\n{code}"))
}

struct Item {
    name: String,
    kind: Kind,
    /// `#[serde(tag = "...")]` — internally-tagged enum representation.
    tag: Option<String>,
    /// `#[serde(rename_all = "snake_case")]` on the type.
    snake_variants: bool,
}

enum Kind {
    Struct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    /// `None` = unit variant, `Some(fields)` = struct variant.
    fields: Option<Vec<String>>,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut tag = None;
    let mut snake_variants = false;

    // Leading attributes (doc comments, #[serde(...)], ...).
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    parse_attr(&g.stream(), &mut tag, &mut snake_variants);
                    i += 2;
                } else {
                    panic!("serde_derive shim: malformed attribute");
                }
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }

    let is_enum = match &tokens[i] {
        TokenTree::Ident(id) if id.to_string() == "struct" => false,
        TokenTree::Ident(id) if id.to_string() == "enum" => true,
        other => panic!("serde_derive shim: expected struct/enum, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic types are not supported ({name})");
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!("serde_derive shim: {name} must have a braced body (no tuple/unit structs)"),
    };

    let kind = if is_enum {
        Kind::Enum(parse_variants(body, &name))
    } else {
        Kind::Struct(parse_fields(body, &name))
    };
    Item {
        name,
        kind,
        tag,
        snake_variants,
    }
}

/// Inspects one `#[...]` attribute body; records serde tag / rename_all.
fn parse_attr(stream: &TokenStream, tag: &mut Option<String>, snake: &mut bool) {
    let tokens: Vec<TokenTree> = stream.clone().into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return, // doc comment or unrelated attribute
    }
    let inner = match tokens.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return,
    };
    // Parse `key = "value"` pairs separated by commas.
    let toks: Vec<TokenTree> = inner.into_iter().collect();
    let mut j = 0;
    while j < toks.len() {
        let key = match &toks[j] {
            TokenTree::Ident(id) => id.to_string(),
            _ => panic!("serde_derive shim: unsupported #[serde] syntax"),
        };
        match (toks.get(j + 1), toks.get(j + 2)) {
            (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) if eq.as_char() == '=' => {
                let val = lit.to_string();
                let val = val.trim_matches('"').to_string();
                match key.as_str() {
                    "tag" => *tag = Some(val),
                    "rename_all" => {
                        assert!(
                            val == "snake_case",
                            "serde_derive shim: only rename_all = \"snake_case\" is supported"
                        );
                        *snake = true;
                    }
                    other => panic!("serde_derive shim: unsupported #[serde({other} = ...)]"),
                }
                j += 3;
            }
            _ => panic!("serde_derive shim: unsupported #[serde({key})] form"),
        }
        if matches!(toks.get(j), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            j += 1;
        }
    }
}

/// Steps over the `#[...]` at `tokens[i]`, in front of a field or variant
/// of `ctx`. Doc comments and other attributes pass; a `#[serde(...)]`
/// panics, because this derive would otherwise ignore it silently.
fn skip_member_attr(tokens: &[TokenTree], i: usize, ctx: &str) -> usize {
    if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
        if let Some(TokenTree::Ident(id)) = g.stream().into_iter().next() {
            if id.to_string() == "serde" {
                panic!(
                    "serde_derive shim: field and variant attributes are not supported \
                     (#[{}] in {ctx})",
                    g.stream()
                );
            }
        }
    }
    i + 2
}

/// Extracts field names from a braced struct/variant body, skipping types.
fn parse_fields(stream: TokenStream, ctx: &str) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes and visibility.
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i = skip_member_attr(&tokens, i, ctx);
                continue;
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
                continue;
            }
            _ => {}
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive shim: expected field name in {ctx}, found {other}"),
        };
        fields.push(name);
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:` in {ctx}, found {other}"),
        }
        // Skip the type: everything until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

fn parse_variants(stream: TokenStream, ctx: &str) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i = skip_member_attr(&tokens, i, ctx);
                continue;
            }
            _ => {}
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive shim: expected variant name in {ctx}, found {other}"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Some(parse_fields(g.stream(), &format!("{ctx}::{name}")))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde_derive shim: tuple variants are not supported ({ctx}::{name})")
            }
            _ => None,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

/// serde's `snake_case` rename rule.
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(ch.to_ascii_lowercase());
        } else {
            out.push(ch);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

fn variant_key(item: &Item, variant: &str) -> String {
    if item.snake_variants {
        snake_case(variant)
    } else {
        variant.to_string()
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(fields) => {
            let mut s = String::from("let mut __o = ::serde::Object::new();\n");
            for f in fields {
                s += &format!("__o.insert(\"{f}\", ::serde::Serialize::to_value(&self.{f}));\n");
            }
            s += "::serde::Value::Object(__o)";
            s
        }
        Kind::Enum(variants) => {
            let mut s = String::from("match self {\n");
            for v in variants {
                let key = variant_key(item, &v.name);
                let vn = &v.name;
                match (&item.tag, &v.fields) {
                    // Externally tagged unit: just the variant name string.
                    (None, None) => {
                        s += &format!(
                            "{name}::{vn} => ::serde::Value::Str(\"{key}\".to_string()),\n"
                        );
                    }
                    // Externally tagged struct variant: {"Name": {fields}}.
                    (None, Some(fields)) => {
                        let pat = fields.join(", ");
                        s += &format!("{name}::{vn} {{ {pat} }} => {{\n");
                        s += "let mut __inner = ::serde::Object::new();\n";
                        for f in fields {
                            s += &format!(
                                "__inner.insert(\"{f}\", ::serde::Serialize::to_value({f}));\n"
                            );
                        }
                        s += "let mut __o = ::serde::Object::new();\n";
                        s += &format!("__o.insert(\"{key}\", ::serde::Value::Object(__inner));\n");
                        s += "::serde::Value::Object(__o)\n}\n";
                    }
                    // Internally tagged: tag key first, then the fields.
                    (Some(tag), None) => {
                        s += &format!("{name}::{vn} => {{\n");
                        s += "let mut __o = ::serde::Object::new();\n";
                        s += &format!(
                            "__o.insert(\"{tag}\", ::serde::Value::Str(\"{key}\".to_string()));\n"
                        );
                        s += "::serde::Value::Object(__o)\n}\n";
                    }
                    (Some(tag), Some(fields)) => {
                        let pat = fields.join(", ");
                        s += &format!("{name}::{vn} {{ {pat} }} => {{\n");
                        s += "let mut __o = ::serde::Object::new();\n";
                        s += &format!(
                            "__o.insert(\"{tag}\", ::serde::Value::Str(\"{key}\".to_string()));\n"
                        );
                        for f in fields {
                            s += &format!(
                                "__o.insert(\"{f}\", ::serde::Serialize::to_value({f}));\n"
                            );
                        }
                        s += "::serde::Value::Object(__o)\n}\n";
                    }
                }
            }
            s += "}";
            s
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(fields) => {
            let mut s = format!(
                "let __o = __v.as_object().ok_or_else(|| \
                 ::serde::Error::custom(\"expected object for {name}\"))?;\n"
            );
            s += &format!("::std::result::Result::Ok({name} {{\n");
            for f in fields {
                s += &format!("{f}: ::serde::__field(__o, \"{f}\")?,\n");
            }
            s += "})";
            s
        }
        Kind::Enum(variants) => match &item.tag {
            Some(tag) => {
                let mut s = format!(
                    "let __o = __v.as_object().ok_or_else(|| \
                     ::serde::Error::custom(\"expected object for {name}\"))?;\n\
                     let __tag = __o.get(\"{tag}\").and_then(::serde::Value::as_str)\
                     .ok_or_else(|| ::serde::Error::custom(\"missing tag `{tag}` for {name}\"))?;\n\
                     match __tag {{\n"
                );
                for v in variants {
                    let key = variant_key(item, &v.name);
                    let vn = &v.name;
                    match &v.fields {
                        None => s += &format!("\"{key}\" => ::std::result::Result::Ok({name}::{vn}),\n"),
                        Some(fields) => {
                            s += &format!("\"{key}\" => ::std::result::Result::Ok({name}::{vn} {{\n");
                            for f in fields {
                                s += &format!("{f}: ::serde::__field(__o, \"{f}\")?,\n");
                            }
                            s += "}),\n";
                        }
                    }
                }
                s += &format!(
                    "__other => ::std::result::Result::Err(::serde::Error::custom(\
                     format!(\"unknown {name} variant `{{}}`\", __other))),\n}}"
                );
                s
            }
            None => {
                let mut s = String::from("if let ::std::option::Option::Some(__s) = __v.as_str() {\nreturn match __s {\n");
                for v in variants.iter().filter(|v| v.fields.is_none()) {
                    let key = variant_key(item, &v.name);
                    s += &format!("\"{key}\" => ::std::result::Result::Ok({name}::{}),\n", v.name);
                }
                s += &format!(
                    "__other => ::std::result::Result::Err(::serde::Error::custom(\
                     format!(\"unknown {name} variant `{{}}`\", __other))),\n}};\n}}\n"
                );
                s += &format!(
                    "let __o = __v.as_object().ok_or_else(|| \
                     ::serde::Error::custom(\"expected object or string for {name}\"))?;\n"
                );
                for v in variants.iter() {
                    let key = variant_key(item, &v.name);
                    let vn = &v.name;
                    match &v.fields {
                        None => {
                            // Also accept {"Unit": null}.
                            s += &format!(
                                "if __o.get(\"{key}\").is_some() {{\n\
                                 return ::std::result::Result::Ok({name}::{vn});\n}}\n"
                            );
                        }
                        Some(fields) => {
                            s += &format!(
                                "if let ::std::option::Option::Some(__inner) = __o.get(\"{key}\") {{\n\
                                 let __io = __inner.as_object().ok_or_else(|| \
                                 ::serde::Error::custom(\"expected object for {name}::{vn}\"))?;\n\
                                 return ::std::result::Result::Ok({name}::{vn} {{\n"
                            );
                            for f in fields {
                                s += &format!("{f}: ::serde::__field(__io, \"{f}\")?,\n");
                            }
                            s += "});\n}\n";
                        }
                    }
                }
                s += &format!(
                    "::std::result::Result::Err(::serde::Error::custom(\
                     \"unknown {name} variant\"))"
                );
                s
            }
        },
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
