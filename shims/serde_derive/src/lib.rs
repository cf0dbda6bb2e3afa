//! Offline stand-in for `serde_derive`.
//!
//! Emits `Serialize` / `Deserialize` impls over the vendored `serde` crate's
//! `Value` data model. The parser is hand-rolled over `proc_macro` token
//! trees (no `syn`/`quote` in the offline environment) and supports exactly
//! the shapes this workspace derives on: non-generic structs with named
//! fields, tuple structs and unit structs — no enums and no
//! `#[serde(...)]` attributes.
//!
//! Wire shapes match real serde's defaults: structs are JSON objects,
//! newtypes are transparent.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    Named { fields: Vec<String> },
    Tuple { arity: usize },
    Unit,
}

/// Derives the vendored `serde::Serialize` for a struct.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives the vendored `serde::Deserialize` for a struct.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&str, &Shape) -> String) -> TokenStream {
    match parse_item(input) {
        Ok((name, shape)) => gen(&name, &shape)
            .parse()
            .expect("serde_derive shim generated invalid Rust"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<(String, Shape), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    skip_attributes(&tokens, &mut pos)?;
    skip_visibility(&tokens, &mut pos);

    let keyword = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct`, got {other:?}")),
    };
    pos += 1;

    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    pos += 1;

    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }

    match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                Ok((name, Shape::Named { fields }))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream())?;
                Ok((name, Shape::Tuple { arity }))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok((name, Shape::Unit)),
            other => Err(format!("unsupported struct body for `{name}`: {other:?}")),
        },
        other => Err(format!("cannot derive serde impls for `{other}` items")),
    }
}

/// Skips attributes (doc comments, derives, …), rejecting `#[serde(...)]`:
/// real serde would change the wire format for those, so silently ignoring
/// them would let code compile with a schema the author didn't declare.
fn skip_attributes(tokens: &[TokenTree], pos: &mut usize) -> Result<(), String> {
    while matches!(tokens.get(*pos), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *pos += 1; // '#'
        if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
            if g.delimiter() == Delimiter::Bracket {
                if matches!(g.stream().into_iter().next(),
                    Some(TokenTree::Ident(id)) if id.to_string() == "serde")
                {
                    return Err(
                        "the offline serde shim does not support #[serde(...)] attributes; \
                         remove the attribute or extend shims/serde_derive"
                            .to_string(),
                    );
                }
                *pos += 1;
            }
        }
    }
    Ok(())
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Advances past a type (or any token run) until a comma at angle-bracket
/// depth zero, leaving `pos` on the comma (or at the end).
fn skip_until_toplevel_comma(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    let mut prev_minus = false;
    while let Some(tok) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                ',' if angle_depth == 0 => return,
                '<' => angle_depth += 1,
                '>' if !prev_minus => angle_depth -= 1,
                _ => {}
            }
            prev_minus = p.as_char() == '-';
        } else {
            prev_minus = false;
        }
        *pos += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        skip_attributes(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut pos);
        let field = match tokens.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => return Err(format!("expected `:` after field `{field}`, got {other:?}")),
        }
        skip_until_toplevel_comma(&tokens, &mut pos);
        pos += 1; // the comma (or past the end)
        fields.push(field);
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> Result<usize, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut arity = 0;
    while pos < tokens.len() {
        skip_attributes(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        arity += 1;
        skip_until_toplevel_comma(&tokens, &mut pos);
        pos += 1;
    }
    Ok(arity)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named { fields } => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
        Shape::Tuple { arity: 0 } | Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Tuple { arity: 1 } => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Tuple { arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named { fields } => format!(
            "let __map = __value.as_map().ok_or_else(|| \
             ::serde::DeError::expected(\"object\", __value))?; \
             ::std::result::Result::Ok({name} {{ {} }})",
            fields
                .iter()
                .map(|f| format!("{f}: {}", named_field_expr("__map", f)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Shape::Tuple { arity: 0 } => {
            format!("::std::result::Result::Ok({name}())")
        }
        Shape::Unit => format!("::std::result::Result::Ok({name})"),
        Shape::Tuple { arity: 1 } => format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__value)?))"
        ),
        Shape::Tuple { arity } => format!(
            "let __items = __value.as_seq().ok_or_else(|| \
             ::serde::DeError::expected(\"array\", __value))?; \
             if __items.len() != {arity} {{ \
             return ::std::result::Result::Err(::serde::DeError::custom(\
             ::std::format!(\"expected {arity} elements for {name}, got {{}}\", __items.len()))); }} \
             ::std::result::Result::Ok({name}({}))",
            (0..*arity)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn from_value(__value: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{ {body} }} }}"
    )
}

/// Expression deserialising one named field, treating a missing key as
/// `Value::Null` so `Option` fields default to `None`.
fn named_field_expr(map: &str, field: &str) -> String {
    format!(
        "match {map}.iter().find(|(__k, _)| __k == {field:?}) {{ \
         ::std::option::Option::Some((_, __v)) => ::serde::Deserialize::from_value(__v)?, \
         ::std::option::Option::None => \
         ::serde::Deserialize::from_value(&::serde::Value::Null).map_err(|_| \
         ::serde::DeError::custom(::std::concat!(\"missing field `\", {field:?}, \"`\")))?, \
         }}"
    )
}
