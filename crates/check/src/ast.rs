//! A lightweight item-level parse tree over the token stream.
//!
//! This is *not* a full Rust parser. It recovers exactly the structure
//! the dataflow lints need:
//!
//! * `use` declarations (so the symbol table can resolve `HashMap` to
//!   `std::collections::HashMap`, including `as` renames and grouped
//!   imports);
//! * every `fn` item — name, visibility, signature and body token
//!   ranges — nested items included (mods, impls, fns-in-fns);
//! * typed declarations: named and tuple struct fields, plus `static`/
//!   `const` items, so receivers like `self.models` or `GLOBAL_THREADS`
//!   can be typed.
//!
//! Anything the parser does not understand is skipped token by token,
//! so a malformed file still yields a best-effort item list and the
//! parse always terminates — `cargo build` remains the authority on
//! validity.

use crate::lexer::{Token, TokenKind};

/// One resolved `use` binding: the local name and the full path it
/// refers to (`HashMap` → `std::collections::HashMap`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// The name visible in this file.
    pub local: String,
    /// Full `::`-joined path.
    pub path: String,
}

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the name token.
    pub line: usize,
    /// Whether the fn is `pub` (incl. `pub(crate)` etc.).
    pub is_pub: bool,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range `(start, end)` of the signature: from the token
    /// after the name to the body `{` (or `;` for bodiless fns).
    pub sig: (usize, usize),
    /// Token indices of the body `{` and its matching `}`
    /// (`None` for trait declarations without a default body).
    pub body: Option<(usize, usize)>,
}

/// A named, typed declaration: a struct field (tuple fields are named
/// `"0"`, `"1"`, ...) or a `static`/`const` item. Only the identifier
/// tokens of the type are kept — enough to answer "does this type
/// mention `HashMap`" or "is this an `AtomicU64`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedDecl {
    /// Field/static name.
    pub name: String,
    /// Identifier tokens of the declared type, in source order.
    pub ty_idents: Vec<String>,
}

/// The parse result for one file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Flattened `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Every fn item, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Struct fields and statics/consts, file-wide. Names collide
    /// across structs; lints treat a match as a type *hint*, not proof.
    pub decls: Vec<TypedDecl>,
}

impl Ast {
    /// Looks up a typed declaration by name.
    pub fn decl(&self, name: &str) -> Option<&TypedDecl> {
        self.decls.iter().find(|d| d.name == name)
    }
}

/// Parses the token stream into an [`Ast`].
pub fn parse(toks: &[Token]) -> Ast {
    let mut ast = Ast::default();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "use" => i = parse_use(toks, i + 1, &mut ast.uses),
            // A `fn` keyword is followed by a name ident; fn-pointer
            // types (`fn(...)`) are not.
            "fn" if toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                let name_tok = &toks[i + 1];
                let sig_start = i + 2;
                let body = fn_body_range(toks, sig_start);
                let sig_end = body.map_or_else(
                    || scan_to_semi(toks, sig_start),
                    |(open, _)| open.saturating_sub(1),
                );
                ast.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    line: name_tok.line,
                    is_pub: is_pub_item(toks, i),
                    fn_tok: i,
                    sig: (sig_start, sig_end),
                    body,
                });
                // Continue *inside* the signature/body so nested fns
                // and closures are parsed too.
                i += 2;
            }
            "struct" => i = parse_struct(toks, i + 1, &mut ast.decls),
            "static" | "const" => i = parse_static(toks, i + 1, &mut ast.decls),
            _ => i += 1,
        }
    }
    ast
}

/// Parses a `use` path starting just after the `use` keyword; returns
/// the index after the terminating `;`.
fn parse_use(toks: &[Token], start: usize, out: &mut Vec<UseDecl>) -> usize {
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(toks, start, &mut prefix, out)
}

/// Recursively parses one use-tree node (`a::b`, `a::{b, c as d}`,
/// `a::*`); returns the index after the tree (past `;` at top level).
fn parse_use_tree(
    toks: &[Token],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseDecl>,
) -> usize {
    let depth_at_entry = prefix.len();
    let mut last: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokenKind::Ident if t.text == "as" => {
                // `path as rename`: the rename is the local name.
                if let (Some(seg), Some(rename)) = (last.take(), toks.get(i + 1)) {
                    prefix.push(seg);
                    out.push(UseDecl {
                        local: rename.text.clone(),
                        path: prefix.join("::"),
                    });
                    prefix.pop();
                }
                i += 2;
            }
            TokenKind::Ident => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                last = Some(t.text.clone());
                i += 1;
            }
            TokenKind::Punct(':') => i += 1,
            TokenKind::Punct('{') => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                i += 1;
                // Parse comma-separated subtrees until the closing `}`.
                loop {
                    match toks.get(i).map(|t| &t.kind) {
                        Some(TokenKind::Punct('}')) => {
                            i += 1;
                            break;
                        }
                        Some(TokenKind::Punct(',')) => i += 1,
                        Some(_) => i = parse_use_tree(toks, i, prefix, out),
                        None => break,
                    }
                }
            }
            TokenKind::Punct('*') => i += 1, // glob: nothing nameable
            TokenKind::Punct(',') | TokenKind::Punct('}') => break,
            TokenKind::Punct(';') => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    // A trailing bare segment is itself the local name.
    if let Some(seg) = last {
        prefix.push(seg.clone());
        out.push(UseDecl {
            local: seg,
            path: prefix.join("::"),
        });
        prefix.pop();
    }
    prefix.truncate(depth_at_entry);
    i
}

/// Parses struct fields starting at the struct name; returns the index
/// after the struct item.
fn parse_struct(toks: &[Token], mut i: usize, out: &mut Vec<TypedDecl>) -> usize {
    // Skip name + any generic parameter list.
    if toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident) {
        i += 1;
    }
    if toks.get(i).is_some_and(|t| t.is_punct('<')) {
        i = skip_angles(toks, i);
    }
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Punct('{')) => {
            // Named fields: `name: Type,` entries at brace depth 1.
            let close = matching_brace(toks, i);
            let mut j = i + 1;
            while j < close {
                let is_field = toks[j].kind == TokenKind::Ident
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && !toks[j].is_ident("pub");
                if is_field {
                    let name = toks[j].text.clone();
                    let (ty_idents, next) = collect_type(toks, j + 2, close);
                    out.push(TypedDecl { name, ty_idents });
                    j = next;
                } else {
                    j += 1;
                }
            }
            close + 1
        }
        Some(TokenKind::Punct('(')) => {
            // Tuple struct: fields named "0", "1", ...
            let close = matching_paren(toks, i);
            let mut j = i + 1;
            let mut idx = 0usize;
            while j < close {
                let (ty_idents, next) = collect_type(toks, j, close);
                if !ty_idents.is_empty() {
                    out.push(TypedDecl {
                        name: idx.to_string(),
                        ty_idents,
                    });
                    idx += 1;
                }
                j = next.max(j + 1);
            }
            close + 1
        }
        _ => i,
    }
}

/// Parses `static`/`const` `NAME : Type`; returns index past the type.
fn parse_static(toks: &[Token], mut i: usize, out: &mut Vec<TypedDecl>) -> usize {
    if toks.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    let Some(name_tok) = toks.get(i) else {
        return i;
    };
    if name_tok.kind != TokenKind::Ident || !toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
        return i;
    }
    let (ty_idents, next) = collect_type(toks, i + 2, toks.len());
    out.push(TypedDecl {
        name: name_tok.text.clone(),
        ty_idents,
    });
    next
}

/// Collects the identifier tokens of one type, from `start` until a
/// `,`, `;`, `=` or `}` at the entry nesting depth (or `limit`).
/// Returns `(idents, index at the terminator)`.
fn collect_type(toks: &[Token], start: usize, limit: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0i32;
    let mut i = start;
    while i < limit.min(toks.len()) {
        let t = &toks[i];
        match &t.kind {
            TokenKind::Punct('<') | TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct('>') | TokenKind::Punct(')') | TokenKind::Punct(']') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokenKind::Punct(',')
            | TokenKind::Punct(';')
            | TokenKind::Punct('=')
            | TokenKind::Punct('{')
            | TokenKind::Punct('}')
                if depth == 0 =>
            {
                break;
            }
            TokenKind::Ident => idents.push(t.text.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, i)
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub fn matching_brace(toks: &[Token], open: usize) -> usize {
    matching(toks, open, '{', '}')
}

/// Index of the `)` matching the `(` at `open` (or the last token).
pub fn matching_paren(toks: &[Token], open: usize) -> usize {
    matching(toks, open, '(', ')')
}

fn matching(toks: &[Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Skips a balanced `<...>` run starting at `i` (angle brackets are
/// single-char puncts, so plain counting works); returns the index
/// after the closing `>`.
pub fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            // Bail out of something that was not a generic list.
            return j;
        }
        j += 1;
    }
    j
}

fn scan_to_semi(toks: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        match t.kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => depth -= 1,
            TokenKind::Punct(';') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Token range `(open_brace, close_brace)` of a function body, given
/// the index just after the function name. `None` for bodiless
/// declarations.
pub fn fn_body_range(toks: &[Token], mut i: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    // Find the opening `{` at paren depth 0 (skip signature + where).
    loop {
        let t = toks.get(i)?;
        match t.kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct(';') if paren == 0 => return None,
            TokenKind::Punct('{') if paren == 0 => break,
            _ => {}
        }
        i += 1;
    }
    Some((i, matching_brace(toks, i)))
}

/// Whether the item keyword at token index `kw_idx` is `pub`
/// (incl. `pub(crate)`), walking back over signature qualifiers.
pub fn is_pub_item(toks: &[Token], kw_idx: usize) -> bool {
    let mut i = kw_idx;
    let mut hops = 0;
    while i > 0 && hops < 8 {
        i -= 1;
        hops += 1;
        let t = &toks[i];
        if t.is_ident("pub") {
            return true;
        }
        // Qualifiers that may sit between `pub` and the keyword.
        let passthrough = t.is_ident("const")
            || t.is_ident("unsafe")
            || t.is_ident("async")
            || t.is_ident("extern")
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("in")
            || t.is_punct('(')
            || t.is_punct(')')
            || t.kind == TokenKind::Literal;
        if !passthrough {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast_of(src: &str) -> Ast {
        parse(&lex(src).tokens)
    }

    #[test]
    fn simple_use_resolves() {
        let ast = ast_of("use std::collections::HashMap;\n");
        assert_eq!(
            ast.uses,
            vec![UseDecl {
                local: "HashMap".to_string(),
                path: "std::collections::HashMap".to_string()
            }]
        );
    }

    #[test]
    fn grouped_and_renamed_uses_resolve() {
        let ast = ast_of("use std::collections::{HashMap, BTreeMap as Sorted, hash_map::Entry};");
        let find = |local: &str| {
            ast.uses
                .iter()
                .find(|u| u.local == local)
                .map(|u| u.path.as_str())
        };
        assert_eq!(find("HashMap"), Some("std::collections::HashMap"));
        assert_eq!(find("Sorted"), Some("std::collections::BTreeMap"));
        assert_eq!(find("Entry"), Some("std::collections::hash_map::Entry"));
    }

    #[test]
    fn nested_groups_and_globs() {
        let ast = ast_of("use std::sync::{atomic::{AtomicU64, Ordering}, Arc, mpsc::*};");
        let find = |local: &str| {
            ast.uses
                .iter()
                .find(|u| u.local == local)
                .map(|u| u.path.as_str())
        };
        assert_eq!(find("AtomicU64"), Some("std::sync::atomic::AtomicU64"));
        assert_eq!(find("Ordering"), Some("std::sync::atomic::Ordering"));
        assert_eq!(find("Arc"), Some("std::sync::Arc"));
        assert!(ast.uses.iter().all(|u| u.local != "*"));
    }

    #[test]
    fn fns_are_found_with_bodies_and_visibility() {
        let src = r#"
            pub fn outer(x: u8) -> u8 {
                fn inner(y: u8) -> u8 { y }
                inner(x)
            }
            fn private() {}
            trait T { fn decl(&self); }
        "#;
        let ast = ast_of(src);
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "private", "decl"]);
        assert!(ast.fns[0].is_pub);
        assert!(!ast.fns[1].is_pub);
        assert!(ast.fns[0].body.is_some());
        assert!(ast.fns[3].body.is_none(), "trait decl has no body");
    }

    #[test]
    fn struct_fields_are_typed() {
        let src = r#"
            pub struct Inner {
                pub models: RwLock<HashMap<String, Arc<Model>>>,
                tick: AtomicU64,
            }
            struct Pair(Arc<AtomicU64>, usize);
        "#;
        let ast = ast_of(src);
        let ty_of = |name: &str| ast.decl(name).map(|d| d.ty_idents.clone());
        assert!(ast
            .decl("models")
            .is_some_and(|d| d.ty_idents.contains(&"HashMap".to_string())
                && d.ty_idents.contains(&"RwLock".to_string())));
        assert_eq!(ty_of("tick"), Some(vec!["AtomicU64".to_string()]));
        assert_eq!(
            ty_of("0"),
            Some(vec!["Arc".to_string(), "AtomicU64".to_string()])
        );
    }

    #[test]
    fn statics_are_typed() {
        let src = "static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);";
        let ast = ast_of(src);
        assert_eq!(
            ast.decl("GLOBAL_THREADS").map(|d| d.ty_idents.clone()),
            Some(vec!["AtomicUsize".to_string()])
        );
    }

    #[test]
    fn generic_struct_fields_parse() {
        let src = "struct Wrap<T: Clone> { inner: Mutex<Vec<T>>, n: usize }";
        let ast = ast_of(src);
        assert!(ast
            .decl("inner")
            .is_some_and(|d| d.ty_idents.contains(&"Mutex".to_string())));
        assert_eq!(ast.decl("n").map(|d| d.ty_idents.len()), Some(1));
    }

    #[test]
    fn parse_terminates_on_garbage() {
        // Unbalanced / truncated input must not loop or panic.
        for src in [
            "use ::{{{",
            "fn",
            "fn f(",
            "struct S {",
            "static X:",
            "use a::{b,",
        ] {
            let _ = ast_of(src);
        }
    }
}
