//! The prose names real things: every repo path and every test citation
//! in the project's guides and the CI file's comments points at something
//! that exists, every test filter of the CI file selects a test, and
//! every public fn of a crate is called.
//!
//! Four documents are read — `ARCHITECTURE.md`, `README.md`,
//! `docs/PAPER_MAP.md` and `.claude/skills/verify/SKILL.md` — and the
//! comments of `.github/workflows/ci.yml`, and every inline code span in
//! them (fenced blocks are commands, not names) is checked four ways:
//!
//! - a span that is a repo path (a file with a source or document
//!   extension, or a directory under a top-level entry) exists, either
//!   from the repo root or as the path-suffix of a workspace file, the
//!   way the guides name crate-relative files (`tests/wire.rs`);
//! - a citation `file.rs::[module::]name` names an item in that file,
//!   every module before the name included; a `*` at either end of the
//!   name stands for any run of characters, and `file.rs::{a, b}` cites
//!   each of `a` and `b`;
//! - a span that starts `[module::]Type::item`, where the workspace
//!   defines `Type` (a struct, enum, union, trait or type alias), names a
//!   `fn` or `const` of an impl of `Type` or of a trait it implements, a
//!   field, a variant or a trait item — an alias has its target's.
//!   Types the workspace does not define (`Arc::get_mut`) are std's or a
//!   dependency's and are not checked;
//! - a span `module::…::item` of lower-case modules (`wire::check_register`,
//!   `talus_partition::spec`, a test path such as
//!   `part::tests::each_scheme_reports_the_fraction_talus_plans_over`)
//!   resolves: its first module is a workspace crate or a module file of
//!   that name, each next one a submodule's file or an inline `mod`, and
//!   the last holds the item. Paths from std, a primitive type or a
//!   vendored dependency are not checked.
//!
//! Brace lists in paths expand (`src/{record,journal}.rs`). Paths under
//! the directories runs write into (`results/`, `benchmark/out/`,
//! `target/`) are outputs, not sources, and are not checked.
//!
//! Every `cargo test … -p PKG` line of `.github/workflows/ci.yml` is read
//! too, from the sources alone: each `--test T` names an integration test
//! of `PKG`, `--lib` is given only to a crate with a library, and each
//! name filter matches the path of at least one `#[test]` fn in the
//! targets the line selects — a filter that matches nothing passes with
//! "0 passed", so a rename would silently empty the step. And
//! `ARCHITECTURE.md` keeps to its line budget.
//!
//! Every `pub fn` of a crate's `src/`, before its file's first
//! `#[cfg(test)]`, is named by code in `crates/`, `tests/`, `examples/`
//! or `benchmark/src/` other than its definition and its own file's
//! tests: a public fn nothing calls is deleted, not kept.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const DOCUMENTS: [&str; 4] = [
    "ARCHITECTURE.md",
    "README.md",
    "docs/PAPER_MAP.md",
    ".claude/skills/verify/SKILL.md",
];

/// Extensions that make a span a file path.
const EXTENSIONS: [&str; 6] = ["rs", "md", "sh", "toml", "json", "yml"];

/// The CI file whose `cargo test` lines are checked.
const CI: &str = ".github/workflows/ci.yml";

/// The most lines `ARCHITECTURE.md` may have.
const ARCHITECTURE_BUDGET: usize = 450;

/// Where runs write: paths under these are outputs.
const OUTPUTS: [&str; 4] = ["results/", "benchmark/out/", "target/", "benchmark/target/"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the integration crate sits in the repo root")
        .to_path_buf()
}

/// Every file of the repo, as `/`-separated paths from the root, build
/// outputs and version control left out.
fn workspace_files(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !matches!(name.as_ref(), ".git" | "target" | "out") {
                    dirs.push(path);
                }
            } else if let Ok(relative) = path.strip_prefix(root) {
                files.push(relative.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files
}

/// The inline code spans of a Markdown document, fenced blocks dropped
/// and line breaks inside a span closed up.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split('\n').map(str::trim).collect::<Vec<_>>().join(""))
        .collect()
}

/// `a{b,c}d{e,f}` as `abde`, `abdf`, `acde`, `acdf`.
fn expand_braces(text: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (text.find('{'), text.find('}')) else {
        return vec![text.to_string()];
    };
    if close < open {
        return vec![text.to_string()];
    }
    text[open + 1..close]
        .split(',')
        .flat_map(|choice| {
            expand_braces(&format!(
                "{}{}{}",
                &text[..open],
                choice.trim(),
                &text[close + 1..]
            ))
        })
        .collect()
}

/// Whether `span` names a repo path (before brace expansion).
fn is_path(span: &str, top_level: &BTreeSet<String>) -> bool {
    if span.is_empty()
        || span.starts_with('/')
        || span.contains(|c: char| c.is_whitespace() || "<>*$~…()=:;\"'".contains(c))
    {
        return false;
    }
    if let Some(dir) = span.strip_suffix('/') {
        return top_level.contains(dir.split('/').next().unwrap_or(dir));
    }
    let last = span.rsplit('/').next().unwrap_or(span);
    let extension = last.rsplit_once('.').map(|(_, e)| e.trim_end_matches('}'));
    extension.is_some_and(|e| EXTENSIONS.contains(&e))
}

/// Files whose path is `path` or ends in `/path`.
fn resolve<'a>(files: &'a [String], path: &str) -> Vec<&'a String> {
    files
        .iter()
        .filter(|f| *f == path || f.ends_with(&format!("/{path}")))
        .collect()
}

/// Whether `path` exists from the root or as a suffix of a file or
/// directory of the workspace.
fn path_exists(root: &Path, files: &[String], path: &str) -> bool {
    if root.join(path).exists() {
        return true;
    }
    match path.strip_suffix('/') {
        Some(dir) => files.iter().any(|f| f.contains(&format!("{dir}/"))),
        None => !resolve(files, path).is_empty(),
    }
}

/// The item names declared in `source` (each `fn`, type, trait, `const`,
/// `static` and `mod`, and each word a `pub use` re-exports), and its
/// `mod` names.
fn items(source: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let code = code_only(source);
    let t = tokens(&code);
    let (mut names, mut mods) = (BTreeSet::new(), BTreeSet::new());
    for (i, pair) in t.windows(2).enumerate() {
        match pair {
            ["mod", name] => {
                mods.insert(name.to_string());
                names.insert(name.to_string());
            }
            ["fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static", name]
                if is_word(name) =>
            {
                names.insert(name.to_string());
            }
            ["pub", "use"] => names.extend(
                t[i + 2..]
                    .iter()
                    .take_while(|&&token| token != ";")
                    .filter(|token| is_word(token))
                    .map(|token| token.to_string()),
            ),
            _ => {}
        }
    }
    (names, mods)
}

/// Whether `name` fits `pattern`: equal, or with a `*` at either end
/// standing for any run of characters.
fn fits(pattern: &str, name: &str) -> bool {
    match (pattern.strip_prefix('*'), pattern.strip_suffix('*')) {
        (Some(rest), _) if rest.ends_with('*') => name.contains(rest.trim_end_matches('*')),
        (Some(suffix), None) => name.ends_with(suffix),
        (None, Some(prefix)) => name.starts_with(prefix),
        _ => name == pattern,
    }
}

/// Whether `path` (`module::…::name`, the name perhaps a `*` pattern)
/// names items of `source`.
fn cites(source: &str, path: &str) -> bool {
    let (names, mods) = items(source);
    let mut parts: Vec<&str> = path.split("::").collect();
    let Some(name) = parts.pop() else {
        return false;
    };
    parts.iter().all(|m| mods.contains(*m)) && names.iter().any(|n| fits(name, n))
}

/// `(file, item path)` for every citation in `span`.
fn citations(span: &str) -> Vec<(String, String)> {
    let Some(at) = span.find(".rs::") else {
        return Vec::new();
    };
    let file = &span[..at + 3];
    if file.contains(|c: char| !(c.is_alphanumeric() || "_-./".contains(c))) {
        return Vec::new();
    }
    let rest = span[at + 5..].trim_end_matches(|c: char| ",.;)".contains(c));
    // `file.rs::mod::{a, b}` cites `mod::a` and `mod::b`.
    let (prefix, names) = match rest.split_once('{') {
        Some((prefix, list)) => (prefix, list.trim_end_matches('}').split(',').collect()),
        None => ("", vec![rest]),
    };
    names
        .into_iter()
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| (file.to_string(), format!("{prefix}{name}")))
        .collect()
}

/// `source` with its comments and the insides of its string and char
/// literals blanked, so that braces and words in them do not count.
fn code_only(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && at(i + 1) == '/' {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && at(i + 1) == '*' {
                    (depth, i) = (depth + 1, i + 2);
                } else if chars[i] == '*' && at(i + 1) == '/' {
                    (depth, i) = (depth - 1, i + 2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            out.push(' ');
        } else if c == 'r' && !ident(at(i.wrapping_sub(1))) && matches!(at(i + 1), '"' | '#') {
            // A raw string: `r"…"` or `r#"…"#`, any number of `#`s.
            let hashes = (i + 1..chars.len())
                .take_while(|&j| chars[j] == '#')
                .count();
            if at(i + 1 + hashes) != '"' {
                out.push(c);
                i += 1;
                continue;
            }
            i += hashes + 2;
            while i < chars.len() && !(chars[i] == '"' && (1..=hashes).all(|h| at(i + h) == '#')) {
                i += 1;
            }
            i += hashes + 1;
            out.push_str("\"\"");
        } else if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            out.push_str("\"\"");
        } else if c == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal; a lifetime has no closing quote.
            i += if at(i + 1) == '\\' { 3 } else { 2 };
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            i += 1;
            out.push_str("' '");
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// The tokens of blanked code: words, `::`, and single other characters.
fn tokens(code: &str) -> Vec<&str> {
    let mut tokens = Vec::new();
    let mut rest = code.trim_start();
    while let Some(c) = rest.chars().next() {
        let len = if c.is_alphanumeric() || c == '_' {
            rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len())
        } else if rest.starts_with("::") {
            2
        } else {
            c.len_utf8()
        };
        tokens.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    tokens
}

fn is_word(token: &str) -> bool {
    token.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// The index of the token that closes the bracket opened at `open`.
fn closing(tokens: &[&str], open: usize) -> usize {
    let mut depth = 0i32;
    for (i, token) in tokens.iter().enumerate().skip(open) {
        match *token {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return i;
        }
    }
    tokens.len()
}

/// The tokens of `body` at its own bracket depth, each with the token
/// before it (`""` first): nested blocks, argument lists and attributes
/// are skipped.
fn top_level<'a>(body: &[&'a str]) -> Vec<(&'a str, &'a str)> {
    let mut out = Vec::new();
    let (mut i, mut previous) = (0, "");
    while i < body.len() {
        let token = body[i];
        out.push((previous, token));
        previous = token;
        i = if matches!(token, "{" | "(" | "[") {
            closing(body, i) + 1
        } else {
            i + 1
        };
    }
    out
}

/// The name of the type a type expression starts with: past generics,
/// `&`, `mut`, `dyn` and lifetimes, the last segment of its path.
fn type_name(tokens: &[&str]) -> Option<String> {
    let mut i = 0;
    if tokens.first() == Some(&"<") {
        let mut depth = 0;
        while i < tokens.len() {
            match (tokens[i], i.checked_sub(1).map(|p| tokens[p])) {
                ("<", _) => depth += 1,
                (">", Some(previous)) if previous != "-" => depth -= 1,
                _ => {}
            }
            i += 1;
            if depth == 0 {
                break;
            }
        }
    }
    let mut name = None;
    while i < tokens.len() {
        match tokens[i] {
            "&" | "mut" | "dyn" | "'" => {}
            token if is_word(token) => {
                name = Some(token.to_string());
                if tokens.get(i + 1) != Some(&"::") {
                    return name;
                }
                i += 1;
            }
            _ => return name,
        }
        i += 1;
    }
    name
}

/// What the workspace's sources say of its types.
#[derive(Default)]
struct Types {
    /// The structs, enums, unions, traits and aliases defined.
    defined: BTreeSet<String>,
    /// Each type's own members, from its definition and its impls.
    members: BTreeMap<String, BTreeSet<String>>,
    /// The types whose members a type also has: the traits it
    /// implements, an alias's target.
    inherits: BTreeMap<String, BTreeSet<String>>,
}

impl Types {
    /// Reads one source file's definitions and impls.
    fn read(&mut self, source: &str) {
        let code = code_only(source);
        let t = tokens(&code);
        let at = |i: usize| t.get(i).copied().unwrap_or("");
        // The end of the last impl or trait body begun: a `type` before
        // it is an associated type, not an alias.
        let mut body_end = 0;
        for i in 0..t.len() {
            let item_start = matches!(
                i.checked_sub(1).map(|p| t[p]),
                None | Some("}" | ";" | "{" | "]" | ")" | "pub" | "unsafe")
            );
            match t[i] {
                kind @ ("struct" | "enum" | "union" | "trait") if is_word(at(i + 1)) => {
                    let name = at(i + 1).to_string();
                    self.defined.insert(name.clone());
                    let open = (i + 2..t.len())
                        .find(|&j| matches!(t[j], "{" | ";" | "("))
                        .unwrap_or(t.len());
                    if at(open) != "{" {
                        continue;
                    }
                    let close = closing(&t, open).min(t.len());
                    if kind == "trait" {
                        body_end = body_end.max(close);
                    }
                    let level = top_level(&t[open + 1..close]);
                    let members = self.members.entry(name).or_default();
                    for (k, &(previous, token)) in level.iter().enumerate() {
                        let member = match kind {
                            "trait" => matches!(previous, "fn" | "const" | "type"),
                            // A variant starts the body, follows a comma
                            // or follows an attribute's brackets.
                            "enum" => matches!(previous, "" | "," | "[") && is_word(token),
                            // A field is the word before a colon.
                            _ => is_word(token) && level.get(k + 1).map(|n| n.1) == Some(":"),
                        };
                        if member {
                            members.insert(token.to_string());
                        }
                    }
                }
                "type" if item_start && i > body_end && is_word(at(i + 1)) => {
                    let end = (i..t.len()).find(|&j| t[j] == ";").unwrap_or(t.len());
                    let Some(eq) = (i..end).find(|&j| t[j] == "=") else {
                        continue;
                    };
                    if let Some(target) = type_name(&t[eq + 1..end]) {
                        self.defined.insert(at(i + 1).to_string());
                        self.inherits
                            .entry(at(i + 1).to_string())
                            .or_default()
                            .insert(target);
                    }
                }
                "impl" if item_start => {
                    let Some(open) = (i + 1..t.len()).find(|&j| t[j] == "{") else {
                        continue;
                    };
                    let header = &t[i + 1..open];
                    let split = header
                        .iter()
                        .position(|&token| token == "for")
                        .filter(|&f| header.get(f + 1) != Some(&"<"));
                    let (implemented, self_ty) = match split {
                        Some(f) => (type_name(&header[..f]), type_name(&header[f + 1..])),
                        None => (None, type_name(header)),
                    };
                    let Some(self_ty) = self_ty else {
                        continue;
                    };
                    let close = closing(&t, open).min(t.len());
                    body_end = body_end.max(close);
                    let members = top_level(&t[open + 1..close])
                        .into_iter()
                        .filter(|(previous, _)| matches!(*previous, "fn" | "const" | "type"))
                        .map(|(_, name)| name.to_string());
                    self.members
                        .entry(self_ty.clone())
                        .or_default()
                        .extend(members);
                    self.inherits
                        .entry(self_ty)
                        .or_default()
                        .extend(implemented);
                }
                _ => {}
            }
        }
    }

    /// Whether `item` is a member of `ty`, its traits' or its target's.
    fn has(&self, ty: &str, item: &str) -> bool {
        let mut seen = BTreeSet::new();
        let mut todo = vec![ty];
        while let Some(ty) = todo.pop() {
            if !seen.insert(ty) {
                continue;
            }
            if self.members.get(ty).is_some_and(|m| m.contains(item)) {
                return true;
            }
            todo.extend(
                self.inherits
                    .get(ty)
                    .into_iter()
                    .flatten()
                    .map(String::as_str),
            );
        }
        false
    }
}

/// `(Type, item)` if `span` starts `[module::]Type::item`: lower-case
/// module names, a capitalised type name, then the item's name.
fn type_item(span: &str) -> Option<(&str, &str)> {
    let word = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    let mut segments = span.split("::");
    let ty = segments.find(|&s| !(word(s) && s.starts_with(|c: char| c.is_lowercase())))?;
    let item = segments.next()?;
    let item = &item[..item
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(item.len())];
    (word(ty) && ty.starts_with(char::is_uppercase) && word(item)).then_some((ty, item))
}

/// `(modules, item)` if `span` is `module::…::item`: lower-case module
/// names, then an item's name or `*` pattern (generics and arguments
/// after it dropped).
fn module_item(span: &str) -> Option<(Vec<&str>, &str)> {
    let word = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    let mut modules: Vec<&str> = span.split("::").collect();
    let last = modules.pop()?;
    let item = &last[..last
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '*'))
        .unwrap_or(last.len())];
    let module = |m: &&str| word(m) && m.starts_with(|c: char| c.is_lowercase());
    (!modules.is_empty() && modules.iter().all(module) && !item.trim_matches('*').is_empty())
        .then_some((modules, item))
}

/// Roots a module path may start with that are not the workspace's: the
/// standard library and the primitive types.
const FOREIGN_ROOTS: [&str; 17] = [
    "std", "core", "alloc", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize", "f32", "f64",
];

/// The workspace's Rust sources and crates, for resolving module paths.
struct Modules<'a> {
    /// Every `.rs` file outside `vendor/`.
    sources: Vec<&'a String>,
    /// Each workspace crate's root file, by the name code imports it as.
    crates: BTreeMap<String, String>,
    /// The vendored dependencies, by the name code imports them as.
    vendored: BTreeSet<String>,
}

impl<'a> Modules<'a> {
    fn new(root: &Path, files: &'a [String]) -> Self {
        let mut crates = BTreeMap::new();
        let mut vendored = BTreeSet::new();
        for (name, dir) in packages(root, files) {
            let name = name.replace('-', "_");
            if dir.starts_with("vendor/") {
                vendored.insert(name);
            } else if let Some(lib) = ["lib", "main"]
                .map(|root| format!("{dir}/src/{root}.rs"))
                .into_iter()
                .find(|f| files.contains(f))
            {
                crates.insert(name, lib);
            }
        }
        let sources = files
            .iter()
            .filter(|f| f.ends_with(".rs") && !f.starts_with("vendor/"))
            .collect();
        Modules {
            sources,
            crates,
            vendored,
        }
    }

    /// The source file of submodule `name` of the module in `file`.
    fn child(&self, file: &str, name: &str) -> Option<&'a String> {
        let stem = file.trim_end_matches(".rs");
        let dir = match stem.rsplit_once('/') {
            Some((dir, "lib" | "main" | "mod")) => dir,
            _ => stem,
        };
        let (flat, nested) = (format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs"));
        self.sources
            .iter()
            .copied()
            .find(|f| **f == flat || **f == nested)
    }

    /// Whether the module path `modules` resolves and holds `item`:
    /// `None` when it starts outside the workspace, where nothing is
    /// checked. The first module is a crate, or any module file of that
    /// name; each next one a submodule's file, or else an inline `mod`.
    fn holds(&self, root: &Path, modules: &[&str], item: &str) -> Option<bool> {
        let first = modules[0];
        if FOREIGN_ROOTS.contains(&first) || self.vendored.contains(first) {
            return None;
        }
        let starts: Vec<&str> = match self.crates.get(first) {
            Some(lib) => vec![lib.as_str()],
            None => self
                .sources
                .iter()
                .filter(|f| {
                    f.ends_with(&format!("/{first}.rs")) || f.ends_with(&format!("/{first}/mod.rs"))
                })
                .map(|f| f.as_str())
                .collect(),
        };
        Some(starts.into_iter().any(|start| {
            let mut file = start;
            let mut rest = &modules[1..];
            while let Some(next) = rest.first().and_then(|m| self.child(file, m)) {
                (file, rest) = (next, &rest[1..]);
            }
            let path: Vec<&str> = rest.iter().copied().chain([item]).collect();
            fs::read_to_string(root.join(file)).is_ok_and(|source| cites(&source, &path.join("::")))
        }))
    }
}

/// The text of the comments of `yml`, each line's past its `#`.
fn yml_comments(yml: &str) -> String {
    yml.lines()
        .filter_map(|line| line.trim_start().strip_prefix('#'))
        .map(|comment| format!("{comment}\n"))
        .collect()
}

/// Every dangling name in the four documents and the CI file's
/// comments, as `document: span`.
fn dangling_references(root: &Path) -> Vec<String> {
    let files = workspace_files(root);
    let top_level: BTreeSet<String> = files
        .iter()
        .filter_map(|f| f.split_once('/').map(|(top, _)| top.to_string()))
        .collect();
    let mut types = Types::default();
    for file in files.iter().filter(|f| f.ends_with(".rs")) {
        types.read(&fs::read_to_string(root.join(file)).expect("readable source"));
    }
    let modules = Modules::new(root, &files);
    let read = |path: &str| fs::read_to_string(root.join(path)).expect("the document exists");
    let texts = DOCUMENTS
        .map(|document| (document, read(document)))
        .into_iter()
        .chain([(CI, yml_comments(&read(CI)))]);
    let mut dangling = Vec::new();
    for (document, text) in texts {
        for span in code_spans(&text) {
            let span = span.trim_end_matches(|c: char| ",.;".contains(c));
            if is_path(span, &top_level) {
                for path in expand_braces(span) {
                    let output = OUTPUTS.iter().any(|o| path.starts_with(o));
                    if !output && !path_exists(root, &files, &path) {
                        dangling.push(format!("{document}: path `{path}`"));
                    }
                }
            }
            if let Some((ty, item)) = type_item(span).filter(|_| !span.contains(".rs::")) {
                if types.defined.contains(ty) && !types.has(ty, item) {
                    dangling.push(format!("{document}: member `{ty}::{item}`"));
                }
            }
            for path in expand_braces(span) {
                let Some((parts, item)) = module_item(&path) else {
                    continue;
                };
                if modules.holds(root, &parts, item) == Some(false) {
                    dangling.push(format!("{document}: item `{path}`"));
                }
            }
            for (file, item) in citations(span) {
                let sources = resolve(&files, &file);
                let found = sources.iter().any(|f| {
                    fs::read_to_string(root.join(f)).is_ok_and(|source| cites(&source, &item))
                });
                if !found {
                    dangling.push(format!("{document}: citation `{file}::{item}`"));
                }
            }
        }
    }
    dangling
}

/// One `cargo test` command of the CI file that names a package.
#[derive(Debug, Default, PartialEq)]
struct CiTest {
    /// The command's line in the CI file, from 1.
    line: usize,
    package: String,
    lib: bool,
    /// The `--test` targets.
    tests: Vec<String>,
    /// The test-name filters.
    filters: Vec<String>,
}

/// Every `cargo test` command of `yml` that names a package (`-p`); the
/// arguments after `--` go to the test binaries and are not read.
fn ci_tests(yml: &str) -> Vec<CiTest> {
    let mut commands = Vec::new();
    for (at, line) in yml.lines().enumerate() {
        let Some((_, args)) = line
            .split_once("cargo test")
            .filter(|_| !line.trim_start().starts_with('#'))
        else {
            continue;
        };
        let mut command = CiTest {
            line: at + 1,
            ..CiTest::default()
        };
        let mut words = args.split_whitespace();
        while let Some(word) = words.next() {
            match word {
                "--" | "&&" | "||" | ";" | "|" => break,
                "-p" | "--package" => command.package = words.next().unwrap_or("").to_string(),
                "--test" => command.tests.extend(words.next().map(str::to_string)),
                "--lib" => command.lib = true,
                "--manifest-path" | "--features" | "--bin" | "--example" => {
                    words.next();
                }
                flag if flag.starts_with('-') => {}
                filter => command.filters.push(filter.to_string()),
            }
        }
        if !command.package.is_empty() {
            commands.push(command);
        }
    }
    commands
}

/// Each package's directory from the root, by the name its `Cargo.toml`
/// gives it.
fn packages(root: &Path, files: &[String]) -> BTreeMap<String, String> {
    let mut packages = BTreeMap::new();
    for manifest in files
        .iter()
        .filter(|f| f.rsplit('/').next() == Some("Cargo.toml"))
    {
        let text = fs::read_to_string(root.join(manifest)).expect("readable manifest");
        let Some((_, package)) = text.split_once("[package]") else {
            continue;
        };
        let name = package
            .lines()
            .take_while(|line| !line.starts_with('['))
            .find_map(|line| {
                let (key, value) = line.split_once('=')?;
                (key.trim() == "name").then(|| value.trim().trim_matches('"').to_string())
            });
        if let Some(name) = name {
            let dir = manifest
                .trim_end_matches("Cargo.toml")
                .trim_end_matches('/');
            packages.insert(name, dir.to_string());
        }
    }
    packages
}

/// The path of every `#[test]` fn in `source`, as libtest names it: under
/// `module` (the file's own module path, `""` at a crate root) and the
/// inline modules around the fn.
fn test_paths(source: &str, module: &str) -> Vec<String> {
    let code = code_only(source);
    let t = tokens(&code);
    let mut paths = Vec::new();
    // The inline modules open here, each with the depth of its body.
    let mut modules: Vec<(&str, usize)> = Vec::new();
    let (mut depth, mut test_next) = (0, false);
    for (i, &token) in t.iter().enumerate() {
        match token {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if modules.last().is_some_and(|&(_, body)| body > depth) {
                    modules.pop();
                }
            }
            "mod" if t.get(i + 2) == Some(&"{") => modules.push((t[i + 1], depth + 1)),
            "test" if i >= 2 && t[i - 2..i] == ["#", "["] && t.get(i + 1) == Some(&"]") => {
                test_next = true;
            }
            "fn" if test_next => {
                test_next = false;
                let name = t.get(i + 1).copied().unwrap_or("");
                let segments = std::iter::once(module)
                    .filter(|m| !m.is_empty())
                    .chain(modules.iter().map(|&(m, _)| m))
                    .chain([name]);
                paths.push(segments.collect::<Vec<_>>().join("::"));
            }
            _ => {}
        }
    }
    paths
}

/// The module path of a crate source file: `src/monitor/mattson.rs` is
/// `monitor::mattson`, `src/monitor/mod.rs` is `monitor`, a crate root
/// is `""`.
fn module_of(source: &str) -> String {
    let path = source.trim_end_matches(".rs");
    let path = path.strip_suffix("/mod").unwrap_or(path);
    if matches!(path, "lib" | "main") {
        String::new()
    } else {
        path.replace('/', "::")
    }
}

/// Every way a `cargo test -p` line of the CI file can select less than
/// it says, as `ci.yml:line: problem — the line`.
fn ci_test_problems(root: &Path) -> Vec<String> {
    let files = workspace_files(root);
    let packages = packages(root, &files);
    let yml = fs::read_to_string(root.join(CI)).expect("the CI file exists");
    let lines: Vec<&str> = yml.lines().collect();
    let mut problems = Vec::new();
    for command in ci_tests(&yml) {
        let mut problem = |what: String| {
            problems.push(format!(
                "{CI}:{}: {what} — `{}`",
                command.line,
                lines[command.line - 1].trim()
            ))
        };
        let Some(dir) = packages.get(&command.package) else {
            problem(format!("no package `{}`", command.package));
            continue;
        };
        let (src, tests) = (format!("{dir}/src/"), format!("{dir}/tests/"));
        // The integration tests, by target name, and their root files.
        let targets: BTreeMap<&str, &String> = files
            .iter()
            .filter_map(|f| {
                let rest = f.strip_prefix(&tests)?;
                let name = rest
                    .strip_suffix("/main.rs")
                    .or_else(|| rest.strip_suffix(".rs"))?;
                (!name.contains('/')).then_some((name, f))
            })
            .collect();
        if command.lib && !files.contains(&format!("{src}lib.rs")) {
            problem(format!(
                "`--lib` on `{}`, which has no library",
                command.package
            ));
        }
        for test in &command.tests {
            if !targets.contains_key(test.as_str()) {
                problem(format!(
                    "`--test {test}` names no integration test of `{}`",
                    command.package
                ));
            }
        }
        if command.filters.is_empty() {
            continue;
        }
        // The targets the line selects: those it names, or every one.
        let every = !command.lib && command.tests.is_empty();
        let mut selected = Vec::new();
        if command.lib || every {
            for file in files
                .iter()
                .filter(|f| f.ends_with(".rs") && f.starts_with(&src))
            {
                let relative = &file[src.len()..];
                let bin = relative == "main.rs" || relative.starts_with("bin/");
                if every || !bin {
                    selected.push((file, module_of(relative)));
                }
            }
        }
        for (name, file) in &targets {
            if every || command.tests.iter().any(|t| t == name) {
                selected.push((file, String::new()));
            }
        }
        let paths: Vec<String> = selected
            .iter()
            .flat_map(|(file, module)| {
                let source = fs::read_to_string(root.join(file)).expect("readable source");
                test_paths(&source, module)
            })
            .collect();
        for filter in &command.filters {
            if !paths.iter().any(|path| path.contains(filter.as_str())) {
                problem(format!("the filter `{filter}` matches no test it selects"));
            }
        }
    }
    problems
}

/// Where the code that may call a public fn lives.
const CALLERS: [&str; 4] = ["crates/", "tests/", "examples/", "benchmark/src/"];

/// The words of the tokens `t` that name something: every word but one
/// right after `fn`, which defines it, and those of a `use` item (from
/// `use` to its `;`), which bring a name into scope without calling it.
fn namings<'a>(t: &'a [&'a str]) -> impl Iterator<Item = &'a str> + 'a {
    let mut in_use = false;
    t.iter().enumerate().filter_map(move |(i, &w)| {
        in_use = if in_use { w != ";" } else { w == "use" };
        (!in_use && is_word(w) && (i == 0 || t[i - 1] != "fn")).then_some(w)
    })
}

/// Every `pub fn` of a crate's `src/` (before the file's first
/// `#[cfg(test)]`) whose name no code names but its own definition and
/// its file's tests, as `file: name`. Comments and literals are blanked,
/// so neither a doc example nor a string counts.
fn uncalled_public_fns(root: &Path) -> Vec<String> {
    let mut named: BTreeMap<String, usize> = BTreeMap::new();
    let mut defined = Vec::new();
    for file in workspace_files(root)
        .into_iter()
        .filter(|f| f.ends_with(".rs") && CALLERS.iter().any(|d| f.starts_with(d)))
    {
        let code = code_only(&fs::read_to_string(root.join(&file)).expect("readable source"));
        for word in namings(&tokens(&code)) {
            *named.entry(word.to_string()).or_default() += 1;
        }
        if file.split('/').nth(2) != Some("src") || !file.starts_with("crates/") {
            continue;
        }
        let (head, tests) = code.split_at(code.find("#[cfg(test)]").unwrap_or(code.len()));
        let tests = tokens(tests);
        for w in tokens(head).windows(3) {
            if let ["pub", "fn", name] = w {
                let own = namings(&tests).filter(|n| n == name).count();
                defined.push((file.clone(), name.to_string(), own));
            }
        }
    }
    defined
        .into_iter()
        .filter(|(_, name, in_own_tests)| named.get(name).copied().unwrap_or(0) <= *in_own_tests)
        .map(|(file, name, _)| format!("{file}: {name}"))
        .collect()
}

#[test]
fn every_public_fn_is_named_outside_its_definition() {
    let uncalled = uncalled_public_fns(&root());
    assert!(
        uncalled.is_empty(),
        "{} public fn(s) that nothing calls — delete them, or call them:\n{}",
        uncalled.len(),
        uncalled.join("\n")
    );
}

#[test]
fn every_ci_test_filter_selects_a_test() {
    let yml = fs::read_to_string(root().join(CI)).expect("the CI file exists");
    assert!(
        ci_tests(&yml)
            .iter()
            .any(|command| !command.filters.is_empty()),
        "no `cargo test -p` line with a name filter read from {CI}"
    );
    let problems = ci_test_problems(&root());
    assert!(
        problems.is_empty(),
        "{} CI test line(s) that select less than they say:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn architecture_md_keeps_to_its_line_budget() {
    let text = fs::read_to_string(root().join("ARCHITECTURE.md")).expect("the document exists");
    let lines = text.lines().count();
    assert!(
        lines <= ARCHITECTURE_BUDGET,
        "ARCHITECTURE.md is {lines} lines, over its budget of {ARCHITECTURE_BUDGET}: it states \
         the layer contracts, the equivalence chain, the byte layouts and the failure table. \
         Measured numbers go to CHANGES.md and BENCH_<n>.json, history to CHANGES.md, and \
         mechanism to the `//!` docs of the module that has it."
    );
}

#[test]
fn the_ci_checker_reads_commands_and_tests_the_way_they_are_written() {
    let yml = "      # cargo test -p commented --lib\n        run: |\n          \
               cargo test -q --release -p talus-serve --lib idmap\n          \
               cargo test -q -p talus-core --test a --test b -- --ignored x\n          \
               cargo test --manifest-path benchmark/Cargo.toml\n";
    assert_eq!(
        ci_tests(yml),
        [
            CiTest {
                line: 3,
                package: "talus-serve".to_string(),
                lib: true,
                tests: vec![],
                filters: vec!["idmap".to_string()],
            },
            CiTest {
                line: 4,
                package: "talus-core".to_string(),
                lib: false,
                tests: vec!["a".to_string(), "b".to_string()],
                filters: vec![],
            },
        ]
    );
    let source = r##"
        #[cfg(test)]
        mod tests {
            #[test]
            fn one() { let _ = "#[test] fn fake() {}"; }
            mod inner { #[test] #[should_panic] fn two() {} }
            fn helper() {}
            proptest! { #[test] fn three(x in 0..1u8) {} }
        }
        #[test]
        fn four() {}
    "##;
    assert_eq!(
        test_paths(source, "shard"),
        [
            "shard::tests::one",
            "shard::tests::inner::two",
            "shard::tests::three",
            "shard::four"
        ]
    );
    assert_eq!(test_paths(source, "")[3], "four");
    assert_eq!(module_of("monitor/mattson.rs"), "monitor::mattson");
    assert_eq!(module_of("monitor/mod.rs"), "monitor");
    assert_eq!(module_of("lib.rs"), "");
}

#[test]
fn the_guides_name_only_what_exists() {
    let dangling = dangling_references(&root());
    assert!(
        dangling.is_empty(),
        "{} dangling reference(s):\n{}",
        dangling.len(),
        dangling.join("\n")
    );
}

#[test]
fn the_checker_reads_paths_and_citations_the_way_the_guides_write_them() {
    let text = "a `x/y.rs` b `chaos.rs::\n  store_fault` c\n```\n`not/a.rs`\n```\n";
    assert_eq!(code_spans(text), ["x/y.rs", "chaos.rs::store_fault"]);
    assert_eq!(
        expand_braces("src/{record, journal}.rs"),
        ["src/record.rs", "src/journal.rs"]
    );
    let top: BTreeSet<String> = ["crates".to_string()].into();
    assert!(is_path("crates/serve/src/router.rs", &top));
    assert!(is_path("crates/", &top) && is_path("PAPER.md", &top));
    assert!(!is_path("serve_ingest/", &top), "a bench prefix");
    assert!(!is_path("cargo test -p x", &top));
    assert_eq!(
        citations("journal.rs::{a_v3_*, b}"),
        [
            ("journal.rs".to_string(), "a_v3_*".to_string()),
            ("journal.rs".to_string(), "b".to_string()),
        ]
    );
    assert_eq!(
        citations("failure_injection.rs::store::a_write"),
        [(
            "failure_injection.rs".to_string(),
            "store::a_write".to_string()
        )]
    );
    let source = "mod store { #[test] fn a_write() {} }\nfn other() {}";
    assert!(cites(source, "store::a_write") && cites(source, "a_wr*"));
    assert!(!cites(source, "elsewhere::a_write") && !cites(source, "a_rename"));
    let files = ["crates/serve/tests/wire.rs".to_string()];
    assert_eq!(resolve(&files, "tests/wire.rs").len(), 1);
    assert!(
        resolve(&files, "s/wire.rs").is_empty(),
        "whole components only"
    );
}

#[test]
fn a_use_item_is_not_a_caller() {
    let names_f = |code: &str| namings(&tokens(code)).any(|w| w == "f");
    assert!(!names_f("pub use a::f;") && !names_f("use a::{b, f as g};"));
    assert!(names_f("f();") && names_f("use a::b; f();"));
    assert!(!names_f("fn f() {}"));
}

#[test]
fn the_checker_reads_type_members_the_way_rust_declares_them() {
    let source = r##"
        pub struct Plane<T: Clone> { pub(crate) shards: Vec<T>, depth: u8 }
        enum Verdict { #[default] Same, Gain = 2, Lost { why: u8 } }
        /// `fn not_a_member` in a comment /* and { an unclosed brace
        impl<T: Clone> Plane<T> where T: Send {
            pub const CAP: usize = 1;
            pub fn run(&self) -> &str { fn nested() {} "}" }
            const RAW: &str = r#"{ fn fake() "#;
        }
        trait Sink { fn begin(&self); fn end(&self) {} type Out; }
        impl<T: Clone> Sink for Plane<T> { fn begin(&self) { let _ = ('{', '\'', 'a'); } type Out = u8; }
        pub type Local = Plane<u8>;
        fn make() -> impl Sink { todo!() }
    "##;
    let mut types = Types::default();
    types.read(source);
    for member in [
        "Plane::shards",
        "Plane::depth",
        "Plane::CAP",
        "Plane::run",
        "Plane::RAW",
        "Plane::begin",
        "Plane::end",
        "Verdict::Same",
        "Verdict::Gain",
        "Verdict::Lost",
        "Local::run",
        "Local::end",
        "Sink::Out",
    ] {
        let (ty, item) = type_item(member).expect("a member span");
        assert!(types.has(ty, item), "{member}");
    }
    for stray in [
        "Plane::nested",
        "Plane::not_a_member",
        "Plane::fake",
        "Verdict::why",
        "Local::make",
    ] {
        let (ty, item) = type_item(stray).expect("a member span");
        assert!(!types.has(ty, item), "{stray}");
    }
    assert!(types.defined.contains("Local") && !types.defined.contains("Out"));
    assert_eq!(
        type_item("talus_partition::Planner::plan_managed_in(&curves)"),
        Some(("Planner", "plan_managed_in"))
    );
    assert_eq!(type_item("Arc::get_mut"), Some(("Arc", "get_mut")));
    assert_eq!(type_item("wire::encode_request"), None);
    assert_eq!(type_item("SetAssoc<L, P>::probe"), None);
}

#[test]
fn the_checker_resolves_module_paths_the_way_rust_does() {
    assert_eq!(
        module_item("wire::encode_request_into(req, &mut buf)"),
        Some((vec!["wire"], "encode_request_into"))
    );
    assert_eq!(
        module_item("part::setassoc::SetAssoc<L, P>"),
        Some((vec!["part", "setassoc"], "SetAssoc"))
    );
    assert_eq!(
        module_item("shard::tests::workspace_*").map(|m| m.1),
        Some("workspace_*")
    );
    assert_eq!(module_item("Store::open"), None);
    assert_eq!(module_item("cargo test -p x::y"), None);
    assert!(fits("workspace_*", "workspace_kept") && fits("*zipf*", "share_one_zipf_table"));
    assert!(!fits("workspace_*", "a_workspace") && !fits("a", "ab"));
    assert_eq!(
        yml_comments("  # `a::b`\n  run: x # not\n#c\n"),
        " `a::b`\nc\n"
    );

    let root = root();
    let files = workspace_files(&root);
    let modules = Modules::new(&root, &files);
    let holds = |path: &str, item: &str| {
        let parts: Vec<&str> = path.split("::").collect();
        modules.holds(&root, &parts, item)
    };
    assert_eq!(holds("wire", "check_register"), Some(true));
    assert_eq!(holds("wire", "check_registration"), Some(false));
    assert_eq!(holds("talus_partition", "spec"), Some(true), "a module");
    assert_eq!(
        holds("talus_partition", "put_spec"),
        Some(true),
        "a re-export"
    );
    assert_eq!(
        holds("part::tests", "each_scheme_*"),
        Some(true),
        "an inline mod"
    );
    assert_eq!(holds("monitor::mattson::tests", "bitmap_*"), Some(true));
    assert_eq!(holds("no_such_module", "x"), Some(false));
    assert_eq!(holds("std::mem", "take"), None);
    assert_eq!(holds("rand", "Rng"), None, "vendored");
}
