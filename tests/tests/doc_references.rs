//! The prose names real things: every repo path and every test citation
//! in the project's guides points at something that exists.
//!
//! Four documents are read — `ARCHITECTURE.md`, `README.md`,
//! `docs/PAPER_MAP.md` and `.claude/skills/verify/SKILL.md` — and every
//! inline code span in them (fenced blocks are commands, not names) is
//! checked two ways:
//!
//! - a span that is a repo path (a file with a source or document
//!   extension, or a directory under a top-level entry) exists, either
//!   from the repo root or as the path-suffix of a workspace file, the
//!   way the guides name crate-relative files (`tests/wire.rs`);
//! - a citation `file.rs::[module::]name` names a `fn` or `mod` in that
//!   file, every module before the name included; a trailing `*` makes
//!   the name a prefix, and `file.rs::{a, b}` cites each of `a` and `b`.
//!
//! Brace lists in paths expand (`src/{record,journal}.rs`). Paths under
//! the directories runs write into (`results/`, `benchmark/out/`,
//! `target/`) are outputs, not sources, and are not checked.

use std::collections::BTreeSet;
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

/// The `fn` and `mod` names declared in `source`.
fn items(source: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let (mut fns, mut mods) = (BTreeSet::new(), BTreeSet::new());
    let words: Vec<&str> = source
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect();
    for pair in words.windows(2) {
        match pair[0] {
            "fn" => fns.insert(pair[1].to_string()),
            "mod" => mods.insert(pair[1].to_string()),
            _ => false,
        };
    }
    (fns, mods)
}

/// Whether `path` (`module::…::name`, the name perhaps a `*` prefix)
/// names items of `source`.
fn cites(source: &str, path: &str) -> bool {
    let (fns, mods) = items(source);
    let mut parts: Vec<&str> = path.split("::").collect();
    let Some(name) = parts.pop() else {
        return false;
    };
    if !parts.iter().all(|m| mods.contains(*m)) {
        return false;
    }
    let mut names = fns.iter().chain(&mods);
    match name.strip_suffix('*') {
        Some(prefix) => names.any(|n| n.starts_with(prefix)),
        None => names.any(|n| n == name),
    }
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

/// Every dangling name in the four documents, as `document: span`.
fn dangling_references(root: &Path) -> Vec<String> {
    let files = workspace_files(root);
    let top_level: BTreeSet<String> = files
        .iter()
        .filter_map(|f| f.split_once('/').map(|(top, _)| top.to_string()))
        .collect();
    let mut dangling = Vec::new();
    for document in DOCUMENTS {
        let text = fs::read_to_string(root.join(document)).expect("the document exists");
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
