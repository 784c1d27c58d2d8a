//! Every section citation of `DESIGN.md` in the sources must resolve.
//!
//! Doc comments point readers at `DESIGN.md` by section number. This test
//! scans every Rust file under `crates/`, `src/` and `tests/`, collects each
//! citation of the form "`DESIGN.md` §N" (backticks optional, a line break
//! with comment markers allowed in between) and checks that `DESIGN.md` has
//! a level-2 heading starting with `§N.`.

use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Section numbers of the headings `## §N. ...` in `design`.
fn headings(design: &str) -> Vec<u32> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## §"))
        .filter_map(|rest| rest.split('.').next()?.parse().ok())
        .collect()
}

/// Section numbers cited right after each occurrence of the file name.
fn citations(text: &str) -> Vec<u32> {
    let name = "DESIGN.md";
    text.match_indices(name)
        .filter_map(|(at, _)| {
            let rest = text[at + name.len()..].trim_start_matches(|c: char| {
                c == '`' || c == '/' || c == '!' || c.is_whitespace()
            });
            let digits: String = rest
                .strip_prefix('§')?
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

#[test]
fn citation_parser_handles_the_source_forms() {
    assert_eq!(citations("see `DESIGN.md` §4)"), [4]);
    assert_eq!(citations("// DESIGN.md §2: the listing"), [2]);
    assert_eq!(citations("offset, `DESIGN.md`\n//! §2 below"), [2]);
    assert!(citations("the choices `DESIGN.md` calls out").is_empty());
    assert_eq!(
        headings("# t\n## §1. A\ntext\n## §10. B\n### §3. no"),
        [1, 10]
    );
}

#[test]
fn every_design_section_citation_resolves_to_a_heading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md exists");
    let sections = headings(&design);
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut checked = 0usize;
    let mut dangling = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for n in citations(&text) {
            checked += 1;
            if !sections.contains(&n) {
                dangling.push(format!("{} cites §{n}", file.display()));
            }
        }
    }
    assert!(dangling.is_empty(), "unresolved citations: {dangling:#?}");
    assert!(
        checked >= 15,
        "expected the crates' DESIGN.md citations, found {checked}"
    );
}
