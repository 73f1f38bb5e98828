//! The decompiler crates, `binpart-cdfg` and `binpart-core`, the
//! processor crate `binpart-mips` and the hardware co-simulator
//! `binpart-hwsim` each carry a module table in the `//!` docs of their
//! `src/lib.rs`: one row per module file, naming its role and public entry
//! point. These tests fail when a module file has no row, a row names a
//! file that is gone, or the table has more rows than the crate has
//! modules, so the map cannot fall behind a split or a new module. (A
//! renamed entry point breaks the row's intra-doc link, which the
//! `cargo doc` CI step denies.)

use std::path::Path;

const CRATES: [&str; 4] = [
    "crates/cdfg/src",
    "crates/core/src",
    "crates/mips/src",
    "crates/hwsim/src",
];

/// Every `.rs` file under `dir`, as a path relative to `base` with `/`
/// separators.
fn module_files(base: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            module_files(base, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(base).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The source directory of one crate and the `//!` docs of its `lib.rs`.
fn crate_docs(src: &str) -> (std::path::PathBuf, String) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(src);
    let lib = std::fs::read_to_string(dir.join("lib.rs")).unwrap();
    let docs = lib
        .lines()
        .filter(|l| l.starts_with("//!"))
        .collect::<Vec<_>>();
    (dir, docs.join("\n"))
}

#[test]
fn every_module_file_has_a_row_in_its_crate_map() {
    for src in CRATES {
        let (dir, docs) = crate_docs(src);
        let mut files = Vec::new();
        module_files(&dir, &dir, &mut files);
        assert!(files.len() > 3, "{src}: only {files:?}");
        for file in files.iter().filter(|f| *f != "lib.rs") {
            assert!(
                docs.contains(&format!("//! | `{file}` |")),
                "{src}/{file} has no row in the module table of {src}/lib.rs"
            );
        }
    }
}

#[test]
fn every_row_of_a_crate_map_names_a_module_file() {
    for src in CRATES {
        let (dir, docs) = crate_docs(src);
        let rows: Vec<&str> = docs
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `")?.split_once("` |"))
            .map(|(file, _)| file)
            .collect();
        let mut files = Vec::new();
        module_files(&dir, &dir, &mut files);
        assert_eq!(
            rows.len(),
            files.len() - 1,
            "{src}: the module table has a row per module file besides lib.rs"
        );
        for file in rows {
            assert!(
                dir.join(file).is_file(),
                "{src}/lib.rs maps `{file}`, which does not exist"
            );
        }
    }
}
