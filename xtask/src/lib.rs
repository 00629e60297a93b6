//! Library surface of `cargo xtask`, so the linter can be exercised from
//! unit tests as well as from the CLI in `main.rs`.
//!
//! * [`lexer`] — the masking "lexer" shared by every source-level check.
//! * [`rules`] — the single-file invariant lint rules R1–R13.

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

/// Recursively collect `.rs` files under `dir`, skipping build output
/// and VCS metadata.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
