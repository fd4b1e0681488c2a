//! JSON report output shared by the experiment binaries.
//!
//! Every experiment binary accepts `--json <path>`: the machine-readable
//! result is then written to `<path>` (or to `<path>/BENCH_<name>.json`
//! when `<path>` is an existing directory) *in addition to* the default
//! `target/experiments/<name>.json`, so harnesses can collect `BENCH_*.json`
//! artifacts without parsing stdout tables.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Writes `value` as pretty JSON under `target/experiments/<name>.json` and
/// returns the path written. Failures are reported but not fatal (the text
/// table on stdout is the primary output).
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let dir = Path::new("target").join("experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
                return None;
            }
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot serialize {name}: {e}");
            None
        }
    }
}

/// Extracts the value of `--json <path>` from an argument list
/// (`--json=path` also accepted). Returns `None` when the flag is absent
/// or has no value.
pub fn json_arg_from<I: IntoIterator<Item = String>>(args: I) -> Option<PathBuf> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            return args.next().map(PathBuf::from);
        }
        if let Some(path) = arg.strip_prefix("--json=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// [`json_arg_from`] over the process arguments.
pub fn json_arg() -> Option<PathBuf> {
    json_arg_from(std::env::args().skip(1))
}

/// Writes `value` to an explicit path (creating parent directories). A
/// directory target — an existing directory, or a path without a file
/// extension, which is created — receives `BENCH_<name>.json` inside;
/// anything with an extension is treated as the literal output file.
pub fn write_json_at<T: Serialize>(path: &Path, name: &str, value: &T) -> Option<PathBuf> {
    let is_dir_target = path.is_dir() || path.extension().is_none();
    let path = if is_dir_target {
        path.join(format!("BENCH_{name}.json"))
    } else {
        path.to_path_buf()
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("warning: cannot create {}: {e}", parent.display());
                return None;
            }
        }
    }
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
                return None;
            }
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot serialize {name}: {e}");
            None
        }
    }
}

/// The shared exit path of every experiment binary: writes the default
/// `target/experiments/<name>.json` and honours `--json <path>` from the
/// process arguments. Returns every path written.
pub fn emit_json<T: Serialize>(name: &str, value: &T) -> Vec<PathBuf> {
    let mut written = Vec::new();
    if let Some(path) = write_json(name, value) {
        written.push(path);
    }
    if let Some(path) = json_arg() {
        if let Some(path) = write_json_at(&path, name, value) {
            println!("json report written to {}", path.display());
            written.push(path);
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Dummy {
        value: f64,
    }

    #[test]
    fn writes_json_file() {
        let path = write_json("unit_test_dummy", &Dummy { value: 1.5 }).expect("written");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("1.5"));
    }

    #[test]
    fn json_arg_parses_both_forms() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            json_arg_from(args(&["--smoke", "--json", "out.json"])),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            json_arg_from(args(&["--json=x/y.json"])),
            Some(PathBuf::from("x/y.json"))
        );
        assert_eq!(json_arg_from(args(&["--smoke"])), None);
        assert_eq!(json_arg_from(args(&["--json"])), None);
    }

    #[test]
    fn write_json_at_treats_directories_as_bench_prefix() {
        let dir = Path::new("target").join("experiments");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_json_at(&dir, "unit_test_dir", &Dummy { value: 2.5 }).expect("written");
        assert!(
            path.ends_with("BENCH_unit_test_dir.json"),
            "{}",
            path.display()
        );
        assert!(std::fs::read_to_string(&path).unwrap().contains("2.5"));
        let explicit = dir.join("explicit_name.json");
        let path = write_json_at(&explicit, "ignored", &Dummy { value: 3.5 }).expect("written");
        assert_eq!(path, explicit);
    }

    #[test]
    fn write_json_at_creates_nonexistent_extensionless_paths_as_directories() {
        let dir = Path::new("target")
            .join("experiments")
            .join("unit_test_fresh_dir");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_json_at(&dir, "fresh", &Dummy { value: 4.5 }).expect("written");
        assert_eq!(path, dir.join("BENCH_fresh.json"));
        assert!(std::fs::read_to_string(&path).unwrap().contains("4.5"));
    }
}
