//! The mutation catalog (`tests/mutants.txt`) and its runner.
//!
//! Each catalog entry names one line of a source file, the line that
//! replaces it, and the tier-1 test expected to fail on the mutant. The
//! catalog is the evidence that tier-1 pins a behaviour: a unit test is
//! deleted only when each behaviour it checked has an entry here that it
//! killed and that tier-1 kills.
//!
//! * `catalog_anchors_match_exactly_once` (tier-1) keeps the catalog in
//!   step with the tree: each anchor matches exactly one line.
//! * `catalog_mutants_are_killed` (ignored, so tier-1 skips it) copies the
//!   tree without `target/` into a temporary directory, builds it there
//!   with its own target directory and checks that tier-1 passes
//!   unmutated. It then applies one entry at a time, runs every tier-1
//!   test binary and restores the file. It fails when an anchor matches
//!   zero or several lines, a mutant does not build, a mutant survives
//!   that is not listed as a survivor, a listed survivor is killed, or
//!   the failing tests do not include the one the entry names.
//!
//! ```text
//! cargo test --test mutants -- --ignored --nocapture             # whole catalog
//! MUTANTS=des-fork-block-doubled cargo test --test mutants -- --ignored --nocapture
//! ```
//!
//! `MUTANTS` takes a comma-separated list of entry ids. Test binaries run
//! one at a time, each under a ten-minute limit; a binary that exceeds it
//! is killed and counts as failing every test it holds.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One catalog entry.
#[derive(Debug, Default)]
struct Mutant {
    id: String,
    file: String,
    find: String,
    replace: String,
    /// The tier-1 test that must fail, as `tests/<file>.rs::<test>`.
    killer: String,
    /// Why the mutant is known to survive, if it does.
    survives: Option<String>,
}

/// Parses the catalog: blocks of `key: value` lines under an `[id]`
/// header, `#` comments. In `replace`, `\n` starts a new line at the
/// anchor's indentation.
fn catalog(root: &Path) -> Vec<Mutant> {
    let text = std::fs::read_to_string(root.join("tests/mutants.txt")).expect("tests/mutants.txt");
    let mut entries: Vec<Mutant> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(id) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            entries.push(Mutant {
                id: id.to_string(),
                ..Mutant::default()
            });
            continue;
        }
        let entry = entries
            .last_mut()
            .unwrap_or_else(|| panic!("line {}: no [id] yet", n + 1));
        let (key, value) = line
            .split_once(':')
            .unwrap_or_else(|| panic!("line {}: expected `key: value`", n + 1));
        let value = value.strip_prefix(' ').unwrap_or(value).to_string();
        match key {
            "file" => entry.file = value,
            "find" => entry.find = value,
            "replace" => entry.replace = value,
            "killer" => entry.killer = value,
            "survives" => entry.survives = Some(value),
            _ => panic!("line {}: unknown key `{key}`", n + 1),
        }
    }
    for e in &entries {
        assert!(
            !e.file.is_empty() && !e.find.is_empty() && !e.killer.is_empty(),
            "entry [{}] needs file, find and killer",
            e.id
        );
        assert_ne!(e.find, e.replace, "entry [{}] changes nothing", e.id);
    }
    let ids: BTreeSet<&str> = entries.iter().map(|e| e.id.as_str()).collect();
    assert_eq!(ids.len(), entries.len(), "duplicate entry ids");
    entries
}

/// `text` with the one line whose trimmed text is `m.find` replaced, or
/// why that is impossible.
fn apply(m: &Mutant, text: &str) -> Result<String, String> {
    let hits: Vec<usize> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim() == m.find)
        .map(|(i, _)| i)
        .collect();
    if hits.len() != 1 {
        return Err(format!(
            "[{}] anchor matches {} lines of {}: {}",
            m.id,
            hits.len(),
            m.file,
            m.find
        ));
    }
    let mut out = String::with_capacity(text.len() + m.replace.len());
    for (i, line) in text.lines().enumerate() {
        if i == hits[0] {
            let indent = &line[..line.len() - line.trim_start().len()];
            for part in m.replace.split("\\n") {
                out.push_str(indent);
                out.push_str(part);
                out.push('\n');
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

#[test]
fn catalog_anchors_match_exactly_once() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let problems: Vec<String> = catalog(root)
        .iter()
        .filter_map(|m| match std::fs::read_to_string(root.join(&m.file)) {
            Ok(text) => apply(m, &text).err(),
            Err(_) => Some(format!("[{}] no file {}", m.id, m.file)),
        })
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the copy");
    for entry in std::fs::read_dir(from).expect("readable tree") {
        let entry = entry.expect("directory entry");
        let name = entry.file_name();
        let (src, dst) = (entry.path(), to.join(&name));
        if entry.file_type().expect("file type").is_dir() {
            if !matches!(name.to_str(), Some("target" | ".git" | "out")) {
                copy_tree(&src, &dst);
            }
        } else {
            std::fs::copy(&src, &dst).expect("copy a file");
        }
    }
}

/// Builds the tier-1 tests in `dir`, returning `(source, executable)` for
/// each test binary but this one (a mutant always moves its own anchor),
/// or the compiler's output.
fn build(cargo: &str, dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let out = Command::new(cargo)
        .args(["test", "--no-run", "--target-dir", "target"])
        .current_dir(dir)
        .output()
        .expect("run cargo");
    let log = String::from_utf8_lossy(&out.stderr).into_owned();
    if !out.status.success() {
        return Err(log);
    }
    // `  Executable tests/golden.rs (target/debug/deps/golden-…)`
    Ok(log
        .lines()
        .filter_map(|l| l.trim().strip_prefix("Executable "))
        .filter_map(|l| {
            let (source, exe) = l.rsplit_once(" (")?;
            let source = source.trim_start_matches("unittests ").to_string();
            Some((source, dir.join(exe.trim_end_matches(')'))))
        })
        .filter(|(source, _)| source != "tests/mutants.rs")
        .collect())
}

/// Runs every test binary; returns the failing tests as
/// `<source>::<test>`, with `<source>::*` for a binary that timed out or
/// died without a verdict.
fn run_tests(dir: &Path, binaries: &[(String, PathBuf)]) -> BTreeSet<String> {
    const LIMIT: Duration = Duration::from_secs(600);
    let mut failed = BTreeSet::new();
    for (source, exe) in binaries {
        let log = dir.join("mutant-test.log");
        let file = std::fs::File::create(&log).expect("test log");
        let mut child = Command::new(exe)
            .current_dir(dir)
            .stdout(file.try_clone().expect("log handle"))
            .stderr(file)
            .stdin(Stdio::null())
            .spawn()
            .expect("run a test binary");
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for a test binary") {
                break Some(status);
            }
            if start.elapsed() > LIMIT {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        let mut named = 0;
        for line in text.lines() {
            let test = line
                .strip_prefix("test ")
                .and_then(|l| l.strip_suffix(" ... FAILED"));
            if let Some(test) = test {
                failed.insert(format!("{source}::{test}"));
                named += 1;
            }
        }
        if named == 0 && !status.is_some_and(|s| s.success()) {
            failed.insert(format!("{source}::*"));
        }
    }
    failed
}

/// The tree's temporary copy and its target directory, removed however
/// the run ends: a failed build or baseline panics past the last line.
struct TempTree(PathBuf);

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
#[ignore = "builds and tests the tree once per catalog entry; see the module doc"]
fn catalog_mutants_are_killed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut entries = catalog(root);
    if let Ok(only) = std::env::var("MUTANTS") {
        let only: BTreeSet<&str> = only.split(',').map(str::trim).collect();
        entries.retain(|m| only.contains(m.id.as_str()));
        assert_eq!(entries.len(), only.len(), "MUTANTS names an unknown id");
    }
    let tree =
        TempTree(std::env::temp_dir().join(format!("chiron-mutants-{}", std::process::id())));
    let dir = tree.0.as_path();
    copy_tree(root, dir);

    let binaries = build(&cargo, dir).unwrap_or_else(|log| panic!("unmutated build fails:\n{log}"));
    let baseline = run_tests(dir, &binaries);
    assert!(baseline.is_empty(), "unmutated tier-1 fails: {baseline:?}");

    let mut problems = Vec::new();
    for m in &entries {
        let path = dir.join(&m.file);
        let original = std::fs::read_to_string(&path).expect("readable mutated file");
        let mutated = match apply(m, &original) {
            Ok(text) => text,
            Err(why) => {
                println!("BROKEN    {why}");
                problems.push(why);
                continue;
            }
        };
        std::fs::write(&path, mutated).expect("write the mutant");
        let verdict = build(&cargo, dir).map(|binaries| run_tests(dir, &binaries));
        std::fs::write(&path, original).expect("restore the file");
        let failed = match verdict {
            Ok(failed) => failed,
            Err(log) => {
                let tail: Vec<&str> = log.lines().rev().take(12).collect();
                println!("NO BUILD  [{}]", m.id);
                problems.push(format!("[{}] does not build: {:?}", m.id, tail));
                continue;
            }
        };
        let binary = m.killer.split("::").next().unwrap_or_default();
        let by_killer = failed.contains(&m.killer) || failed.contains(&format!("{binary}::*"));
        let list = failed.iter().cloned().collect::<Vec<_>>().join(", ");
        match (&m.survives, failed.is_empty(), by_killer) {
            (None, false, true) => println!("killed    [{}] by {list}", m.id),
            (Some(_), true, _) => println!("survived  [{}] (listed survivor)", m.id),
            (None, true, _) => {
                println!("SURVIVED  [{}]", m.id);
                problems.push(format!("[{}] survives", m.id));
            }
            (Some(_), false, _) => {
                println!("KILLED    [{}] by {list}, but listed as a survivor", m.id);
                problems.push(format!(
                    "[{}] is listed as a survivor but {list} kill it",
                    m.id
                ));
            }
            (None, false, false) => {
                println!("MISMATCH  [{}] named {}, killed by {list}", m.id, m.killer);
                problems.push(format!("[{}] names {} but {list} kill it", m.id, m.killer));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
