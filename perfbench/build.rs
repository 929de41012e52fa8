//! Stamps host provenance known only at build time: the compiler version,
//! the build profile and the git revision of the measured sources.

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        capture(&rustc, &["-V"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string())
    );
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        capture("git", &["rev-parse", "--short=12", "HEAD"])
    );
    // Only this file: a path that may not exist (a checkout without
    // `.git`) would rerun the script, and relink the benchmark, every run.
    println!("cargo:rerun-if-changed=build.rs");
}
