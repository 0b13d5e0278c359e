//! Captures the git revision and the compiler version at build time, so every
//! JSON document the harness writes can say which build produced it.

use std::process::Command;

/// The trimmed stdout of `cmd args`, or `None` if it fails or prints nothing.
fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let git_rev = output("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc_version = output(&rustc, &["--version"]);
    println!("cargo:rustc-env=HARNESS_GIT_REV={}", git_rev.as_deref().unwrap_or("unknown"));
    println!("cargo:rustc-env=HARNESS_RUSTC={}", rustc_version.as_deref().unwrap_or("unknown"));
    // Re-run when HEAD moves: HEAD itself on a checkout, the branch ref it
    // names on a commit.  Without git, cargo's default (re-run on any package
    // change) applies.
    if let Some(git_dir) = output("git", &["rev-parse", "--absolute-git-dir"]) {
        println!("cargo:rerun-if-changed={git_dir}/HEAD");
        if let Some(head_ref) = output("git", &["symbolic-ref", "-q", "HEAD"]) {
            println!("cargo:rerun-if-changed={git_dir}/{head_ref}");
        }
    }
}
