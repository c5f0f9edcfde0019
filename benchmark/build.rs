//! Captures what the binary was built with, for the provenance block of
//! every result file: the compiler and the rustflags cargo actually passed
//! (including the ones `.cargo/config.toml` adds).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_RUSTFLAGS={flags}");
    println!(
        "cargo:rustc-env=BENCH_PROFILE={} opt-level={}",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
