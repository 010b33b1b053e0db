//! Records the rustflags the benchmark was built with, so every result
//! row can name its target CPU (the repository's `.cargo/config.toml`
//! builds with `-C target-cpu=native`).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        flags.replace('\x1f', " ")
    );
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
