//! The timed binary: the product's default allocator, untouched.

fn main() {
    fedpkd_benchmark::cli::main();
}
