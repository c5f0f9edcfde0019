//! The trace binary: same command line, plus the counting allocator the
//! `tensor.step.*` probes read.

use fedpkd_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    fedpkd_benchmark::cli::main();
}
