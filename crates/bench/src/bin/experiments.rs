//! Print every experiment table, E1–E13 in order.
//!
//! Run with: `cargo run --release -p moda-bench --bin experiments`

fn main() {
    for (_, table) in moda_bench::experiments::ALL {
        print!("{}", table().render());
    }
}
