//! Prints Table I ([`fft_bench::figs::table1`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::table1);
}
