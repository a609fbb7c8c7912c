//! Prints Table III ([`fft_bench::figs::table3`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::table3);
}
