//! Prints the fidelity table ([`fft_bench::figs::fidelity`]); takes no arguments.
fn main() {
    fft_bench::run(fft_bench::figs::fidelity);
}
