//! Prints the configuration sweep ([`fft_bench::figs::sweep`]).
//!
//! Usage: `sweep [n] [machine]` with `n` the cubic transform extent
//! (default 512) and `machine` one of `summit` (default) or `spock`.

use simgrid::MachineSpec;

fn main() {
    let (obs, positional) = fft_bench::Obs::from_env(2, fft_bench::Export::Profile);
    let n: usize = match positional.first() {
        None => 512,
        Some(s) => s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("invalid size '{s}': expected a positive integer");
            std::process::exit(2);
        }),
    };
    let machine = match positional.get(1).map(|s| s.as_str()) {
        Some("spock") => MachineSpec::spock(),
        Some("summit") | None => MachineSpec::summit(),
        Some(other) => {
            eprintln!("unknown machine '{other}': expected 'summit' or 'spock'");
            std::process::exit(2);
        }
    };
    match fft_bench::figs::sweep(n, &machine, &obs) {
        Ok(sweep) => print!("{}", sweep.render()),
        Err(e) => {
            eprintln!("invalid size '{n}': {e}");
            std::process::exit(2);
        }
    }
}
