//! One function per table and figure of the paper, each returning its
//! [`Figure`](crate::Figure); the binaries of the same names print them.

mod exascale;
mod fidelity;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod models_compare;
mod sweep;
mod table1;
mod table3;

pub use self::{
    exascale::exascale, fidelity::fidelity, fig10::fig10, fig11::fig11, fig12::fig12, fig13::fig13,
    fig2::fig2, fig3::fig3, fig4::fig4, fig5::fig5, fig6::fig6, fig7::fig7, fig8::fig8, fig9::fig9,
    models_compare::models_compare, sweep::sweep, table1::table1, table3::table3,
};

use crate::{merged_traces, protocol_runs, N512};
use distfft::dryrun::DryRunOpts;
use distfft::plan::{CommBackend, FftOptions};
use distfft::trace::Trace;
use mpisim::MpiDistro;
use simgrid::MachineSpec;

/// Per-rank traces of the protocol for the 512³ transform on 24 V100s (4
/// Summit nodes) with per-message jitter `noise`: Figs. 2, 3, 6, 7 and 10.
fn traces_on_24(
    backend: CommBackend,
    contiguous_fft: bool,
    distro: MpiDistro,
    noise: f64,
) -> Vec<Trace> {
    let opts = FftOptions {
        backend,
        contiguous_fft,
        ..FftOptions::default()
    };
    let run = DryRunOpts {
        distro,
        noise_amplitude: noise,
        ..DryRunOpts::default()
    };
    let runs = protocol_runs(&MachineSpec::summit(), N512, 24, opts, run, |r| r.traces);
    merged_traces(runs)
}
