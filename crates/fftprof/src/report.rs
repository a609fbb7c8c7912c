//! The combined [`Profile`] and its export formats.
//!
//! A profile bundles the four analyses — phase attribution, critical path,
//! contention account, model residual — for one run, and exports them as
//!
//! * a **dependency-free JSON document** (`schema: fftprof-profile-v1`,
//!   parseable by `fftobs::json` — validated by
//!   `json_export_parses_and_has_schema` below and end to end by
//!   `fig5_profile_out_is_invisible_replayable_and_valid` in `fft-bench`);
//! * a **collapsed-stack text file** in the format flamegraph tooling
//!   consumes: one `frame;frame;frame value` line per leaf, values in
//!   simulated nanoseconds.

use distfft::dryrun::{DryRunOpts, DryRunner};
use distfft::plan::{FftOptions, FftPlan};
use distfft::procgrid::closest_factor_pair;
use distfft::trace::Trace;
use distfft::Decomp;
use fftkern::Direction;
use fftmodels::bandwidth::{t_pencils, t_slabs, ModelParams};
use simgrid::MachineSpec;

use crate::attr::{Phase, PhaseTable, RunShape, PHASES};
use crate::contention::Contention;
use crate::dag::CritPath;

/// Model-vs-measured communication residual for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelResidual {
    /// Equations (2)/(3) prediction for this plan, ns.
    pub predicted_comm_ns: u64,
    /// Measured communication: the per-rank maximum of send + recv-wait, ns.
    pub measured_comm_ns: u64,
}

impl ModelResidual {
    /// Signed residual: measured − predicted, ns.
    pub fn residual_ns(&self) -> i64 {
        self.measured_comm_ns as i64 - self.predicted_comm_ns as i64
    }

    /// Residual as a fraction of the prediction (0 when the model
    /// predicts zero).
    pub fn residual_frac(&self) -> f64 {
        if self.predicted_comm_ns == 0 {
            0.0
        } else {
            self.residual_ns() as f64 / self.predicted_comm_ns as f64
        }
    }

    /// Evaluates equations (2)/(3) with the machine's advertised NIC
    /// parameters against the attribution table's measured communication.
    pub fn build(plan: &FftPlan, machine: &MachineSpec, phases: &PhaseTable) -> ModelResidual {
        let params = ModelParams {
            latency_s: machine.inter_latency_ns as f64 * 1e-9,
            bandwidth_bps: machine.nic_gbs * 1e9,
        };
        let n = (plan.n[0] * plan.n[1] * plan.n[2]) as f64;
        let t_s = match plan.opts.decomp {
            Decomp::Slabs => t_slabs(n, plan.active, &params),
            _ => {
                let (p, q) = closest_factor_pair(plan.active);
                t_pencils(n, p, q, &params)
            }
        };
        let measured = phases
            .per_rank
            .iter()
            .map(|bd| bd.comm_ns())
            .max()
            .unwrap_or(0);
        ModelResidual {
            predicted_comm_ns: (t_s * 1e9).round().max(0.0) as u64,
            measured_comm_ns: measured,
        }
    }
}

/// The full profile of one run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Run label (used in reports and collapsed-stack frames).
    pub label: String,
    /// Transform size.
    pub n: [usize; 3],
    /// Ranks in the trace set.
    pub nranks: usize,
    /// Decomposition label ("slabs" / "pencils" / ...).
    pub decomp: &'static str,
    /// MPI routine of the exchange backend.
    pub routine: &'static str,
    /// GPU-aware MPI on/off.
    pub gpu_aware: bool,
    /// Machine profiled on.
    pub machine: &'static str,
    /// Per-rank phase attribution.
    pub phases: PhaseTable,
    /// Critical path over the event DAG.
    pub critpath: CritPath,
    /// Link-contention account.
    pub contention: Contention,
    /// Model-vs-measured communication residual.
    pub residual: ModelResidual,
}

impl Profile {
    /// Profiles a finished run: `traces` as produced by either executor
    /// for `plan` on `machine`. Pure analysis — records no metrics.
    pub fn build(
        label: &str,
        plan: &FftPlan,
        machine: &MachineSpec,
        gpu_aware: bool,
        traces: &[Trace],
    ) -> Profile {
        let shape = RunShape::from_plan(plan, machine, gpu_aware);
        let phases = PhaseTable::build(traces, &shape, machine);
        let critpath = CritPath::build(traces, &shape, machine);
        let contention = Contention::build(traces, &shape, machine);
        let residual = ModelResidual::build(plan, machine, &phases);
        Profile {
            label: label.to_string(),
            n: plan.n,
            nranks: traces.len(),
            decomp: plan.opts.decomp.name(),
            routine: plan.opts.backend.routine(),
            gpu_aware,
            machine: machine.name,
            phases,
            critpath,
            contention,
            residual,
        }
    }

    /// The trace makespan, ns.
    pub fn makespan_ns(&self) -> u64 {
        self.phases.makespan_ns()
    }

    /// The profile as a dependency-free JSON document
    /// (`schema: fftprof-profile-v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"fftprof-profile-v1\",\n");
        s.push_str(&format!("  \"label\": \"{}\",\n", esc(&self.label)));
        s.push_str(&format!(
            "  \"n\": [{}, {}, {}],\n",
            self.n[0], self.n[1], self.n[2]
        ));
        s.push_str(&format!("  \"nranks\": {},\n", self.nranks));
        s.push_str(&format!("  \"decomp\": \"{}\",\n", esc(self.decomp)));
        s.push_str(&format!("  \"routine\": \"{}\",\n", esc(self.routine)));
        s.push_str(&format!("  \"gpu_aware\": {},\n", self.gpu_aware));
        s.push_str(&format!("  \"machine\": \"{}\",\n", esc(self.machine)));
        s.push_str(&format!("  \"makespan_ns\": {},\n", self.makespan_ns()));

        // Phase attribution.
        s.push_str(&format!(
            "  \"window\": [{}, {}],\n",
            self.phases.window.0, self.phases.window.1
        ));
        s.push_str("  \"phases\": [\n");
        for (r, bd) in self.phases.per_rank.iter().enumerate() {
            s.push_str(&format!("    {{\"rank\": {r}"));
            for p in PHASES {
                s.push_str(&format!(", \"{}\": {}", esc(p.label()), bd.get(p)));
            }
            // Side account (not a tiling phase): compute hidden under an
            // in-flight exchange by the transform-ahead schedule.
            s.push_str(&format!(", \"overlap_ns\": {}", bd.overlap_ns));
            s.push_str(&format!(", \"total_ns\": {}}}", bd.total_ns()));
            s.push_str(if r + 1 < self.phases.per_rank.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");

        // Critical path.
        s.push_str("  \"critical_path\": {\n");
        s.push_str(&format!("    \"busy_ns\": {},\n", self.critpath.busy_ns));
        s.push_str(&format!("    \"idle_ns\": {},\n", self.critpath.idle_ns));
        s.push_str(&format!(
            "    \"comm_share\": {:.6},\n",
            self.critpath.comm_share()
        ));
        s.push_str("    \"by_phase\": {");
        for (i, p) in PHASES.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{}\": {}",
                esc(p.label()),
                self.critpath.by_phase[*p as usize]
            ));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "    \"ranks_on_path\": {},\n",
            json_usize_arr(&self.critpath.ranks_on_path())
        ));
        s.push_str("    \"comm_by_reshape\": [");
        for (i, (ri, ns)) in self.critpath.comm_by_reshape.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{{\"reshape\": {ri}, \"ns\": {ns}}}"));
        }
        s.push_str("],\n");
        s.push_str("    \"segments\": [\n");
        for (i, seg) in self.critpath.segments.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"rank\": {}, \"phase\": \"{}\", \"ns\": {}, \"reshape\": {}}}",
                seg.rank,
                esc(seg.phase.label()),
                seg.ns,
                seg.reshape
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "null".to_string())
            ));
            s.push_str(if i + 1 < self.critpath.segments.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("    ]\n  },\n");

        // Contention.
        s.push_str("  \"contention\": {\n");
        s.push_str(&format!(
            "    \"total_queue_ns\": {},\n",
            self.contention.total_queue_ns()
        ));
        s.push_str("    \"by_reshape\": [\n");
        let n_items = self.contention.by_reshape.len();
        for (i, ((ri, class), c)) in self.contention.by_reshape.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"reshape\": {ri}, \"link\": \"{}\", \"calls\": {}, \"bytes\": {}, \
                 \"actual_ns\": {}, \"ideal_ns\": {}, \"queue_ns\": {}}}",
                esc(class.label()),
                c.calls,
                c.bytes,
                c.actual_ns,
                c.ideal_ns,
                c.queue_ns
            ));
            s.push_str(if i + 1 < n_items { ",\n" } else { "\n" });
        }
        s.push_str("    ],\n");
        s.push_str("    \"by_node\": [\n");
        for (i, l) in self.contention.by_node.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"node\": {}, \"link\": \"{}\", \"queue_ns\": {}, \"calls\": {}}}",
                l.node,
                esc(l.class.label()),
                l.queue_ns,
                l.calls
            ));
            s.push_str(if i + 1 < self.contention.by_node.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("    ]\n  },\n");

        // Model residual.
        s.push_str("  \"model\": {");
        s.push_str(&format!(
            "\"predicted_comm_ns\": {}, \"measured_comm_ns\": {}, \"residual_ns\": {}, \
             \"residual_frac\": {:.6}",
            self.residual.predicted_comm_ns,
            self.residual.measured_comm_ns,
            self.residual.residual_ns(),
            self.residual.residual_frac()
        ));
        s.push_str("}\n}\n");
        s
    }

    /// The profile as collapsed stacks, one `frames value` line per leaf
    /// (the format flamegraph tooling consumes). Two stack families:
    /// `label;rank_R;phase` from the attribution table and
    /// `label;critical-path;phase` from the path walk. Values are
    /// simulated nanoseconds; frames never contain spaces.
    pub fn to_collapsed(&self) -> String {
        let root = frame(&self.label);
        let mut s = String::with_capacity(1024);
        for (r, bd) in self.phases.per_rank.iter().enumerate() {
            for p in PHASES {
                let ns = bd.get(p);
                if ns > 0 {
                    s.push_str(&format!("{root};rank_{r};{} {ns}\n", frame(p.label())));
                }
            }
        }
        for p in PHASES {
            let ns = if p == Phase::Idle {
                self.critpath.idle_ns
            } else {
                self.critpath.by_phase[p as usize]
            };
            if ns > 0 {
                s.push_str(&format!("{root};critical-path;{} {ns}\n", frame(p.label())));
            }
        }
        s
    }
}

/// Runs one configuration end to end on the simulated machine (one
/// warm-up, then the measured forward transform) and profiles it. The
/// standard entry point for benchmarks wiring `--profile-out`.
pub fn profile_config(
    label: &str,
    machine: &MachineSpec,
    n: [usize; 3],
    nranks: usize,
    opts: FftOptions,
    gpu_aware: bool,
) -> Profile {
    let plan = FftPlan::build(n, nranks, opts);
    let mut runner = DryRunner::new(
        &plan,
        machine,
        DryRunOpts {
            gpu_aware,
            ..DryRunOpts::default()
        },
    );
    runner.run(Direction::Forward); // warm-up: plan caches, wisdom
    let rep = runner.run(Direction::Forward);
    Profile::build(label, &plan, machine, gpu_aware, &rep.traces)
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_usize_arr(v: &[usize]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A collapsed-stack frame: spaces and semicolons would break the
/// `frames value` grammar, so both are replaced with underscores.
fn frame(s: &str) -> String {
    s.replace([' ', ';'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_profile() -> Profile {
        let machine = MachineSpec::summit();
        profile_config(
            "demo run",
            &machine,
            [32, 32, 32],
            12,
            FftOptions::default(),
            true,
        )
    }

    #[test]
    fn json_export_parses_and_has_schema() {
        let p = demo_profile();
        let doc = fftobs::json::parse(&p.to_json()).expect("profile JSON must parse");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("fftprof-profile-v1")
        );
        let phases = doc.get("phases").and_then(|p| p.as_array()).unwrap();
        assert_eq!(phases.len(), 12);
        let makespan = doc.get("makespan_ns").and_then(|m| m.as_f64()).unwrap();
        for row in phases {
            let total = row.get("total_ns").and_then(|t| t.as_f64()).unwrap();
            assert_eq!(total, makespan, "phase rows must sum to the makespan");
        }
        assert!(doc.get("critical_path").is_some());
        assert!(doc.get("contention").is_some());
        assert!(doc.get("model").is_some());
    }

    #[test]
    fn collapsed_stacks_are_well_formed_and_account_all_time() {
        let p = demo_profile();
        let folded = p.to_collapsed();
        let mut rank_total = 0u64;
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("frames value");
            assert!(!stack.contains(' '), "frames must not contain spaces");
            assert!(stack.starts_with("demo_run;"));
            let v: u64 = value.parse().expect("integer ns value");
            assert!(v > 0);
            if stack.contains(";rank_") {
                rank_total += v;
            }
        }
        // Per-rank stacks tile every rank's window exactly.
        assert_eq!(rank_total, p.makespan_ns() * p.nranks as u64);
    }
}
