//! Analytic kernel-time model for GPU FFT and data-movement kernels.
//!
//! The reproduction runs on a simulated cluster, so GPU kernel runtimes come
//! from this model rather than real devices. It is calibrated against the
//! paper's observations:
//!
//! * a batched 1-D cuFFT call of size 512 inside a 3-D FFT costs ≈15 µs with
//!   contiguous input (§IV-B / Fig. 10);
//! * the same call on *strided* input shows a large spike — "the difference
//!   is considerable … this also happens when using FFTW and rocFFT"
//!   (Fig. 10);
//! * pack/unpack account for <10 % of runtime on GPU systems (§II, citing
//!   refs. \[15\], \[18\]);
//! * one Summit node (6 × V100) peaks at ≈40 TFLOP/s FP64 (§II-A).
//!
//! Batched FFTs on GPUs are memory-bandwidth bound at these sizes, so the
//! model takes `max(flop_time, memory_time)` plus a fixed launch overhead.

/// Data-access pattern of a kernel, the knob behind Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Unit-stride rows (the "transposed approach" — data packed first).
    Contiguous,
    /// Strided access straight out of the distributed layout.
    Strided,
}

/// Raw performance parameters of one accelerator (or host CPU) model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Human-readable device name.
    pub name: &'static str,
    /// Peak FP64 throughput in TFLOP/s.
    pub fp64_tflops: f64,
    /// Achievable HBM/DRAM bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Fixed kernel-launch overhead in nanoseconds.
    pub launch_ns: u64,
    /// Fraction of peak FLOP/s an FFT kernel sustains.
    pub fft_flop_efficiency: f64,
    /// Effective-bandwidth multiplier for strided access (<1; the Fig. 10
    /// spike comes from here).
    pub strided_bw_factor: f64,
    /// One-time plan-setup cost charged to the first strided call after a
    /// layout change (the tall first-call spikes of Fig. 10).
    pub plan_setup_ns: u64,
}

impl GpuModel {
    /// NVIDIA V100 (Summit): 7.8 TFLOP/s FP64 (×6 ≈ 47 ≈ the paper's
    /// "approximately 40 TFLOP/s" per node), ~900 GB/s HBM2.
    pub fn v100() -> GpuModel {
        GpuModel {
            name: "V100",
            fp64_tflops: 7.8,
            mem_bw_gbs: 830.0,
            launch_ns: 4_000,
            fft_flop_efficiency: 0.5,
            strided_bw_factor: 0.18,
            plan_setup_ns: 120_000,
        }
    }

    /// AMD MI100 (Spock): 11.5 TFLOP/s FP64, ~1.2 TB/s HBM2.
    pub fn mi100() -> GpuModel {
        GpuModel {
            name: "MI100",
            fp64_tflops: 11.5,
            mem_bw_gbs: 1100.0,
            launch_ns: 5_000,
            fft_flop_efficiency: 0.45,
            strided_bw_factor: 0.16,
            plan_setup_ns: 150_000,
        }
    }

    /// A POWER9-class host socket, for the non-GPU-aware staging path and
    /// CPU-only baselines (FFTW-like).
    pub fn host_cpu() -> GpuModel {
        GpuModel {
            name: "POWER9",
            fp64_tflops: 0.5,
            mem_bw_gbs: 135.0,
            launch_ns: 200,
            fft_flop_efficiency: 0.35,
            strided_bw_factor: 0.35,
            plan_setup_ns: 30_000,
        }
    }
}

/// Kernel-time calculator for one device.
#[derive(Debug, Clone)]
pub struct KernelTimeModel {
    gpu: GpuModel,
}

/// Bytes per complex element (double-complex).
const ELEM_BYTES: f64 = 16.0;

impl KernelTimeModel {
    /// Wraps a device model.
    pub fn new(gpu: GpuModel) -> KernelTimeModel {
        KernelTimeModel { gpu }
    }

    /// The underlying device parameters.
    pub fn gpu(&self) -> &GpuModel {
        &self.gpu
    }

    /// Time (ns) for one batched 1-D FFT kernel call: `batch` transforms of
    /// length `n`, input/output in the given layout. `first_call` charges the
    /// plan-setup spike (Fig. 10's tall first strided call).
    pub fn batched_fft_1d_ns(
        &self,
        n: usize,
        batch: usize,
        layout: LayoutKind,
        first_call: bool,
    ) -> u64 {
        if n == 0 || batch == 0 {
            return self.gpu.launch_ns;
        }
        let n_f = n as f64;
        let b_f = batch as f64;
        // Standard FFT operation count: 5·n·log2(n) per transform.
        let flops = 5.0 * n_f * n_f.log2().max(1.0) * b_f;
        let flop_time_ns =
            flops / (self.gpu.fp64_tflops * 1e12 * self.gpu.fft_flop_efficiency) * 1e9;
        // One read + one write pass over the batch.
        let bytes = 2.0 * ELEM_BYTES * n_f * b_f;
        let bw_factor = match layout {
            LayoutKind::Contiguous => 1.0,
            LayoutKind::Strided => self.gpu.strided_bw_factor,
        };
        let mem_time_ns = bytes / (self.gpu.mem_bw_gbs * bw_factor); // GB/s == B/ns
        let setup = if first_call && layout == LayoutKind::Strided {
            self.gpu.plan_setup_ns
        } else {
            0
        };
        self.gpu.launch_ns + setup + flop_time_ns.max(mem_time_ns).ceil() as u64
    }

    /// Time (ns) to pack `bytes` of scattered box data into a contiguous
    /// send buffer (one gather-read + one write).
    pub fn pack_ns(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        // Gather reads are strided but pack kernels coalesce well; charge the
        // read at half peak bandwidth and the write at full bandwidth.
        let read_ns = bytes as f64 / (self.gpu.mem_bw_gbs * self.gpu.strided_bw_factor.max(0.5));
        let write_ns = bytes as f64 / self.gpu.mem_bw_gbs;
        self.gpu.launch_ns + (read_ns + write_ns).ceil() as u64
    }

    /// Time (ns) to unpack a contiguous receive buffer into scattered box
    /// data (mirror of [`pack_ns`]).
    ///
    /// [`pack_ns`]: KernelTimeModel::pack_ns
    pub fn unpack_ns(&self, bytes: usize) -> u64 {
        self.pack_ns(bytes)
    }

    /// Time (ns) for an element-wise kernel over `elems` complex values with
    /// `flops_per_elem` floating-point operations each (k-space scaling,
    /// Green's-function multiply, dealiasing masks, …).
    pub fn pointwise_ns(&self, elems: usize, flops_per_elem: f64) -> u64 {
        if elems == 0 {
            return 0;
        }
        let bytes = 2.0 * ELEM_BYTES * elems as f64;
        let mem = bytes / self.gpu.mem_bw_gbs;
        let flop = elems as f64 * flops_per_elem
            / (self.gpu.fp64_tflops * 1e12 * self.gpu.fft_flop_efficiency)
            * 1e9;
        self.gpu.launch_ns + mem.max(flop).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_512_batch_is_about_15_us() {
        // Calibration check for Fig. 10: a 512-point batch sized like the
        // per-call chunks of the 24-GPU 512³ run (~512 rows per call) should
        // land near the paper's ≈15 µs.
        let m = KernelTimeModel::new(GpuModel::v100());
        let t = m.batched_fft_1d_ns(512, 512, LayoutKind::Contiguous, false);
        let us = t as f64 / 1000.0;
        assert!(
            (8.0..30.0).contains(&us),
            "contiguous 512×512 call = {us:.1} µs, expected ≈15 µs"
        );
    }

    #[test]
    fn strided_call_is_considerably_slower() {
        let m = KernelTimeModel::new(GpuModel::v100());
        let c = m.batched_fft_1d_ns(512, 512, LayoutKind::Contiguous, false);
        let s = m.batched_fft_1d_ns(512, 512, LayoutKind::Strided, false);
        assert!(
            s as f64 > 2.5 * c as f64,
            "strided ({s} ns) should be considerably slower than contiguous ({c} ns)"
        );
    }

    #[test]
    fn first_strided_call_has_setup_spike() {
        let m = KernelTimeModel::new(GpuModel::v100());
        let warm = m.batched_fft_1d_ns(512, 512, LayoutKind::Strided, false);
        let cold = m.batched_fft_1d_ns(512, 512, LayoutKind::Strided, true);
        assert!(cold > warm);
        assert_eq!(cold - warm, GpuModel::v100().plan_setup_ns);
    }

    #[test]
    fn times_scale_with_batch() {
        let m = KernelTimeModel::new(GpuModel::v100());
        let t1 = m.batched_fft_1d_ns(512, 100, LayoutKind::Contiguous, false);
        let t2 = m.batched_fft_1d_ns(512, 1000, LayoutKind::Contiguous, false);
        assert!(t2 > t1);
        // Linear within launch-overhead slack.
        let ratio = (t2 - m.gpu().launch_ns) as f64 / (t1 - m.gpu().launch_ns) as f64;
        assert!((ratio - 10.0).abs() < 1.0, "ratio = {ratio}");
    }

    #[test]
    fn pack_is_small_fraction_of_fft() {
        // §II: packing/unpacking accounts for <10 % of runtime; at the
        // kernel level a pack of the same bytes must not dwarf the FFT pass.
        let m = KernelTimeModel::new(GpuModel::v100());
        let elems = 512 * 512;
        let fft = m.batched_fft_1d_ns(512, 512, LayoutKind::Contiguous, false);
        let pack = m.pack_ns(elems * 16);
        assert!(pack < 2 * fft, "pack {pack} ns vs fft {fft} ns");
    }

    #[test]
    fn empty_kernels_cost_only_launch() {
        let m = KernelTimeModel::new(GpuModel::mi100());
        assert_eq!(
            m.batched_fft_1d_ns(0, 10, LayoutKind::Contiguous, false),
            GpuModel::mi100().launch_ns
        );
        assert_eq!(m.pack_ns(0), 0);
        assert_eq!(m.pointwise_ns(0, 8.0), 0);
    }

    #[test]
    fn summit_node_peak_matches_paper() {
        // 6 × V100 ≈ 40+ TFLOP/s FP64 (paper §II-A says "approximately 40").
        let node = 6.0 * GpuModel::v100().fp64_tflops;
        assert!((38.0..50.0).contains(&node));
    }
}
