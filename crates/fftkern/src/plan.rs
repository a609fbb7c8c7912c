//! Batched, strided 1-D transform plans — the `cufftPlanMany` equivalent.
//!
//! Distributed FFT libraries compute "a batch of 1-D FFTs" between every
//! communication phase (paper, Algorithm 1, line 8). Whether that batch reads
//! *contiguous* (transposed) or *strided* data is one of the tuning knobs the
//! paper studies (Figs. 6, 7, 10), so the plan records input/output stride and
//! distance exactly as cuFFT's advanced data layout does.

use crate::bluestein::BluesteinPlan;
use crate::complex::C64;
use crate::stockham::StockhamPlan;

/// Elements in each half — panel, ping-pong buffer — of the panel
/// scratch: 32 KiB of complex doubles per half. Both halves together are at
/// most the `n + lines·n` the transposing tile engine asked for at every
/// `n ≤ 512`, so no arena grows. At `n = 128` (16 lines) the pair is
/// 64 KiB, over a 48 KiB L1d; halving this constant lifted that size from
/// 6.9 to 10.0 GFLOP/s in cache but left a 128³ pencil transform flat end
/// to end (EXPERIMENTS.md, panel-width table).
const PANEL_ELEMS: usize = 2048;

/// Panel width bounds, in lines. Widths are multiples of 4 — one AVX-512
/// vector of complex doubles, one 64-byte cache line per copied run — so
/// only the last panel of a range is ragged. Measured GFLOP/s stops rising
/// at 12–16 lines for n ∈ {32, 60, 64}, where 16 keeps panel and ping-pong
/// buffer L1-resident together; 4 is what the footprint leaves at n = 512
/// (EXPERIMENTS.md, panel-width table).
const PANEL_MIN_LINES: usize = 4;
const PANEL_MAX_LINES: usize = 16;

/// Packed rows shorter than this ride the lane-interleaved panel (gathered
/// `w` rows at a time); from here up the per-line loop, which moves no
/// data, is as fast or faster. Best GFLOP/s, per-line loop against panel:
/// n = 16: 5.8 / 10.2, 30: 5.4 / 11.3, 32: 9.6 / 12.5, 60: 8.6 / 10.5,
/// 64: 12.7 / 13.4 (typical 12.2 / 11.7, a tie), 96: 13.6 / 9.0
/// (DESIGN.md §11, "Short packed rows").
const PACKED_PANEL_BELOW: usize = 64;

/// Transform direction. Both are unnormalized (cuFFT/FFTW convention): a
/// forward followed by an inverse multiplies the data by `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// `e^{-2πi…}` kernel — the paper's "Forward FFT".
    Forward,
    /// `e^{+2πi…}` kernel — the paper's "Inverse FFT" (unnormalized).
    Inverse,
}

impl Direction {
    /// Sign of the exponent: `-1` forward, `+1` inverse.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

/// Algorithm selected for a given length: Stockham autosort (radix-8/4/2,
/// then 3/5/7 stages) for every 2/3/5/7-smooth size, Bluestein otherwise.
#[derive(Debug, Clone)]
enum Algo {
    Stockham(StockhamPlan),
    Bluestein(BluesteinPlan),
}

impl Algo {
    fn for_len(n: usize) -> Algo {
        if crate::is_smooth(n) {
            Algo::Stockham(StockhamPlan::new(n))
        } else {
            Algo::Bluestein(BluesteinPlan::new(n))
        }
    }

    /// Scratch elements this algorithm needs per transform.
    fn scratch_len(&self) -> usize {
        match self {
            Algo::Stockham(p) => p.scratch_elems(),
            Algo::Bluestein(p) => p.scratch_elems(),
        }
    }

    /// Executes one transform reusing caller-provided scratch (sized by
    /// [`scratch_len`](Algo::scratch_len)) — no allocation per row, which
    /// matters in batched executions.
    fn execute_scratch(&self, data: &mut [C64], dir: Direction, work: &mut [C64]) {
        match self {
            Algo::Stockham(p) => p.execute_scratch(data, dir, work),
            Algo::Bluestein(p) => p.execute_with_scratch(data, dir, work),
        }
    }

    /// Rows of the `[rows][w]` panel [`execute_interleaved`] works on: the
    /// transform length, or Bluestein's padded convolution length.
    ///
    /// [`execute_interleaved`]: Algo::execute_interleaved
    fn panel_rows(&self) -> usize {
        match self {
            Algo::Stockham(p) => p.len(),
            Algo::Bluestein(p) => p.conv_len(),
        }
    }

    /// Transforms the `w` lane-interleaved lines of panel `x`, ping-ponging
    /// through `y`; returns `(result, other)`.
    fn execute_interleaved<'a>(
        &self,
        x: &'a mut [C64],
        y: &'a mut [C64],
        w: usize,
        dir: Direction,
    ) -> (&'a mut [C64], &'a mut [C64]) {
        match self {
            Algo::Stockham(p) => p.execute_interleaved(x, y, w, dir),
            Algo::Bluestein(p) => p.execute_interleaved(x, y, w, dir),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Algo::Stockham(_) => "stockham",
            Algo::Bluestein(_) => "bluestein",
        }
    }
}

/// Advanced data layout for a batch of 1-D transforms, mirroring
/// `cufftPlanMany`: element `j` of batch `b` is read at
/// `b·idist + j·istride` and written at `b·odist + k·ostride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Layout {
    /// Stride between successive elements of one transform.
    pub stride: usize,
    /// Distance between the first elements of successive transforms.
    pub dist: usize,
}

impl Layout {
    /// Contiguous rows: stride 1, rows packed back to back.
    pub fn contiguous(n: usize) -> Layout {
        Layout { stride: 1, dist: n }
    }

    /// Strided columns: elements `stride` apart, consecutive transforms
    /// starting at consecutive offsets (the classic transposed access).
    pub fn strided(stride: usize) -> Layout {
        Layout { stride, dist: 1 }
    }

    /// True when the layout reads/writes contiguous memory (`stride == 1`).
    pub fn is_contiguous(&self) -> bool {
        self.stride == 1
    }
}

/// A batched, strided 1-D transform plan of fixed size.
///
/// ```
/// use fftkern::{Direction, C64};
/// use fftkern::plan::Plan1d;
/// // Two contiguous 8-point transforms, executed in place.
/// let plan = Plan1d::contiguous(8, 2);
/// let mut data = vec![C64::ONE; 16];
/// plan.execute_inplace(&mut data, Direction::Forward);
/// // FFT of a constant: all energy in the DC bin of each row.
/// assert_eq!(data[0], C64::real(8.0));
/// assert_eq!(data[8], C64::real(8.0));
/// assert_eq!(data[1], C64::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Plan1d {
    n: usize,
    batch: usize,
    input: Layout,
    output: Layout,
    algo: Algo,
}

impl Plan1d {
    /// Builds a plan for `batch` transforms of length `n` with explicit
    /// input/output layouts.
    pub fn with_layout(n: usize, batch: usize, input: Layout, output: Layout) -> Plan1d {
        assert!(n > 0, "transform length must be positive");
        Plan1d {
            n,
            batch,
            input,
            output,
            algo: Algo::for_len(n),
        }
    }

    /// Builds a plan for `batch` contiguous transforms of length `n`.
    pub fn contiguous(n: usize, batch: usize) -> Plan1d {
        Plan1d::with_layout(n, batch, Layout::contiguous(n), Layout::contiguous(n))
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate size-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Number of transforms per execution.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Name of the algorithm chosen for this length (for traces and tests).
    pub fn algo_name(&self) -> &'static str {
        self.algo.name()
    }

    /// Lines per panel of the panel route: as many as fit
    /// `PANEL_ELEMS`, rounded down to a multiple of 4, within
    /// `PANEL_MIN_LINES..=PANEL_MAX_LINES` and the batch.
    fn panel_lines(&self) -> usize {
        let fit = PANEL_ELEMS / self.algo.panel_rows() / 4 * 4;
        fit.clamp(PANEL_MIN_LINES, PANEL_MAX_LINES)
            .min(self.batch.max(1))
    }

    /// Minimum input buffer length required by the layout.
    pub fn required_input_len(&self) -> usize {
        if self.batch == 0 {
            return 0;
        }
        (self.batch - 1) * self.input.dist + (self.n - 1) * self.input.stride + 1
    }

    /// Minimum output buffer length required by the layout.
    pub fn required_output_len(&self) -> usize {
        if self.batch == 0 {
            return 0;
        }
        (self.batch - 1) * self.output.dist + (self.n - 1) * self.output.stride + 1
    }

    /// Number of scratch elements the `_scratch` execution variants need: a
    /// panel and its ping-pong buffer for the panel route, which also
    /// cover the algorithm's per-line work buffers plus one row buffer for
    /// the other layouts.
    pub fn scratch_elems(&self) -> usize {
        (2 * self.panel_lines() * self.algo.panel_rows()).max(self.algo.scratch_len() + self.n)
    }

    /// Executes the batch out of place.
    pub fn execute(&self, input: &[C64], output: &mut [C64], dir: Direction) {
        let mut scratch = vec![C64::ZERO; self.scratch_elems()];
        self.execute_scratch(input, output, dir, &mut scratch);
    }

    /// Executes the batch out of place reusing caller-provided scratch of at
    /// least [`scratch_elems`](Plan1d::scratch_elems) elements — zero
    /// allocation, for hot loops that run the same plan repeatedly.
    pub fn execute_scratch(
        &self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
        scratch: &mut [C64],
    ) {
        assert!(
            input.len() >= self.required_input_len(),
            "input buffer too small: {} < {}",
            input.len(),
            self.required_input_len()
        );
        assert!(
            output.len() >= self.required_output_len(),
            "output buffer too small: {} < {}",
            output.len(),
            self.required_output_len()
        );
        self.run_lines(Bufs::Split(input, output), dir, scratch, 0, self.batch);
    }

    /// Executes the batch in place (input and output layouts must describe
    /// non-overlapping transforms within the same buffer; the common cases —
    /// identical layouts — always qualify).
    pub fn execute_inplace(&self, data: &mut [C64], dir: Direction) {
        let mut scratch = vec![C64::ZERO; self.scratch_elems()];
        self.execute_inplace_scratch(data, dir, &mut scratch);
    }

    /// Executes the batch in place reusing caller-provided scratch of at
    /// least [`scratch_elems`](Plan1d::scratch_elems) elements.
    pub fn execute_inplace_scratch(&self, data: &mut [C64], dir: Direction, scratch: &mut [C64]) {
        self.execute_lines_inplace_scratch(data, dir, scratch, 0, self.batch);
    }

    /// Executes only batch lines `lo..hi` in place, leaving every other
    /// line untouched. Each line's transform reads and writes nothing
    /// outside its own layout footprint, so running the batch as any
    /// sequence of disjoint line ranges is bit-identical to one
    /// [`execute_inplace_scratch`](Plan1d::execute_inplace_scratch) call —
    /// the property the distributed transform-ahead schedule relies on to
    /// start butterflies on lines whose reshape chunks have landed.
    pub fn execute_lines_inplace_scratch(
        &self,
        data: &mut [C64],
        dir: Direction,
        scratch: &mut [C64],
        lo: usize,
        hi: usize,
    ) {
        assert!(lo <= hi && hi <= self.batch, "line range out of bounds");
        assert!(
            data.len() >= self.required_input_len().max(self.required_output_len()),
            "buffer too small for in-place batch"
        );
        self.run_lines(Bufs::InPlace(data), dir, scratch, lo, hi);
    }

    /// The one line-range walker behind every execute entry: transforms
    /// lines `lo..hi` from `io`'s source to its destination by whichever of
    /// the three routes the layouts and `n` admit.
    #[expect(
        clippy::indexing_slicing,
        reason = "lines `lo..hi` lie in the batch, so every row and strided walk stays inside buffers the entry points checked against the layouts; the scratch size is asserted"
    )]
    fn run_lines(&self, mut io: Bufs, dir: Direction, scratch: &mut [C64], lo: usize, hi: usize) {
        assert!(
            scratch.len() >= self.scratch_elems(),
            "scratch too small: {} < {}",
            scratch.len(),
            self.scratch_elems()
        );
        let n = self.n;
        let packed = self.packed_rows();
        if packed && (n >= PACKED_PANEL_BELOW || self.batch == 1) {
            // Long packed rows, and a lone row (no lanes to fill), transform
            // where they land: no data movement beyond the butterflies (and,
            // out of place, one copy).
            for b in lo..hi {
                let (r0, r1) = (b * n, (b + 1) * n);
                if let Bufs::Split(input, output) = &mut io {
                    output[r0..r1].copy_from_slice(&input[r0..r1]);
                }
                self.algo
                    .execute_scratch(&mut io.dst()[r0..r1], dir, scratch);
            }
            return;
        }
        if packed || self.panelable() {
            // Lines `base..base+w` become the lanes of an `[n][w]` panel
            // (element `j` of line `l` at `j·w + l`). On a `dist == 1` layout
            // row `j` is one contiguous run, copied as is; short packed rows
            // are transposed in lane by lane. Transform all `w` lines at
            // once, copy back from whichever buffer the result landed in.
            let (rows, width) = (self.algo.panel_rows(), self.panel_lines());
            let mut base = lo;
            while base < hi {
                let w = width.min(hi - base);
                let (x, y) = scratch[..2 * w * rows].split_at_mut(w * rows);
                if packed {
                    let lines = io.src().chunks_exact(n).skip(base).take(w);
                    for (l, line) in lines.enumerate() {
                        let lane = x.iter_mut().skip(l).step_by(w);
                        lane.zip(line).for_each(|(d, v)| *d = *v);
                    }
                } else {
                    for (run, row) in io.src()[base..]
                        .chunks(self.input.stride)
                        .zip(x.chunks_exact_mut(w))
                        .take(n)
                    {
                        // Element loops, not `copy_from_slice`: a run is 4–16
                        // elements and a `memcpy` call per run costs a fifth
                        // of the 512 × 64 batch at `w = 4`.
                        row.iter_mut().zip(run).for_each(|(d, v)| *d = *v);
                    }
                }
                let (out, _) = self.algo.execute_interleaved(x, y, w, dir);
                if packed {
                    let lines = io.dst().chunks_exact_mut(n).skip(base).take(w);
                    for (l, line) in lines.enumerate() {
                        let lane = out.iter().skip(l).step_by(w);
                        line.iter_mut().zip(lane).for_each(|(d, v)| *d = *v);
                    }
                } else {
                    for (run, row) in io.dst()[base..]
                        .chunks_mut(self.output.stride)
                        .zip(out.chunks_exact(w))
                        .take(n)
                    {
                        run.iter_mut().zip(row).for_each(|(d, v)| *d = *v);
                    }
                }
                base += w;
            }
            return;
        }
        // Gapped or mixed in≠out layouts: gather each line into a packed
        // row, transform it, scatter it to the output layout.
        let (work, rest) = scratch.split_at_mut(self.algo.scratch_len());
        let row = &mut rest[..n];
        for b in lo..hi {
            let src = &io.src()[b * self.input.dist..];
            for (j, r) in row.iter_mut().enumerate() {
                *r = src[j * self.input.stride];
            }
            self.algo.execute_scratch(row, dir, work);
            let dst = &mut io.dst()[b * self.output.dist..];
            for (k, r) in row.iter().enumerate() {
                dst[k * self.output.stride] = *r;
            }
        }
    }

    /// True when input and output are both packed contiguous rows: rows
    /// of at least `PACKED_PANEL_BELOW` points transform in place, shorter
    /// ones through the panel.
    fn packed_rows(&self) -> bool {
        self.input.is_contiguous()
            && self.output.is_contiguous()
            && self.input.dist == self.n
            && self.output.dist == self.n
    }

    /// True when both layouts are the classic transposed access (`dist == 1`,
    /// columns `stride` apart, non-overlapping) — panels with no transpose.
    fn panelable(&self) -> bool {
        self.input.dist == 1
            && self.output.dist == 1
            && self.input.stride >= self.batch
            && self.output.stride >= self.batch
    }
}

/// Where a batch reads and writes: one buffer in place, or two out of place.
enum Bufs<'a> {
    InPlace(&'a mut [C64]),
    Split(&'a [C64], &'a mut [C64]),
}

impl Bufs<'_> {
    fn src(&self) -> &[C64] {
        match self {
            Bufs::InPlace(d) => d,
            Bufs::Split(input, _) => input,
        }
    }

    fn dst(&mut self) -> &mut [C64] {
        match self {
            Bufs::InPlace(d) => d,
            Bufs::Split(_, output) => output,
        }
    }
}

/// A 3-D transform plan over a row-major `n0 × n1 × n2` array (n2 fastest).
#[derive(Debug, Clone)]
pub struct Plan3d {
    n0: usize,
    n1: usize,
    n2: usize,
    axis2: Plan1d,
    axis1: Plan1d,
    axis0: Plan1d,
}

impl Plan3d {
    /// Builds a plan for an `n0 × n1 × n2` row-major array.
    pub fn new(n0: usize, n1: usize, n2: usize) -> Plan3d {
        // Axis 2: contiguous rows, one batch over the whole volume.
        let axis2 = Plan1d::contiguous(n2, n0 * n1);
        // Axis 1: stride n2 within one i0-plane; executed per plane below.
        let axis1 = Plan1d::with_layout(n1, n2, Layout::strided(n2), Layout::strided(n2));
        // Axis 0: stride n1·n2, batch over all (i1, i2) pairs.
        let axis0 = Plan1d::with_layout(
            n0,
            n1 * n2,
            Layout::strided(n1 * n2),
            Layout::strided(n1 * n2),
        );
        Plan3d {
            n0,
            n1,
            n2,
            axis2,
            axis1,
            axis0,
        }
    }

    /// Array shape `(n0, n1, n2)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.n0, self.n1, self.n2)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.n0 * self.n1 * self.n2
    }

    /// True for an empty plan (any zero extent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scratch elements needed by [`execute_scratch`](Plan3d::execute_scratch).
    pub fn scratch_elems(&self) -> usize {
        self.axis2
            .scratch_elems()
            .max(self.axis1.scratch_elems())
            .max(self.axis0.scratch_elems())
    }

    /// In-place unnormalized 3-D transform.
    pub fn execute(&self, data: &mut [C64], dir: Direction) {
        let mut scratch = vec![C64::ZERO; self.scratch_elems()];
        self.execute_scratch(data, dir, &mut scratch);
    }

    /// In-place transform reusing caller-provided scratch of at least
    /// [`scratch_elems`](Plan3d::scratch_elems) elements.
    #[expect(
        clippy::indexing_slicing,
        reason = "`data.len() == n0 * n1 * n2` is asserted, so every `i0 < n0` plane lies inside it"
    )]
    pub fn execute_scratch(&self, data: &mut [C64], dir: Direction, scratch: &mut [C64]) {
        assert_eq!(data.len(), self.len(), "buffer does not match plan shape");
        self.axis2.execute_inplace_scratch(data, dir, scratch);
        let plane = self.n1 * self.n2;
        for i0 in 0..self.n0 {
            self.axis1.execute_inplace_scratch(
                &mut data[i0 * plane..(i0 + 1) * plane],
                dir,
                scratch,
            );
        }
        self.axis0.execute_inplace_scratch(data, dir, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::{dft_1d, dft_nd};

    fn signal(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((0.23 * i as f64).sin(), (1.7 * i as f64).cos()))
            .collect()
    }

    #[test]
    fn algorithm_selection() {
        assert_eq!(Plan1d::contiguous(64, 1).algo_name(), "stockham");
        assert_eq!(Plan1d::contiguous(60, 1).algo_name(), "stockham");
        assert_eq!(Plan1d::contiguous(13, 1).algo_name(), "bluestein");
    }

    #[test]
    fn strided_batches_agree_with_reference_radix2() {
        // Exercises the panel path (several full panels and a ragged tail)
        // against the reference radix-2 on each gathered line of the same
        // transposed layout.
        let (n, batch) = (16usize, 100usize);
        let layout = Layout::strided(batch);
        let plan = Plan1d::with_layout(n, batch, layout, layout);
        let reference = crate::radix::Radix2Plan::new(n);
        let x = signal(n * batch);
        let mut a = x.clone();
        plan.execute_inplace(&mut a, Direction::Forward);
        for b in 0..batch {
            let column = |v: &[C64]| -> Vec<C64> { (0..n).map(|j| v[j * batch + b]).collect() };
            let mut want = column(&x);
            reference.execute(&mut want, Direction::Forward);
            assert!(max_abs_diff(&column(&a), &want) < 1e-9 * (n * batch) as f64);
        }
    }

    #[test]
    fn line_ranges_are_bit_identical_to_full_batch() {
        // Every execute path (packed rows, lane-interleaved panels, per-line
        // gather/scatter) must give byte-identical results whether the batch
        // runs whole or as disjoint line ranges in any order — the contract
        // the distributed transform-ahead schedule depends on. Pow2 and
        // smooth lengths on each path.
        let gapped = |n: usize, batch: usize| {
            // Neither packed nor panelable: rows 2·n apart, elements 2 apart.
            let l = Layout {
                stride: 2,
                dist: 2 * n,
            };
            Plan1d::with_layout(n, batch, l, l)
        };
        let cases: Vec<Plan1d> = vec![
            Plan1d::contiguous(16, 37),
            Plan1d::contiguous(60, 37),
            Plan1d::contiguous(45, 11),
            Plan1d::with_layout(16, 100, Layout::strided(100), Layout::strided(100)),
            Plan1d::with_layout(30, 100, Layout::strided(100), Layout::strided(100)),
            Plan1d::with_layout(480, 19, Layout::strided(19), Layout::strided(19)),
            gapped(40, 7),
        ];
        for plan in cases {
            let x = signal(plan.required_input_len().max(plan.required_output_len()));
            let mut whole = x.clone();
            let mut scratch = vec![C64::ZERO; plan.scratch_elems()];
            plan.execute_inplace_scratch(&mut whole, Direction::Forward, &mut scratch);
            let mut split = x;
            let batch = plan.batch();
            let cuts = [0, batch / 3, batch / 3 + 1, (2 * batch) / 3, batch];
            // Last range first: lines are independent, so order is free.
            for w in cuts.windows(2).rev() {
                plan.execute_lines_inplace_scratch(
                    &mut split,
                    Direction::Forward,
                    &mut scratch,
                    w[0],
                    w[1],
                );
            }
            assert!(
                whole
                    .iter()
                    .zip(&split)
                    .all(|(a, b)| a.re.to_bits() == b.re.to_bits()
                        && a.im.to_bits() == b.im.to_bits()),
                "line-range execution diverged for {} n={}",
                plan.algo_name(),
                plan.len()
            );
        }
    }

    #[test]
    fn out_of_place_panels_match_inplace() {
        let (n, batch) = (32usize, 70usize);
        let layout = Layout::strided(batch);
        let plan = Plan1d::with_layout(n, batch, layout, layout);
        let x = signal(n * batch);
        let mut out = vec![C64::ZERO; n * batch];
        plan.execute(&x, &mut out, Direction::Forward);
        let mut inplace = x;
        plan.execute_inplace(&mut inplace, Direction::Forward);
        assert!(max_abs_diff(&out, &inplace) == 0.0);
    }

    #[test]
    fn scratch_never_exceeds_the_transposing_tile_engine() {
        // `n + tile_lines·n` of the engine this one replaced, for the axis
        // shapes of the functional benchmark workloads and the 512 × 64
        // strided probe: arenas are sized from this and `peak_rss_mb` is
        // gated, so the panel pair has to fit where the tile did.
        for (n, batch, tile_engine) in [
            (32usize, 1024usize, 2080usize),
            (64, 4096, 4160),
            (128, 16384, 4224),
            (512, 64, 4608),
        ] {
            let l = Layout::strided(batch);
            let got = Plan1d::with_layout(n, batch, l, l).scratch_elems();
            assert!(got <= tile_engine, "n={n}: {got} > {tile_engine}");
        }
    }

    #[test]
    fn batched_contiguous_matches_per_row_dft() {
        let (n, batch) = (16, 5);
        let plan = Plan1d::contiguous(n, batch);
        let input = signal(n * batch);
        let mut output = vec![C64::ZERO; n * batch];
        plan.execute(&input, &mut output, Direction::Forward);
        for b in 0..batch {
            let reference = dft_1d(&input[b * n..(b + 1) * n], Direction::Forward);
            assert!(max_abs_diff(&output[b * n..(b + 1) * n], &reference) < 1e-9 * n as f64);
        }
    }

    #[test]
    fn strided_batch_transforms_columns() {
        // A rows×cols row-major matrix; transform its columns (length rows,
        // stride cols) — pow2 and smooth column lengths.
        for (rows, cols) in [(4usize, 8usize), (12, 3), (60, 7)] {
            let data = signal(rows * cols);
            let plan =
                Plan1d::with_layout(rows, cols, Layout::strided(cols), Layout::strided(cols));
            let mut out = vec![C64::ZERO; rows * cols];
            plan.execute(&data, &mut out, Direction::Forward);
            for c in 0..cols {
                let col: Vec<C64> = (0..rows).map(|r| data[r * cols + c]).collect();
                let reference = dft_1d(&col, Direction::Forward);
                let got: Vec<C64> = (0..rows).map(|r| out[r * cols + c]).collect();
                assert!(max_abs_diff(&got, &reference) < 1e-9 * rows as f64);
            }
        }
    }

    #[test]
    fn required_lengths() {
        let plan = Plan1d::with_layout(4, 3, Layout::strided(8), Layout::contiguous(4));
        // input: (3-1)*1 + (4-1)*8 + 1 = 27
        assert_eq!(plan.required_input_len(), 27);
        // output: (3-1)*4 + (4-1)*1 + 1 = 12
        assert_eq!(plan.required_output_len(), 12);
        let empty = Plan1d::contiguous(4, 0);
        assert_eq!(empty.required_input_len(), 0);
    }

    #[test]
    fn plan3d_matches_nd_dft() {
        let dims = (4usize, 6usize, 8usize);
        let plan = Plan3d::new(dims.0, dims.1, dims.2);
        let x = signal(dims.0 * dims.1 * dims.2);
        let mut fast = x.clone();
        plan.execute(&mut fast, Direction::Forward);
        let slow = dft_nd(&x, &[dims.0, dims.1, dims.2], Direction::Forward);
        assert!(max_abs_diff(&fast, &slow) < 1e-8 * plan.len() as f64);
    }

    #[test]
    fn plan3d_roundtrip() {
        let plan = Plan3d::new(8, 8, 8);
        let x = signal(512);
        let mut y = x.clone();
        plan.execute(&mut y, Direction::Forward);
        plan.execute(&mut y, Direction::Inverse);
        let expected: Vec<C64> = x.iter().map(|v| v.scale(512.0)).collect();
        assert!(max_abs_diff(&y, &expected) < 1e-7 * 512.0);
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Forward.flip(), Direction::Inverse);
        assert_eq!(Direction::Inverse.flip(), Direction::Forward);
        assert_eq!(Direction::Forward.sign(), -1.0);
    }
}
