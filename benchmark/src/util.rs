//! Small shared pieces: the seeded input stream, order statistics, `/proc`
//! readers and JSON number formatting.

/// SplitMix64: the harness's only randomness. The crates under test never
/// see the seed, only the arrays generated from it.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

/// Iterations of the frequency probe's dependent chain.
const PROBE_ITERS: u32 = 20_000;

/// Microseconds the frequency probe takes at the host's usual turbo bin.
/// The constant only fixes the unit of the normalised times: any value
/// gives the same comparison between two commits on one host.
pub const PROBE_NOMINAL_US: f64 = 36.4;

/// A fixed chain of dependent multiply-adds. It touches no memory and
/// cannot be reordered, so its time is a pure function of the core clock
/// the host grants at that moment (the sandbox's turbo bin moves in 100 MHz
/// steps with the load of the whole machine, for seconds at a time).
pub fn freq_probe_us() -> f64 {
    let t = std::time::Instant::now();
    let mut x = std::hint::black_box(1.000_001_f64);
    for _ in 0..PROBE_ITERS {
        x = x * 1.000_000_1 + 1e-9;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

/// Factor that scales a time measured while the probe read `probe_us` to
/// what it would have been at the nominal clock.
pub fn to_nominal(probe_us: f64) -> f64 {
    PROBE_NOMINAL_US / probe_us
}

/// Quantile of a sample set by the nearest-rank rule. Sorts a copy: the
/// callers' sample vectors are time series whose order matters.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Max-norm reduction that cannot swallow a NaN: once the running value is
/// NaN every later comparison is false and it stays NaN, and a NaN element
/// replaces any finite running value.
pub fn nan_max(acc: f64, x: f64) -> f64 {
    if x > acc || x.is_nan() {
        x
    } else {
        acc
    }
}

/// `!(err <= tol)` rather than `err > tol`, so a NaN fails.
pub fn within(err: f64, tol: f64) -> bool {
    err <= tol
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key).map(|rest| rest.trim().to_string()))
}

/// Peak resident set of this process, MB (`VmHWM` is reported in kB).
pub fn vm_hwm_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPU time consumed so far by every thread of this process, in
/// milliseconds. `/proc/self/stat` counts in clock ticks; Linux on x86-64
/// fixes `USER_HZ` at 100, so one tick is 10 ms — coarse, which is why the
/// callers only difference it over loops of a second or more.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime (14/15) sit at 11/12.
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 10.0
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn mem_available_bytes() -> usize {
    proc_field("/proc/meminfo", "MemAvailable:")
        .and_then(|v| v.split_whitespace().next()?.parse::<usize>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Sizes of cpu0's caches as sysfs reports them (what `lscpu` prints),
/// `(level, type, bytes)`.
pub fn cache_sizes() -> Vec<(u32, String, usize)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        out.push((
            level.trim().parse().unwrap_or(0),
            kind.trim().to_string(),
            bytes,
        ));
    }
    out
}

/// Last-level cache size in bytes (64 MiB when sysfs is unreadable).
pub fn llc_bytes() -> usize {
    cache_sizes()
        .iter()
        .max_by_key(|c| c.0)
        .map(|c| c.2)
        .filter(|b| *b > 0)
        .unwrap_or(64 << 20)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A JSON number with every digit the measurement has. Non-finite values
/// have no JSON spelling; the caller must have turned them into a failure.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value");
    format!("{x}")
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
