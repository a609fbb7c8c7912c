// Fixture: `env-read-outside-fftobs`. Both accessor shapes fire; the
// second carries the inline justification.

pub fn knob() -> Option<String> {
    std::env::var("FFT_KNOB").ok()
}

pub fn gate() -> bool {
    std::env::var_os("FFT_GATE").is_some() // fftlint:allow(env-read-outside-fftobs): fixture demonstrates suppression
}
