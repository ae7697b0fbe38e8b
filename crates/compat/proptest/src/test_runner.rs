//! Deterministic case runner: seeds, configuration, and failure reporting.

/// Deterministic generator driving all strategies (xoshiro256++ seeded via
/// SplitMix64, same construction as the workspace `rand` stand-in).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TestRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform index in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// A uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// `cases` cases, unless `PROPTEST_CASES` names another count: a run
    /// that sets it (a long CI leg) gets that many for every property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: cases_from_env().unwrap_or(cases),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

fn cases_from_env() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

/// A failed test case (what `prop_assert!` returns).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Stable (platform-independent) FNV-1a hash of the test name, so each
/// property gets its own deterministic seed sequence.
fn fnv1a(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Run `property` for `config.cases` deterministic cases, panicking (like a
/// failed assertion) on the first failing case with enough context to replay
/// it via `PROPTEST_SEED`.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut property: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fnv1a(name));
    for case in 0..config.cases as u64 {
        let seed = base.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = TestRng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(error)) => panic!(
                "property `{name}` failed at case {case}/{} (seed {seed}): {error}\n\
                 replay with PROPTEST_SEED={base}",
                config.cases
            ),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".into());
                panic!(
                    "property `{name}` panicked at case {case}/{} (seed {seed}): {message}\n\
                     replay with PROPTEST_SEED={base}",
                    config.cases
                )
            }
        }
    }
}
