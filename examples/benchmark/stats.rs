//! Order statistics for repetition samples.  Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because that is
//! the definition the acceptance check applies to this benchmark's output.

/// Median of `values` (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (0 < q < 1) by the exclusive method: position
/// `q * (n + 1)` in the 1-based sorted sample, linearly interpolated between
/// the neighbours `below` and `below + 1` (with `below` kept inside the
/// sample, as Python does).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n == 1 {
        return sorted[0];
    }
    let position = q * (n as f64 + 1.0);
    let below = (position.floor() as usize).clamp(1, n - 1);
    let fraction = position - below as f64;
    sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
}

/// What a run reports for a metric from its repetition samples: the quartile
/// on the metric's better side (first quartile of a time, third of a rate).
/// On a shared VM interference only ever slows a repetition down — sixty
/// identical repetitions read 1.02-1.34 s with the bulk at 1.05-1.10 — so the
/// median of a 15-second window moves with how disturbed the window was
/// (10% between windows), while the better-side quartile stays near the
/// undisturbed speed (4%) and, unlike the minimum, still ignores one lucky
/// sample.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.75 } else { 0.25 })
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// regression bounds are sized against.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / mid.abs()
}

pub fn selftest() -> Result<(), String> {
    let check = |what: &str, got: f64, want: f64| {
        if (got - want).abs() > 1e-9 {
            Err(format!("{what}: got {got}, want {want}"))
        } else {
            Ok(())
        }
    };
    check("median odd", median(&[3.0, 1.0, 2.0]), 2.0)?;
    check("median even", median(&[4.0, 1.0, 2.0, 3.0]), 2.5)?;
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    check("q1 of 1..10", quantile(&ten, 0.25), 2.75)?;
    check("q3 of 1..10", quantile(&ten, 0.75), 8.25)?;
    check("spread of 1..10", spread(&ten), 1.0)?;
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    check("q1 of 1..3", quantile(&[1.0, 2.0, 3.0], 0.25), 1.0)?;
    check("q3 of 1..3", quantile(&[1.0, 2.0, 3.0], 0.75), 3.0)?;
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    check(
        "q1 of powers",
        quantile(&[16.0, 1.0, 4.0, 2.0, 8.0], 0.25),
        1.5,
    )?;
    check(
        "q3 of powers",
        quantile(&[16.0, 1.0, 4.0, 2.0, 8.0], 0.75),
        12.0,
    )?;
    check("single sample", quantile(&[7.0], 0.99), 7.0)?;
    check(
        "better quartile of a time",
        better_quartile(&ten, false),
        2.75,
    )?;
    check(
        "better quartile of a rate",
        better_quartile(&ten, true),
        8.25,
    )?;
    check("constant spread", spread(&[5.0, 5.0, 5.0]), 0.0)?;
    Ok(())
}
