//! The one parser of the runtime's `SECUREBLOX_*` environment variables
//! (DESIGN.md §9.6 lists them).  Each `Default` impl that honours a variable
//! calls one of these two helpers; a config built field by field reads
//! nothing from the environment.

/// A boolean switch: set to anything but ``, `0`, `false` or `off`.
pub(crate) fn flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| {
        let v = v.trim().to_ascii_lowercase();
        !v.is_empty() && v != "0" && v != "false" && v != "off"
    })
}

/// An integer knob: `default` when the variable is unset, unparseable, or
/// below `min`.
pub(crate) fn usize_at_least(name: &str, min: usize, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v >= min)
        .unwrap_or(default)
}
