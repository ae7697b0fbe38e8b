//! The one reader of the runtime's `SECUREBLOX_*` environment variables
//! (DESIGN.md §9.6 lists them).  [`DeploymentConfig::default`] calls
//! [`read`] and nothing else does: every sub-config's own `Default` and
//! every constructor is a pure function of its arguments, so a config built
//! field by field reads nothing from the environment.
//!
//! [`DeploymentConfig::default`]: crate::runtime::DeploymentConfig

use crate::runtime::reactor::ReactorConfig;
use crate::runtime::stream::StreamingConfig;
use std::ffi::OsString;
use std::path::PathBuf;

/// What the environment says about a default-configured deployment.
pub(crate) struct EnvDefaults {
    /// `SECUREBLOX_BATCH_MAX` and `SECUREBLOX_QUEUE_HIGH_WATER`.
    pub(crate) streaming: StreamingConfig,
    /// `SECUREBLOX_REACTOR` and `SECUREBLOX_REACTOR_THREADS`.
    pub(crate) reactor: ReactorConfig,
    /// `SECUREBLOX_DURABILITY_DIR`: the directory under which every
    /// default-configured deployment gets a fresh store subdirectory.
    pub(crate) durability_dir: Option<PathBuf>,
}

/// Read the five variables through `var` (the process environment in
/// production, a table in the test).  A flag is on when set to anything but
/// the empty string, `0`, `false` or `off`; an integer that is unset,
/// unparseable or below its minimum of 1 falls back to the default.
pub(crate) fn read(var: impl Fn(&str) -> Option<OsString>) -> EnvDefaults {
    let text = |name: &str| var(name).and_then(|v| v.into_string().ok());
    let flag = |name: &str| {
        text(name).is_some_and(|v| {
            let v = v.trim().to_ascii_lowercase();
            !v.is_empty() && v != "0" && v != "false" && v != "off"
        })
    };
    let at_least_one = |name: &str, default: usize| {
        text(name)
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&v| v >= 1)
            .unwrap_or(default)
    };
    let streaming = StreamingConfig::default();
    let reactor = ReactorConfig::default();
    EnvDefaults {
        streaming: StreamingConfig {
            batch_max: at_least_one("SECUREBLOX_BATCH_MAX", streaming.batch_max),
            queue_high_water: at_least_one(
                "SECUREBLOX_QUEUE_HIGH_WATER",
                streaming.queue_high_water,
            ),
            ..streaming
        },
        reactor: ReactorConfig {
            enabled: flag("SECUREBLOX_REACTOR"),
            threads: at_least_one("SECUREBLOX_REACTOR_THREADS", reactor.threads),
        },
        durability_dir: var("SECUREBLOX_DURABILITY_DIR").map(PathBuf::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::stream::{DEFAULT_BATCH_MAX, DEFAULT_QUEUE_HIGH_WATER};
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    fn read_table(table: &[(&str, &str)]) -> EnvDefaults {
        read(|name| {
            table
                .iter()
                .find(|(key, _)| *key == name)
                .map(|(_, value)| OsString::from(value))
        })
    }

    #[test]
    fn each_variable_lands_in_its_field() {
        let knobs = read_table(&[
            ("SECUREBLOX_BATCH_MAX", "8"),
            ("SECUREBLOX_QUEUE_HIGH_WATER", " 32 "),
            ("SECUREBLOX_REACTOR", "1"),
            ("SECUREBLOX_REACTOR_THREADS", "4"),
            ("SECUREBLOX_DURABILITY_DIR", "/tmp/sbx"),
        ]);
        assert_eq!(knobs.streaming, StreamingConfig::with_knobs(8, 32));
        assert!(knobs.reactor.enabled);
        assert_eq!(knobs.reactor.threads, 4);
        assert_eq!(knobs.durability_dir, Some(PathBuf::from("/tmp/sbx")));
    }

    #[test]
    fn unset_below_minimum_and_unparseable_fall_back() {
        let defaults = read_table(&[]);
        assert_eq!(defaults.streaming, StreamingConfig::default());
        assert_eq!(defaults.streaming.batch_max, DEFAULT_BATCH_MAX);
        assert_eq!(
            defaults.streaming.queue_high_water,
            DEFAULT_QUEUE_HIGH_WATER
        );
        assert!(!defaults.reactor.enabled);
        assert_eq!(defaults.reactor.threads, ReactorConfig::default().threads);
        assert_eq!(defaults.durability_dir, None);

        let bad = read_table(&[
            ("SECUREBLOX_BATCH_MAX", "0"),
            ("SECUREBLOX_QUEUE_HIGH_WATER", "many"),
            ("SECUREBLOX_REACTOR_THREADS", "-2"),
        ]);
        assert_eq!(bad.streaming, defaults.streaming);
        assert_eq!(bad.reactor.threads, defaults.reactor.threads);
        for off in ["", "0", "false", "OFF"] {
            assert!(!read_table(&[("SECUREBLOX_REACTOR", off)]).reactor.enabled);
        }
    }

    /// The reader asks for these five names and no other, so any other
    /// `SECUREBLOX_*` variable — the delivery-path switch, the shard ring's
    /// vnodes and broadcast threshold and the message budget were variables
    /// once — is ignored whatever it is set to.
    #[test]
    fn no_other_name_is_looked_up() {
        let asked = RefCell::new(BTreeSet::new());
        read(|name| {
            asked.borrow_mut().insert(name.to_string());
            Some(OsString::from("7"))
        });
        let expected = [
            "SECUREBLOX_BATCH_MAX",
            "SECUREBLOX_DURABILITY_DIR",
            "SECUREBLOX_QUEUE_HIGH_WATER",
            "SECUREBLOX_REACTOR",
            "SECUREBLOX_REACTOR_THREADS",
        ];
        assert_eq!(
            asked.into_inner(),
            expected.map(String::from).into_iter().collect()
        );
    }
}
