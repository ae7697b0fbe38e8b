//! User-defined functions (UDFs).
//!
//! LogicBlox "provides a set of APIs for hooking user-defined functions into
//! rule or constraint execution" (paper §3.2); SecureBlox uses this to
//! implement `rsa_sign`, `rsa_verify`, `hmac_sign`, `hmac_verify`,
//! `aesencrypt`, `sha1`, `serialize`, `deserialize`, and the anonymity-layer
//! operators.
//!
//! A UDF is called like an ordinary body atom.  At evaluation time the engine
//! passes the argument pattern — `Some(v)` for bound positions, `None` for
//! unbound positions — and the UDF returns zero or more full argument rows.
//! Zero rows means the literal fails (filter semantics); each returned row is
//! unified against the call site to bind the free positions.
//!
//! UDFs can be registered under an exact name (`sha1`) or as a *family*
//! (`serialize`), in which case any predicate named `family$param` — the
//! mangled form of the paper's `serialize[P]` — resolves to the family
//! implementation and receives `param` as an extra argument.

use crate::intern::FnvMap;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// The result of one UDF invocation: full argument rows, one per solution.
pub type UdfRows = Vec<Vec<Value>>;

/// Exact-name UDF implementation.
pub type UdfFn = dyn Fn(&[Option<Value>]) -> Result<UdfRows, String> + Send + Sync;

/// Family UDF implementation; the first parameter is the predicate parameter
/// (the `P` of `serialize[P]`).
pub type UdfFamilyFn = dyn Fn(&str, &[Option<Value>]) -> Result<UdfRows, String> + Send + Sync;

/// Registry of user-defined functions available to a workspace.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    exact: FnvMap<String, Arc<UdfFn>>,
    families: FnvMap<String, Arc<UdfFamilyFn>>,
}

impl fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdfRegistry")
            .field("exact", &self.exact.keys().collect::<Vec<_>>())
            .field("families", &self.families.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an exact-name UDF.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Option<Value>]) -> Result<UdfRows, String> + Send + Sync + 'static,
    {
        self.exact.insert(name.into(), Arc::new(f));
    }

    /// Register a family UDF resolved for any `family$param` predicate.
    pub fn register_family<F>(&mut self, family: impl Into<String>, f: F)
    where
        F: Fn(&str, &[Option<Value>]) -> Result<UdfRows, String> + Send + Sync + 'static,
    {
        self.families.insert(family.into(), Arc::new(f));
    }

    /// True if `name` resolves to a registered UDF.
    pub fn is_udf(&self, name: &str) -> bool {
        if self.exact.contains_key(name) {
            return true;
        }
        if let Some((family, _param)) = name.split_once('$') {
            return self.families.contains_key(family);
        }
        self.families.contains_key(name)
    }

    /// Invoke the UDF `name` with the given argument pattern.
    pub fn call(&self, name: &str, args: &[Option<Value>]) -> Result<UdfRows, String> {
        if let Some(f) = self.exact.get(name) {
            return f(args);
        }
        if let Some((family, param)) = name.split_once('$') {
            if let Some(f) = self.families.get(family) {
                return f(param, args);
            }
        }
        if let Some(f) = self.families.get(name) {
            return f("", args);
        }
        Err(format!("unknown user-defined function {name}"))
    }

    /// Merge another registry into this one (later registrations win).
    pub fn merge(&mut self, other: &UdfRegistry) {
        for (name, f) in &other.exact {
            self.exact.insert(name.clone(), Arc::clone(f));
        }
        for (name, f) in &other.families {
            self.families.insert(name.clone(), Arc::clone(f));
        }
    }
}

/// Helper: require that argument `index` is bound, with a readable error.
pub fn require_bound(args: &[Option<Value>], index: usize, udf: &str) -> Result<Value, String> {
    args.get(index)
        .and_then(|v| v.clone())
        .ok_or_else(|| format!("{udf}: argument {index} must be bound"))
}

/// Standard built-in UDFs that every workspace gets: arithmetic-free helpers
/// that the paper's listings rely on.
pub fn standard_udfs() -> UdfRegistry {
    let mut registry = UdfRegistry::new();

    // string_concat(A, B, Out): concatenates two bound strings.
    registry.register("string_concat", |args| {
        let a = require_bound(args, 0, "string_concat")?;
        let b = require_bound(args, 1, "string_concat")?;
        let out = format!(
            "{}{}",
            a.as_str().ok_or("string_concat: arg 0 must be a string")?,
            b.as_str().ok_or("string_concat: arg 1 must be a string")?
        );
        Ok(vec![vec![a, b, Value::str(out)]])
    });

    // int_to_string(I, S)
    registry.register("int_to_string", |args| {
        let i = require_bound(args, 0, "int_to_string")?;
        let value = i.as_int().ok_or("int_to_string: arg 0 must be an int")?;
        Ok(vec![vec![i, Value::str(value.to_string())]])
    });

    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_registration_and_call() {
        let mut registry = UdfRegistry::new();
        registry.register("double", |args| {
            let x = require_bound(args, 0, "double")?;
            let v = x.as_int().ok_or("not an int")?;
            Ok(vec![vec![x, Value::Int(v * 2)]])
        });
        assert!(registry.is_udf("double"));
        assert!(!registry.is_udf("triple"));
        let rows = registry
            .call("double", &[Some(Value::Int(4)), None])
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(4), Value::Int(8)]]);
    }

    #[test]
    fn family_registration_and_mangled_call() {
        let mut registry = UdfRegistry::new();
        registry.register_family("serialize", |param, args| {
            let v = require_bound(args, 0, "serialize")?;
            Ok(vec![vec![v, Value::str(format!("{param}!"))]])
        });
        assert!(registry.is_udf("serialize$path"));
        assert!(registry.is_udf("serialize"));
        let rows = registry
            .call("serialize$path", &[Some(Value::Int(1)), None])
            .unwrap();
        assert_eq!(rows[0][1], Value::str("path!"));
    }

    #[test]
    fn unknown_udf_errors() {
        let registry = UdfRegistry::new();
        assert!(registry.call("nope", &[]).is_err());
    }

    #[test]
    fn filter_semantics_possible() {
        let mut registry = UdfRegistry::new();
        registry.register("is_even", |args| {
            let x = require_bound(args, 0, "is_even")?;
            if x.as_int().is_some_and(|v| v % 2 == 0) {
                Ok(vec![vec![x]])
            } else {
                Ok(vec![])
            }
        });
        assert_eq!(
            registry
                .call("is_even", &[Some(Value::Int(2))])
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            registry
                .call("is_even", &[Some(Value::Int(3))])
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn require_bound_errors_on_unbound() {
        let err = require_bound(&[None], 0, "f").unwrap_err();
        assert!(err.contains("must be bound"));
    }

    #[test]
    fn standard_udfs_work() {
        let registry = standard_udfs();
        let rows = registry
            .call(
                "string_concat",
                &[Some(Value::str("says$")), Some(Value::str("path")), None],
            )
            .unwrap();
        assert_eq!(rows[0][2], Value::str("says$path"));
        let rows = registry
            .call("int_to_string", &[Some(Value::Int(7)), None])
            .unwrap();
        assert_eq!(rows[0][1], Value::str("7"));
    }

    #[test]
    fn merge_combines_registries() {
        let mut a = UdfRegistry::new();
        a.register("f", |_| Ok(vec![]));
        let mut b = UdfRegistry::new();
        b.register("g", |_| Ok(vec![]));
        b.register_family("fam", |_, _| Ok(vec![]));
        a.merge(&b);
        assert!(a.is_udf("f"));
        assert!(a.is_udf("g"));
        assert!(a.is_udf("fam$x"));
    }
}
