//! `ExecConfig::from_env` is the one reader of the `DREAM_*` execution
//! variables: each round-trips, and each rejects a malformed value with a
//! panic naming the variable.
//!
//! The checks share one test function on purpose: they mutate the process
//! environment, which no other test in this binary may read concurrently.

use std::panic::{self, AssertUnwindSafe};

use dream_suite::sim::exec::{ExecConfig, BATCH_ENV, THREADS_ENV};

/// Runs `f` with `var` set to `value` (or unset for `None`), restoring the
/// surrounding value afterwards, panic included.
fn with_var<R>(var: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
    struct Restore<'a>(&'a str, Option<String>);
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            match &self.1 {
                Some(v) => std::env::set_var(self.0, v),
                None => std::env::remove_var(self.0),
            }
        }
    }
    let _restore = Restore(var, std::env::var(var).ok());
    match value {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    f()
}

/// The panic message of `from_env` under `var=value`.
fn rejection(var: &str, value: &str) -> String {
    let payload = with_var(var, Some(value), || {
        panic::catch_unwind(AssertUnwindSafe(ExecConfig::from_env))
            .expect_err("a malformed value must be rejected")
    });
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn from_env_round_trips_each_variable_and_rejects_malformed_values() {
    // Defaults: all cores, batching on.
    let defaults = with_var(THREADS_ENV, None, || {
        with_var(BATCH_ENV, None, ExecConfig::from_env)
    });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        defaults,
        ExecConfig {
            threads: cores,
            batch: true,
        }
    );

    // Each variable round-trips into its own field.
    for n in [1, 3] {
        let cfg = with_var(THREADS_ENV, Some(&n.to_string()), ExecConfig::from_env);
        assert_eq!(cfg.threads, n);
    }
    for (raw, on) in [("0", false), ("off", false), ("1", true), ("On", true)] {
        let cfg = with_var(BATCH_ENV, Some(raw), ExecConfig::from_env);
        assert_eq!(cfg.batch, on, "{BATCH_ENV}={raw}");
    }

    // A typo must not silently run another configuration.
    let message = rejection(THREADS_ENV, "four");
    assert!(
        message.contains("DREAM_THREADS must be a positive integer"),
        "{message}"
    );
    let message = rejection(THREADS_ENV, "0");
    assert!(
        message.contains("DREAM_THREADS must be at least 1"),
        "{message}"
    );
    let message = rejection(BATCH_ENV, "maybe");
    assert!(
        message.contains("DREAM_BATCH must be one of 1/true/on/0/false/off"),
        "{message}"
    );
}
