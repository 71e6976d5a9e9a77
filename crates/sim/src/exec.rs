//! Deterministic parallel execution of campaign trials.
//!
//! Every figure of the paper is a Monte-Carlo campaign: hundreds of
//! independent `(point, run)` trials whose outputs are averaged into curve
//! points. The trials are embarrassingly parallel — each one derives its
//! fault map from [`crate::campaign::fault_seed`] and touches nothing but
//! its own scratch memory — so this module schedules a flattened trial
//! list across `std::thread::scope` workers and merges the results **in
//! trial order**, making the output bit-identical regardless of how many
//! workers ran it.
//!
//! # Determinism contract
//!
//! [`run_trials`] guarantees `result[i]` came from `trials[i]` for every
//! `i`, whatever the thread count. Callers keep that guarantee end to end
//! by (a) deriving all randomness from the trial descriptor (never from a
//! worker-local RNG), and (b) fully re-arming any reused scratch state at
//! the start of each trial (see `ProtectedMemory::reset_with_fault_map`).
//! Aggregations stay bit-identical because floating-point reduction
//! happens *after* the merge, in trial order.
//!
//! # Execution settings
//!
//! Three settings decide how a campaign runs — the worker count, trial
//! batching, and the batched executor's bail-out fraction — and none of
//! them changes an output byte. They travel as one plain [`ExecConfig`]
//! value: [`ExecConfig::from_env`] reads `DREAM_THREADS`, `DREAM_BATCH`
//! and `DREAM_BATCH_BAILOUT` once per campaign (`CampaignRunner::new`),
//! the CLI flags and `CampaignRunner` builders override its fields, and
//! the engine hands `threads` to every [`run_trials`] call. Nothing is
//! process-global or thread-local, so concurrent campaigns with different
//! settings cannot interfere. A thread count of 1 reproduces the
//! historical serial path exactly, worker scratch included.
//!
//! # Cancellation
//!
//! [`run_trials_cancellable`] accepts a [`CancelToken`]; workers stop
//! claiming trials once it fires and the call returns [`Cancelled`]
//! instead of a partial (and therefore non-deterministic-looking) result
//! vector. Because campaigns are deterministic, a cancelled campaign is
//! resumed by running only the grid units its emitted rows do not cover
//! (`ShardPlan::resume`).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Environment variable selecting the worker count (`1` = serial).
pub const THREADS_ENV: &str = "DREAM_THREADS";

/// Environment variable toggling bit-sliced trial batching (`1`/`true`/`on`
/// to enable, `0`/`false`/`off` to disable).
pub const BATCH_ENV: &str = "DREAM_BATCH";

/// Environment variable tuning the batched executor's adaptive bail-out
/// fraction (`0.0`..=`1.0`): a batch abandons its plane passes once the
/// alive-lane population drops strictly below this fraction of the group,
/// finishing the stragglers on the scalar replay path. `0` disables
/// bail-out; `1` bails on the first eviction.
pub const BAILOUT_ENV: &str = "DREAM_BATCH_BAILOUT";

/// Default bail-out fraction: below a quarter of the group, the plane
/// passes cost more than scalar replays of the survivors.
pub const DEFAULT_BAILOUT: f64 = 0.25;

/// How campaigns execute: the worker count, bit-sliced trial batching,
/// and the batched executor's bail-out fraction.
///
/// None of the three is a model knob — output bytes are identical at
/// every setting — so the value is resolved once, at the edge
/// ([`ExecConfig::from_env`], then CLI flags or `CampaignRunner`
/// builders), and passed explicitly down to [`run_trials`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecConfig {
    /// Worker threads (1 = the serial path).
    pub threads: usize,
    /// Whether trials ride bit-sliced lane groups
    /// (`dream_core::TrialBatch`) instead of running one by one.
    pub batch: bool,
    /// Alive-lane fraction (`0.0..=1.0`) below which a batched group
    /// abandons its plane passes for scalar replays.
    pub bailout: f64,
}

impl ExecConfig {
    /// The environment's settings: [`THREADS_ENV`] (default: available
    /// parallelism), [`BATCH_ENV`] (default: on) and [`BAILOUT_ENV`]
    /// (default: [`DEFAULT_BAILOUT`]).
    ///
    /// # Panics
    ///
    /// Panics if any of the three variables is malformed — a typo
    /// silently running another configuration would make benchmark A/Bs
    /// lie.
    pub fn from_env() -> ExecConfig {
        ExecConfig {
            threads: env_threads(),
            batch: batch_enabled(),
            bailout: batch_bailout(),
        }
    }
}

/// A shared flag requesting cooperative cancellation of a campaign.
///
/// Clones observe the same flag; once [`cancel`](CancelToken::cancel) is
/// called every [`run_trials_cancellable`] holding a clone stops claiming
/// trials and returns [`Cancelled`]. The flag is sticky — there is no
/// un-cancel.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token. Idempotent and callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The campaign stopped because its [`CancelToken`] fired; any partial
/// results were discarded to preserve the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("campaign cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Whether [`BATCH_ENV`] enables trial batching (unset: **on**) — the
/// env-edge parser behind [`ExecConfig::from_env`].
///
/// Batching defaults on: with clean-trace derivation and per-lane map
/// reuse it beats the scalar path on every workload that exercises it
/// (set `DREAM_BATCH=0` to opt out).
///
/// Batching is an execution strategy, not a model change: the engine's
/// batched paths are bit-identical to the scalar paths by the divergence
/// rule (`dream_core::TrialBatch`), so this toggle may only affect speed.
///
/// # Panics
///
/// Panics if [`BATCH_ENV`] is set to something other than
/// `1`/`true`/`on`/`0`/`false`/`off` — a typo silently running the other
/// path would make benchmark A/Bs lie.
pub fn batch_enabled() -> bool {
    let Ok(raw) = std::env::var(BATCH_ENV) else {
        return true;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => true,
        "0" | "false" | "off" => false,
        _ => panic!("{BATCH_ENV} must be one of 1/true/on/0/false/off, got {raw:?}"),
    }
}

/// The bail-out fraction [`BAILOUT_ENV`] selects (unset:
/// [`DEFAULT_BAILOUT`]) — the env-edge parser behind
/// [`ExecConfig::from_env`].
///
/// Like batching itself, the bail-out is an execution strategy: bailed
/// lanes are replayed on the scalar path, so the fraction may only affect
/// speed, never output.
///
/// # Panics
///
/// Panics if [`BAILOUT_ENV`] is set to anything but a number in
/// `0.0..=1.0` — a typo silently running a different bail-out policy
/// would make benchmark A/Bs lie.
pub fn batch_bailout() -> f64 {
    let Ok(raw) = std::env::var(BAILOUT_ENV) else {
        return DEFAULT_BAILOUT;
    };
    let frac: f64 = raw
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{BAILOUT_ENV} must be a number in 0.0..=1.0, got {raw:?}"));
    assert!(
        (0.0..=1.0).contains(&frac),
        "{BAILOUT_ENV} must be in 0.0..=1.0, got {raw:?}"
    );
    frac
}

/// The worker count [`THREADS_ENV`] selects (unset: available
/// parallelism; at least 1).
///
/// # Panics
///
/// Panics if [`THREADS_ENV`] is set to something other than a positive
/// integer — a typo silently falling back to all cores would be worse.
fn env_threads() -> usize {
    let Ok(raw) = std::env::var(THREADS_ENV) else {
        return std::thread::available_parallelism().map_or(1, |n| n.get());
    };
    let n: usize = raw
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{THREADS_ENV} must be a positive integer, got {raw:?}"));
    assert!(n > 0, "{THREADS_ENV} must be at least 1");
    n
}

/// Runs every trial descriptor through `run` on up to `threads` workers,
/// returning the results **in trial order**.
///
/// `scratch` builds one worker-local arena (reused app instances,
/// protected memories, fault-map buffers) per worker thread; `run`
/// executes one trial against that arena. Workers claim trials from a
/// shared atomic cursor, so the schedule load-balances irregular trial
/// costs, while the order-restoring merge keeps the output independent of
/// the schedule.
///
/// With `threads` at most 1 (or at most one trial) everything runs inline on the caller's thread with a single arena — the exact
/// historical serial path.
///
/// # Panics
///
/// Propagates a panic from any trial.
pub fn run_trials<T, C, R>(
    threads: usize,
    trials: &[T],
    scratch: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &T, usize) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    run_trials_cancellable(threads, trials, scratch, run, None)
        .expect("run without a cancel token cannot be cancelled")
}

/// [`run_trials`] with cooperative cancellation: workers poll `cancel`
/// before claiming each trial and stop as soon as it fires, returning
/// [`Cancelled`]. With `cancel: None` the behaviour (and determinism
/// contract) is exactly [`run_trials`].
///
/// # Errors
///
/// Returns [`Cancelled`] if the token fired before all trials completed.
///
/// # Panics
///
/// Propagates a panic from any trial.
pub fn run_trials_cancellable<T, C, R>(
    threads: usize,
    trials: &[T],
    scratch: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &T, usize) -> R + Sync,
    cancel: Option<&CancelToken>,
) -> Result<Vec<R>, Cancelled>
where
    T: Sync,
    R: Send,
{
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let workers = threads.min(trials.len().max(1));
    if workers <= 1 {
        let mut arena = scratch();
        let mut out = Vec::with_capacity(trials.len());
        for (i, t) in trials.iter().enumerate() {
            if cancelled() {
                return Err(Cancelled);
            }
            out.push(run(&mut arena, t, i));
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    let partials: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut arena = scratch();
                    let mut out = Vec::new();
                    loop {
                        if cancelled() {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= trials.len() {
                            break;
                        }
                        out.push((i, run(&mut arena, &trials[i], i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    if cancelled() {
        return Err(Cancelled);
    }
    // Order-restoring merge: slot every result back at its trial index.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(trials.len());
    slots.resize_with(trials.len(), || None);
    for (i, r) in partials.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "trial {i} ran twice");
        slots[i] = Some(r);
    }
    Ok(slots
        .into_iter()
        .map(|r| r.expect("every trial ran exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_trial_order() {
        let trials: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 5] {
            let got = run_trials(
                threads,
                &trials,
                || 0u64,
                |_, &t, i| {
                    assert_eq!(t, i);
                    (t * 31) as u64
                },
            );
            let want: Vec<u64> = trials.iter().map(|&t| (t * 31) as u64).collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn scratch_is_worker_local_and_reused() {
        // Each worker's arena counts the trials it served; the total must
        // cover every trial exactly once.
        let trials: Vec<u32> = (0..100).collect();
        let served = run_trials(
            3,
            &trials,
            || 0usize,
            |count, _, _| {
                *count += 1;
                *count
            },
        );
        // Per-trial scratch counters are ≥ 1 and never exceed the trial count.
        assert!(served.iter().all(|&c| (1..=100).contains(&c)));
    }

    #[test]
    fn empty_trial_list_is_fine() {
        let out: Vec<u8> = run_trials(4, &[] as &[u8], || (), |_, &t, _| t);
        assert!(out.is_empty());
    }

    #[test]
    fn a_fired_token_cancels_before_any_trial_runs() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        for threads in [1, 3] {
            let err = run_trials_cancellable(
                threads,
                &[1u8, 2, 3],
                || (),
                |_, &t, _| -> u8 { panic!("trial {t} ran after cancellation") },
                Some(&token),
            );
            assert_eq!(err, Err(Cancelled), "{threads} threads");
        }
    }

    #[test]
    fn cancelling_midway_stops_the_remaining_trials() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let trials: Vec<usize> = (0..1000).collect();
        let err = run_trials_cancellable(
            1,
            &trials,
            || (),
            |_, &t, _| {
                ran.fetch_add(1, Ordering::SeqCst);
                if t == 4 {
                    token.cancel();
                }
            },
            Some(&token),
        );
        assert_eq!(err, Err(Cancelled));
        assert_eq!(ran.load(Ordering::SeqCst), 5, "serial path stops at once");
    }

    #[test]
    fn no_token_matches_run_trials_exactly() {
        let trials: Vec<usize> = (0..50).collect();
        let plain = run_trials(2, &trials, || (), |_, &t, _| t * 7);
        let cancellable = run_trials_cancellable(2, &trials, || (), |_, &t, _| t * 7, None);
        assert_eq!(cancellable.as_deref(), Ok(plain.as_slice()));
    }
}
