//! Deterministic parallel execution of campaign trials.
//!
//! Every figure of the paper is a Monte-Carlo campaign: hundreds of
//! independent `(point, run)` trials whose outputs are averaged into curve
//! points. The trials are embarrassingly parallel — each one derives its
//! fault map from [`crate::campaign::fault_seed`] and touches nothing but
//! its own scratch memory — so this module schedules a flattened work
//! list across `std::thread::scope` workers and delivers the results **in
//! item order**, making the output bit-identical regardless of how many
//! workers ran it.
//!
//! # One streaming loop
//!
//! [`stream_trials`] is the only scheduling loop. Workers claim items from
//! one atomic cursor; each result reaches the caller's thread through a
//! callback as soon as that item and every earlier item are done. A
//! campaign can therefore put a whole sweep into one work list — no
//! barrier between grid points — and still emit each point's rows the
//! moment its last item lands. [`run_trials`] and
//! [`run_trials_cancellable`] are thin collectors over the same loop.
//!
//! # Determinism contract
//!
//! [`stream_trials`] hands over result `i` from `items[i]`, in order of
//! `i`, and [`run_trials`] guarantees `result[i]` came from `trials[i]`
//! for every `i`, whatever the thread count. Callers keep that guarantee
//! end to end by (a) deriving all randomness from the trial descriptor
//! (never from a worker-local RNG), and (b) fully re-arming any reused
//! scratch state at the start of each trial (see
//! `ProtectedMemory::reset_with_fault_map`). Aggregations stay
//! bit-identical because floating-point reduction happens *after* the
//! in-order delivery, in trial order.
//!
//! # Execution settings
//!
//! Two settings decide how a campaign runs — the worker count and trial
//! batching — and neither changes an output byte. They travel as one
//! plain [`ExecConfig`] value: [`ExecConfig::from_env`] reads
//! `DREAM_THREADS` and `DREAM_BATCH` once per campaign
//! (`CampaignRunner::new`), the CLI flags and `CampaignRunner` builders
//! override its fields, and the engine hands `threads` to every executor
//! call. Nothing is
//! process-global or thread-local, so concurrent campaigns with different
//! settings cannot interfere. A thread count of 1 reproduces the
//! historical serial path exactly, worker scratch included.
//!
//! # Cancellation
//!
//! [`stream_trials`] and [`run_trials_cancellable`] accept a
//! [`CancelToken`]; workers stop claiming items once it fires, no further
//! result is delivered, and the call returns [`Cancelled`] instead of a
//! partial (and therefore non-deterministic-looking) result vector. What
//! a streaming caller already received is an in-order prefix. Because
//! campaigns are deterministic, a cancelled campaign is resumed by
//! running only the grid units its emitted rows do not cover
//! (`ShardPlan::resume`).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Environment variable selecting the worker count (`1` = serial).
pub const THREADS_ENV: &str = "DREAM_THREADS";

/// Environment variable toggling bit-sliced trial batching (`1`/`true`/`on`
/// to enable, `0`/`false`/`off` to disable).
pub const BATCH_ENV: &str = "DREAM_BATCH";

/// How campaigns execute: the worker count and bit-sliced trial batching.
///
/// Neither is a model knob — output bytes are identical at every
/// setting — so the value is resolved once, at the edge
/// ([`ExecConfig::from_env`], then CLI flags or `CampaignRunner`
/// builders), and passed explicitly down to [`run_trials`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecConfig {
    /// Worker threads (1 = the serial path).
    pub threads: usize,
    /// Whether trials ride bit-sliced lane groups
    /// (`dream_core::TrialBatch`) instead of running one by one.
    pub batch: bool,
}

impl ExecConfig {
    /// The environment's settings: [`THREADS_ENV`] (default: available
    /// parallelism) and [`BATCH_ENV`] (default: on).
    ///
    /// # Panics
    ///
    /// Panics if either variable is malformed — a typo silently running
    /// another configuration would make benchmark A/Bs lie.
    pub fn from_env() -> ExecConfig {
        ExecConfig {
            threads: env_threads(),
            batch: batch_enabled(),
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
/// Batching defaults on: with one shared clean pass per (app, record)
/// and per-lane map reuse it beats the scalar path on every benchmark
/// workload that exercises it (set `DREAM_BATCH=0` to opt out).
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

/// Always `0.0`: a lane leaves a batched pass only by diverging. Kept
/// for the benchmark mirror; ROADMAP item 2 deletes it.
pub fn batch_bailout() -> f64 {
    0.0
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
/// returning the results **in trial order** — a collector over
/// [`stream_trials`].
///
/// `scratch` builds one worker-local arena (reused app instances,
/// protected memories, fault-map buffers) per worker thread; `run`
/// executes one trial against that arena.
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
    let mut out = Vec::with_capacity(trials.len());
    stream_trials(
        threads,
        trials,
        scratch,
        run,
        |_, r| {
            out.push(r);
            Ok::<(), Cancelled>(())
        },
        cancel,
    )?;
    Ok(out)
}

/// The executor's one scheduling loop: runs every item through `run` on
/// up to `threads` workers and hands each result to `emit` on the
/// caller's thread **in item order**, as soon as that item and every
/// earlier one are done.
///
/// Workers claim items from one shared atomic cursor, so the schedule
/// load-balances irregular item costs; a slot buffer on the caller's
/// thread restores item order, so `emit` sees the same sequence whatever
/// the schedule. `scratch` builds one worker-local arena per worker.
///
/// With `threads` at most 1 (or at most one item) everything runs inline
/// on the caller's thread with a single arena — the exact serial path.
///
/// # Errors
///
/// An error from `emit` stops further claims (and further `emit` calls)
/// and is returned once the in-flight items finish. If `cancel` fires
/// before every item was emitted, workers stop claiming, no further item
/// is emitted, and the call returns [`Cancelled`] converted into `E`.
///
/// # Panics
///
/// Propagates a panic from any item; the other workers stop claiming.
pub fn stream_trials<T, C, R, E>(
    threads: usize,
    items: &[T],
    scratch: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &T, usize) -> R + Sync,
    mut emit: impl FnMut(usize, R) -> Result<(), E>,
    cancel: Option<&CancelToken>,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
    E: From<Cancelled>,
{
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let workers = threads.min(items.len().max(1));
    if workers <= 1 {
        let mut arena = scratch();
        for (i, t) in items.iter().enumerate() {
            if cancelled() {
                return Err(Cancelled.into());
            }
            emit(i, run(&mut arena, t, i))?;
        }
        return Ok(());
    }
    let cursor = AtomicUsize::new(0);
    // Raised by an `emit` error or a panic: workers stop claiming.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let (cursor, stop, scratch, run) = (&cursor, &stop, &scratch, &run);
                s.spawn(move || {
                    let _guard = StopOnPanic(stop);
                    let mut arena = scratch();
                    while !cancelled() && !stop.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // The receiver only hangs up after an error; the
                        // result is unwanted then.
                        let _ = tx.send((i, run(&mut arena, &items[i], i)));
                    }
                })
            })
            .collect();
        drop(tx);
        // A panicking `emit` stops the workers too.
        let _guard = StopOnPanic(&stop);
        let result = (|| {
            let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
            slots.resize_with(items.len(), || None);
            let mut next = 0;
            // Ends when every worker has hung up: all items ran, or the
            // workers stopped claiming (cancellation or a panic).
            for (i, r) in rx.iter() {
                debug_assert!(slots[i].is_none(), "item {i} ran twice");
                slots[i] = Some(r);
                while let Some(r) = slots.get_mut(next).and_then(Option::take) {
                    if cancelled() {
                        return Err(Cancelled.into());
                    }
                    emit(next, r)?;
                    next += 1;
                }
            }
            if next < items.len() {
                // Only reachable by cancellation or a panic; the join
                // below re-raises a panic.
                return Err(Cancelled.into());
            }
            Ok(())
        })();
        if result.is_err() {
            stop.store(true, Ordering::Relaxed);
        }
        for h in handles {
            h.join().expect("campaign worker panicked");
        }
        result
    })
}

/// Raises the executor's stop flag when its thread unwinds, so the
/// workers stop claiming items instead of running the rest of a doomed
/// list.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
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
    fn results_stream_in_order_when_a_later_item_finishes_first() {
        // Item 0 cannot finish before item 1 has, so with two workers the
        // completions arrive out of order; emission must still be 0, 1, 2.
        let one_done = AtomicBool::new(false);
        let finished = std::sync::Mutex::new(Vec::new());
        let mut emitted = Vec::new();
        stream_trials(
            2,
            &[0usize, 1, 2],
            || (),
            |_, &t, _| {
                if t == 0 {
                    while !one_done.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                finished.lock().unwrap().push(t);
                if t == 1 {
                    one_done.store(true, Ordering::SeqCst);
                }
                t * 10
            },
            |i, r| {
                emitted.push((i, r));
                Ok::<(), Cancelled>(())
            },
            None,
        )
        .unwrap();
        assert_eq!(
            finished.into_inner().unwrap()[0],
            1,
            "item 1 finished first"
        );
        assert_eq!(emitted, vec![(0, 0), (1, 10), (2, 20)]);
    }

    #[derive(Debug, PartialEq)]
    enum StreamErr {
        Sink(usize),
        Cancelled,
    }

    impl From<Cancelled> for StreamErr {
        fn from(_: Cancelled) -> Self {
            StreamErr::Cancelled
        }
    }

    #[test]
    fn an_emit_error_stops_claims_and_callbacks() {
        for threads in [1, 2] {
            let failed = AtomicBool::new(false);
            let ran = AtomicUsize::new(0);
            let mut emits = 0;
            let items: Vec<usize> = (0..10_000).collect();
            let err = stream_trials(
                threads,
                &items,
                || (),
                |_, &t, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    // Items past the failing one wait for its error, so
                    // the workers cannot run the whole list first.
                    while t > 3 && !failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_micros(50));
                },
                |i, ()| {
                    emits += 1;
                    if i == 3 {
                        failed.store(true, Ordering::SeqCst);
                        return Err(StreamErr::Sink(i));
                    }
                    Ok(())
                },
                None,
            );
            assert_eq!(err, Err(StreamErr::Sink(3)), "{threads} threads");
            assert_eq!(emits, 4, "no callback after the error ({threads} threads)");
            let ran = ran.load(Ordering::SeqCst);
            assert!(ran < items.len() / 2, "{ran} items ran ({threads} threads)");
        }
    }

    #[test]
    fn a_token_fired_mid_stream_returns_cancelled() {
        for threads in [1, 2, 3] {
            let token = CancelToken::new();
            let mut emitted = Vec::new();
            let items: Vec<usize> = (0..200).collect();
            let err = stream_trials(
                threads,
                &items,
                || (),
                |_, &t, _| t,
                |i, t| {
                    emitted.push(t);
                    if i == 2 {
                        token.cancel();
                    }
                    Ok::<(), StreamErr>(())
                },
                Some(&token),
            );
            assert_eq!(err, Err(StreamErr::Cancelled), "{threads} threads");
            assert_eq!(emitted, vec![0, 1, 2], "{threads} threads");
        }
    }

    #[test]
    fn a_panicking_item_propagates_and_does_not_hang() {
        for threads in [1, 2, 4] {
            let items: Vec<usize> = (0..10_000).collect();
            let outcome = std::panic::catch_unwind(|| {
                stream_trials(
                    threads,
                    &items,
                    || (),
                    |_, &t, _| {
                        assert_ne!(t, 5, "item 5 fails");
                        t
                    },
                    |_, _| Ok::<(), Cancelled>(()),
                    None,
                )
            });
            assert!(outcome.is_err(), "{threads} threads");
        }
    }

    #[test]
    fn one_thread_runs_every_item_inline_on_one_arena() {
        let caller = std::thread::current().id();
        let arenas = AtomicUsize::new(0);
        let items: Vec<usize> = (0..20).collect();
        let mut emitted = 0;
        stream_trials(
            1,
            &items,
            || {
                arenas.fetch_add(1, Ordering::SeqCst);
            },
            |_, _, _| assert_eq!(std::thread::current().id(), caller),
            |_, ()| {
                emitted += 1;
                Ok::<(), Cancelled>(())
            },
            None,
        )
        .unwrap();
        assert_eq!(emitted, items.len());
        assert_eq!(arenas.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn no_token_matches_run_trials_exactly() {
        let trials: Vec<usize> = (0..50).collect();
        let plain = run_trials(2, &trials, || (), |_, &t, _| t * 7);
        let cancellable = run_trials_cancellable(2, &trials, || (), |_, &t, _| t * 7, None);
        assert_eq!(cancellable.as_deref(), Ok(plain.as_slice()));
    }
}
