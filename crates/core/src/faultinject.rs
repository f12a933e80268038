//! Deterministic fault injection (a `failpoints`-style registry).
//!
//! Production solver code marks **hit sites** with [`hit`]:
//!
//! ```
//! abt_core::faultinject::hit("panic_in_ftran");
//! ```
//!
//! With the `fault-injection` cargo feature **off** (the default), `hit`
//! is an empty inline function — the call compiles to nothing, so the
//! pivot loop and certifier pay zero cost in production builds. With the
//! feature **on**, each call consults a process-global registry: tests and
//! CI `configure` a site with a [`FaultSpec`] (an action plus a
//! deterministic counter-based trigger) and the site then panics or sleeps
//! on exactly the configured hits, reproducibly — there is no randomness
//! anywhere, only per-site hit counters.
//!
//! The workspace's standard sites, one per supervised layer:
//!
//! | site             | layer                               | typical action |
//! |------------------|-------------------------------------|----------------|
//! | `fail_nth_solve` | component-solve entry (`abt-active`)| `Panic`        |
//! | `panic_in_pivot` | revised pivot loop (`abt-lp`)       | `Panic`        |
//! | `panic_in_ftran` | FTRAN (`abt-lp`)                    | `Panic`        |
//! | `slow_certify`   | exact `Rat` certifier (`abt-lp`)    | `DelayMillis`  |
//! | `torn_write`     | state-file write (`abt-core::persist`) | `Io(TornWrite)` |
//! | `corrupt_read`   | state-file load (`abt-core::persist`)  | `Io(CorruptRead)` |
//!
//! The two I/O sites are **query-style**: the registry cannot reach the
//! caller's buffers, so [`io_fault`] returns the fired [`IoFault`] and the
//! persist layer applies the corruption itself (truncating the written
//! file, flipping a loaded byte). Both must surface as
//! `SolveFailure::StateCorrupt` on the next load — never a panic, never a
//! wrong answer.
//!
//! Because the registry is process-global and the site names are fixed,
//! concurrently running tests would race each other's configurations:
//! every test that configures a failpoint must hold the `exclusive`
//! guard for its whole body. The guard also swaps in a silent panic hook
//! (injected panics are expected and would otherwise spray backtraces
//! over the test output) and `reset`s the registry when dropped.
//!
//! CI smoke runs seed the registry through the `ABT_FAULTPOINTS`
//! environment variable (see `configure_from_env`), e.g.
//! `ABT_FAULTPOINTS="panic_in_pivot=panic@every:97;slow_certify=delay:10@nth:3"`.

/// When a configured site actually fires, in terms of that site's
/// 1-based hit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on the `n`-th hit only (one-shot).
    Nth(u64),
    /// Fire on every `k`-th hit (`k ≥ 1`; `Every(1)` fires always).
    Every(u64),
}

/// What a firing site does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the site — exercises the unwind paths
    /// (`supervised_map`, ladder demotion, and the next solve on the
    /// panicking thread).
    Panic,
    /// Sleep for the given number of milliseconds — exercises wall-time
    /// budgets without panicking.
    DelayMillis(u64),
    /// Report a data-corrupting I/O fault to the caller (see [`io_fault`]);
    /// only meaningful at the persist layer's I/O sites.
    Io(IoFault),
}

/// A data-corrupting I/O fault, applied by the persist layer itself (the
/// registry cannot reach the caller's buffers — see [`io_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Truncate the state file just written — a disk that acknowledged a
    /// write it did not complete.
    TornWrite,
    /// Flip one byte of the bytes just read — bit rot under the checksum.
    CorruptRead,
}

/// A configured failpoint: fire `action` whenever `trigger` matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// When to fire.
    pub trigger: Trigger,
    /// What to do.
    pub action: FaultAction,
}

impl FaultSpec {
    /// Panic on every `k`-th hit.
    pub fn panic_every(k: u64) -> FaultSpec {
        FaultSpec {
            trigger: Trigger::Every(k.max(1)),
            action: FaultAction::Panic,
        }
    }

    /// Panic on the `n`-th hit only.
    pub fn panic_nth(n: u64) -> FaultSpec {
        FaultSpec {
            trigger: Trigger::Nth(n.max(1)),
            action: FaultAction::Panic,
        }
    }

    /// Sleep `millis` on the `n`-th hit only.
    pub fn delay_nth(n: u64, millis: u64) -> FaultSpec {
        FaultSpec {
            trigger: Trigger::Nth(n.max(1)),
            action: FaultAction::DelayMillis(millis),
        }
    }

    /// Fire the given I/O fault on every `k`-th hit.
    pub fn io_every(fault: IoFault, k: u64) -> FaultSpec {
        FaultSpec {
            trigger: Trigger::Every(k.max(1)),
            action: FaultAction::Io(fault),
        }
    }
}

/// Marks a fault-injection site. A no-op unless the `fault-injection`
/// feature is enabled *and* the site has been `configure`d with a
/// matching trigger.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn hit(_site: &str) {}

/// Queries an I/O fault-injection site: `Some(fault)` when the site is
/// configured with a matching [`FaultAction::Io`] and its trigger fires —
/// the caller then applies the corruption itself. A site configured with
/// `Panic`/`DelayMillis` fires those as [`hit`] would. A no-op returning
/// `None` unless the `fault-injection` feature is enabled.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn io_fault(_site: &str) -> Option<IoFault> {
    None
}

#[cfg(feature = "fault-injection")]
pub use enabled::{configure, configure_from_env, exclusive, hit, io_fault, reset, ExclusiveGuard};

#[cfg(feature = "fault-injection")]
mod enabled {
    use super::{FaultAction, FaultSpec, IoFault, Trigger};
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    struct SiteState {
        spec: FaultSpec,
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock_registry() -> MutexGuard<'static, HashMap<String, SiteState>> {
        // Injected panics unwind while this lock is *not* held (the guard
        // is dropped before firing, below), but a stray poison must never
        // wedge the harness.
        registry().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site` with `spec`, resetting the site's hit counter.
    pub fn configure(site: &str, spec: FaultSpec) {
        lock_registry().insert(site.to_string(), SiteState { spec, hits: 0 });
    }

    /// Disarms every site and clears every hit counter.
    pub fn reset() {
        lock_registry().clear();
    }

    /// Marks a fault-injection site: bumps the site's hit counter and, when
    /// the configured trigger matches, fires the configured action
    /// (panicking or sleeping). Unconfigured sites only pay the registry
    /// lookup.
    pub fn hit(site: &str) {
        match fired_action(site) {
            None => {}
            Some(FaultAction::Panic) => panic!("faultinject: injected panic at '{site}'"),
            Some(FaultAction::DelayMillis(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            // An I/O action at a plain hit site has no buffer to corrupt;
            // only `io_fault` callers can apply it.
            Some(FaultAction::Io(_)) => {}
        }
    }

    /// Queries an I/O site (see the module docs): returns the fired
    /// [`IoFault`] for the caller to apply; `Panic`/`DelayMillis` actions
    /// fire here exactly as at a [`hit`] site.
    pub fn io_fault(site: &str) -> Option<IoFault> {
        match fired_action(site) {
            None => None,
            Some(FaultAction::Panic) => panic!("faultinject: injected panic at '{site}'"),
            Some(FaultAction::DelayMillis(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                None
            }
            Some(FaultAction::Io(f)) => Some(f),
        }
    }

    /// Bumps `site`'s hit counter and returns the action to fire, if any.
    /// The registry lock is released before the caller fires it.
    fn fired_action(site: &str) -> Option<FaultAction> {
        let mut reg = lock_registry();
        let state = reg.get_mut(site)?;
        state.hits += 1;
        let fires = match state.spec.trigger {
            Trigger::Nth(n) => state.hits == n,
            Trigger::Every(k) => state.hits % k.max(1) == 0,
        };
        fires.then_some(state.spec.action)
    }

    /// Seeds the registry from the `ABT_FAULTPOINTS` environment variable
    /// (used by CI smoke runs, where the test harness is not in control).
    /// Format: `;`-separated `site=action[@trigger]` entries, with action
    /// `panic`, `delay:MS`, `torn`, or `corrupt` and trigger `every:N` or
    /// `nth:N` (default
    /// `every:1`). Malformed entries are ignored with a warning on stderr
    /// — a smoke harness must not abort over a typo'd knob.
    pub fn configure_from_env() {
        let Ok(raw) = std::env::var("ABT_FAULTPOINTS") else {
            return;
        };
        for entry in raw.split(';').filter(|e| !e.trim().is_empty()) {
            match parse_entry(entry.trim()) {
                Some((site, spec)) => {
                    eprintln!("faultinject: arming '{site}' with {spec:?}");
                    configure(&site, spec);
                }
                None => eprintln!("faultinject: ignoring malformed entry {entry:?}"),
            }
        }
    }

    fn parse_entry(entry: &str) -> Option<(String, FaultSpec)> {
        let (site, rest) = entry.split_once('=')?;
        let (action_s, trigger_s) = match rest.split_once('@') {
            Some((a, t)) => (a, Some(t)),
            None => (rest, None),
        };
        let action = if action_s == "panic" {
            FaultAction::Panic
        } else if let Some(ms) = action_s.strip_prefix("delay:") {
            FaultAction::DelayMillis(ms.parse().ok()?)
        } else if action_s == "torn" {
            FaultAction::Io(IoFault::TornWrite)
        } else if action_s == "corrupt" {
            FaultAction::Io(IoFault::CorruptRead)
        } else {
            return None;
        };
        let trigger = match trigger_s {
            None => Trigger::Every(1),
            Some(t) => {
                if let Some(n) = t.strip_prefix("every:") {
                    Trigger::Every(n.parse::<u64>().ok()?.max(1))
                } else if let Some(n) = t.strip_prefix("nth:") {
                    Trigger::Nth(n.parse::<u64>().ok()?.max(1))
                } else {
                    return None;
                }
            }
        };
        Some((site.to_string(), FaultSpec { trigger, action }))
    }

    /// Serializes failpoint tests: the registry and its site names are
    /// process-global, so concurrent tests would clobber each other's
    /// configurations. Hold the returned guard for the whole test body.
    /// While held, the process panic hook is silenced (injected panics are
    /// expected — their backtraces are noise); dropping the guard restores
    /// the hook and [`reset`]s the registry.
    pub fn exclusive() -> ExclusiveGuard {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        ExclusiveGuard {
            _lock: lock,
            prev_hook: Some(prev_hook),
        }
    }

    /// The process panic hook, as [`std::panic::take_hook`] returns it.
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

    /// See [`exclusive`].
    pub struct ExclusiveGuard {
        _lock: MutexGuard<'static, ()>,
        prev_hook: Option<PanicHook>,
    }

    impl Drop for ExclusiveGuard {
        fn drop(&mut self) {
            reset();
            if let Some(hook) = self.prev_hook.take() {
                // `set_hook` panics on a panicking thread, which inside
                // this destructor would escalate a plain test failure into
                // a process abort. Leave the hook silenced in that case —
                // the next `exclusive()` replaces it anyway.
                if !std::thread::panicking() {
                    std::panic::set_hook(hook);
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn triggers_fire_deterministically() {
            let _guard = exclusive();
            configure("t_nth", FaultSpec::panic_nth(3));
            hit("t_nth");
            hit("t_nth"); // hits 1 and 2: armed but silent
            let caught = std::panic::catch_unwind(|| hit("t_nth"));
            assert!(caught.is_err(), "3rd hit must fire");
            hit("t_nth"); // one-shot: 4th hit is silent again

            configure("t_every", FaultSpec::panic_every(2));
            hit("t_every");
            assert!(std::panic::catch_unwind(|| hit("t_every")).is_err());
            hit("t_every");
            assert!(std::panic::catch_unwind(|| hit("t_every")).is_err());
        }

        #[test]
        fn unconfigured_sites_are_silent() {
            let _guard = exclusive();
            for _ in 0..100 {
                hit("never_configured");
            }
        }

        #[test]
        fn env_entries_parse() {
            assert_eq!(
                parse_entry("panic_in_pivot=panic@every:97"),
                Some((
                    "panic_in_pivot".into(),
                    FaultSpec {
                        trigger: Trigger::Every(97),
                        action: FaultAction::Panic,
                    }
                ))
            );
            assert_eq!(
                parse_entry("slow_certify=delay:10@nth:3"),
                Some((
                    "slow_certify".into(),
                    FaultSpec {
                        trigger: Trigger::Nth(3),
                        action: FaultAction::DelayMillis(10),
                    }
                ))
            );
            assert_eq!(
                parse_entry("fail_nth_solve=panic"),
                Some((
                    "fail_nth_solve".into(),
                    FaultSpec {
                        trigger: Trigger::Every(1),
                        action: FaultAction::Panic,
                    }
                ))
            );
            assert_eq!(
                parse_entry("torn_write=torn@every:3"),
                Some((
                    "torn_write".into(),
                    FaultSpec {
                        trigger: Trigger::Every(3),
                        action: FaultAction::Io(IoFault::TornWrite),
                    }
                ))
            );
            assert_eq!(
                parse_entry("corrupt_read=corrupt"),
                Some((
                    "corrupt_read".into(),
                    FaultSpec {
                        trigger: Trigger::Every(1),
                        action: FaultAction::Io(IoFault::CorruptRead),
                    }
                ))
            );
            assert_eq!(parse_entry("bad"), None);
            assert_eq!(parse_entry("s=frob"), None);
            assert_eq!(parse_entry("s=panic@often"), None);
        }

        #[test]
        fn io_faults_are_query_style() {
            let _guard = exclusive();
            configure("t_io", FaultSpec::io_every(IoFault::CorruptRead, 2));
            assert_eq!(io_fault("t_io"), None, "1st hit is silent");
            assert_eq!(io_fault("t_io"), Some(IoFault::CorruptRead));
            // A plain `hit` at an Io site is a no-op (nothing to corrupt).
            hit("t_io"); // hit 3
            assert_eq!(io_fault("t_io"), Some(IoFault::CorruptRead), "hit 4");
            // Unconfigured sites answer None.
            assert_eq!(io_fault("t_io_other"), None);
        }
    }
}
