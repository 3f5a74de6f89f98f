//! The failpoint registry: named injection points, armed by spec.
//!
//! Pipeline code marks its fault boundaries with
//! `bwsa_resilience::failpoint!("stage.site")`. With nothing armed, a
//! site costs two relaxed atomic loads (any registry armed? any deadline
//! armed?) — cheap enough for per-record paths. Arming takes a spec
//! string:
//!
//! ```text
//! site=ACTION[;site=ACTION...]
//! ACTION := [COUNT*]KIND[(ARG)]
//! KIND   := off | panic | error | delay
//! ```
//!
//! Examples: `core.interleave=panic`, `trace.decode_record=error(bad
//! chunk)`, `core.shard_detect=2*panic` (fire twice, then pass),
//! `predictor.simulate=delay(25)` (milliseconds). `panic` unwinds with a
//! plain message, `error` unwinds with a typed
//! [`InjectedFault`] payload, and `delay` sleeps —
//! observing the [`crate::watchdog`] — then passes. Faults never return
//! error values in-band: they *unwind*, and a supervisor boundary
//! ([`crate::supervisor::catch`]) converts them to typed errors, so
//! infallible pipeline signatures stay infallible.
//!
//! Every site traversal while a registry is armed is counted
//! ([`hits`]), so the chaos suite can assert a sweep actually exercised
//! each site.
//!
//! # Scope
//!
//! [`scoped`] arms a registry for the calling thread only, and for the
//! threads it starts through [`spawn_scoped`](crate::spawn_scoped); every other
//! thread runs as if nothing were armed, so unit tests that arm
//! failpoints run side by side with tests that arm none. [`configure`]
//! and [`configure_from_env`] (the `BWSA_FAILPOINTS` variable) arm the
//! process-wide registry instead, which every thread without a scoped
//! registry obeys: that is how a fault reaches a daemon's connection
//! threads. [`clear`] disarms it.

use crate::supervisor::InjectedFault;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What an armed failpoint does when execution reaches it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FailAction {
    /// Pass through (used to explicitly silence a site).
    #[default]
    Off,
    /// Unwind with a plain panic message.
    Panic {
        /// The panic message.
        message: String,
    },
    /// Unwind with a typed [`InjectedFault`]
    /// payload.
    Error {
        /// The fault message.
        message: String,
    },
    /// Sleep for the given milliseconds, then pass.
    Delay {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// A malformed failpoint spec (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was wrong with the spec.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad failpoint spec: {}", self.reason)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Default)]
pub(crate) struct Site {
    action: FailAction,
    /// How many more times the action fires; `None` is unlimited.
    remaining: Option<u64>,
    hits: u64,
}

/// Sites by name, with their actions and hit counters.
pub(crate) type Registry = Mutex<HashMap<String, Site>>;

/// Armed registries: one while the process-wide registry is armed, plus
/// one per thread running under a scoped registry. While it is zero a
/// site costs this one load. `Relaxed` is enough: the registries sit
/// behind their own locks, and a thread that armed a scoped registry
/// always sees its own increment.
static ARMED: AtomicUsize = AtomicUsize::new(0);
/// Whether the process-wide registry is armed.
static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The scoped registry this thread runs under, if any.
    static SCOPED: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

fn global() -> &'static Registry {
    static CELL: OnceLock<Registry> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(HashMap::new()))
}

// Failpoints unwind threads that may hold this lock; recover from
// poisoning instead of propagating it.
fn lock(registry: &Registry) -> MutexGuard<'_, HashMap<String, Site>> {
    registry
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The scoped registry the calling thread runs under, for the workers
/// it starts to [`adopt`].
pub(crate) fn inherit() -> Option<Arc<Registry>> {
    SCOPED.with(|s| s.borrow().clone())
}

/// Runs the calling thread under `registry` (an [`inherit`]ed one)
/// until the guard drops.
pub(crate) fn adopt(registry: Option<Arc<Registry>>) -> ScopedFailpoints {
    let counted = registry.is_some();
    if counted {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
    let previous = SCOPED.with(|s| s.replace(registry));
    ScopedFailpoints { previous, counted }
}

/// Whether any failpoint is armed for the calling thread.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) > 0
        && (GLOBAL_ARMED.load(Ordering::Relaxed) || SCOPED.with(|s| s.borrow().is_some()))
}

/// Arms `site` process-wide with `action`, firing at most `count` times
/// (`None` is unlimited).
pub fn configure_site(site: impl Into<String>, action: FailAction, count: Option<u64>) {
    let mut reg = lock(global());
    let entry = reg.entry(site.into()).or_default();
    entry.action = action;
    entry.remaining = count;
    if !GLOBAL_ARMED.swap(true, Ordering::Relaxed) {
        ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Arms failpoints process-wide from a `site=ACTION;site=ACTION` spec
/// string.
///
/// # Errors
///
/// Returns [`ParseError`] on a malformed spec; no sites are armed in
/// that case.
pub fn configure(spec: &str) -> Result<(), ParseError> {
    for (site, action, count) in parse(spec)? {
        configure_site(site, action, count);
    }
    Ok(())
}

/// The `(site, action, count)` entries of a spec string.
fn parse(spec: &str) -> Result<Vec<(String, FailAction, Option<u64>)>, ParseError> {
    let mut parsed = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, action_spec) = entry.split_once('=').ok_or_else(|| ParseError {
            reason: format!("'{entry}' has no '=' (expected site=ACTION)"),
        })?;
        let site = site.trim();
        if site.is_empty() {
            return Err(ParseError {
                reason: format!("'{entry}' has an empty site name"),
            });
        }
        let (action, count) = parse_action(action_spec.trim())?;
        parsed.push((site.to_string(), action, count));
    }
    Ok(parsed)
}

/// Arms failpoints process-wide from the `BWSA_FAILPOINTS` environment
/// variable; returns whether anything was configured.
///
/// # Errors
///
/// Returns [`ParseError`] when the variable is set but malformed.
pub fn configure_from_env() -> Result<bool, ParseError> {
    match std::env::var("BWSA_FAILPOINTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            configure(&spec)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

fn parse_action(spec: &str) -> Result<(FailAction, Option<u64>), ParseError> {
    let (count, spec) = match spec.split_once('*') {
        Some((count, rest)) => {
            let count = count.trim().parse::<u64>().map_err(|_| ParseError {
                reason: format!("'{spec}' has a non-numeric trigger count"),
            })?;
            (Some(count), rest.trim())
        }
        None => (None, spec),
    };
    let (kind, arg) = match spec.split_once('(') {
        Some((kind, rest)) => {
            let arg = rest.strip_suffix(')').ok_or_else(|| ParseError {
                reason: format!("'{spec}' has an unterminated argument"),
            })?;
            (kind.trim(), Some(arg.trim()))
        }
        None => (spec.trim(), None),
    };
    let action = match kind {
        "off" => FailAction::Off,
        "panic" => FailAction::Panic {
            message: arg.unwrap_or("injected panic").to_string(),
        },
        "error" => FailAction::Error {
            message: arg.unwrap_or("injected fault").to_string(),
        },
        "delay" => FailAction::Delay {
            millis: match arg {
                Some(ms) => ms.parse().map_err(|_| ParseError {
                    reason: format!("'{spec}' has a non-numeric delay"),
                })?,
                None => 10,
            },
        },
        other => {
            return Err(ParseError {
                reason: format!("unknown failpoint kind '{other}'"),
            })
        }
    };
    Ok((action, count))
}

/// Disarms the process-wide registry and clears its hit counters.
/// Scoped registries are untouched: they end with their guards.
pub fn clear() {
    lock(global()).clear();
    if GLOBAL_ARMED.swap(false, Ordering::Relaxed) {
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How many times execution traversed `site` while its registry was
/// armed (whether or not the site was configured to act). Reads the
/// calling thread's scoped registry if it has one, else the
/// process-wide one.
pub fn hits(site: &str) -> u64 {
    let scoped = inherit();
    let registry = lock(scoped.as_deref().unwrap_or(global()));
    registry.get(site).map_or(0, |s| s.hits)
}

/// Arms a spec for the calling thread, and the threads it starts through
/// [`spawn_scoped`](crate::spawn_scoped), until the
/// returned guard drops. Other threads never see it, so tests that arm
/// failpoints this way need no lock against each other.
///
/// # Errors
///
/// Returns [`ParseError`] on a malformed spec.
pub fn scoped(spec: &str) -> Result<ScopedFailpoints, ParseError> {
    let mut sites = HashMap::new();
    for (site, action, remaining) in parse(spec)? {
        sites.insert(
            site,
            Site {
                action,
                remaining,
                hits: 0,
            },
        );
    }
    Ok(adopt(Some(Arc::new(Mutex::new(sites)))))
}

/// Ends a thread's scoped arming on drop, restoring whatever the thread
/// ran under before; returned by [`scoped`].
#[derive(Debug)]
pub struct ScopedFailpoints {
    previous: Option<Arc<Registry>>,
    counted: bool,
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        let previous = self.previous.take();
        SCOPED.with(|s| *s.borrow_mut() = previous);
        if self.counted {
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The slow path behind the [`failpoint!`](crate::failpoint!) macro; use
/// the macro, not this, at injection sites.
#[inline]
pub fn check(site: &str) {
    if ARMED.load(Ordering::Relaxed) > 0 {
        check_armed(site);
    }
    crate::watchdog::observe(site);
}

#[cold]
fn check_armed(site: &str) {
    let scoped = inherit();
    let registry = match scoped.as_deref() {
        Some(registry) => registry,
        None if GLOBAL_ARMED.load(Ordering::Relaxed) => global(),
        None => return,
    };
    let action = {
        let mut reg = lock(registry);
        let entry = reg.entry(site.to_string()).or_default();
        entry.hits += 1;
        match entry.remaining {
            Some(0) => FailAction::Off,
            ref mut remaining => {
                if let Some(n) = remaining {
                    *n -= 1;
                }
                entry.action.clone()
            }
        }
    };
    // The registry lock is released before acting: unwinding while
    // holding it would poison every other site.
    match action {
        FailAction::Off => {}
        FailAction::Panic { message } => panic!("failpoint '{site}': {message}"),
        FailAction::Error { message } => std::panic::panic_any(InjectedFault {
            site: site.to_string(),
            message,
        }),
        FailAction::Delay { millis } => {
            crate::watchdog::sleep_observing(Duration::from_millis(millis), site);
        }
    }
}

/// Marks a failpoint site. Costs two relaxed atomic loads when nothing
/// is armed; see the [module docs](mod@crate::failpoint) for arming specs.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::failpoint::check($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{catch, ResilienceError};

    // Only the process-wide registry is shared; serialise the tests that
    // arm or read it. Scoped arming needs no lock.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_failpoints_pass_through() {
        let _serial = serial();
        clear();
        failpoint!("tests.site");
        assert_eq!(hits("tests.site"), 0, "hits only count while armed");
    }

    #[test]
    fn error_mode_unwinds_with_a_typed_payload() {
        let _guard = scoped("tests.site=error(bad block)").unwrap();
        let err = catch(|| failpoint!("tests.site")).unwrap_err();
        assert_eq!(
            err,
            ResilienceError::Injected {
                site: "tests.site".into(),
                message: "bad block".into()
            }
        );
        assert_eq!(hits("tests.site"), 1);
    }

    #[test]
    fn panic_mode_unwinds_with_a_message() {
        let _guard = scoped("tests.site=panic(kaput)").unwrap();
        let err = catch(|| failpoint!("tests.site")).unwrap_err();
        match err {
            ResilienceError::Panic { message } => {
                assert!(message.contains("tests.site") && message.contains("kaput"))
            }
            other => panic!("expected a panic classification, got {other:?}"),
        }
    }

    #[test]
    fn counted_actions_exhaust() {
        let _guard = scoped("tests.site=2*error").unwrap();
        assert!(catch(|| failpoint!("tests.site")).is_err());
        assert!(catch(|| failpoint!("tests.site")).is_err());
        assert!(catch(|| failpoint!("tests.site")).is_ok(), "third pass");
        assert_eq!(hits("tests.site"), 3, "exhausted passes still count");
    }

    #[test]
    fn unconfigured_sites_count_hits_while_armed() {
        let _guard = scoped("tests.other=off").unwrap();
        failpoint!("tests.site");
        assert_eq!(hits("tests.site"), 1);
    }

    #[test]
    fn delay_mode_sleeps_then_passes() {
        let _guard = scoped("tests.site=delay(15)").unwrap();
        let start = std::time::Instant::now();
        failpoint!("tests.site");
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn scoped_arming_reaches_parallel_map_workers_and_no_other_thread() {
        let guard = scoped("tests.scope=error(worker fault)").unwrap();
        let faulted = crate::parallel_map(vec![(); 4], 2, |_, ()| {
            catch(|| failpoint!("tests.scope")).is_err()
        });
        assert_eq!(faulted, [true; 4]);
        std::thread::scope(|s| {
            s.spawn(|| failpoint!("tests.scope"))
                .join()
                .expect("a thread outside the scope passes the site");
        });
        assert_eq!(hits("tests.scope"), 4, "only the scope's traversals count");
        drop(guard);
        assert!(
            catch(|| failpoint!("tests.scope")).is_ok(),
            "disarmed on drop"
        );
    }

    #[test]
    fn multi_site_specs_and_whitespace_parse() {
        let parsed = parse(" a.b = panic ; c.d = 3*delay(7) ; ").unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(matches!(parsed[0].1, FailAction::Panic { .. }));
        assert_eq!(
            parsed[1],
            ("c.d".to_owned(), FailAction::Delay { millis: 7 }, Some(3))
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "no-equals",
            "=panic",
            "a.b=explode",
            "a.b=x*panic",
            "a.b=delay(ms)",
            "a.b=panic(unterminated",
        ] {
            assert!(scoped(bad).is_err(), "accepted {bad:?}");
            assert!(configure(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn env_configuration_reads_bwsa_failpoints() {
        let _serial = serial();
        clear();
        // Unset → nothing armed.
        std::env::remove_var("BWSA_FAILPOINTS");
        assert_eq!(configure_from_env(), Ok(false));
        assert!(!armed());
        std::env::set_var("BWSA_FAILPOINTS", "tests.env=error");
        assert_eq!(configure_from_env(), Ok(true));
        assert!(armed());
        std::env::remove_var("BWSA_FAILPOINTS");
        clear();
    }
}
