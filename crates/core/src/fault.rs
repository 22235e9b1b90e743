//! Deterministic fault injection: the one scripted-failure seam shared
//! by the wire, store, and chaos test suites.
//!
//! A [`FaultScript`] is a list of rules, each bound to a named *site* (a
//! string literal at the injection point, e.g. `"shard.plan"` or
//! `"server.handle"`), optionally to a `u64` *key* (a cache id, shard
//! index, or opcode — whatever the site passes), and to a window of
//! matching hits (`skip` hits pass through, then `times` hits fire).
//! Components under test call [`FaultScript::check`] at their injection
//! points; a matched rule either acts inline (delays sleep, panics
//! panic) or returns a [`FaultDirective`] telling the caller what to
//! sabotage (fail an append, sever a connection, truncate a frame).
//!
//! Everything is deterministic: rules fire on exact hit counts, never on
//! time or randomness, so a failure schedule replays identically across
//! runs — which is what lets the chaos suites assert *bit-identical*
//! convergence with a fault-free twin.
//!
//! Sites in use across the workspace (the string is the contract):
//!
//! | site            | key            | honoured actions              |
//! |-----------------|----------------|-------------------------------|
//! | `shard.plan`    | cache id       | `Panic`, `DelayMs`            |
//! | `server.handle` | request opcode | `DelayMs`, `KillConnection`, `TruncateFrame`, `Fail` (→ busy-shed) |
//! | `store.append`  | shard index    | `Fail`                        |

use std::sync::Mutex;
use std::time::Duration;

/// What a matched rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this many milliseconds at the site. Executed inline by
    /// [`FaultScript::check`]; the caller sees [`FaultDirective::None`].
    DelayMs(u64),
    /// Panic at the site (message contains `"fault injected"`). Executed
    /// inline; the component's own containment (e.g. the shard's
    /// planner `catch_unwind`) is what's under test.
    Panic,
    /// Tell the caller to fail the operation (e.g. drop a journal append
    /// and trip the store fault flag, or shed the request as busy).
    Fail,
    /// Tell the caller to sever the connection without replying.
    KillConnection,
    /// Tell the caller to send a deliberately truncated frame, then
    /// sever the connection (a mid-frame kill).
    TruncateFrame,
}

/// What the caller must do after [`FaultScript::check`] returns (inline
/// actions — delays, panics — have already happened by then).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// No rule fired (or an inline action already ran): proceed normally.
    None,
    /// Fail the operation as if the underlying resource had.
    Fail,
    /// Sever the connection without replying.
    KillConnection,
    /// Write a truncated frame, then sever the connection.
    TruncateFrame,
}

#[derive(Debug)]
struct Rule {
    site: String,
    /// `None` matches every key at the site.
    key: Option<u64>,
    /// Matching hits that pass through before the rule starts firing.
    skip: u64,
    /// Firings left (`u64::MAX` = unlimited).
    remaining: u64,
    /// Matching hits seen so far (fired or not).
    seen: u64,
    /// Times this rule has fired.
    fired: u64,
    action: FaultAction,
}

/// A deterministic, shareable schedule of scripted faults. See the
/// module docs for the site table. `Send + Sync`: one script is shared
/// by every thread of the component under test.
#[derive(Debug, Default)]
pub struct FaultScript {
    rules: Mutex<Vec<Rule>>,
}

impl FaultScript {
    /// An empty script: every [`check`](FaultScript::check) is a no-op.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Adds a rule: at `site`, for hits matching `key` (`None` = any),
    /// let `skip` matching hits pass, then fire `action` on the next
    /// `times` matching hits. Rules are evaluated in insertion order;
    /// the first rule that fires on a hit wins (later rules still count
    /// the hit as seen).
    pub fn inject(
        &self,
        site: &str,
        key: Option<u64>,
        skip: u64,
        times: u64,
        action: FaultAction,
    ) -> &Self {
        self.rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Rule {
                site: site.to_string(),
                key,
                skip,
                remaining: times,
                seen: 0,
                fired: 0,
                action,
            });
        self
    }

    /// The injection point. Components call this at each site with the
    /// site's key; matched `DelayMs`/`Panic` rules act here, other
    /// actions come back as a [`FaultDirective`] for the caller.
    ///
    /// # Panics
    ///
    /// Panics exactly when a matched [`FaultAction::Panic`] rule fires —
    /// that is the scripted fault.
    pub fn check(&self, site: &str, key: u64) -> FaultDirective {
        let action = {
            let mut rules = self.rules.lock().unwrap_or_else(|e| e.into_inner());
            let mut fired = None;
            for rule in rules.iter_mut() {
                if rule.site != site || rule.key.is_some_and(|k| k != key) {
                    continue;
                }
                rule.seen += 1;
                if fired.is_none() && rule.seen > rule.skip && rule.remaining > 0 {
                    rule.remaining = rule.remaining.saturating_sub(1);
                    rule.fired += 1;
                    fired = Some(rule.action);
                }
            }
            fired
        };
        match action {
            None => FaultDirective::None,
            Some(FaultAction::DelayMs(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                FaultDirective::None
            }
            Some(FaultAction::Panic) => {
                panic!("fault injected at {site} (key {key})")
            }
            Some(FaultAction::Fail) => FaultDirective::Fail,
            Some(FaultAction::KillConnection) => FaultDirective::KillConnection,
            Some(FaultAction::TruncateFrame) => FaultDirective::TruncateFrame,
        }
    }

    /// Total firings across every rule bound to `site` — how tests assert
    /// a scripted fault actually happened.
    pub fn fired(&self, site: &str) -> u64 {
        self.rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|r| r.site == site)
            .map(|r| r.fired)
            .sum()
    }

    /// Total matching hits seen across every rule bound to `site`.
    pub fn seen(&self, site: &str) -> u64 {
        self.rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|r| r.site == site)
            .map(|r| r.seen)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_script_is_a_noop() {
        let script = FaultScript::new();
        assert_eq!(script.check("shard.plan", 7), FaultDirective::None);
        assert_eq!(script.fired("shard.plan"), 0);
    }

    #[test]
    fn rules_fire_on_exact_hit_windows() {
        let script = FaultScript::new();
        script.inject("store.append", None, 2, 1, FaultAction::Fail);
        assert_eq!(script.check("store.append", 0), FaultDirective::None);
        assert_eq!(script.check("store.append", 1), FaultDirective::None);
        assert_eq!(script.check("store.append", 2), FaultDirective::Fail);
        assert_eq!(script.check("store.append", 3), FaultDirective::None);
        assert_eq!(script.fired("store.append"), 1);
        assert_eq!(script.seen("store.append"), 4);
    }

    #[test]
    fn keys_filter_hits() {
        let script = FaultScript::new();
        script.inject(
            "shard.plan",
            Some(9),
            0,
            u64::MAX,
            FaultAction::KillConnection,
        );
        assert_eq!(script.check("shard.plan", 8), FaultDirective::None);
        assert_eq!(
            script.check("shard.plan", 9),
            FaultDirective::KillConnection
        );
        assert_eq!(script.check("other.site", 9), FaultDirective::None);
    }

    #[test]
    #[should_panic(expected = "fault injected at shard.plan")]
    fn panic_action_panics_inline() {
        let script = FaultScript::new();
        script.inject("shard.plan", None, 0, 1, FaultAction::Panic);
        script.check("shard.plan", 3);
    }

    #[test]
    fn first_matching_rule_wins_but_all_count() {
        let script = FaultScript::new();
        script.inject("server.handle", None, 0, 1, FaultAction::KillConnection);
        script.inject("server.handle", None, 0, 1, FaultAction::TruncateFrame);
        assert_eq!(
            script.check("server.handle", 0),
            FaultDirective::KillConnection
        );
        // The first rule is exhausted; the second saw the first hit too,
        // so with skip=0 it fires now.
        assert_eq!(
            script.check("server.handle", 0),
            FaultDirective::TruncateFrame
        );
        assert_eq!(script.check("server.handle", 0), FaultDirective::None);
    }
}
