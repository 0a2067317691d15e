//! Tenant quarantine: trim the adversarial fraction, keep the healthy
//! majority fast.
//!
//! The policy mirrors trimmed robust clustering: a tenant whose decks
//! repeatedly fail *health* checks (sentinel aborts, NaN-poisoned
//! physics, comm faults, blown deadlines) is quarantined — admissions
//! rejected with a typed retry-after — for an exponentially growing
//! window. Deck syntax errors and protocol mistakes are **not** health
//! failures: a typo must never quarantine anyone. A single healthy
//! completion resets both the failure streak and the backoff level.
//!
//! The ledger never reads a clock: callers pass `now` into
//! [`TenantLedger::admit`] and [`TenantLedger::finish`], so every window
//! and every `retry_after` is a pure function of the instants supplied.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When quarantine starts and how it backs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Consecutive health failures that trigger quarantine.
    pub threshold: u32,
    /// First quarantine window; doubles each re-quarantine.
    pub base: Duration,
    /// Ceiling on the quarantine window.
    pub cap: Duration,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            threshold: 3,
            base: Duration::from_millis(250),
            cap: Duration::from_secs(30),
        }
    }
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The tenant is quarantined; retry after this long.
    Quarantined {
        /// Time remaining in the quarantine window.
        retry_after: Duration,
    },
    /// The tenant already has its full in-flight allowance running.
    TooManyInFlight {
        /// Currently running requests for this tenant.
        in_flight: usize,
        /// The per-tenant ceiling.
        limit: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Quarantined { retry_after } => write!(
                f,
                "tenant quarantined after repeated health failures; retry in {} ms",
                retry_after.as_millis()
            ),
            AdmitError::TooManyInFlight { in_flight, limit } => write!(
                f,
                "tenant has {in_flight} requests in flight (limit {limit})"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// How a finished request bears on its tenant's health standing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Completed cleanly: resets the failure streak and backoff level.
    Healthy,
    /// Failed a health check (sentinel abort, comm fault, deadline):
    /// extends the streak and may quarantine.
    HealthFailure,
    /// Failed for a non-health reason (deck typo, protocol error):
    /// leaves the streak untouched.
    Unrelated,
}

#[derive(Debug, Default)]
struct TenantState {
    in_flight: usize,
    consecutive_failures: u32,
    quarantined_until: Option<Instant>,
    /// How many times this tenant has been quarantined without an
    /// intervening healthy run; drives the exponential window.
    quarantine_level: u32,
}

/// The per-tenant admission ledger: in-flight counts, failure streaks
/// and quarantine state, shared across server workers.
#[derive(Debug)]
pub struct TenantLedger {
    policy: QuarantinePolicy,
    max_inflight: usize,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl TenantLedger {
    /// A ledger enforcing `policy` and `max_inflight` per tenant.
    #[must_use]
    pub fn new(policy: QuarantinePolicy, max_inflight: usize) -> Self {
        TenantLedger {
            policy,
            max_inflight: max_inflight.max(1),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Try to admit one request for `tenant`; on success the tenant's
    /// in-flight count is incremented and the caller **must** pair this
    /// with exactly one [`TenantLedger::finish`].
    ///
    /// # Errors
    ///
    /// [`AdmitError::Quarantined`] while the tenant's window is open,
    /// [`AdmitError::TooManyInFlight`] at the in-flight ceiling.
    pub fn admit(&self, tenant: &str, now: Instant) -> Result<(), AdmitError> {
        let mut tenants = self.tenants.lock().expect("tenant ledger poisoned");
        let state = tenants.entry(tenant.to_string()).or_default();
        if let Some(until) = state.quarantined_until {
            if now < until {
                return Err(AdmitError::Quarantined {
                    retry_after: until - now,
                });
            }
            state.quarantined_until = None;
        }
        if state.in_flight >= self.max_inflight {
            return Err(AdmitError::TooManyInFlight {
                in_flight: state.in_flight,
                limit: self.max_inflight,
            });
        }
        state.in_flight += 1;
        Ok(())
    }

    /// Record the outcome of an admitted request, releasing its
    /// in-flight slot and updating the tenant's health standing. A
    /// quarantine this outcome triggers opens its window at `now`.
    pub fn finish(&self, tenant: &str, outcome: RunOutcome, now: Instant) {
        let mut tenants = self.tenants.lock().expect("tenant ledger poisoned");
        let state = tenants.entry(tenant.to_string()).or_default();
        state.in_flight = state.in_flight.saturating_sub(1);
        match outcome {
            RunOutcome::Healthy => {
                state.consecutive_failures = 0;
                state.quarantine_level = 0;
            }
            RunOutcome::Unrelated => {}
            RunOutcome::HealthFailure => {
                state.consecutive_failures += 1;
                if state.consecutive_failures >= self.policy.threshold {
                    let exp = state.quarantine_level.min(16);
                    let window = self
                        .policy
                        .base
                        .checked_mul(1u32 << exp.min(16))
                        .unwrap_or(self.policy.cap)
                        .min(self.policy.cap);
                    state.quarantined_until = Some(now + window);
                    state.quarantine_level += 1;
                    // The streak restarts inside quarantine: the next
                    // `threshold` failures after release re-quarantine
                    // at the doubled window.
                    state.consecutive_failures = 0;
                }
            }
        }
    }

    /// Is `tenant` quarantined at `now`?
    #[must_use]
    pub fn is_quarantined(&self, tenant: &str, now: Instant) -> bool {
        let tenants = self.tenants.lock().expect("tenant ledger poisoned");
        tenants
            .get(tenant)
            .and_then(|s| s.quarantined_until)
            .is_some_and(|until| now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_policy() -> QuarantinePolicy {
        QuarantinePolicy {
            threshold: 2,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(100),
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn health_failures_quarantine_at_the_threshold() {
        let ledger = TenantLedger::new(fast_policy(), 4);
        let t0 = Instant::now();
        ledger.admit("mallory", t0).unwrap();
        ledger.finish("mallory", RunOutcome::HealthFailure, t0);
        assert!(
            !ledger.is_quarantined("mallory", t0),
            "one failure is not a streak"
        );
        ledger.admit("mallory", t0).unwrap();
        ledger.finish("mallory", RunOutcome::HealthFailure, t0);
        assert!(ledger.is_quarantined("mallory", t0));
        let err = ledger.admit("mallory", t0).unwrap_err();
        assert!(matches!(err, AdmitError::Quarantined { .. }), "{err}");
        // The window closes exactly at its end.
        assert!(ledger.is_quarantined("mallory", t0 + ms(19)));
        assert!(!ledger.is_quarantined("mallory", t0 + ms(20)));
        // An unrelated tenant is untouched.
        ledger.admit("alice", t0).unwrap();
        ledger.finish("alice", RunOutcome::Healthy, t0);
    }

    #[test]
    fn quarantine_windows_double_and_heal_on_success() {
        let ledger = TenantLedger::new(fast_policy(), 4);
        let level = |ledger: &TenantLedger| ledger.tenants.lock().unwrap()["m"].quarantine_level;
        let trip = |ledger: &TenantLedger, now: Instant| {
            for _ in 0..2 {
                ledger.admit("m", now).unwrap();
                ledger.finish("m", RunOutcome::HealthFailure, now);
            }
        };
        let t0 = Instant::now();
        trip(&ledger, t0);
        assert_eq!(level(&ledger), 1);
        assert_eq!(
            ledger.admit("m", t0),
            Err(AdmitError::Quarantined {
                retry_after: ms(20)
            })
        );
        // Released at the window's end — and the next streak
        // quarantines with a doubled window.
        let t1 = t0 + ms(20);
        trip(&ledger, t1);
        assert_eq!(level(&ledger), 2);
        assert_eq!(
            ledger.admit("m", t1),
            Err(AdmitError::Quarantined {
                retry_after: ms(40)
            })
        );
        // Halfway through, half the window remains.
        assert_eq!(
            ledger.admit("m", t1 + ms(15)),
            Err(AdmitError::Quarantined {
                retry_after: ms(25)
            })
        );
        // Doubling stops at the cap: 80 ms, then 100 ms, not 160 ms.
        let t2 = t1 + ms(40);
        trip(&ledger, t2);
        let t3 = t2 + ms(80);
        trip(&ledger, t3);
        assert_eq!(level(&ledger), 4);
        assert_eq!(
            ledger.admit("m", t3),
            Err(AdmitError::Quarantined {
                retry_after: ms(100)
            })
        );
        // A healthy completion resets the level: the next streak gets
        // the base window again.
        let t4 = t3 + ms(100);
        ledger.admit("m", t4).unwrap();
        ledger.finish("m", RunOutcome::Healthy, t4);
        assert_eq!(level(&ledger), 0);
        trip(&ledger, t4);
        assert_eq!(level(&ledger), 1);
        assert_eq!(
            ledger.admit("m", t4),
            Err(AdmitError::Quarantined {
                retry_after: ms(20)
            })
        );
    }

    #[test]
    fn unrelated_failures_never_quarantine() {
        let ledger = TenantLedger::new(fast_policy(), 4);
        let now = Instant::now();
        for _ in 0..10 {
            ledger.admit("typo", now).unwrap();
            ledger.finish("typo", RunOutcome::Unrelated, now);
        }
        assert!(!ledger.is_quarantined("typo", now));
    }

    #[test]
    fn in_flight_ceiling_is_enforced_per_tenant() {
        let ledger = TenantLedger::new(QuarantinePolicy::default(), 2);
        let now = Instant::now();
        ledger.admit("a", now).unwrap();
        ledger.admit("a", now).unwrap();
        assert!(matches!(
            ledger.admit("a", now).unwrap_err(),
            AdmitError::TooManyInFlight {
                in_flight: 2,
                limit: 2
            }
        ));
        ledger.admit("b", now).unwrap();
        ledger.finish("a", RunOutcome::Healthy, now);
        ledger.admit("a", now).unwrap();
    }
}
