//! Admission control: when may the host open the next queued session?
//!
//! Pre-spawning every session at activation would make `k` pipelined beacon
//! epochs `k` live elections from the first delivery.  The sharded runtime
//! instead holds a queue of *pending* sessions and asks an
//! [`AdmissionPolicy`] before opening each one, so a pipelined workload
//! becomes a stream of admitted sessions whose concurrency (and therefore
//! peak memory) is a policy knob rather than a workload constant.

/// Decides when the host may open the next pending session.
///
/// The host calls [`AdmissionPolicy::admit`] whenever it has a pending
/// session and a free moment (after start-up and after every report a
/// worker sends back); a `true` return *consumes* the admission
/// (token-bucket policies debit a token).  The policy's clock
/// counts delivered messages: deliveries happen inside the workers, so the
/// host ticks it once per closed session, through
/// [`AdmissionPolicy::on_deliveries`] with that session's delivery count.
pub trait AdmissionPolicy: Send {
    /// May a new session be opened, given `active` sessions currently live?
    /// Returning `true` commits the admission.
    fn admit(&mut self, active: usize) -> bool;

    /// Advances the policy clock by one delivered message.
    fn on_delivery(&mut self) {}

    /// Advances the policy clock by `n` delivered messages at once (the
    /// host reports a whole session's deliveries when it closes).
    fn on_deliveries(&mut self, n: u64) {
        for _ in 0..n {
            self.on_delivery();
        }
    }

    /// A session closed (completed, quiesced, or exhausted its budget).
    fn on_session_closed(&mut self) {}

    /// The policy's current token balance, for policies that meter
    /// admissions (`None` for verdict-only policies) — recorded on the
    /// host's admission-decision trace events.
    fn token_state(&self) -> Option<u64> {
        None
    }
}

/// Admits every session immediately (pre-spawn).
#[derive(Debug, Clone, Default)]
pub struct Unlimited;

impl AdmissionPolicy for Unlimited {
    fn admit(&mut self, _active: usize) -> bool {
        true
    }

    fn on_deliveries(&mut self, _n: u64) {}
}

/// Caps the number of concurrently live sessions: session `j` opens once
/// fewer than `limit` sessions are live — the natural policy for pipelined
/// epochs (a sliding window over the epoch stream).
#[derive(Debug, Clone)]
pub struct MaxConcurrent(pub usize);

impl AdmissionPolicy for MaxConcurrent {
    fn admit(&mut self, active: usize) -> bool {
        active < self.0
    }

    fn on_deliveries(&mut self, _n: u64) {}
}

/// A token bucket over the delivery clock: an admission costs one token,
/// and one token is refilled every `refill_every` delivered messages (up to
/// `capacity`).  Rate-limits session churn under load: a burst of cheap
/// sessions cannot stampede the host faster than the network actually
/// drains traffic.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: u64,
    tokens: u64,
    refill_every: u64,
    clock: u64,
}

impl TokenBucket {
    /// Creates a bucket starting (and capped) at `capacity` tokens, refilled
    /// every `refill_every` deliveries.
    pub fn new(capacity: u64, refill_every: u64) -> Self {
        assert!(capacity > 0, "a zero-capacity bucket never admits anything");
        assert!(refill_every > 0, "refill interval must be positive");
        TokenBucket { capacity, tokens: capacity, refill_every, clock: 0 }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }
}

impl AdmissionPolicy for TokenBucket {
    fn admit(&mut self, _active: usize) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    fn on_delivery(&mut self) {
        self.clock += 1;
        if self.clock.is_multiple_of(self.refill_every) && self.tokens < self.capacity {
            self.tokens += 1;
        }
    }

    fn on_deliveries(&mut self, n: u64) {
        // Closed-form bulk tick (the host reports millions of deliveries
        // per close; looping would be wasteful).
        let refills = (self.clock + n) / self.refill_every - self.clock / self.refill_every;
        self.clock += n;
        self.tokens = (self.tokens + refills).min(self.capacity);
    }

    fn token_state(&self) -> Option<u64> {
        Some(self.tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_admits() {
        let mut p = Unlimited;
        assert!(p.admit(0));
        assert!(p.admit(10_000));
    }

    #[test]
    fn max_concurrent_caps_live_sessions() {
        let mut p = MaxConcurrent(2);
        assert!(p.admit(0));
        assert!(p.admit(1));
        assert!(!p.admit(2));
        p.on_session_closed();
        assert!(p.admit(1));
    }

    #[test]
    fn token_bucket_debits_and_refills_on_the_delivery_clock() {
        let mut p = TokenBucket::new(2, 10);
        assert!(p.admit(0));
        assert!(p.admit(0));
        assert!(!p.admit(0), "bucket empty");
        for _ in 0..9 {
            p.on_delivery();
            assert_eq!(p.tokens(), 0);
        }
        p.on_delivery();
        assert_eq!(p.tokens(), 1, "one token per refill interval");
        assert!(p.admit(0));
        // Refills never exceed the capacity.
        for _ in 0..100 {
            p.on_delivery();
        }
        assert_eq!(p.tokens(), 2);
    }
}
