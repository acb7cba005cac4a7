//! # dresar-faults
//!
//! Deterministic fault injection and runtime robustness machinery for the
//! dresar simulators.
//!
//! The paper's central safety argument is that a switch directory is only a
//! *hint cache*: any entry may be evicted or lost at any time, and
//! correctness is always recoverable from the home full-map directory. This
//! crate exists to test that claim adversarially:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic fault schedule. Every
//!   decision is a pure function of the plan's seed plus stable simulation
//!   identifiers (message id, retry attempt, scrub epoch, switch index), so
//!   the same seed produces a byte-identical fault schedule regardless of
//!   host, build, or wall clock. Plans are parsed from a compact
//!   `key=value,key=value` spec string (the `--faults` CLI flag).
//! * [`FaultSession`] — the per-run mutable state (counters, scrub clock,
//!   one-shot latches) a simulator drives from its event loop.
//! * [`Watchdog`] — a cycle-driven monitor that turns livelock, stuck
//!   messages and quiescence failures into a structured [`WatchdogReport`]
//!   (with per-MSHR message lineage) instead of a hang or a panic.
//! * [`SimError`] — the typed, recoverable simulation error surfaced
//!   through `ExecutionReport` by the audited hot paths; true invariant
//!   violations stay `debug_assert!`s at the call sites.
//!
//! The crate deliberately depends only on `dresar-types`: every simulator
//! layer (interconnect, directory, core) can consume these types without
//! dependency cycles.

#![warn(missing_docs)]

use dresar_types::kvspec;
use dresar_types::msg::MsgType;
use dresar_types::{BlockAddr, Cycle, JsonValue, NodeId, SmallRng, ToJson};

/// Upper bound on the exponential-backoff shift so `base << attempt` cannot
/// overflow or schedule absurdly far into the future.
const MAX_BACKOFF_SHIFT: u32 = 16;

/// Mixes the plan seed with stable identifiers into one decision word.
///
/// This is the determinism keystone: every injected fault is derived from
/// `(seed, a, b)` through the same splitmix64 finalizer as
/// [`dresar_types::SmallRng`], never from iteration order or host state.
fn decision_word(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(
        seed ^ a.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(43),
    );
    rng.next_u64()
}

/// A deterministic, seeded fault schedule.
///
/// All-zero fields (the [`Default`]) inject nothing: a `FaultPlan::default()`
/// run is behaviorally identical to a fault-free run. The plan is `Copy` so
/// it can ride inside the simulators' `RunOptions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision. Same seed ⇒ same schedule.
    pub seed: u64,
    /// Per-launch message drop probability in parts per million (0 = never).
    /// A dropped message is NACK'd by the link and retried with exponential
    /// backoff up to [`FaultPlan::max_retries`] times.
    pub drop_ppm: u32,
    /// Bounded retransmission budget per message; beyond it the message is
    /// permanently lost (the watchdog's problem).
    pub max_retries: u32,
    /// Base retransmission delay in cycles; attempt `n` waits
    /// `backoff_base << n` cycles.
    pub backoff_base: u32,
    /// Period in cycles of the ECC scrub pulse that invalidates one
    /// pseudo-randomly chosen MODIFIED switch-directory entry per switch
    /// (0 = off). TRANSIENT entries are never scrubbed: they pin in-flight
    /// protocol state, and real scrub engines skip busy lines the same way.
    pub scrub_period: u64,
    /// Cycle at which a forced eviction storm hits every switch directory
    /// (0 = off).
    pub storm_at: Cycle,
    /// MODIFIED entries evicted per switch by the storm.
    pub storm_evictions: u32,
    /// Cycle at which every switch directory is disabled — degraded mode,
    /// all traffic falls back to the home-directory path (0 = off).
    pub disable_at: Cycle,
    /// Cycle at which disabled switch directories are re-enabled (0 =
    /// never re-enable).
    pub enable_at: Cycle,
    /// Permanently lose the [`FaultPlan::lose_nth`] launched message of this
    /// kind (no retry, no NACK — models an undetected drop).
    pub lose_kind: Option<MsgType>,
    /// 1-based ordinal of the `lose_kind` message to lose.
    pub lose_nth: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_ppm: 0,
            max_retries: 8,
            backoff_base: 16,
            scrub_period: 0,
            storm_at: 0,
            storm_evictions: 16,
            disable_at: 0,
            enable_at: 0,
            lose_kind: None,
            lose_nth: 1,
        }
    }
}

impl FaultPlan {
    /// Parses a `key=value,key=value` spec string (the `--faults` flag).
    ///
    /// Keys: `seed`, `drop_ppm`, `max_retries`, `backoff`, `scrub_period`,
    /// `storm_at`, `storm_evictions`, `disable_at`, `enable_at`,
    /// `lose_kind` (a message-type name such as `WriteReply`), `lose_nth`.
    /// Unset keys keep their defaults.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in kvspec::items("fault spec", spec) {
            let item = item?;
            match item.key {
                "seed" => plan.seed = item.num()?,
                "drop_ppm" => plan.drop_ppm = item.num()? as u32,
                "max_retries" => plan.max_retries = item.num()? as u32,
                "backoff" => plan.backoff_base = item.num()? as u32,
                "scrub_period" => plan.scrub_period = item.num()?,
                "storm_at" => plan.storm_at = item.num()?,
                "storm_evictions" => plan.storm_evictions = item.num()? as u32,
                "disable_at" => plan.disable_at = item.num()?,
                "enable_at" => plan.enable_at = item.num()?,
                "lose_nth" => plan.lose_nth = item.num()?.max(1) as u32,
                "lose_kind" => {
                    plan.lose_kind = Some(MsgType::parse(item.value).ok_or_else(|| {
                        format!("fault spec lose_kind='{}': unknown message type", item.value)
                    })?)
                }
                _ => return Err(item.unknown_key()),
            }
        }
        Ok(plan)
    }

    /// Whether this plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0
            || self.scrub_period > 0
            || self.storm_at > 0
            || self.disable_at > 0
            || self.lose_kind.is_some()
    }

    /// Pure drop decision for launching message `msg_id` on attempt
    /// `attempt` (0 = first launch). Deterministic in `(seed, msg_id,
    /// attempt)`.
    pub fn should_drop(&self, msg_id: u64, attempt: u32) -> bool {
        if self.drop_ppm == 0 {
            return false;
        }
        let w = decision_word(self.seed, msg_id, 0x6472_6f70 ^ u64::from(attempt) << 32);
        (w % 1_000_000) < u64::from(self.drop_ppm)
    }

    /// Retransmission delay before attempt `attempt + 1`.
    pub fn backoff(&self, attempt: u32) -> Cycle {
        u64::from(self.backoff_base.max(1)) << attempt.min(MAX_BACKOFF_SHIFT)
    }

    /// Decision word for scrub epoch `epoch` at switch `switch_linear`;
    /// the switch directory uses it to pick the victim entry.
    pub fn scrub_nonce(&self, epoch: u64, switch_linear: u64) -> u64 {
        decision_word(self.seed, 0x7363_7275_6200 ^ epoch, switch_linear)
    }
}

/// Counters describing what a [`FaultSession`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by a link (each followed by a NACK + retry).
    pub dropped: u64,
    /// Retransmissions scheduled after a drop.
    pub retransmissions: u64,
    /// Messages permanently lost (retry budget exhausted, or `lose_kind`).
    pub lost: u64,
    /// MODIFIED switch-directory entries invalidated by ECC scrub pulses.
    pub scrubbed: u64,
    /// MODIFIED switch-directory entries evicted by forced storms.
    pub storm_evicted: u64,
    /// Switch-directory disable transitions (entering degraded mode).
    pub sd_disables: u64,
    /// Switch-directory re-enable transitions.
    pub sd_enables: u64,
}

impl ToJson for FaultStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("dropped", self.dropped)
            .field("retransmissions", self.retransmissions)
            .field("lost", self.lost)
            .field("scrubbed", self.scrubbed)
            .field("storm_evicted", self.storm_evicted)
            .field("sd_disables", self.sd_disables)
            .field("sd_enables", self.sd_enables)
            .build()
    }
}

/// What a link decided about one message launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchVerdict {
    /// Deliver normally.
    Deliver,
    /// Drop; the sender's network interface retries after the given
    /// backoff delay (attempt number already incremented by the caller).
    DropRetry {
        /// Cycles to wait before the retransmission.
        backoff: Cycle,
    },
    /// Drop permanently: retry budget exhausted or targeted loss.
    Lost,
}

/// Per-run fault-injection state: the plan plus its mutable clocks and
/// one-shot latches. Owned by the simulator; every method is cheap and
/// deterministic.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    /// What was actually injected.
    pub stats: FaultStats,
    kind_seen: u64,
    next_scrub: Cycle,
    scrub_epoch: u64,
    storm_fired: bool,
    disable_fired: bool,
    enable_fired: bool,
    sd_disabled: bool,
}

impl FaultSession {
    /// Starts a session for one run of `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultSession {
            plan,
            stats: FaultStats::default(),
            kind_seen: 0,
            next_scrub: if plan.scrub_period > 0 { plan.scrub_period } else { 0 },
            scrub_epoch: 0,
            storm_fired: false,
            disable_fired: false,
            enable_fired: false,
            sd_disabled: false,
        }
    }

    /// The plan this session executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether switch directories are currently in degraded (disabled)
    /// mode.
    pub fn sd_disabled(&self) -> bool {
        self.sd_disabled
    }

    /// Judges one message launch. `attempt` is 0 for the first launch of a
    /// message id and increments per retransmission; the targeted
    /// `lose_kind` counter only advances on first launches so retries do
    /// not double-count.
    pub fn on_launch(&mut self, msg_id: u64, kind: MsgType, attempt: u32) -> LaunchVerdict {
        if attempt == 0 && self.plan.lose_kind == Some(kind) {
            self.kind_seen += 1;
            if self.kind_seen == u64::from(self.plan.lose_nth.max(1)) {
                self.stats.lost += 1;
                return LaunchVerdict::Lost;
            }
        }
        if !self.plan.should_drop(msg_id, attempt) {
            return LaunchVerdict::Deliver;
        }
        self.stats.dropped += 1;
        if attempt >= self.plan.max_retries {
            self.stats.lost += 1;
            return LaunchVerdict::Lost;
        }
        self.stats.retransmissions += 1;
        LaunchVerdict::DropRetry { backoff: self.plan.backoff(attempt) }
    }

    /// Returns the scrub nonce for each due scrub epoch at time `now`
    /// (usually zero or one; more after a long event gap). The simulator
    /// applies one scrub per switch per returned nonce.
    pub fn due_scrubs(&mut self, now: Cycle) -> Vec<u64> {
        let mut nonces = Vec::new();
        if self.plan.scrub_period == 0 {
            return nonces;
        }
        while self.next_scrub <= now {
            nonces.push(self.scrub_epoch);
            self.scrub_epoch += 1;
            self.next_scrub += self.plan.scrub_period;
        }
        nonces
    }

    /// Nonce for scrub epoch `epoch` at switch `switch_linear`.
    pub fn scrub_nonce(&self, epoch: u64, switch_linear: u64) -> u64 {
        self.plan.scrub_nonce(epoch, switch_linear)
    }

    /// Whether the forced eviction storm fires now (one-shot latch).
    pub fn storm_due(&mut self, now: Cycle) -> Option<u32> {
        if self.plan.storm_at > 0 && !self.storm_fired && now >= self.plan.storm_at {
            self.storm_fired = true;
            return Some(self.plan.storm_evictions);
        }
        None
    }

    /// Whether the whole-switch SD disable fires now (one-shot latch).
    pub fn disable_due(&mut self, now: Cycle) -> bool {
        if self.plan.disable_at > 0 && !self.disable_fired && now >= self.plan.disable_at {
            self.disable_fired = true;
            self.sd_disabled = true;
            return true;
        }
        false
    }

    /// Whether the SD re-enable fires now (one-shot latch; only after a
    /// disable actually happened).
    pub fn enable_due(&mut self, now: Cycle) -> bool {
        if self.plan.enable_at > 0
            && self.disable_fired
            && !self.enable_fired
            && now >= self.plan.enable_at
        {
            self.enable_fired = true;
            self.sd_disabled = false;
            return true;
        }
        false
    }
}

/// A typed, recoverable simulation error. Hot paths that used to `panic!`
/// or `unwrap()` on conditions a fault can legitimately produce now return
/// or record one of these; the run completes and the errors surface in
/// `ExecutionReport::sim_errors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A route could not be constructed between two endpoints.
    Route {
        /// The route-builder that failed.
        context: &'static str,
        /// Human-readable specifics.
        detail: String,
    },
    /// The flit network refused or mishandled a message.
    Network {
        /// The network operation that failed.
        context: &'static str,
        /// Human-readable specifics.
        detail: String,
    },
    /// A coherence component received a message it has no transition for.
    Protocol {
        /// The component that received it.
        context: &'static str,
        /// Human-readable specifics.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Route { context, detail } => write!(f, "route/{context}: {detail}"),
            SimError::Network { context, detail } => write!(f, "network/{context}: {detail}"),
            SimError::Protocol { context, detail } => write!(f, "protocol/{context}: {detail}"),
        }
    }
}

impl ToJson for SimError {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

/// Watchdog configuration. `Copy` so it can ride in `RunOptions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles without forward progress (a completed fill, a retired write,
    /// an executed reference) before the run is declared livelocked.
    pub progress_budget: Cycle,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Generous: the longest legitimate progress gap in the paper
        // configurations is a NAK-retry round trip (hundreds of cycles).
        WatchdogConfig { progress_budget: 100_000 }
    }
}

/// Why the watchdog tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogKind {
    /// Events kept flowing but nothing made forward progress for longer
    /// than the budget (e.g. a NAK-retry storm around a lost message).
    Livelock,
    /// The event queue drained but some node still holds unfinished
    /// transactions (e.g. a reply that was permanently lost).
    QuiescenceFailure,
    /// The run exceeded its absolute `max_cycles` budget.
    BudgetExceeded,
}

impl WatchdogKind {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            WatchdogKind::Livelock => "livelock",
            WatchdogKind::QuiescenceFailure => "quiescence_failure",
            WatchdogKind::BudgetExceeded => "budget_exceeded",
        }
    }
}

/// One stuck transaction in a watchdog report: the message lineage of an
/// MSHR that never completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckMsg {
    /// Node holding the MSHR.
    pub node: NodeId,
    /// Block the transaction targets.
    pub block: BlockAddr,
    /// Transaction kind label (`read` / `write`).
    pub kind: &'static str,
    /// Transaction id of the stuck miss (the `txn` every message on its
    /// behalf carries), cross-referencing the causal trees in traces and
    /// flight-recorder dumps. Zero for untracked transactions.
    pub txn: u64,
    /// Cycle the transaction was first issued.
    pub issued_at: Cycle,
    /// Whether a retry event was still pending when the run ended.
    pub retry_pending: bool,
}

impl ToJson for StuckMsg {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("node", u64::from(self.node))
            .field("block", self.block.0)
            .field("kind", self.kind)
            .field("txn", self.txn)
            .field("issued_at", self.issued_at)
            .field("retry_pending", self.retry_pending)
            .build()
    }
}

/// The watchdog's structured verdict: what went wrong, when, and which
/// transactions were stuck.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogReport {
    /// Failure class.
    pub kind: WatchdogKind,
    /// Cycle the watchdog tripped.
    pub at: Cycle,
    /// Last cycle that made forward progress.
    pub last_progress: Cycle,
    /// Stuck-transaction lineage, one entry per unfinished MSHR.
    pub lineage: Vec<StuckMsg>,
    /// Free-form context (lost messages, budget values).
    pub detail: String,
}

impl ToJson for WatchdogReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("kind", self.kind.label())
            .field("at", self.at)
            .field("last_progress", self.last_progress)
            .field("lineage", self.lineage.clone())
            .field("detail", self.detail.as_str())
            .build()
    }
}

/// Cycle-driven progress monitor. The simulator calls [`Watchdog::progress`]
/// at every forward-progress point and [`Watchdog::check_livelock`] from its
/// event loop; on a trip the simulator stops the run and attaches the
/// report to its `ExecutionReport` instead of hanging or panicking.
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    last_progress: Cycle,
    report: Option<WatchdogReport>,
}

impl Watchdog {
    /// Creates a watchdog with the given budget.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog { cfg, last_progress: 0, report: None }
    }

    /// Marks forward progress at cycle `t`.
    #[inline]
    pub fn progress(&mut self, t: Cycle) {
        if t > self.last_progress {
            self.last_progress = t;
        }
    }

    /// Whether the watchdog already tripped.
    pub fn tripped(&self) -> bool {
        self.report.is_some()
    }

    /// Checks the progress budget at cycle `t`; returns true exactly once,
    /// when the budget is first exceeded. The caller then assembles the
    /// lineage and calls [`Watchdog::trip`].
    #[inline]
    pub fn check_livelock(&self, t: Cycle) -> bool {
        self.report.is_none() && t.saturating_sub(self.last_progress) > self.cfg.progress_budget
    }

    /// Records the verdict. The first trip wins; later calls are ignored.
    pub fn trip(&mut self, kind: WatchdogKind, at: Cycle, lineage: Vec<StuckMsg>, detail: String) {
        if self.report.is_none() {
            self.report = Some(WatchdogReport {
                kind,
                at,
                last_progress: self.last_progress,
                lineage,
                detail,
            });
        }
    }

    /// The report, if the watchdog tripped.
    pub fn report(&self) -> Option<&WatchdogReport> {
        self.report.as_ref()
    }

    /// Consumes the watchdog, yielding the report if it tripped.
    pub fn into_report(self) -> Option<WatchdogReport> {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut s = FaultSession::new(plan);
        for id in 0..1000 {
            assert_eq!(s.on_launch(id, MsgType::ReadRequest, 0), LaunchVerdict::Deliver);
        }
        assert!(s.due_scrubs(1_000_000).is_empty());
        assert_eq!(s.storm_due(1_000_000), None);
        assert!(!s.disable_due(1_000_000));
        assert_eq!(s.stats, FaultStats::default());
    }

    #[test]
    fn drop_decisions_are_deterministic_and_ppm_scaled() {
        let plan = FaultPlan { seed: 42, drop_ppm: 100_000, ..FaultPlan::default() };
        let a: Vec<bool> = (0..10_000).map(|id| plan.should_drop(id, 0)).collect();
        let b: Vec<bool> = (0..10_000).map(|id| plan.should_drop(id, 0)).collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&d| d).count();
        // 10% +- 1.5% over 10k trials.
        assert!((850..=1150).contains(&hits), "hits = {hits}");
        // Different attempts decide independently.
        assert!((0..10_000u64).any(|id| plan.should_drop(id, 0) != plan.should_drop(id, 1)));
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let plan = FaultPlan { backoff_base: 8, ..FaultPlan::default() };
        assert_eq!(plan.backoff(0), 8);
        assert_eq!(plan.backoff(1), 16);
        assert_eq!(plan.backoff(3), 64);
        assert_eq!(plan.backoff(200), 8 << MAX_BACKOFF_SHIFT);
    }

    #[test]
    fn bounded_retry_then_lost() {
        let plan =
            FaultPlan { seed: 7, drop_ppm: 1_000_000, max_retries: 3, ..FaultPlan::default() };
        let mut s = FaultSession::new(plan);
        for attempt in 0..3 {
            assert!(matches!(
                s.on_launch(5, MsgType::ReadReply, attempt),
                LaunchVerdict::DropRetry { .. }
            ));
        }
        assert_eq!(s.on_launch(5, MsgType::ReadReply, 3), LaunchVerdict::Lost);
        assert_eq!(s.stats.dropped, 4);
        assert_eq!(s.stats.retransmissions, 3);
        assert_eq!(s.stats.lost, 1);
    }

    #[test]
    fn targeted_loss_hits_the_nth_launch_only() {
        let plan =
            FaultPlan { lose_kind: Some(MsgType::WriteReply), lose_nth: 2, ..FaultPlan::default() };
        let mut s = FaultSession::new(plan);
        assert_eq!(s.on_launch(1, MsgType::WriteReply, 0), LaunchVerdict::Deliver);
        assert_eq!(s.on_launch(2, MsgType::ReadReply, 0), LaunchVerdict::Deliver);
        assert_eq!(s.on_launch(3, MsgType::WriteReply, 0), LaunchVerdict::Lost);
        assert_eq!(s.on_launch(4, MsgType::WriteReply, 0), LaunchVerdict::Deliver);
        // Retries of an already-counted message do not advance the ordinal.
        assert_eq!(s.on_launch(4, MsgType::WriteReply, 1), LaunchVerdict::Deliver);
        assert_eq!(s.stats.lost, 1);
    }

    #[test]
    fn scrub_clock_ticks_per_period() {
        let plan = FaultPlan { scrub_period: 100, ..FaultPlan::default() };
        let mut s = FaultSession::new(plan);
        assert!(s.due_scrubs(99).is_empty());
        assert_eq!(s.due_scrubs(100), vec![0]);
        assert!(s.due_scrubs(150).is_empty());
        assert_eq!(s.due_scrubs(450), vec![1, 2, 3]);
        // Nonces are deterministic per (epoch, switch).
        assert_eq!(s.scrub_nonce(2, 5), s.scrub_nonce(2, 5));
        assert_ne!(s.scrub_nonce(2, 5), s.scrub_nonce(2, 6));
    }

    #[test]
    fn disable_enable_latches_fire_once_in_order() {
        let plan = FaultPlan { disable_at: 100, enable_at: 200, ..FaultPlan::default() };
        let mut s = FaultSession::new(plan);
        assert!(!s.enable_due(150)); // never before the disable
        assert!(!s.disable_due(99));
        assert!(s.disable_due(100));
        assert!(s.sd_disabled());
        assert!(!s.disable_due(101)); // one-shot
        assert!(!s.enable_due(199));
        assert!(s.enable_due(200));
        assert!(!s.sd_disabled());
        assert!(!s.enable_due(201)); // one-shot
    }

    #[test]
    fn spec_parser_round_trips_and_rejects_junk() {
        let plan = FaultPlan::parse(
            "seed=42, drop_ppm=500, max_retries=6, backoff=8, scrub_period=4096, \
             storm_at=10000, storm_evictions=32, disable_at=20000, enable_at=40000, \
             lose_kind=WriteReply, lose_nth=3",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop_ppm, 500);
        assert_eq!(plan.max_retries, 6);
        assert_eq!(plan.backoff_base, 8);
        assert_eq!(plan.scrub_period, 4096);
        assert_eq!(plan.storm_at, 10_000);
        assert_eq!(plan.storm_evictions, 32);
        assert_eq!(plan.disable_at, 20_000);
        assert_eq!(plan.enable_at, 40_000);
        assert_eq!(plan.lose_kind, Some(MsgType::WriteReply));
        assert_eq!(plan.lose_nth, 3);
        assert_eq!(FaultPlan::parse(""), Ok(FaultPlan::default()));
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("lose_kind=NotAMessage").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
    }

    #[test]
    fn watchdog_trips_once_past_budget() {
        let mut w = Watchdog::new(WatchdogConfig { progress_budget: 100 });
        w.progress(50);
        assert!(!w.check_livelock(150));
        assert!(w.check_livelock(151));
        w.trip(WatchdogKind::Livelock, 151, Vec::new(), "test".into());
        assert!(w.tripped());
        assert!(!w.check_livelock(10_000)); // already tripped
        w.trip(WatchdogKind::BudgetExceeded, 200, Vec::new(), "late".into());
        assert_eq!(w.report().unwrap().kind, WatchdogKind::Livelock); // first trip wins
        assert_eq!(w.report().unwrap().last_progress, 50);
    }

    #[test]
    fn report_json_is_deterministic() {
        let mut w = Watchdog::new(WatchdogConfig::default());
        w.trip(
            WatchdogKind::QuiescenceFailure,
            1234,
            vec![StuckMsg {
                node: 3,
                block: BlockAddr(0x40),
                kind: "write",
                txn: 77,
                issued_at: 1000,
                retry_pending: false,
            }],
            "lost WriteReply".into(),
        );
        let a = w.report().unwrap().to_json().dump();
        let b = w.report().unwrap().to_json().dump();
        assert_eq!(a, b);
        assert!(a.contains("quiescence_failure"));
        assert!(a.contains("lost WriteReply"));
        assert!(a.contains("\"txn\":77"), "lineage carries the transaction id: {a}");
    }
}
