//! Fair-share accounting: per-user / per-bank consumed CPU-time with
//! exponential half-life decay — the second multi-tenant policy layer
//! (Slurm's accounting database + `PriorityDecayHalfLife`).
//!
//! The backfill simulator charges the ledger on every job end (completion
//! *or* kill: the machine time was consumed either way) with
//! `cores × occupied span`. Decay is quantized to epochs of
//! `half_life / 16`: historical usage is carried as a float and multiplied
//! down once per elapsed epoch, while charges **within** an epoch
//! accumulate in integer core-milliseconds. Integer addition commutes
//! exactly, so charges at the same virtual time produce bit-identical
//! ledger state in any order — the property the fair-share proptest pins
//! (and the reason replays of the same trace can never diverge on float
//! summation order).
//!
//! Banks are derived, not stored on jobs: user `u` belongs to bank
//! `u % banks` (see [`bank_of`]), the same convention
//! `workload::TraceConfig` uses, so the generator and the ledger agree
//! without widening the `Job` record.

use simclock::{SimSpan, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Decay epochs per half-life: usage decays by `0.5^(1/16)` per epoch.
const EPOCHS_PER_HALF_LIFE: u64 = 16;

/// The shared user→bank convention: user `u` belongs to bank `u % banks`
/// (everything in bank 0 when `banks` is 0 or 1).
pub fn bank_of(user: u32, banks: u32) -> u32 {
    if banks <= 1 {
        0
    } else {
        user % banks
    }
}

/// Decayed usage of one account: `hist` carries everything settled up to
/// `epoch` (already in decayed core-milliseconds); `cur` accumulates the
/// current epoch's charges in exact integer core-milliseconds.
#[derive(Clone, Copy, Debug, Default)]
struct Account {
    hist: f64,
    cur_cms: u64,
    epoch: u64,
}

impl Account {
    /// Decay factor for `k` elapsed epochs.
    fn decay(k: u64, per_epoch: f64) -> f64 {
        // 16 epochs per half-life: 4096 epochs = 2^-256 — gone.
        if k >= 4096 {
            0.0
        } else {
            per_epoch.powi(k as i32)
        }
    }

    /// Fold `cur` into `hist` and decay up to `epoch_now`.
    fn settle(&mut self, epoch_now: u64, per_epoch: f64) {
        if self.epoch < epoch_now {
            self.hist =
                (self.hist + self.cur_cms as f64) * Self::decay(epoch_now - self.epoch, per_epoch);
            self.cur_cms = 0;
            self.epoch = epoch_now;
        }
    }

    /// The decayed usage as of `epoch_now`, in core-seconds.
    fn read(&self, epoch_now: u64, per_epoch: f64) -> f64 {
        let raw = self.hist + self.cur_cms as f64;
        let decayed = if self.epoch < epoch_now {
            raw * Self::decay(epoch_now - self.epoch, per_epoch)
        } else {
            raw
        };
        decayed / 1000.0
    }
}

struct Ledger {
    half_life: SimSpan,
    epoch_us: u64,
    per_epoch: f64,
    banks: u32,
    users: BTreeMap<u32, Account>,
    banks_acct: BTreeMap<u32, Account>,
    total: Account,
}

impl Ledger {
    fn epoch_at(&self, now: SimTime) -> u64 {
        now.as_micros() / self.epoch_us
    }
}

/// Handle to a (possibly disabled) fair-share ledger. Clones share the
/// same accounts, in the `Recorder` / `DecisionLog` style: the default is
/// disabled and every call an inlined no-op, so fair-share-free runs are
/// bit-identical to pre-ledger behavior.
#[derive(Clone, Default)]
pub struct FairShareLedger(Option<Rc<RefCell<Ledger>>>);

impl std::fmt::Debug for FairShareLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("FairShareLedger(disabled)"),
            Some(l) => {
                let l = l.borrow();
                write!(
                    f,
                    "FairShareLedger(half-life {:?}, {} users, {} banks)",
                    l.half_life,
                    l.users.len(),
                    l.banks
                )
            }
        }
    }
}

impl FairShareLedger {
    /// The no-op ledger.
    pub fn disabled() -> Self {
        FairShareLedger(None)
    }

    /// A ledger decaying with `half_life`, spreading users over `banks`
    /// banks (`u % banks`; 0 or 1 = a single bank).
    pub fn new(half_life: SimSpan, banks: u32) -> Self {
        let epoch_us = (half_life.as_micros() / EPOCHS_PER_HALF_LIFE).max(1);
        FairShareLedger(Some(Rc::new(RefCell::new(Ledger {
            half_life,
            epoch_us,
            per_epoch: 0.5f64.powf(epoch_us as f64 / half_life.as_micros().max(1) as f64),
            banks,
            users: BTreeMap::new(),
            banks_acct: BTreeMap::new(),
            total: Account::default(),
        }))))
    }

    /// Whether charges are recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The configured decay half-life.
    pub fn half_life(&self) -> Option<SimSpan> {
        self.0.as_ref().map(|l| l.borrow().half_life)
    }

    /// The bank `user` belongs to under this ledger's convention.
    pub fn bank_of(&self, user: u32) -> u32 {
        match &self.0 {
            Some(l) => bank_of(user, l.borrow().banks),
            None => 0,
        }
    }

    /// Charge `cores × busy` to `user` (and its bank) as of `now`.
    pub fn charge(&self, user: u32, cores: u64, busy: SimSpan, now: SimTime) {
        let Some(l) = &self.0 else { return };
        let mut guard = l.borrow_mut();
        let l = &mut *guard;
        let epoch = now.as_micros() / l.epoch_us;
        let per_epoch = l.per_epoch;
        let cms = cores * (busy.as_micros() / 1000);
        let bank = bank_of(user, l.banks);
        for acct in [
            l.users.entry(user).or_default(),
            l.banks_acct.entry(bank).or_default(),
            &mut l.total,
        ] {
            acct.settle(epoch, per_epoch);
            acct.cur_cms += cms;
        }
    }

    /// Decayed usage of `user` as of `now`, core-seconds.
    pub fn usage(&self, user: u32, now: SimTime) -> f64 {
        self.read_from(|l| l.users.get(&user).copied(), now)
    }

    /// Decayed usage of `bank` as of `now`, core-seconds.
    pub fn bank_usage(&self, bank: u32, now: SimTime) -> f64 {
        self.read_from(|l| l.banks_acct.get(&bank).copied(), now)
    }

    /// Decayed cluster-wide usage as of `now`, core-seconds.
    pub fn total_usage(&self, now: SimTime) -> f64 {
        self.read_from(|l| Some(l.total), now)
    }

    /// Users that have ever been charged.
    pub fn active_users(&self) -> usize {
        self.0.as_ref().map_or(0, |l| l.borrow().users.len())
    }

    /// The fair-share priority factor for `user` as of `now`, in `(0, 1]`.
    ///
    /// Slurm's classic formula `2^(-normalized usage / share)` with equal
    /// shares: a user consuming exactly their `1/n_users` share of the
    /// (decayed) total scores `2^-1 = 0.5`; an idle user scores 1. The
    /// user's bank contributes half the exponent, so heavy banks drag all
    /// their members down.
    pub fn factor(&self, user: u32, now: SimTime) -> f64 {
        let Some(l) = &self.0 else { return 1.0 };
        let l = l.borrow();
        let epoch = l.epoch_at(now);
        let total = l.total.read(epoch, l.per_epoch);
        if total <= 0.0 {
            return 1.0;
        }
        let users = l.users.len().max(1) as f64;
        let banks = l.banks_acct.len().max(1) as f64;
        let u = l
            .users
            .get(&user)
            .map_or(0.0, |a| a.read(epoch, l.per_epoch))
            / total;
        let b = l
            .banks_acct
            .get(&bank_of(user, l.banks))
            .map_or(0.0, |a| a.read(epoch, l.per_epoch))
            / total;
        // Usage relative to an equal share, mixed user:bank = 1:1.
        let norm = (u * users + b * banks) / 2.0;
        (-norm).exp2()
    }

    fn read_from(&self, get: impl Fn(&Ledger) -> Option<Account>, now: SimTime) -> f64 {
        let Some(l) = &self.0 else { return 0.0 };
        let l = l.borrow();
        let epoch = l.epoch_at(now);
        get(&l).map_or(0.0, |a| a.read(epoch, l.per_epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ledger_is_inert() {
        let fs = FairShareLedger::disabled();
        fs.charge(1, 8, SimSpan::from_secs(100), SimTime::from_secs(1));
        assert!(!fs.enabled());
        assert_eq!(fs.usage(1, SimTime::from_secs(2)), 0.0);
        assert_eq!(fs.factor(1, SimTime::from_secs(2)), 1.0);
    }

    #[test]
    fn charges_accumulate_in_core_seconds() {
        let fs = FairShareLedger::new(SimSpan::from_hours(24), 4);
        fs.charge(5, 4, SimSpan::from_secs(100), SimTime::from_secs(10));
        let u = fs.usage(5, SimTime::from_secs(10));
        assert!((u - 400.0).abs() < 1e-9, "{u}");
        // user 5 of 4 banks -> bank 1.
        assert_eq!(fs.bank_of(5), 1);
        assert!((fs.bank_usage(1, SimTime::from_secs(10)) - 400.0).abs() < 1e-9);
        assert_eq!(fs.active_users(), 1);
    }

    #[test]
    fn usage_halves_per_half_life() {
        let hl = SimSpan::from_hours(1);
        let fs = FairShareLedger::new(hl, 1);
        fs.charge(1, 1, SimSpan::from_secs(1000), SimTime::ZERO);
        let later = SimTime::ZERO + hl * 2;
        let u = fs.usage(1, later);
        // Two half-lives: 1000 / 4, within epoch-quantization slop.
        assert!((u - 250.0).abs() < 5.0, "{u}");
    }

    #[test]
    fn same_epoch_charges_commute_bitwise() {
        let now = SimTime::from_secs(777);
        let charges = [(1u32, 3u64, 1234u64), (2, 7, 999), (1, 1, 55_555)];
        let run = |order: &[usize]| {
            let fs = FairShareLedger::new(SimSpan::from_hours(6), 2);
            for &i in order {
                let (u, c, s) = charges[i];
                fs.charge(u, c, SimSpan::from_millis(s), now);
            }
            let at = now + SimSpan::from_hours(3);
            (
                fs.usage(1, at).to_bits(),
                fs.usage(2, at).to_bits(),
                fs.factor(1, at).to_bits(),
                fs.total_usage(at).to_bits(),
            )
        };
        assert_eq!(run(&[0, 1, 2]), run(&[2, 1, 0]));
        assert_eq!(run(&[0, 1, 2]), run(&[1, 2, 0]));
    }

    #[test]
    fn heavy_users_score_below_idle_users() {
        let fs = FairShareLedger::new(SimSpan::from_hours(24), 1);
        let now = SimTime::from_secs(100);
        fs.charge(1, 64, SimSpan::from_hours(10), now);
        fs.charge(2, 1, SimSpan::from_secs(10), now);
        let f1 = fs.factor(1, now);
        let f2 = fs.factor(2, now);
        let f3 = fs.factor(3, now); // never charged
        assert!(f1 < f2, "{f1} vs {f2}");
        assert!(f2 < f3, "{f2} vs {f3}");
        assert!(f1 > 0.0 && f3 <= 1.0);
    }

    #[test]
    fn bank_mapping_is_shared_convention() {
        assert_eq!(bank_of(7, 0), 0);
        assert_eq!(bank_of(7, 1), 0);
        assert_eq!(bank_of(7, 4), 3);
    }
}
