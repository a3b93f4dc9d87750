//! An availability profile: piecewise-constant free-node counts over
//! time, supporting earliest-fit queries and reservations. This is the
//! core of conservative backfill, where *every* queued job holds a
//! reservation and a candidate may only start if it fits the profile now.

use simclock::{SimSpan, SimTime};

/// Piecewise-constant "free nodes from t onward" profile.
#[derive(Clone, Debug)]
pub struct AvailabilityProfile {
    /// Breakpoints: `(time, free_from_here)`, sorted by time; the first
    /// entry is `(now, free_now)` and the last extends to infinity.
    steps: Vec<(SimTime, u32)>,
}

impl AvailabilityProfile {
    /// A profile that is entirely free from `now`.
    pub fn new(now: SimTime, total: u32) -> Self {
        AvailabilityProfile {
            steps: vec![(now, total)],
        }
    }

    /// Subtract `nodes` from `[from, until)`. Panics (debug) if that would
    /// drive any step negative — callers must only reserve what `fits`.
    pub fn reserve(&mut self, from: SimTime, until: SimTime, nodes: u32) {
        if nodes == 0 || until <= from {
            return;
        }
        self.split_at(from);
        self.split_at(until);
        for (t, free) in &mut self.steps {
            if *t >= from && *t < until {
                debug_assert!(*free >= nodes, "profile over-reserved");
                *free = free.saturating_sub(nodes);
            }
        }
    }

    /// Earliest time ≥ `not_before` at which `nodes` are continuously free
    /// for `dur`.
    pub fn earliest_fit(&self, not_before: SimTime, nodes: u32, dur: SimSpan) -> SimTime {
        // Candidate starts are `not_before` and every later breakpoint, and
        // `steps` is already in time order.
        let later = self.steps.iter().map(|&(t, _)| t);
        std::iter::once(not_before)
            .chain(later.filter(|&t| t > not_before))
            .find(|&start| self.fits(start, nodes, dur))
            // The profile's tail is constant; if nothing fit, the tail free
            // count is < nodes forever — caller's cluster is too small.
            .unwrap_or(SimTime(u64::MAX))
    }

    /// Whether `nodes` are free on all of `[start, start + dur)`.
    pub fn fits(&self, start: SimTime, nodes: u32, dur: SimSpan) -> bool {
        let end = start + dur;
        let mut free_at_start = None;
        for &(t, free) in &self.steps {
            if t <= start {
                free_at_start = Some(free);
            } else if t < end {
                if free < nodes {
                    return false;
                }
            } else {
                break;
            }
        }
        free_at_start.map(|f| f >= nodes).unwrap_or(false)
    }

    fn split_at(&mut self, at: SimTime) {
        match self.steps.binary_search_by_key(&at, |&(t, _)| t) {
            Ok(_) => {}
            Err(idx) => {
                if idx == 0 {
                    // Before the profile start: extend backwards with the
                    // first known value.
                    let free = self.steps[0].1;
                    self.steps.insert(0, (at, free));
                } else {
                    let free = self.steps[idx - 1].1;
                    self.steps.insert(idx, (at, free));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimSpan {
        SimSpan::from_secs(s)
    }

    #[test]
    fn empty_profile_fits_immediately() {
        let p = AvailabilityProfile::new(t(10), 8);
        assert_eq!(p.earliest_fit(t(10), 8, d(100)), t(10));
        assert!(!p.fits(t(10), 9, d(1)));
    }

    #[test]
    fn reservation_blocks_overlap() {
        let mut p = AvailabilityProfile::new(t(0), 4);
        p.reserve(t(10), t(20), 3);
        // 2 nodes don't fit inside [10,20).
        assert!(!p.fits(t(12), 2, d(3)));
        assert!(p.fits(t(12), 1, d(3)));
        // After the reservation everything is free again.
        assert_eq!(p.earliest_fit(t(0), 4, d(5)), t(0)); // [0,5) before it
        assert_eq!(p.earliest_fit(t(8), 4, d(5)), t(20));
    }

    #[test]
    fn stacked_reservations() {
        let mut p = AvailabilityProfile::new(t(0), 4);
        p.reserve(t(0), t(10), 2);
        p.reserve(t(5), t(15), 2);
        // [5,10) is fully booked.
        assert!(!p.fits(t(5), 1, d(1)));
        assert_eq!(p.earliest_fit(t(0), 1, d(1)), t(0));
        assert_eq!(p.earliest_fit(t(5), 1, d(1)), t(10));
        assert_eq!(p.earliest_fit(t(5), 4, d(1)), t(15));
    }

    #[test]
    fn not_before_between_breakpoints_is_itself_a_candidate() {
        let mut p = AvailabilityProfile::new(t(0), 4);
        p.reserve(t(10), t(20), 3);
        p.reserve(t(30), t(40), 4);
        // t=23 is no breakpoint, but [23, 28) lies in the free gap.
        assert_eq!(p.earliest_fit(t(23), 4, d(5)), t(23));
        // Too long for the rest of the gap: the next breakpoint that works.
        assert_eq!(p.earliest_fit(t(23), 4, d(8)), t(40));
        // Inside a partial reservation: one node now, two at its end.
        assert_eq!(p.earliest_fit(t(12), 1, d(5)), t(12));
        assert_eq!(p.earliest_fit(t(12), 2, d(5)), t(20));
        // Before the profile starts nothing is known to be free.
        let late = AvailabilityProfile::new(t(50), 4);
        assert_eq!(late.earliest_fit(t(45), 1, d(1)), t(50));
        // More than the cluster has never fits.
        assert_eq!(p.earliest_fit(t(0), 5, d(1)), SimTime(u64::MAX));
    }

    #[test]
    fn earliest_fit_spans_breakpoints() {
        let mut p = AvailabilityProfile::new(t(0), 4);
        p.reserve(t(10), t(20), 4);
        // A 15 s job can't start at t=0 (would overlap the blackout), so it
        // starts at t=20.
        assert_eq!(p.earliest_fit(t(0), 1, d(15)), t(20));
        // A 10 s job fits exactly before.
        assert_eq!(p.earliest_fit(t(0), 1, d(10)), t(0));
    }
}
