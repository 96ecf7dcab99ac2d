//! The open-loop load generator.
//!
//! Events are due on a fixed schedule, independent of how fast the
//! program serves them: an event's latency runs from its *due* time to
//! the end of its service, so a stall is charged to every event queued
//! behind it. One thread serves the events in due order.

use std::time::{Duration, Instant};

/// Time as the loop sees it, so tests can drive it on a virtual clock.
pub trait Clock {
    /// Time since the loop's origin.
    fn now(&mut self) -> Duration;
    /// Returns no earlier than `t` after the origin.
    fn wait_until(&mut self, t: Duration);
}

/// Wall-clock time since `origin`.
pub struct RealClock {
    pub origin: Instant,
}

/// Sleeping overshoots by tens of microseconds, so the last stretch
/// before a due time is spun.
const SPIN: Duration = Duration::from_micros(200);

impl Clock for RealClock {
    fn now(&mut self) -> Duration {
        self.origin.elapsed()
    }

    fn wait_until(&mut self, t: Duration) {
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// When one event was due, started and finished, on the loop's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub due: Duration,
    pub begin: Duration,
    pub end: Duration,
}

impl Slot {
    pub fn latency(&self) -> Duration {
        self.end - self.due
    }
    pub fn wait(&self) -> Duration {
        self.begin - self.due
    }
    pub fn service(&self) -> Duration {
        self.end - self.begin
    }
}

#[derive(Debug, Default)]
pub struct LoopStats {
    pub slots: Vec<Slot>,
    /// Most events that were due but not yet started when an event
    /// started (the starting event not counted).
    pub backlog_max: usize,
    /// Untimed checking time; later due times were shifted by it.
    pub paused: Duration,
}

impl LoopStats {
    pub fn busy(&self) -> Duration {
        self.slots.iter().map(Slot::service).sum()
    }
}

/// What the loop calls for each event.
pub trait Handler<C> {
    /// The timed work of event `i`, due at `due`.
    fn serve(&mut self, clock: &mut C, i: usize, due: Duration);
    /// Untimed work after event `i` (checking its outputs). Its
    /// duration shifts the schedule of every later event, so checking
    /// adds no latency to the events that follow.
    fn check(&mut self, clock: &mut C, i: usize, slot: &Slot);
}

/// Serves every event of `due` (offsets from the origin, ascending)
/// open-loop, in due order.
pub fn drive<C: Clock>(
    clock: &mut C,
    due: &[Duration],
    handler: &mut impl Handler<C>,
) -> LoopStats {
    let mut stats = LoopStats {
        slots: Vec::with_capacity(due.len()),
        ..LoopStats::default()
    };
    for i in 0..due.len() {
        let due_i = due[i] + stats.paused;
        clock.wait_until(due_i);
        let begin = clock.now();
        let queued = due[i + 1..].partition_point(|&d| d + stats.paused <= begin);
        stats.backlog_max = stats.backlog_max.max(queued);
        handler.serve(clock, i, due_i);
        let slot = Slot {
            due: due_i,
            begin,
            end: clock.now(),
        };
        stats.slots.push(slot);
        handler.check(clock, i, &slot);
        stats.paused += clock.now() - slot.end;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct Virtual(Duration);

    impl Clock for Virtual {
        fn now(&mut self) -> Duration {
            self.0
        }
        fn wait_until(&mut self, t: Duration) {
            self.0 = self.0.max(t);
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Serves each event in 2 ms, except one stall and one slow check.
    struct Stalling {
        stall_at: usize,
        stall: Duration,
        check_at: usize,
        check: Duration,
    }

    impl Handler<Virtual> for Stalling {
        fn serve(&mut self, c: &mut Virtual, i: usize, _: Duration) {
            c.0 += if i == self.stall_at {
                self.stall
            } else {
                ms(2)
            };
        }
        fn check(&mut self, c: &mut Virtual, i: usize, _: &Slot) {
            if i == self.check_at {
                c.0 += self.check;
            }
        }
    }

    fn run(stall_at: usize, stall: Duration, check_at: usize, check: Duration) -> LoopStats {
        let due: Vec<Duration> = (0..40).map(|i| ms(10 * i)).collect();
        let mut h = Stalling {
            stall_at,
            stall,
            check_at,
            check,
        };
        drive(&mut Virtual(Duration::ZERO), &due, &mut h)
    }

    #[test]
    fn unloaded_events_wait_for_nothing() {
        let s = run(usize::MAX, ms(0), usize::MAX, ms(0));
        assert_eq!(s.backlog_max, 0);
        assert!(s.slots.iter().all(|t| t.wait() == ms(0)));
        assert!(s.slots.iter().all(|t| t.latency() == ms(2)));
        assert_eq!(s.busy(), ms(80));
    }

    #[test]
    fn a_stall_is_charged_to_the_events_behind_it() {
        // event 10 (due 100 ms) stalls for 55 ms and ends at 155 ms
        let s = run(10, ms(55), usize::MAX, ms(0));
        assert_eq!(s.slots[10].latency(), ms(55));
        // event 11 was due at 110 ms, starts at 155 ms, ends at 157 ms
        assert_eq!(s.slots[11].wait(), ms(45));
        assert_eq!(s.slots[11].latency(), ms(47));
        // the queue drains 8 ms per 10 ms slot: 15 still waits, 17 not
        assert_eq!(s.slots[15].wait(), ms(13));
        assert_eq!(s.slots[16].wait(), ms(5));
        assert_eq!(s.slots[17].wait(), ms(0));
        // at 155 ms events 12..=15 were due behind event 11
        assert_eq!(s.backlog_max, 4);
        assert_eq!(s.paused, ms(0));
    }

    #[test]
    fn untimed_checks_shift_the_schedule_instead() {
        let s = run(usize::MAX, ms(0), 20, ms(30));
        assert_eq!(s.paused, ms(30));
        assert_eq!(s.backlog_max, 0);
        assert!(s.slots.iter().all(|t| t.latency() == ms(2)));
        assert_eq!(s.slots[21].due, ms(240));
    }
}
