//! Seeded input generation: graphs, crowds and churn event streams.
//!
//! Everything here is a pure function of the workload seed, so the
//! program under test only ever receives generated graphs and events.

use mec_graph::Graph;
use mec_netgen::NetgenSpec;
use std::sync::Arc;
use std::time::Duration;

/// splitmix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Derives an independent stream seed from the workload seed and a
/// purpose tag, so adding a consumer never shifts another's inputs.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Edge count following the density of the paper's Table I rows
/// (linear interpolation between the published sizes).
pub fn edges_for(nodes: usize) -> usize {
    const ROWS: [(usize, usize); 5] = [
        (250, 1214),
        (500, 2643),
        (1000, 4912),
        (2000, 9578),
        (5000, 40243),
    ];
    if nodes <= ROWS[0].0 {
        return nodes * ROWS[0].1 / ROWS[0].0;
    }
    for w in ROWS.windows(2) {
        let ((n0, e0), (n1, e1)) = (w[0], w[1]);
        if nodes <= n1 {
            let t = (nodes - n0) as f64 / (n1 - n0) as f64;
            return (e0 as f64 + t * (e1 - e0) as f64).round() as usize;
        }
    }
    let (n, e) = ROWS[4];
    (nodes as f64 * e as f64 / n as f64).round() as usize
}

/// A paper-shaped mobile-app graph (Table I density, netgen defaults).
pub fn app_graph(nodes: usize, seed: u64) -> Arc<Graph> {
    Arc::new(
        NetgenSpec::paper_network(nodes, edges_for(nodes))
            .seed(seed)
            .generate()
            .expect("paper-shaped specs are generable"),
    )
}

/// The Fig. 9 runtime shape: one connected component, so the spectral
/// stage faces one large compressed graph per user.
pub fn runtime_graph(nodes: usize, seed: u64) -> Arc<Graph> {
    Arc::new(
        NetgenSpec::new(nodes, edges_for(nodes))
            .components(1)
            .seed(seed)
            .generate()
            .expect("runtime specs are generable"),
    )
}

/// A churn operation, addressed by user id and graph-pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Join { user: u64, graph: usize },
    Leave { user: u64 },
    Resubmit { user: u64, graph: usize },
}

impl Op {
    pub fn user(self) -> u64 {
        match self {
            Op::Join { user, .. } | Op::Leave { user } | Op::Resubmit { user, .. } => user,
        }
    }
}

/// One open-loop event: what happens, and when it is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub due: Duration,
    pub op: Op,
}

/// The full input of a churn run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnStream {
    /// Initial crowd, `(user id, pool index)`, bulk-loaded in set-up.
    pub initial: Vec<(u64, usize)>,
    /// Events due within the run, in due order.
    pub events: Vec<Event>,
}

/// Shape of a churn stream.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    pub crowd: usize,
    pub pool: usize,
    /// Mean arrival rate, events per second.
    pub rate: f64,
    /// Every event due before this is part of the run.
    pub seconds: f64,
}

/// Draws the initial crowd and an event stream due at a fixed rate,
/// one event every `1 / shape.rate` seconds: 30% joins of new users,
/// 30% leaves and 40% resubmits of present users, each with a pool
/// graph drawn uniformly. The seed decides the mix; the schedule and
/// the count of events depend only on the shape, never on timing.
///
/// Evenly spaced arrivals keep the queueing a seed's arrival bursts
/// would add out of the tail latency, so the tail reflects the service.
pub fn churn_stream(seed: u64, shape: &ChurnShape) -> ChurnStream {
    let mut rng = Rng::new(derive(seed, 1));
    let pool = shape.pool as u64;
    let initial: Vec<(u64, usize)> = (0..shape.crowd as u64)
        .map(|u| (u, rng.below(pool) as usize))
        .collect();
    let mut present: Vec<u64> = initial.iter().map(|&(u, _)| u).collect();
    let mut next_user = shape.crowd as u64;
    let count = (shape.rate * shape.seconds).ceil() as usize;
    let mut events = Vec::with_capacity(count);
    for i in 0..count {
        let roll = rng.below(10);
        let op = if roll < 3 || present.is_empty() {
            let user = next_user;
            next_user += 1;
            present.push(user);
            Op::Join {
                user,
                graph: rng.below(pool) as usize,
            }
        } else if roll < 6 {
            let i = rng.below(present.len() as u64) as usize;
            Op::Leave {
                user: present.swap_remove(i),
            }
        } else {
            let i = rng.below(present.len() as u64) as usize;
            Op::Resubmit {
                user: present[i],
                graph: rng.below(pool) as usize,
            }
        };
        events.push(Event {
            due: Duration::from_secs_f64(i as f64 / shape.rate),
            op,
        });
    }
    ChurnStream { initial, events }
}

pub fn user_name(user: u64) -> String {
    format!("u{user}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ChurnShape {
        ChurnShape {
            crowd: 2_000,
            pool: 16,
            rate: 200.0,
            seconds: 30.0,
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = churn_stream(7, &shape());
        assert_eq!(a, churn_stream(7, &shape()));
        let b = churn_stream(8, &shape());
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn stream_runs_at_the_requested_rate() {
        let s = churn_stream(3, &shape());
        assert_eq!(s.events.len(), 6_000);
        assert_eq!(s.events[1].due, Duration::from_millis(5));
        assert!(s.events.windows(2).all(|w| w[0].due < w[1].due));
        assert!(s.events.last().unwrap().due < Duration::from_secs(30));
    }

    #[test]
    fn crowd_stays_near_its_target() {
        // the churn workload's shape: joins and leaves balance, so the
        // crowd random-walks by about sqrt(0.6 n) over n events
        let shape = ChurnShape {
            crowd: 20_000,
            pool: 64,
            rate: 150.0,
            seconds: 15.0,
        };
        for seed in 0..5 {
            let s = churn_stream(seed, &shape);
            let mut crowd = s.initial.len() as i64;
            let (mut lo, mut hi) = (crowd, crowd);
            for e in &s.events {
                match e.op {
                    Op::Join { .. } => crowd += 1,
                    Op::Leave { .. } => crowd -= 1,
                    Op::Resubmit { .. } => {}
                }
                lo = lo.min(crowd);
                hi = hi.max(crowd);
            }
            // within 1% of the target for the whole run
            assert!(
                lo >= 19_800 && hi <= 20_200,
                "seed {seed}: crowd in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn leaves_and_resubmits_address_present_users() {
        let s = churn_stream(5, &shape());
        let mut present: std::collections::BTreeSet<u64> =
            s.initial.iter().map(|&(u, _)| u).collect();
        for e in &s.events {
            match e.op {
                Op::Join { user, .. } => assert!(present.insert(user)),
                Op::Leave { user } => assert!(present.remove(&user)),
                Op::Resubmit { user, .. } => assert!(present.contains(&user)),
            }
        }
    }

    #[test]
    fn edge_counts_match_table_one() {
        assert_eq!(edges_for(250), 1214);
        assert_eq!(edges_for(1000), 4912);
        assert_eq!(edges_for(24), 116);
    }
}
