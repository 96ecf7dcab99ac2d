//! System-wide parameters and the server allocation policy.

use crate::ModelError;
use serde::{Deserialize, Serialize};

/// How the edge server divides its capacity among users that offload.
///
/// The paper only states that `I_s^i` is "the available computing
/// resources of `u_i` assigned by `S`" and that waiting time `wt`
/// appears when resources are contended; these policies are the three
/// natural realisations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Every offloading user gets an equal share `I_S / k` (default).
    /// No explicit waiting time; contention shows up as smaller shares.
    #[default]
    EqualShare,
    /// Shares proportional to each user's remote workload: all remote
    /// phases finish together after `total_remote_work / I_S`.
    ProportionalToLoad,
    /// The server runs jobs one at a time at full capacity, in user
    /// order; later users accrue waiting time `wt_i` (formula (2)).
    ///
    /// A reference-only policy for the greedy placement: a candidate's
    /// price depends on every offloader's queue position, so pricing
    /// one is `O(users)` (a greedy pass is `O(users²)`), and delta
    /// replans always take the exact rescan instead of the convergence
    /// certificate the other two policies use.
    Fifo,
}

/// Physical constants of the MEC deployment, shared by all users —
/// the paper assumes `∀u_i: b_i = b`, `p_c^i = p_c`, `p_t^i = p_t`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemParams {
    /// Wireless bandwidth `b` between any user and the server (data
    /// units per second).
    pub bandwidth: f64,
    /// Device computing capacity `I_c` (work units per second).
    pub local_capacity: f64,
    /// Edge-server total capacity `I_S` (work units per second),
    /// shared across users.
    pub server_capacity: f64,
    /// Unit power of local computation `p_c` (energy per second).
    pub local_power: f64,
    /// Unit power of wireless transmission `p_t` (energy per second).
    /// The paper notes `p_t ≫ p_c`.
    pub tx_power: f64,
    /// Fixed control-message overhead added per cut edge, in data
    /// units (§III-B: "the amount of control messages transmission
    /// depends on the number of data transmission").
    pub control_overhead: f64,
    /// Server capacity split policy.
    pub allocation: AllocationPolicy,
}

impl Default for SystemParams {
    /// Defaults embody the paper's qualitative assumptions: the edge
    /// server is far faster than a device (that is why MEC exists),
    /// transmitting is an order of magnitude more power-hungry than
    /// computing locally (`p_t ≫ p_c`), and the radio is the scarce
    /// resource: shipping one unit of data costs a few times more than
    /// computing one unit of work locally, so only well-separated
    /// computation is worth offloading — exactly the trade-off the
    /// paper's cut algorithms compete on.
    fn default() -> Self {
        SystemParams {
            bandwidth: 20.0,
            local_capacity: 10.0,
            server_capacity: 2000.0,
            local_power: 1.0,
            tx_power: 10.0,
            control_overhead: 2.0,
            allocation: AllocationPolicy::EqualShare,
        }
    }
}

impl SystemParams {
    /// Validates that every physical constant is positive and finite
    /// (`control_overhead` may be zero).
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParams`] naming the offending field.
    pub fn validate(&self) -> Result<(), ModelError> {
        let positive = [
            (self.bandwidth, "bandwidth"),
            (self.local_capacity, "local_capacity"),
            (self.server_capacity, "server_capacity"),
            (self.local_power, "local_power"),
            (self.tx_power, "tx_power"),
        ];
        for (v, name) in positive {
            if !v.is_finite() || v <= 0.0 {
                return Err(ModelError::InvalidParams(name));
            }
        }
        if !self.control_overhead.is_finite() || self.control_overhead < 0.0 {
            return Err(ModelError::InvalidParams("control_overhead"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_paper_shaped() {
        let p = SystemParams::default();
        assert_eq!(p.validate(), Ok(()));
        assert!(p.tx_power > p.local_power, "paper: p_t >> p_c");
        assert!(
            p.server_capacity > p.local_capacity,
            "server outpowers device"
        );
    }

    #[test]
    fn validation_names_offender() {
        let p = SystemParams {
            bandwidth: 0.0,
            ..SystemParams::default()
        };
        assert_eq!(p.validate(), Err(ModelError::InvalidParams("bandwidth")));
        let q = SystemParams {
            control_overhead: -1.0,
            ..SystemParams::default()
        };
        assert_eq!(
            q.validate(),
            Err(ModelError::InvalidParams("control_overhead"))
        );
        let r = SystemParams {
            tx_power: f64::NAN,
            ..SystemParams::default()
        };
        assert_eq!(r.validate(), Err(ModelError::InvalidParams("tx_power")));
    }

    #[test]
    fn serde_round_trip() {
        let p = SystemParams::default();
        let json = serde_json::to_string(&p).unwrap();
        let back: SystemParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
