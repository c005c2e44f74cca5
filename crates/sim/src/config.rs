//! Simulation configuration.

use crate::fault::FaultPlan;
use crate::traffic::{TrafficError, TrafficPattern};
use serde::{Deserialize, Serialize};

/// Buffering discipline of the 2×2 cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferMode {
    /// Patel's unbuffered model: when two packets request the same out-port
    /// in the same cycle one of them (chosen uniformly) is dropped.
    Unbuffered,
    /// Per-input FIFOs of the given depth with backpressure: a packet that
    /// cannot advance stays in its queue; injection fails when the
    /// first-stage queue is full.
    Fifo(usize),
    /// Multi-lane virtual-channel wormhole switching: each packet is split
    /// into `flits_per_packet` flits, every cell owns `lanes` lanes of
    /// `lane_depth` flits each, a worm's head flit allocates one lane per
    /// cell it traverses, and a blocked worm holds its lanes across stages
    /// until the tail flit drains through.
    Wormhole {
        /// Virtual-channel lanes per cell.
        lanes: usize,
        /// Flit capacity of each lane.
        lane_depth: usize,
        /// Number of flits every packet is split into.
        flits_per_packet: usize,
    },
}

impl BufferMode {
    /// Short stable label for tables and report identifiers.
    pub fn label(&self) -> String {
        match self {
            BufferMode::Unbuffered => "unbuffered".to_string(),
            BufferMode::Fifo(depth) => format!("fifo({depth})"),
            BufferMode::Wormhole {
                lanes,
                lane_depth,
                flits_per_packet,
            } => format!("worm({lanes}x{lane_depth}x{flits_per_packet})"),
        }
    }

    /// Checks the mode's parameters: every lane/depth/flit count must lie
    /// in `1..=`[`MAX_BUFFER_PARAMETER`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            BufferMode::Unbuffered => Ok(()),
            BufferMode::Fifo(depth) => bounded("fifo depth", depth),
            BufferMode::Wormhole {
                lanes,
                lane_depth,
                flits_per_packet,
            } => {
                bounded("wormhole lanes", lanes)?;
                bounded("wormhole lane depth", lane_depth)?;
                bounded("flits per packet", flits_per_packet)
            }
        }
    }

    /// [`BufferMode::validate`], then the fabric budget: a fabric of
    /// `stages × cells` cells in this mode may hold at most
    /// [`MAX_FABRIC_SLOTS`] buffer slots in all. A cell holds the two
    /// crossbar slots of an unbuffered cell, `2 · depth` FIFO entries, or
    /// `lanes × lane_depth` flit slots.
    pub fn validate_for(&self, stages: usize, cells: usize) -> Result<(), ConfigError> {
        self.validate()?;
        let per_cell = match *self {
            BufferMode::Unbuffered => 2,
            BufferMode::Fifo(depth) => depth.saturating_mul(2),
            BufferMode::Wormhole {
                lanes, lane_depth, ..
            } => lanes.saturating_mul(lane_depth),
        };
        let slots = stages.saturating_mul(cells).saturating_mul(per_cell);
        if slots > MAX_FABRIC_SLOTS {
            return Err(ConfigError::FabricTooLarge {
                stages,
                cells,
                slots,
            });
        }
        Ok(())
    }
}

/// Largest accepted buffer-mode parameter (FIFO depth, wormhole lanes, lane
/// depth, flits per packet). The switch cores count queue slots and flits
/// in `u32`, so a bound this far below `u32::MAX` keeps every capacity,
/// power-of-two padding and flit count they derive from one parameter in
/// range.
pub const MAX_BUFFER_PARAMETER: usize = 1 << 16;

/// Largest buffer one fabric may hold, in slots summed over every cell (see
/// [`BufferMode::validate_for`]): 2^26 slots. Parameters that are each in range
/// can still multiply out of memory — `Fifo(65536)` on Omega(12) asks for
/// 12 × 2048 × 131072 ≈ 3.2 G slots, about 48 GiB — so the product is
/// checked before any core allocates. The grids of the examples, tests and
/// benchmark need a few thousand slots; `Fifo(4)` on Omega(16) (4.2 M) and
/// an unbuffered Omega(20) (21 M) still fit.
pub const MAX_FABRIC_SLOTS: usize = 1 << 26;

fn bounded(parameter: &'static str, value: usize) -> Result<(), ConfigError> {
    if value == 0 {
        Err(ConfigError::ZeroParameter(parameter))
    } else if value > MAX_BUFFER_PARAMETER {
        Err(ConfigError::ParameterTooLarge { parameter, value })
    } else {
        Ok(())
    }
}

/// Why a [`SimConfig`] is not runnable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The offered load is not a probability in `[0, 1]`.
    InvalidLoad(f64),
    /// The warm-up consumes the whole cycle budget, leaving no measurement
    /// window.
    WarmupExceedsCycles {
        /// Configured warm-up cycles.
        warmup: u64,
        /// Configured total cycles.
        cycles: u64,
    },
    /// A buffer-mode parameter that must be nonzero is zero.
    ZeroParameter(&'static str),
    /// A buffer-mode parameter exceeds [`MAX_BUFFER_PARAMETER`].
    ParameterTooLarge {
        /// Which parameter.
        parameter: &'static str,
        /// The rejected value.
        value: usize,
    },
    /// The buffer mode would make the fabric hold more than
    /// [`MAX_FABRIC_SLOTS`] slots.
    FabricTooLarge {
        /// Stages of the fabric.
        stages: usize,
        /// Cells per stage.
        cells: usize,
        /// Slots the fabric would hold (saturating).
        slots: usize,
    },
    /// The traffic pattern is invalid (non-finite hot-spot fraction,
    /// malformed permutation or trace, …) — rejected here instead of
    /// asserting at draw time in the injection hot path.
    Traffic(TrafficError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidLoad(load) => {
                write!(f, "offered load {load} is not a probability in [0, 1]")
            }
            ConfigError::WarmupExceedsCycles { warmup, cycles } => write!(
                f,
                "warm-up of {warmup} cycles consumes the whole {cycles}-cycle budget"
            ),
            ConfigError::ZeroParameter(what) => write!(f, "{what} must be nonzero"),
            ConfigError::ParameterTooLarge { parameter, value } => write!(
                f,
                "{parameter} {value} exceeds the maximum of {MAX_BUFFER_PARAMETER}"
            ),
            ConfigError::FabricTooLarge {
                stages,
                cells,
                slots,
            } => write!(
                f,
                "a {stages}-stage fabric of {cells} cells per stage would hold {slots} buffer \
                 slots, over the budget of {MAX_FABRIC_SLOTS}"
            ),
            ConfigError::Traffic(e) => write!(f, "invalid traffic pattern: {e}"),
        }
    }
}

impl From<TrafficError> for ConfigError {
    fn from(e: TrafficError) -> Self {
        ConfigError::Traffic(e)
    }
}

impl std::error::Error for ConfigError {}

/// Complete description of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Probability that an idle input injects a packet in a given cycle.
    pub offered_load: f64,
    /// Buffering discipline.
    pub buffer_mode: BufferMode,
    /// Traffic pattern (destination distribution).
    pub traffic: TrafficPattern,
    /// Total number of simulated cycles (the warm-up runs inside this
    /// budget).
    pub cycles: u64,
    /// Number of warm-up cycles at the start of the run, excluded from the
    /// latency statistics.
    pub warmup: u64,
    /// PRNG seed (the simulation is fully deterministic given the seed).
    pub seed: u64,
    /// Failures injected into the run ([`FaultPlan::none`] = healthy
    /// fabric). Fault sites are validated against the fabric at simulator
    /// construction.
    pub fault_plan: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            offered_load: 0.5,
            buffer_mode: BufferMode::Unbuffered,
            traffic: TrafficPattern::Uniform,
            cycles: 1_000,
            warmup: 100,
            seed: 0x1988,
            fault_plan: FaultPlan::none(),
        }
    }
}

impl SimConfig {
    /// Checks the configuration for typed errors instead of panicking or
    /// silently misbehaving mid-run: the offered load must be a probability,
    /// the warm-up must leave a measurement window, every buffer-mode
    /// parameter must be in range ([`BufferMode::validate`]), and the traffic pattern's parameters must
    /// be in range ([`TrafficPattern::validate`] — fabric-dependent checks
    /// like hot-spot targets run at simulator construction via
    /// [`TrafficPattern::validate_for`]). [`crate::Simulator::new`] calls
    /// this, so invalid configurations are rejected at construction.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.offered_load) {
            // NaN fails the range check too: PartialOrd orders it with nothing.
            return Err(ConfigError::InvalidLoad(self.offered_load));
        }
        if self.warmup >= self.cycles {
            return Err(ConfigError::WarmupExceedsCycles {
                warmup: self.warmup,
                cycles: self.cycles,
            });
        }
        self.buffer_mode.validate()?;
        self.traffic.validate()?;
        Ok(())
    }

    /// Builder-style setter for the offered load (validated by
    /// [`SimConfig::validate`] at simulator construction).
    pub fn with_load(mut self, load: f64) -> Self {
        self.offered_load = load;
        self
    }

    /// Builder-style setter for the buffer mode.
    pub fn with_buffer(mut self, mode: BufferMode) -> Self {
        self.buffer_mode = mode;
        self
    }

    /// Builder-style setter for the traffic pattern.
    pub fn with_traffic(mut self, traffic: TrafficPattern) -> Self {
        self.traffic = traffic;
        self
    }

    /// Builder-style setter for the cycle counts.
    pub fn with_cycles(mut self, cycles: u64, warmup: u64) -> Self {
        self.cycles = cycles;
        self.warmup = warmup;
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

/// Buffer modes whose parameters overflow the switch cores' `u32`
/// arithmetic, with the error each must be rejected with.
#[cfg(test)]
pub(crate) fn hostile_buffer_modes() -> [(BufferMode, ConfigError); 4] {
    let too_large = |parameter, value| ConfigError::ParameterTooLarge { parameter, value };
    let wormhole = |lane_depth, flits_per_packet| BufferMode::Wormhole {
        lanes: 2,
        lane_depth,
        flits_per_packet,
    };
    [
        (BufferMode::Fifo(1 << 31), too_large("fifo depth", 1 << 31)),
        (BufferMode::Fifo(1 << 63), too_large("fifo depth", 1 << 63)),
        (
            wormhole(1 << 32, 4),
            too_large("wormhole lane depth", 1 << 32),
        ),
        (wormhole(4, 1 << 32), too_large("flits per packet", 1 << 32)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_setters_compose() {
        let cfg = SimConfig::default()
            .with_load(0.9)
            .with_buffer(BufferMode::Fifo(4))
            .with_traffic(TrafficPattern::Hotspot {
                fraction: 0.2,
                target: 0,
            })
            .with_cycles(500, 50)
            .with_seed(7);
        assert_eq!(cfg.offered_load, 0.9);
        assert_eq!(cfg.buffer_mode, BufferMode::Fifo(4));
        assert_eq!(cfg.cycles, 500);
        assert_eq!(cfg.warmup, 50);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn out_of_range_loads_are_rejected_with_a_typed_error() {
        assert_eq!(
            SimConfig::default().with_load(1.5).validate(),
            Err(ConfigError::InvalidLoad(1.5))
        );
        assert_eq!(
            SimConfig::default().with_load(-0.1).validate(),
            Err(ConfigError::InvalidLoad(-0.1))
        );
        assert!(matches!(
            SimConfig::default().with_load(f64::NAN).validate(),
            Err(ConfigError::InvalidLoad(_))
        ));
    }

    #[test]
    fn warmup_must_leave_a_measurement_window() {
        assert_eq!(
            SimConfig::default().with_cycles(100, 100).validate(),
            Err(ConfigError::WarmupExceedsCycles {
                warmup: 100,
                cycles: 100
            })
        );
        assert_eq!(
            SimConfig::default().with_cycles(0, 0).validate(),
            Err(ConfigError::WarmupExceedsCycles {
                warmup: 0,
                cycles: 0
            })
        );
        assert_eq!(SimConfig::default().with_cycles(100, 99).validate(), Ok(()));
    }

    #[test]
    fn zero_buffer_parameters_are_rejected() {
        assert_eq!(
            BufferMode::Fifo(0).validate(),
            Err(ConfigError::ZeroParameter("fifo depth"))
        );
        for (lanes, lane_depth, flits_per_packet) in [(0, 4, 4), (2, 0, 4), (2, 4, 0)] {
            let mode = BufferMode::Wormhole {
                lanes,
                lane_depth,
                flits_per_packet,
            };
            assert!(matches!(
                mode.validate(),
                Err(ConfigError::ZeroParameter(_))
            ));
        }
        assert_eq!(
            BufferMode::Wormhole {
                lanes: 2,
                lane_depth: 4,
                flits_per_packet: 4
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn oversized_buffer_parameters_are_rejected() {
        for (mode, error) in hostile_buffer_modes() {
            assert_eq!(mode.validate(), Err(error), "{mode:?}");
        }
        // The same modes arriving as campaign JSON.
        let fifo: BufferMode = serde_json::from_str(r#"{"Fifo":[2147483648]}"#).unwrap();
        assert_eq!(fifo, hostile_buffer_modes()[0].0);
        let fifo: BufferMode = serde_json::from_str(r#"{"Fifo":[9223372036854775808]}"#).unwrap();
        assert_eq!(fifo, hostile_buffer_modes()[1].0);
        // The bound itself is accepted.
        let max = MAX_BUFFER_PARAMETER;
        assert_eq!(BufferMode::Fifo(max).validate(), Ok(()));
        let roomy = BufferMode::Wormhole {
            lanes: max,
            lane_depth: max,
            flits_per_packet: max,
        };
        assert_eq!(roomy.validate(), Ok(()));
    }

    #[test]
    fn the_fabric_budget_bounds_products_of_in_range_parameters() {
        let hostile = BufferMode::Fifo(MAX_BUFFER_PARAMETER);
        assert_eq!(hostile.validate(), Ok(()));
        let error = hostile.validate_for(12, 2048).unwrap_err();
        assert_eq!(
            error,
            ConfigError::FabricTooLarge {
                stages: 12,
                cells: 2048,
                slots: 12 * 2048 * 2 * MAX_BUFFER_PARAMETER,
            }
        );
        assert!(error.to_string().contains("budget"), "{error}");
        // Exactly the budget is accepted; one slot per cell more is not.
        let per_cell = MAX_FABRIC_SLOTS / (4 * 256);
        assert_eq!(BufferMode::Fifo(per_cell / 2).validate_for(4, 256), Ok(()));
        assert!(BufferMode::Fifo(per_cell / 2 + 1)
            .validate_for(4, 256)
            .is_err());
        let wide = BufferMode::Wormhole {
            lanes: 1024,
            lane_depth: 1024,
            flits_per_packet: 4,
        };
        assert_eq!(wide.validate_for(4, 16), Ok(()));
        assert!(wide.validate_for(4, 32).is_err());
        assert_eq!(BufferMode::Unbuffered.validate_for(20, 1 << 19), Ok(()));
        assert_eq!(BufferMode::Fifo(4).validate_for(16, 1 << 15), Ok(()));
        // Parameter errors come first, and nothing overflows.
        assert_eq!(
            BufferMode::Fifo(0).validate_for(1, 1),
            Err(ConfigError::ZeroParameter("fifo depth"))
        );
        assert!(BufferMode::Fifo(4)
            .validate_for(usize::MAX, usize::MAX)
            .is_err());
    }

    #[test]
    fn invalid_traffic_parameters_are_rejected_with_a_typed_error() {
        assert!(matches!(
            SimConfig::default()
                .with_traffic(TrafficPattern::Hotspot {
                    fraction: f64::NAN,
                    target: 0
                })
                .validate(),
            Err(ConfigError::Traffic(TrafficError::NonFinite { .. }))
        ));
        assert!(matches!(
            SimConfig::default()
                .with_traffic(TrafficPattern::Zipf { exponent: -0.5 })
                .validate(),
            Err(ConfigError::Traffic(TrafficError::OutOfRange { .. }))
        ));
        assert_eq!(
            SimConfig::default()
                .with_traffic(TrafficPattern::Zipf { exponent: 1.0 })
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn labels_are_short_and_parameterized() {
        assert_eq!(BufferMode::Unbuffered.label(), "unbuffered");
        assert_eq!(BufferMode::Fifo(8).label(), "fifo(8)");
        assert_eq!(
            BufferMode::Wormhole {
                lanes: 2,
                lane_depth: 4,
                flits_per_packet: 8
            }
            .label(),
            "worm(2x4x8)"
        );
    }
}
