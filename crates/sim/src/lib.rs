//! Gate-level simulation for the `triphase` toolkit.
//!
//! A levelized, cycle-accurate, 3-valued simulator that understands
//! multi-phase clocks, level-sensitive latches, and the three ICG variants
//! (conventional, M1, M2) — everything the paper's validation and power
//! methodology needs:
//!
//! - [`Simulator`]: per-cycle stepping with per-net toggle counting
//!   ([`Activity`]) — the reference semantics;
//! - [`CompiledSim`] / [`CompiledAny`]: the fast simulator, a bytecode VM
//!   over 64 to [`MAX_STREAMS`] stimulus lanes, bit-exact with
//!   [`Simulator`] lane for lane; used for power estimation and DDCG
//!   statistics;
//! - [`equiv_stream`]: the paper's validation ("stream inputs into the FF
//!   and latch designs, compare output streams");
//! - [`run_random`] / [`run_random_compiled`]: seeded pseudo-random
//!   workloads.
//!
//! # Examples
//!
//! ```
//! use triphase_netlist::{Netlist, Builder, ClockSpec};
//! use triphase_sim::{Simulator, Logic};
//!
//! let mut nl = Netlist::new("ff");
//! let mut b = Builder::new(&mut nl, "u");
//! let (ckp, ck) = b.netlist().add_input("ck");
//! let (_, d) = b.netlist().add_input("d");
//! let q = b.dff(d, ck);
//! b.netlist().add_output("q", q);
//! nl.clock = Some(ClockSpec::single(ckp, 1000.0));
//! let dp = nl.find_port("d").unwrap();
//! let qp = nl.find_port("q").unwrap();
//! let mut sim = Simulator::new(&nl)?;
//! sim.reset_zero();
//! sim.set_input(dp, Logic::One);
//! sim.step_cycle(); // input applied after this cycle's capture edge
//! sim.step_cycle(); // captured here
//! assert_eq!(sim.output(qp), Logic::One);
//! # Ok::<(), triphase_sim::Error>(())
//! ```

mod compile;
mod equiv;
mod error;
mod logic;
mod sim;
mod vcd;

pub use compile::{
    collect_activity_compiled, lane_seeds, run_random_compiled, CompiledAny, CompiledSim, Lanes,
    LowerStats, Mask, VmCounts, LANES, MAX_STREAMS,
};
pub use equiv::{
    data_inputs, data_outputs, equiv_stream, equiv_stream_warmup, replay_vectors, run_random,
    EquivReport, Mismatch, Stream,
};
pub use error::{Error, Result};
pub use logic::{eval_kind, Logic};
pub use sim::{Activity, Simulator};
pub use vcd::VcdWriter;
