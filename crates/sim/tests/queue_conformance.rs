//! Queue conformance: the integer-tick event queue and the exact `Rat`-keyed
//! oracle queue must drive byte-identical runs — same event processing
//! order (including tie-breaks), same completions, same buffers, same Gantt
//! trace, the whole `SimReport`.
//!
//! The Gantt segment list is the strongest observable fingerprint: segments
//! are appended in event-processing order, so any divergence in queue pop
//! order (even between two events at the same instant) shows up as a
//! reordered, shifted or altered trace.
//!
//! Both runs keep their buffer integrals in ticks, so each tick run also
//! rebuilds every node's time-averaged occupancy in exact `Rat` arithmetic
//! from the probe stream (`RatBuffers`) and holds `buffers[].time_avg`
//! against it.

use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::examples::example_tree;
use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::event_driven::{
    simulate_dynamic, simulate_dynamic_probed, AdaptPolicy, LinkChange,
};
use bwfirst_sim::{event_driven, Probe, SimConfig, SimReport, TickScale};

fn cfg(horizon: Rat, exact_queue: bool) -> SimConfig {
    SimConfig {
        horizon,
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: true,
        exact_queue,
        seed: 0,
    }
}

/// The buffer integrals `∫ size dt` rebuilt from the probe stream in exact
/// `Rat` arithmetic: the oracle for the engine's tick integrals.
struct RatBuffers {
    scale: TickScale,
    size: Vec<u64>,
    last_change: Vec<Rat>,
    weighted: Vec<Rat>,
}

impl RatBuffers {
    fn new(n: usize) -> RatBuffers {
        RatBuffers {
            scale: TickScale::ONE,
            size: vec![0; n],
            last_change: vec![Rat::ZERO; n],
            weighted: vec![Rat::ZERO; n],
        }
    }

    /// Each node's time-averaged occupancy over `[0, horizon]`.
    fn time_avg(&self, horizon: Rat) -> Vec<Rat> {
        (0..self.size.len())
            .map(|i| {
                let size = Rat::from(self.size[i] as usize);
                (self.weighted[i] + size * (horizon - self.last_change[i])) / horizon
            })
            .collect()
    }

    fn check(&self, label: &str, rep: &SimReport) {
        let got: Vec<Rat> = rep.buffers.iter().map(|b| b.time_avg).collect();
        assert_eq!(got, self.time_avg(rep.horizon), "{label}: tick buffer integrals drifted");
    }
}

impl Probe for RatBuffers {
    fn start(&mut self, scale: TickScale) {
        self.scale = scale;
    }

    fn buffer(&mut self, node: NodeId, t: i128, size: u64) {
        let (i, t) = (node.index(), self.scale.rat(t));
        self.weighted[i] += Rat::from(self.size[i] as usize) * (t - self.last_change[i]);
        self.last_change[i] = t;
        self.size[i] = size;
    }
}

/// Asserts two reports of the same scenario are identical in every exact
/// observable, most importantly the in-order Gantt trace.
fn assert_identical(label: &str, tick: &SimReport, exact: &SimReport) {
    assert_eq!(tick.horizon, exact.horizon, "{label}: horizons differ");
    assert_eq!(tick.scale, exact.scale, "{label}: scales differ");
    assert_eq!(tick.completions, exact.completions, "{label}: completions differ");
    assert_eq!(tick.computed, exact.computed, "{label}: computed differ");
    assert_eq!(tick.received, exact.received, "{label}: received differ");
    assert_eq!(tick.buffers, exact.buffers, "{label}: buffer stats differ");
    assert_eq!(
        tick.injection_stopped_at, exact.injection_stopped_at,
        "{label}: injection stop differs"
    );
    let (tg, eg) = (tick.gantt.as_ref().expect("gantt"), exact.gantt.as_ref().expect("gantt"));
    assert_eq!(
        tg.segments, eg.segments,
        "{label}: Gantt traces diverge — queues popped events in different orders"
    );
}

/// Runs every applicable executor in tick and exact modes and cross-checks.
fn check_platform(label: &str, p: &Platform, horizon: Rat) {
    let ss = SteadyState::from_solution(&bw_first(p));
    if !ss.throughput.is_positive() {
        return;
    }
    let ev = EventDrivenSchedule::standard(p, &ss).unwrap();
    let (tick_cfg, exact_cfg) = (cfg(horizon, false), cfg(horizon, true));

    let mut oracle = RatBuffers::new(p.len());
    let t = event_driven::simulate_probed(p, &ev, &tick_cfg, &mut oracle).unwrap();
    let e = event_driven::simulate(p, &ev, &exact_cfg).unwrap();
    assert_identical(&format!("{label}/event-driven"), &t, &e);
    oracle.check(&format!("{label}/event-driven"), &t);

    let mut oracle = RatBuffers::new(p.len());
    let clocked_cfg = ClockedConfig::default();
    let t = clocked::simulate_probed(p, &ev.tree, clocked_cfg, &tick_cfg, &mut oracle).unwrap();
    let e = clocked::simulate(p, &ev.tree, clocked_cfg, &exact_cfg).unwrap();
    assert_identical(&format!("{label}/clocked"), &t, &e);
    oracle.check(&format!("{label}/clocked"), &t);

    let mut oracle = RatBuffers::new(p.len());
    let t = demand_driven::simulate_probed(p, DemandConfig::default(), &tick_cfg, &mut oracle);
    let e = demand_driven::simulate(p, DemandConfig::default(), &exact_cfg);
    assert_identical(&format!("{label}/demand-driven"), &t, &e);
    oracle.check(&format!("{label}/demand-driven"), &t);
}

#[test]
fn fig2_tree_runs_identically_on_both_queues() {
    // The paper's Figure 2 tree, long enough to pass start-up, steady state
    // and plenty of simultaneous-event ties.
    check_platform("fig2", &example_tree(), rat(300, 1));
}

#[test]
fn fig2_dynamic_adaptation_runs_identically_on_both_queues() {
    // Dynamic runs re-derive schedules mid-run; the re-plan's release step
    // adds a denominator the starting schedule lacks, folded into the scale
    // up front — the run's order must match the exact oracle's throughout.
    let p = example_tree();
    let changes = [LinkChange { at: rat(120, 1), child: NodeId(1), new_c: rat(25, 3) }];
    let policy = AdaptPolicy::Renegotiate { delay: rat(5, 2) };
    let mut oracle = RatBuffers::new(p.len());
    let tick_cfg = cfg(rat(280, 1), false);
    let (t, ta) = simulate_dynamic_probed(&p, &changes, policy, &tick_cfg, &mut oracle).unwrap();
    let (e, ea) = simulate_dynamic(&p, &changes, policy, &cfg(rat(280, 1), true)).unwrap();
    assert_eq!(ta, ea, "adaptation times differ");
    assert_eq!(ta, vec![rat(245, 2)]);
    assert_identical("fig2/dynamic", &t, &e);
    oracle.check("fig2/dynamic", &t);
}

#[test]
fn fifty_random_trees_run_identically_on_both_queues() {
    // Fractional weights and link times (denominators 1..=3, plus a stressed
    // variant with denominators up to 7) exercise the tick scale's lcm and
    // the ceiling/floor of the horizon across 50 seeded topologies.
    for seed in 0..50u64 {
        let cfg = RandomTreeConfig {
            size: 12,
            seed,
            // Odd denominators on half the trees grow the lcm and create
            // times that only meet at coarse grid points.
            weight_den: if seed % 2 == 0 { (1, 3) } else { (1, 7) },
            link_den: if seed % 2 == 0 { (1, 3) } else { (1, 5) },
            ..Default::default()
        };
        let p = random_tree(&cfg);
        check_platform(&format!("seed{seed}"), &p, rat(120, 1));
    }
}

#[test]
fn wind_down_and_task_caps_are_queue_agnostic() {
    // stop_injection_at and total_tasks both interact with release events —
    // the tick queue must cut injection at exactly the same event.
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    for (stop, total) in [(Some(rat(115, 1)), None), (None, Some(50)), (Some(rat(77, 2)), Some(33))]
    {
        let mk = |exact_queue| SimConfig {
            horizon: rat(400, 1),
            stop_injection_at: stop,
            total_tasks: total,
            record_gantt: true,
            exact_queue,
            seed: 0,
        };
        let t = event_driven::simulate(&p, &ev, &mk(false)).unwrap();
        let e = event_driven::simulate(&p, &ev, &mk(true)).unwrap();
        assert_identical("fig2/wind-down", &t, &e);
    }
}
