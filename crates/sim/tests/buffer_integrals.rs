//! Buffer-integral conformance: the engine keeps each node's `∫ size dt` in
//! integer ticks, so every run here also rebuilds each node's time-averaged
//! occupancy in exact `Rat` arithmetic from the probe stream (`RatBuffers`)
//! and holds the report's `buffers[].time_avg` against it.

use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::examples::example_tree;
use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::event_driven::{simulate_dynamic_probed, AdaptPolicy, LinkChange};
use bwfirst_sim::{event_driven, Probe, SimConfig, SimReport, TickScale};

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

/// Runs every applicable executor on `p` and checks its buffer integrals.
fn check_platform(label: &str, p: &Platform, horizon: Rat) {
    let ss = SteadyState::from_solution(&bw_first(p));
    if !ss.throughput.is_positive() {
        return;
    }
    let ev = EventDrivenSchedule::standard(p, &ss).unwrap();
    let cfg = SimConfig::to_horizon(horizon);

    let mut oracle = RatBuffers::new(p.len());
    let rep = event_driven::simulate_probed(p, &ev, &cfg, &mut oracle).unwrap();
    oracle.check(&format!("{label}/event-driven"), &rep);

    let mut oracle = RatBuffers::new(p.len());
    let clocked_cfg = ClockedConfig::default();
    let rep = clocked::simulate_probed(p, &ev.tree, clocked_cfg, &cfg, &mut oracle).unwrap();
    oracle.check(&format!("{label}/clocked"), &rep);

    let mut oracle = RatBuffers::new(p.len());
    let rep = demand_driven::simulate_probed(p, DemandConfig::default(), &cfg, &mut oracle);
    oracle.check(&format!("{label}/demand-driven"), &rep);
}

#[test]
fn fig2_tree_buffer_integrals_are_exact() {
    // The paper's Figure 2 tree, long enough to pass start-up, steady state
    // and plenty of simultaneous-event ties.
    check_platform("fig2", &example_tree(), rat(300, 1));
}

#[test]
fn fig2_dynamic_adaptation_buffer_integrals_are_exact() {
    // Dynamic runs re-derive schedules mid-run; the re-plan's release step
    // adds a denominator the starting schedule lacks, folded into the scale
    // up front.
    let p = example_tree();
    let changes = [LinkChange { at: rat(120, 1), child: NodeId(1), new_c: rat(25, 3) }];
    let policy = AdaptPolicy::Renegotiate { delay: rat(5, 2) };
    let mut oracle = RatBuffers::new(p.len());
    let cfg = SimConfig::to_horizon(rat(280, 1));
    let (rep, adapted) = simulate_dynamic_probed(&p, &changes, policy, &cfg, &mut oracle).unwrap();
    assert_eq!(adapted, vec![rat(245, 2)]);
    oracle.check("fig2/dynamic", &rep);
}

#[test]
fn fifty_random_trees_buffer_integrals_are_exact() {
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
fn wind_down_and_task_caps_buffer_integrals_are_exact() {
    // stop_injection_at and total_tasks both cut the release events; the
    // buffers drain and then sit empty up to the horizon.
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    for (stop, total) in [(Some(rat(115, 1)), None), (None, Some(50)), (Some(rat(77, 2)), Some(33))]
    {
        let cfg = SimConfig {
            stop_injection_at: stop,
            total_tasks: total,
            ..SimConfig::to_horizon(rat(400, 1))
        };
        let mut oracle = RatBuffers::new(p.len());
        let rep = event_driven::simulate_probed(&p, &ev, &cfg, &mut oracle).unwrap();
        oracle.check(&format!("fig2/wind-down {stop:?} {total:?}"), &rep);
    }
}
