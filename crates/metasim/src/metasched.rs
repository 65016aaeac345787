//! Meta-schedulers and application schedulers.
//!
//! Following Figure 1 of the paper, *meta-schedulers* sit between users and the
//! machine schedulers of individual sites: they pick sites for requests using
//! whatever information is available (current load, queue-wait predictions, cost),
//! and — for multi-site applications — obtain simultaneous access either by hoping
//! the queues line up or by booking advance reservations (Section 3.1). *Application
//! schedulers* are the special case that maps the modules of one annotated program
//! graph onto the offered resources.

use crate::appmodel::{AppGraph, Device, Network};
use crate::site::{Site, SitePlacement};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Where each device of the metasystem lives (device-constrained modules must be
/// placed on the hosting site).
#[derive(Debug, Clone, Default)]
pub struct DeviceMap {
    hosting: HashMap<Device, u32>,
}

impl DeviceMap {
    /// Spread the three device kinds across the given sites round-robin.
    pub fn spread_over(sites: &[Site]) -> Self {
        let mut hosting = HashMap::new();
        if !sites.is_empty() {
            for (i, d) in [Device::Visualization, Device::Archive, Device::Instrument]
                .into_iter()
                .enumerate()
            {
                hosting.insert(d, sites[i % sites.len()].spec.id);
            }
        }
        DeviceMap { hosting }
    }

    /// The site hosting a device, if any.
    pub fn site_of(&self, device: Device) -> Option<u32> {
        self.hosting.get(&device).copied()
    }
}

/// How the meta-scheduler picks a site for a module / request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Pick the site with the smallest predicted queue wait.
    LeastPredictedWait,
    /// Pick the site with the earliest predicted completion (wait + runtime +
    /// incoming data transfers) — the application-centric choice.
    FastestCompletion,
    /// Pick the cheapest site (the economic model of Section 4.2), breaking ties by
    /// predicted completion.
    Cheapest,
    /// Round robin over sites (the naive baseline).
    RoundRobin,
}

impl PlacementStrategy {
    /// All strategies, for sweeps.
    pub fn all() -> &'static [PlacementStrategy] {
        &[
            PlacementStrategy::LeastPredictedWait,
            PlacementStrategy::FastestCompletion,
            PlacementStrategy::Cheapest,
            PlacementStrategy::RoundRobin,
        ]
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementStrategy::LeastPredictedWait => "least-wait",
            PlacementStrategy::FastestCompletion => "fastest-completion",
            PlacementStrategy::Cheapest => "cheapest",
            PlacementStrategy::RoundRobin => "round-robin",
        }
    }
}

/// The schedule of one application graph across the metasystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSchedule {
    /// Application name.
    pub app: String,
    /// Per-module placements, indexed like the graph's modules.
    pub placements: Vec<SitePlacement>,
    /// Turnaround of the whole application (last module end − submission).
    pub makespan: f64,
    /// Total cost charged across sites.
    pub cost: f64,
}

/// An application scheduler: maps modules of a graph onto sites in topological
/// order using the chosen placement strategy.
#[derive(Debug, Clone)]
pub struct AppScheduler {
    /// Placement strategy.
    pub strategy: PlacementStrategy,
    /// The inter-site network model.
    pub network: Network,
    rr_next: usize,
}

impl AppScheduler {
    /// Create an application scheduler.
    pub fn new(strategy: PlacementStrategy, network: Network) -> Self {
        AppScheduler {
            strategy,
            network,
            rr_next: 0,
        }
    }

    fn pick_site(
        &mut self,
        sites: &[Site],
        devices: &DeviceMap,
        module: &crate::appmodel::Module,
        ready: f64,
    ) -> usize {
        // A device constraint pins the module.
        if let Some(dev) = module.device {
            if let Some(site_id) = devices.site_of(dev) {
                if let Some(idx) = sites.iter().position(|s| s.spec.id == site_id) {
                    return idx;
                }
            }
        }
        match self.strategy {
            PlacementStrategy::RoundRobin => {
                let idx = self.rr_next % sites.len();
                self.rr_next += 1;
                idx
            }
            PlacementStrategy::LeastPredictedWait => (0..sites.len())
                .min_by(|&a, &b| {
                    let wa = sites[a].predict_wait(ready, module.procs);
                    let wb = sites[b].predict_wait(ready, module.procs);
                    wa.total_cmp(&wb)
                })
                .unwrap_or(0),
            PlacementStrategy::FastestCompletion => (0..sites.len())
                .min_by(|&a, &b| {
                    let ca = sites[a].predict_wait(ready, module.procs)
                        + sites[a].runtime_of(module.work, module.procs);
                    let cb = sites[b].predict_wait(ready, module.procs)
                        + sites[b].runtime_of(module.work, module.procs);
                    ca.total_cmp(&cb)
                })
                .unwrap_or(0),
            PlacementStrategy::Cheapest => (0..sites.len())
                .min_by(|&a, &b| {
                    let pa = module.work / sites[a].spec.speed * sites[a].spec.cost_per_proc_second;
                    let pb = module.work / sites[b].spec.speed * sites[b].spec.cost_per_proc_second;
                    pa.total_cmp(&pb)
                })
                .unwrap_or(0),
        }
    }

    /// Schedule one application graph submitted at `now` onto the sites.
    pub fn schedule(
        &mut self,
        app: &AppGraph,
        sites: &mut [Site],
        devices: &DeviceMap,
        now: f64,
    ) -> AppSchedule {
        assert!(!sites.is_empty(), "metasystem has no sites");
        assert!(app.is_well_formed(), "application graph is malformed");
        let mut placements: Vec<SitePlacement> = Vec::with_capacity(app.modules.len());
        for module in &app.modules {
            // Ready when all predecessors have finished and their data has arrived.
            let mut ready = now;
            for pred in app.predecessors(module.id) {
                let p = &placements[pred];
                let data = app
                    .edges
                    .iter()
                    .find(|e| e.from == pred && e.to == module.id)
                    .map(|e| e.data_mb)
                    .unwrap_or(0.0);
                // The destination site is not chosen yet; charge the transfer against
                // the slowest possibility only once the choice is made below. Use the
                // pred end as the lower bound here.
                ready = ready.max(p.end + self.network.latency.max(0.0) * 0.0);
                let _ = data;
            }
            let site_idx = self.pick_site(sites, devices, module, ready);
            // Now account the transfers to the chosen site.
            let mut ready_with_transfers = ready;
            for pred in app.predecessors(module.id) {
                let p = &placements[pred];
                let data = app
                    .edges
                    .iter()
                    .find(|e| e.from == pred && e.to == module.id)
                    .map(|e| e.data_mb)
                    .unwrap_or(0.0);
                let arrive = p.end
                    + self
                        .network
                        .transfer_time(p.site, sites[site_idx].spec.id, data);
                ready_with_transfers = ready_with_transfers.max(arrive);
            }
            let placement = sites[site_idx].submit(ready_with_transfers, module.work, module.procs);
            placements.push(placement);
        }
        let end = placements.iter().map(|p| p.end).fold(now, f64::max);
        let cost = placements.iter().map(|p| p.cost).sum();
        AppSchedule {
            app: app.name.clone(),
            placements,
            makespan: end - now,
            cost,
        }
    }
}

/// A request for simultaneous access to several sites (co-allocation): `procs`
/// processors on each of `parts` sites, for `duration` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoallocationRequest {
    /// Number of sites the application must span.
    pub parts: usize,
    /// Processors needed on each site.
    pub procs: u32,
    /// Duration of the coupled computation, seconds (at reference speed).
    pub duration: f64,
}

/// How a co-allocation attempt went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoallocationOutcome {
    /// Mechanism used ("queues" or "reservations").
    pub mechanism: String,
    /// Time the coupled computation actually started on all parts.
    pub start: f64,
    /// Whether all parts started within the tolerance window of each other.
    pub synchronized: bool,
    /// Node-seconds wasted by parts that held processors while waiting for the
    /// slowest part (zero for reservation-based co-allocation).
    pub wasted_node_seconds: f64,
}

/// Attempt co-allocation by submitting the parts to the `parts` least-loaded sites'
/// queues and letting each start whenever its queue lets it (the status quo the
/// paper criticizes: queue-wait predictions are "still relatively inaccurate,
/// making them inadequate ... for co-allocation").
pub fn coallocate_via_queues(
    req: &CoallocationRequest,
    sites: &mut [Site],
    now: f64,
    tolerance: f64,
) -> CoallocationOutcome {
    assert!(req.parts >= 1 && req.parts <= sites.len());
    // Choose the sites with the smallest predicted waits.
    let mut order: Vec<usize> = (0..sites.len()).collect();
    order.sort_by(|&a, &b| {
        let wa = sites[a].predict_wait(now, req.procs);
        let wb = sites[b].predict_wait(now, req.procs);
        wa.total_cmp(&wb)
    });
    let chosen = &order[..req.parts];
    let work = req.duration * req.procs as f64;
    let placements: Vec<SitePlacement> = chosen
        .iter()
        .map(|&i| sites[i].submit(now, work, req.procs))
        .collect();
    let latest_start = placements.iter().map(|p| p.start).fold(0.0, f64::max);
    let earliest_start = placements
        .iter()
        .map(|p| p.start)
        .fold(f64::INFINITY, f64::min);
    let wasted: f64 = placements
        .iter()
        .map(|p| (latest_start - p.start) * p.procs as f64)
        .sum();
    CoallocationOutcome {
        mechanism: "queues".to_string(),
        start: latest_start,
        synchronized: latest_start - earliest_start <= tolerance,
        wasted_node_seconds: wasted,
    }
}

/// Co-allocation via advance reservations: find the earliest time at which every
/// chosen site can promise the processors, book all the reservations, and start the
/// coupled computation exactly then (the mechanism Section 3.1 asks local
/// schedulers to provide).
pub fn coallocate_via_reservations(
    req: &CoallocationRequest,
    sites: &mut [Site],
    now: f64,
    lead_time: f64,
) -> Option<CoallocationOutcome> {
    assert!(req.parts >= 1 && req.parts <= sites.len());
    let capable: Vec<usize> = (0..sites.len())
        .filter(|&i| sites[i].spec.supports_reservations && sites[i].spec.procs >= req.procs)
        .collect();
    if capable.len() < req.parts {
        return None;
    }
    // Earliest common start: the max over the chosen sites of their earliest slot,
    // searched jointly by advancing until every site can book at the same instant.
    let chosen = &capable[..req.parts];
    let mut t = now + lead_time.max(0.0);
    for _ in 0..24 * 14 {
        let ok = chosen.iter().all(|&i| {
            sites[i]
                .calendar
                .fits(t, t + req.duration, req.procs as f64)
        });
        if ok {
            for &i in chosen {
                assert!(
                    sites[i].try_reserve(t, req.duration, req.procs),
                    "joint slot was verified"
                );
            }
            return Some(CoallocationOutcome {
                mechanism: "reservations".to_string(),
                start: t,
                synchronized: true,
                wasted_node_seconds: 0.0,
            });
        }
        t += 3600.0;
    }
    None
}

/// The kinds of entities in the scheduling hierarchy of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntityKind {
    /// A human user submitting work.
    User,
    /// An application scheduler developed with a specific application.
    ApplicationScheduler,
    /// A meta-scheduler spanning several machines.
    MetaScheduler,
    /// The scheduler controlling one machine.
    MachineScheduler,
    /// A node scheduler internal to a parallel machine.
    NodeScheduler,
}

/// One entity of the Figure-1 hierarchy together with the entities it talks to
/// downward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entity {
    /// What kind of entity this is.
    pub kind: EntityKind,
    /// Display name.
    pub name: String,
    /// Indices (into the hierarchy vector) of the entities this one submits to.
    pub children: Vec<usize>,
}

/// Build the Figure-1 entity hierarchy for a metasystem of the given sites: users
/// feed meta-/application schedulers, which feed machine schedulers, which feed
/// node schedulers.
pub fn build_hierarchy(sites: &[Site], users: usize) -> Vec<Entity> {
    let mut entities = Vec::new();
    // Node schedulers and machine schedulers per site.
    let mut machine_indices = Vec::new();
    for site in sites {
        let node_idx = entities.len();
        entities.push(Entity {
            kind: EntityKind::NodeScheduler,
            name: format!("node-schedulers@site{}", site.spec.id),
            children: Vec::new(),
        });
        let machine_idx = entities.len();
        entities.push(Entity {
            kind: EntityKind::MachineScheduler,
            name: format!("machine-scheduler@site{}", site.spec.id),
            children: vec![node_idx],
        });
        machine_indices.push(machine_idx);
    }
    let meta_idx = entities.len();
    entities.push(Entity {
        kind: EntityKind::MetaScheduler,
        name: "meta-scheduler".to_string(),
        children: machine_indices.clone(),
    });
    let app_idx = entities.len();
    entities.push(Entity {
        kind: EntityKind::ApplicationScheduler,
        name: "application-scheduler".to_string(),
        children: machine_indices,
    });
    for u in 0..users {
        entities.push(Entity {
            kind: EntityKind::User,
            name: format!("user{u}"),
            children: vec![meta_idx, app_idx],
        });
    }
    entities
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appmodel::MicroBenchmark;
    use crate::site::standard_metasystem;
    use psbench_sched::StepFn;

    #[test]
    fn device_map_pins_devices_to_sites() {
        let sites = standard_metasystem(3, 1);
        let map = DeviceMap::spread_over(&sites);
        let vis = map.site_of(Device::Visualization).unwrap();
        let arc = map.site_of(Device::Archive).unwrap();
        let ins = map.site_of(Device::Instrument).unwrap();
        assert_ne!(vis, arc);
        assert_ne!(arc, ins);
        assert!(DeviceMap::default().site_of(Device::Archive).is_none());
    }

    #[test]
    fn app_scheduler_produces_consistent_schedules() {
        let mut sites = standard_metasystem(4, 11);
        let devices = DeviceMap::spread_over(&sites);
        let app = MicroBenchmark::CommunicationIntensive.generate(6, 5);
        let mut sched = AppScheduler::new(PlacementStrategy::FastestCompletion, Network::default());
        let schedule = sched.schedule(&app, &mut sites, &devices, 0.0);
        assert_eq!(schedule.placements.len(), 6);
        assert!(schedule.makespan > 0.0);
        assert!(schedule.cost > 0.0);
        // Every module starts after its predecessors finished.
        for (m, p) in schedule.placements.iter().enumerate() {
            for pred in app.predecessors(m) {
                assert!(p.start >= schedule.placements[pred].end - 1e-6);
            }
        }
    }

    #[test]
    fn device_constrained_modules_land_on_hosting_sites() {
        let mut sites = standard_metasystem(3, 13);
        let devices = DeviceMap::spread_over(&sites);
        let app = MicroBenchmark::DeviceConstrained.generate(6, 3);
        let mut sched =
            AppScheduler::new(PlacementStrategy::LeastPredictedWait, Network::default());
        let schedule = sched.schedule(&app, &mut sites, &devices, 0.0);
        for (module, placement) in app.modules.iter().zip(&schedule.placements) {
            let expected = devices.site_of(module.device.unwrap()).unwrap();
            assert_eq!(placement.site, expected);
        }
    }

    #[test]
    fn cheapest_strategy_prefers_cheap_sites_fastest_prefers_fast_ones() {
        let mut sites = standard_metasystem(4, 17);
        // Make the trade-off stark: site 0 is slow and cheap, site 3 fast and pricey.
        sites[0].spec.speed = 0.5;
        sites[0].spec.cost_per_proc_second = 0.1;
        sites[0].spec.background_load = 0.1;
        sites[3].spec.speed = 4.0;
        sites[3].spec.cost_per_proc_second = 10.0;
        sites[3].spec.background_load = 0.1;
        let devices = DeviceMap::default();
        let app = MicroBenchmark::ComputeIntensive.generate(4, 9);
        let mut cheap = AppScheduler::new(PlacementStrategy::Cheapest, Network::default());
        let mut fast = AppScheduler::new(PlacementStrategy::FastestCompletion, Network::default());
        let cheap_schedule = cheap.schedule(&app, &mut sites.clone(), &devices, 0.0);
        let fast_schedule = fast.schedule(&app, &mut sites.clone(), &devices, 0.0);
        assert!(cheap_schedule.cost < fast_schedule.cost);
        assert!(cheap_schedule
            .placements
            .iter()
            .all(|p| p.site == sites[0].spec.id));
    }

    #[test]
    fn round_robin_spreads_modules() {
        let mut sites = standard_metasystem(3, 19);
        let devices = DeviceMap::default();
        let app = MicroBenchmark::ComputeIntensive.generate(6, 2);
        let mut rr = AppScheduler::new(PlacementStrategy::RoundRobin, Network::default());
        let schedule = rr.schedule(&app, &mut sites, &devices, 0.0);
        let used: std::collections::HashSet<u32> =
            schedule.placements.iter().map(|p| p.site).collect();
        assert_eq!(used.len(), 3);
        assert_eq!(PlacementStrategy::all().len(), 4);
        assert_eq!(PlacementStrategy::RoundRobin.name(), "round-robin");
    }

    #[test]
    fn reservation_coallocation_is_synchronized_queue_coallocation_usually_is_not() {
        let req = CoallocationRequest {
            parts: 3,
            procs: 64,
            duration: 3600.0,
        };
        let mut q_sites = standard_metasystem(4, 23);
        let via_queues = coallocate_via_queues(&req, &mut q_sites, 0.0, 60.0);
        let mut r_sites = standard_metasystem(4, 23);
        let via_res = coallocate_via_reservations(&req, &mut r_sites, 0.0, 3600.0).unwrap();
        assert!(via_res.synchronized);
        assert_eq!(via_res.wasted_node_seconds, 0.0);
        assert!(via_res.start >= 3600.0);
        // Queue-based co-allocation wastes processors while parts wait for each other.
        assert!(via_queues.wasted_node_seconds > 0.0);
        assert!(!via_queues.synchronized);
        // Reservations are actually booked on the sites.
        assert!(
            r_sites
                .iter()
                .filter(|s| s.calendar.capacity_at(via_res.start) < s.spec.procs as f64)
                .count()
                >= 3
        );
    }

    #[test]
    fn reservation_coallocation_fails_without_enough_capable_sites() {
        let req = CoallocationRequest {
            parts: 3,
            procs: 64,
            duration: 3600.0,
        };
        let mut sites = standard_metasystem(3, 29);
        sites[0].spec.supports_reservations = false;
        assert!(coallocate_via_reservations(&req, &mut sites, 0.0, 0.0).is_none());
    }

    #[test]
    fn hierarchy_matches_figure_one() {
        let sites = standard_metasystem(2, 31);
        let entities = build_hierarchy(&sites, 4);
        let count = |k: EntityKind| entities.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EntityKind::NodeScheduler), 2);
        assert_eq!(count(EntityKind::MachineScheduler), 2);
        assert_eq!(count(EntityKind::MetaScheduler), 1);
        assert_eq!(count(EntityKind::ApplicationScheduler), 1);
        assert_eq!(count(EntityKind::User), 4);
        // users submit to meta- and application schedulers, which submit to machine
        // schedulers, which drive node schedulers
        let user = entities
            .iter()
            .find(|e| e.kind == EntityKind::User)
            .unwrap();
        assert_eq!(user.children.len(), 2);
        let meta = entities
            .iter()
            .find(|e| e.kind == EntityKind::MetaScheduler)
            .unwrap();
        assert_eq!(meta.children.len(), 2);
        for &c in &meta.children {
            assert_eq!(entities[c].kind, EntityKind::MachineScheduler);
            assert_eq!(
                entities[entities[c].children[0]].kind,
                EntityKind::NodeScheduler
            );
        }
    }
}
