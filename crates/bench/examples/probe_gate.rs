use chiron::serving::{FaultPlan, ServeConfig};
use chiron::{Chiron, FleetConfig, FleetPhase, FleetSimulation, FleetWorkload, PgpMode};
use chiron_deploy::NodeId;
use chiron_metrics::ArrivalProcess;
use chiron_model::{apps, SimDuration, SimTime};
use chiron_obs::{RegimeConfig, SloPolicy, Trace};
use std::time::Instant;

fn minflt() -> u64 {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap();
    let rest = &s[s.rfind(')').unwrap() + 2..];
    rest.split(' ').nth(7).unwrap().parse().unwrap()
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let wf = apps::finra(12);
    let plan = Chiron::default()
        .deploy(&wf, None, PgpMode::NativeThread)
        .plan()
        .clone();
    let mut locality = vec![1.0; 16];
    locality[0] = 6.0;
    let config = FleetConfig::paper_fleet(16)
        .with_cluster(
            ServeConfig::paper_testbed()
                .with_slo(SloPolicy::multi_window(SimDuration::from_millis(1_200)))
                .with_regime(RegimeConfig::default()),
        )
        .with_locality(locality)
        .with_spill(16, SimDuration::from_millis(2));
    let sim = FleetSimulation::new(wf, plan, config)
        .unwrap()
        .with_cluster_faults(1, FaultPlan::none().kill_at(SimTime::from_millis_f64(6000.0), NodeId(0)));
    let workload = FleetWorkload {
        phases: vec![
            FleetPhase { rps: 2400.0, duration: SimDuration::from_millis(12_000), service_multiplier: 1.0 },
            FleetPhase { rps: 2400.0, duration: SimDuration::from_millis(6_000), service_multiplier: 1.6 },
        ],
        arrivals: ArrivalProcess::Poisson { seed: 7 },
    };
    {
        let plan = Chiron::default().deploy(&apps::finra(12), None, PgpMode::NativeThread).plan().clone();
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc ^= chiron_obs::drift::plan_key(std::hint::black_box(&plan));
        }
        println!("plan_key {:.2} us ({acc})", t0.elapsed().as_secs_f64() * 1e3);
    }
    sim.run(&workload, 2023).unwrap();
    chiron_obs::set_tracing(true);
    let (_, t) = sim.run_sharded_traced(&workload, 2023, 1, 1).unwrap();
    chiron_obs::recycle(t);
    chiron_obs::set_tracing(false);
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut reference: Option<Trace> = None;
    let (mut flt_off, mut flt_on) = (0u64, 0u64);
    for _ in 0..rounds {
        chiron_obs::set_tracing(false);
        let f0 = minflt();
        let t0 = Instant::now();
        sim.run(&workload, 2023).unwrap();
        off.push(t0.elapsed().as_secs_f64() * 1e3);
        flt_off += minflt() - f0;
        chiron_obs::set_tracing(std::env::var("AA").is_err());
        if let Some(t) = reference.take() {
            chiron_obs::recycle(t);
        }
        let f0 = minflt();
        let t0 = Instant::now();
        let (_, parts) = sim.run_sharded_parts(&workload, 2023, 1, 1).unwrap();
        on.push(t0.elapsed().as_secs_f64() * 1e3);
        flt_on += minflt() - f0;
        chiron_obs::set_tracing(false);
        reference = Some(Trace::chain(parts));
    }
    println!("minor faults per pass: off {} on {}", flt_off / rounds as u64, flt_on / rounds as u64);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let med = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    };
    // Gate-style reading per block of 24 rounds.
    let blocks: Vec<String> = off
        .chunks(24)
        .zip(on.chunks(24))
        .filter(|(a, _)| a.len() == 24)
        .map(|(a, b)| format!("{:.3}", (min(b) - min(a)) / min(a)))
        .collect();
    println!(
        "off min {:.3} med {:.3} | on min {:.3} med {:.3} | overhead(min) {:.3} (med) {:.3} | blocks {}",
        min(&off),
        med(&off),
        min(&on),
        med(&on),
        (min(&on) - min(&off)) / min(&off),
        (med(&on) - med(&off)) / med(&off),
        blocks.join(" ")
    );
}
