//! Quickstart: bring up an emulated ESlurm cluster, submit a few jobs,
//! and watch the distributed RM do its work.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use eslurm_suite::eslurm::prelude::*;

fn main() {
    // A 256-node cluster managed by one master and two satellite nodes.
    let config = EslurmConfig {
        n_satellites: 2,
        eq1_width: 64,   // one satellite per 64 job nodes (Eq. 1 width)
        relay_width: 16, // fan-out of the FP communication trees
        ..Default::default()
    };
    let mut system = EslurmSystemBuilder::new(config, 256, /* seed */ 42).build();

    // Submit three jobs: a small one, a half-cluster one, and a full-
    // cluster one, each running for a minute of virtual time.
    system.submit(SimTime::from_secs(5), 1, 0..16, SimSpan::from_secs(60));
    system.submit(SimTime::from_secs(6), 2, 16..144, SimSpan::from_secs(60));
    system.submit(SimTime::from_secs(7), 3, 0..256, SimSpan::from_secs(60));

    // Run ten minutes of virtual time.
    system.sim.run_until(SimTime::from_secs(600));

    let master = system.master();
    println!("completed jobs: {}", master.records.len());
    for r in &master.records {
        println!(
            "  job {} on {:4} nodes: launch {:.3}s, occupation {:.3}s",
            r.job,
            r.nodes,
            (r.launch_done - r.submitted).as_secs_f64(),
            r.occupation().as_secs_f64(),
        );
    }
    println!(
        "heartbeat sweeps completed: {} (each confirming {} nodes)",
        master.sweeps().len(),
        master.sweeps().first().map(|s| s.reached).unwrap_or(0),
    );
    println!(
        "satellite reassignments: {}, master takeovers: {}",
        master.reassignments(),
        master.takeovers()
    );

    // The headline property: the master only ever talks to its satellites.
    let m = system.sim.meter(eslurm_suite::emu::NodeId::MASTER);
    println!(
        "master peak concurrent sockets: {} (with {} compute nodes!)",
        m.peak_sockets(),
        system.n_slaves
    );
}
