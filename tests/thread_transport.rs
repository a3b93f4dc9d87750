//! Transport-independence validation: the same daemon actors that drive
//! the 20K-node discrete-event experiments run here on real OS threads
//! with crossbeam channels, under genuine concurrency, and must reach the
//! same protocol outcomes.

use eslurm_suite::emu::{NodeId, ThreadCluster};
use eslurm_suite::eslurm::{EslurmConfig, EslurmNode, EslurmSystemBuilder, SatelliteDaemon};
use eslurm_suite::rm::{
    CentralizedMaster, CtlKind, NodeSlice, RmMsg, RmNode, RmProfile, SlaveConfig, SlaveDaemon,
    SlaveHeartbeat,
};
use eslurm_suite::simclock::{SimSpan, SimTime};
use std::time::Duration;

fn quiet_slave() -> SlaveDaemon {
    SlaveDaemon::new(SlaveConfig {
        heartbeat: SlaveHeartbeat::None,
        ..Default::default()
    })
}

#[test]
fn centralized_job_lifecycle_on_threads() {
    let n = 32;
    let mut actors = vec![RmNode::Master(CentralizedMaster::new(
        RmProfile::slurm(),
        (1..=n).collect(),
    ))];
    for _ in 0..n {
        actors.push(RmNode::Slave(quiet_slave()));
    }
    let cluster = ThreadCluster::start(actors, 77);
    cluster.inject(
        NodeId::MASTER,
        NodeId::MASTER,
        RmMsg::SubmitJob {
            job: 7,
            nodes: NodeSlice::new((1..=n).collect()),
            runtime_us: 50_000, // 50 ms of "computation"
        },
    );
    std::thread::sleep(Duration::from_millis(600));
    let done = cluster.shutdown();
    let RmNode::Master(master) = &done[0].0 else {
        panic!()
    };
    assert_eq!(master.records.len(), 1, "job did not complete on threads");
    let r = master.records[0];
    assert_eq!(r.nodes, n);
    // Every slave executed launch + terminate exactly once.
    for (i, (node, _)) in done.iter().enumerate().skip(1) {
        let RmNode::Slave(s) = node else { panic!() };
        assert_eq!(s.ctl_handled, 2, "slave {i}");
    }
}

#[test]
fn satellite_relay_on_threads_matches_des_outcome() {
    let n_slaves = 60usize;
    let cfg = EslurmConfig {
        eq1_width: 64,
        relay_width: 4,
        ..Default::default()
    };

    // --- Thread transport: master log at node 0, satellite at 1.
    struct Log(Vec<RmMsg>);
    impl eslurm_suite::emu::Actor<RmMsg> for Log {
        fn on_message(
            &mut self,
            _: &mut dyn eslurm_suite::emu::Context<RmMsg>,
            _: NodeId,
            msg: RmMsg,
        ) {
            self.0.push(msg);
        }
    }
    enum Node {
        Log(Log),
        Sat(SatelliteDaemon),
        Slave(SlaveDaemon),
    }
    impl eslurm_suite::emu::Actor<RmMsg> for Node {
        fn on_start(&mut self, ctx: &mut dyn eslurm_suite::emu::Context<RmMsg>) {
            match self {
                Node::Log(_) => {}
                Node::Sat(s) => s.on_start(ctx),
                Node::Slave(s) => s.on_start(ctx),
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut dyn eslurm_suite::emu::Context<RmMsg>,
            from: NodeId,
            msg: RmMsg,
        ) {
            match self {
                Node::Log(l) => l.on_message(ctx, from, msg),
                Node::Sat(s) => s.on_message(ctx, from, msg),
                Node::Slave(s) => s.on_message(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn eslurm_suite::emu::Context<RmMsg>, token: u64) {
            match self {
                Node::Log(_) => {}
                Node::Sat(s) => s.on_timer(ctx, token),
                Node::Slave(s) => s.on_timer(ctx, token),
            }
        }
    }

    let mut actors = vec![
        Node::Log(Log(Vec::new())),
        Node::Sat(SatelliteDaemon::new(cfg.clone(), None)),
    ];
    for _ in 0..n_slaves {
        actors.push(Node::Slave(quiet_slave()));
    }
    let cluster = ThreadCluster::start(actors, 3);
    let list: Vec<u32> = (2..2 + n_slaves as u32).collect();
    cluster.inject(
        NodeId::MASTER,
        NodeId(1),
        RmMsg::BcastTask {
            task: 9,
            job: 4,
            kind: CtlKind::Launch,
            list: NodeSlice::new(list),
            width: 4,
        },
    );
    std::thread::sleep(Duration::from_millis(500));
    let done = cluster.shutdown();
    let Node::Log(log) = &done[0].0 else { panic!() };
    let thread_outcome: Vec<&RmMsg> = log
        .0
        .iter()
        .filter(|m| matches!(m, RmMsg::BcastDone { .. }))
        .collect();
    assert_eq!(thread_outcome.len(), 1, "satellite never reported");
    let RmMsg::BcastDone {
        reached: thread_reached,
        ok: true,
        ..
    } = thread_outcome[0]
    else {
        panic!("unexpected report {:?}", thread_outcome[0]);
    };

    // --- DES transport: the full system wiring, same satellite logic.
    let mut sys = EslurmSystemBuilder::new(
        EslurmConfig {
            n_satellites: 1,
            ..cfg
        },
        n_slaves,
        3,
    )
    .build();
    sys.submit(SimTime::from_secs(1), 4, 0..n_slaves, SimSpan::from_secs(1));
    sys.sim.run_until(SimTime::from_secs(30));
    assert_eq!(sys.master().records.len(), 1);

    // Same protocol outcome: every targeted node reached on both
    // transports.
    assert_eq!(*thread_reached, n_slaves as u32);
    let des_reached: u64 = (0..n_slaves)
        .map(|i| {
            let node = sys.slave_id(i);
            match sys.sim.actor(NodeId(node)) {
                EslurmNode::Slave(s) => s.ctl_handled,
                _ => 0,
            }
        })
        .sum();
    // Launch + terminate on every node via the DES.
    assert_eq!(des_reached, 2 * n_slaves as u64);
}

#[test]
fn thread_transport_survives_node_failure() {
    let n = 20;
    let mut actors = vec![RmNode::Master(CentralizedMaster::new(
        RmProfile::slurm(),
        (1..=n).collect(),
    ))];
    for _ in 0..n {
        actors.push(RmNode::Slave(quiet_slave()));
    }
    let cluster = ThreadCluster::start(actors, 13);
    // Node 5 is down before the launch goes out.
    cluster.set_up(NodeId(5), false);
    cluster.inject(
        NodeId::MASTER,
        NodeId::MASTER,
        RmMsg::SubmitJob {
            job: 1,
            nodes: NodeSlice::new((1..=n).collect()),
            runtime_us: 30_000,
        },
    );
    // Wait past the slave ack timeouts (depth-scaled, ~12 s would be the
    // DES value; on threads the same spans elapse in real time, so use a
    // small tree and short runtimes — the relay depth here is 2 levels).
    std::thread::sleep(Duration::from_millis(300));
    let meter = cluster.meter(NodeId::MASTER);
    // The master received at least the partial launch acks.
    let (_, received) = meter.msg_counts();
    assert!(received >= 1, "master heard nothing after a node failure");
    cluster.shutdown();
}
