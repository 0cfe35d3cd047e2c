//! Wire-format strictness of the master session.
//!
//! The tag-7 statistics payload is exactly the 10 reals a worker
//! sends; a tag-7 payload of any other shape must surface as a typed
//! protocol error, not a plausible-looking report.

use msgpass::channel::{ChannelEndpoint, ChannelWorld};
use msgpass::Transport;
use plinger::{
    master_job_session, FarmError, JobControl, MasterConfig, RunSpec, SchedulePolicy, WorkerEvent,
    TAG_JOBDONE, TAG_NEWJOB, TAG_REQUEST, TAG_STATS,
};
use std::thread;
use std::time::{Duration, Instant};

fn fast_cfg() -> MasterConfig {
    MasterConfig {
        poll: Duration::from_millis(5),
        drain_timeout: Duration::from_millis(300),
        ..MasterConfig::default()
    }
}

fn split_pair() -> (ChannelEndpoint, ChannelEndpoint) {
    let mut eps = ChannelWorld::new(2);
    let worker = eps.drain(1..).next().unwrap();
    let master = eps.pop().unwrap();
    (master, worker)
}

#[test]
fn garbled_stats_payload_is_a_protocol_error() {
    // an empty k-grid reduces the protocol to its bookkeeping frame:
    // job open → request → release → stats
    let spec = RunSpec::standard_cdm(Vec::new());
    let (mut master_ep, mut wep) = split_pair();
    let h = thread::spawn(move || {
        let mut buf = Vec::new();
        wep.recv(0, TAG_NEWJOB, &mut buf).unwrap();
        wep.send(0, TAG_REQUEST, &[0.0]).unwrap();
        wep.recv(0, TAG_JOBDONE, &mut buf).unwrap();
        // not 10 reals: must be rejected, not zero-padded
        wep.send(0, TAG_STATS, &[1.0, 2.0, 3.0]).unwrap();
    });
    let mut watch = || -> Vec<WorkerEvent> { Vec::new() };
    let err = master_job_session(
        &mut master_ep,
        &spec,
        SchedulePolicy::Fifo,
        &fast_cfg(),
        &mut watch,
        Instant::now(),
        &JobControl::default(),
        None,
    )
    .unwrap_err();
    h.join().unwrap();
    match err {
        FarmError::Protocol { rank, detail } => {
            assert_eq!(rank, 1);
            assert!(detail.contains("stats"), "{detail}");
        }
        other => panic!("expected Protocol, got {other}"),
    }
}
