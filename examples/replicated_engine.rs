//! The network layer end to end: a durable transactor `Engine` behind
//! a `Server`, a `Client` writing over TCP loopback, and a read
//! `Replica` — a durable follower `Engine` streaming the committed
//! epochs — converging, reporting lag, answering time-travel queries
//! from its own retention window, served over TCP by a second `Server`
//! and read by a second `Client`, refusing writes, and (the finale)
//! surviving a severed connection: killed mid-stream, it reconnects,
//! resumes from its applied epoch, and catches up the missed epochs
//! from the transactor's WAL.
//!
//! Run with `cargo run --release --example replicated_engine`.

use onion_curve::clustering::RectQuery;
use onion_curve::engine::{Engine, EngineConfig, Request, Response};
use onion_curve::index::DiskModel;
use onion_curve::net::{Client, Replica, ReplicaState, Server};
use onion_curve::workloads::{mixed_op_stream, ChaosInjector, ChaosProxy, OpMix};
use onion_curve::{Onion2D, Point, SfcError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIDE: u32 = 1 << 6;

fn await_applied(replica: &Replica<Onion2D, u64, 2>, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let status = replica.status();
        assert!(
            status.state != ReplicaState::Failed,
            "replica fault: {:?}",
            status.last_error
        );
        if status.applied >= target {
            return;
        }
        assert!(Instant::now() < deadline, "replica failed to converge");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() {
    // The transactor: a DURABLE engine on the onion curve — the WAL it
    // commits is also what lets a severed replica catch up later.
    // Manual epoch control so the example's flushes are the epochs.
    let dir = std::env::temp_dir().join(format!("onion-replicated-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = |name: &str, shards: usize, config: EngineConfig| {
        Engine::<Onion2D, u64, 2>::open(
            dir.join(name),
            Onion2D::new(SIDE).unwrap(),
            DiskModel::ssd(),
            shards,
            config,
        )
        .unwrap()
    };
    let engine = Arc::new(open("transactor", 2, EngineConfig::with_epoch_ops(1 << 20)));

    // Put it on the network: ephemeral loopback port.
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    println!("transactor serving on {addr}");

    // The replica is an ordinary engine that follows: durable too (it
    // logs every epoch it applies, so a restart resumes where it left
    // off), and re-partitioned to 3 shards — like recovery, replication
    // is shard-count agnostic. It subscribes THROUGH a chaos proxy — a
    // deterministic fault point we'll use to sever its connection
    // later. `Replica::start` is self-healing by default: connection
    // loss means reconnect-and-resume, not death.
    let injector = ChaosInjector::new();
    let proxy = ChaosProxy::spawn(&addr, Arc::clone(&injector)).unwrap();
    let replica =
        Replica::start(&proxy.addr(), open("follower", 3, EngineConfig::default())).unwrap();

    // A client drives writes over the wire: 4 epochs of mixed traffic.
    let mut client = Client::<Onion2D, u64, 2>::connect(&addr).unwrap();
    client.ping().unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    for epoch in 1..=4u64 {
        let ops = mixed_op_stream::<2, _>(SIDE, 250, &OpMix::balanced(), 0.7, 8, &mut rng);
        for op in ops {
            client.execute(op.into()).unwrap();
        }
        let applied = client.flush().unwrap();
        println!(
            "epoch {epoch}: committed {applied} ops; replica lag {} epoch(s)",
            replica.status().lag
        );
    }
    let committed = engine.stats().epochs;

    // Convergence: wait (bounded) for the replica to drain the stream.
    await_applied(&replica, committed);
    let status = replica.status();
    println!(
        "\nreplica converged: applied epoch {} of {}, lag {}",
        status.applied, committed, status.lag
    );

    // The replica answers reads locally — no round-trip to the
    // transactor — through its engine's one dispatcher, and matches the
    // transactor record for record.
    let follower = replica.engine();
    let records = |response| match response {
        Response::Records(records) => records,
        other => panic!("a query answered {other:?}"),
    };
    let q = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
    let from_replica = records(follower.execute(Request::Query(q)).unwrap());
    let from_transactor = client.query(q).unwrap();
    assert_eq!(from_replica, from_transactor);
    println!(
        "full-rectangle scan: {} records, identical on both sides",
        from_replica.len()
    );

    // Point reads too, straight off the follower.
    let p = Point::new([SIDE / 2, SIDE / 2]);
    println!(
        "replica Get({p:?}) = {:?}",
        follower.execute(Request::Get(p)).unwrap()
    );

    // Time travel on the replica: its retention window holds the same
    // recent epochs the transactor's does (and its own WAL the older
    // ones), so `QueryAsOf` answers without asking the transactor.
    for epoch in 1..=committed {
        match follower.execute(Request::QueryAsOf { epoch, query: q }) {
            Ok(response) => println!(
                "as of epoch {epoch}: {} records (answered by the replica)",
                records(response).len()
            ),
            Err(e) => println!("as of epoch {epoch}: {e}"),
        }
    }

    // The follower is an engine, so it serves over TCP like any other.
    // A second client reads it there; writes are refused with a typed
    // error (they belong to the transactor).
    let replica_server = Server::spawn(Arc::clone(follower), "127.0.0.1:0").unwrap();
    let mut reader =
        Client::<Onion2D, u64, 2>::connect(&replica_server.local_addr().to_string()).unwrap();
    assert_eq!(reader.query(q).unwrap(), from_transactor);
    let refused = reader.update(p, 7).unwrap_err();
    assert!(matches!(refused, SfcError::ReadOnly { .. }), "{refused:?}");
    println!(
        "replica serving on {}: scan identical, Update refused ({refused})",
        replica_server.local_addr()
    );

    // Failover: sever the replica's subscription, then keep writing.
    // The replica reconnects under its backoff policy, re-subscribes
    // from its applied epoch, and the transactor's WAL serves exactly
    // the epochs it missed — exactly-once, no re-seeding.
    println!("\nsevering the replica's connection (proxy kill)...");
    proxy.kill_all();
    for _ in 0..2 {
        let ops = mixed_op_stream::<2, _>(SIDE, 250, &OpMix::balanced(), 0.7, 8, &mut rng);
        for op in ops {
            client.execute(op.into()).unwrap();
        }
        client.flush().unwrap();
    }
    let committed = engine.stats().epochs;
    await_applied(&replica, committed);
    let status = replica.status();
    assert_eq!(status.state, ReplicaState::Streaming);
    assert!(status.reconnects >= 1);
    println!(
        "replica healed: applied epoch {} of {}, lag {}, reconnects {}",
        status.applied, committed, status.lag, status.reconnects
    );
    let healed = reader.query(q).unwrap();
    assert_eq!(healed, client.query(q).unwrap());
    println!(
        "post-failover scan over the replica's server: {} records, identical again",
        healed.len()
    );

    replica_server.shutdown();
    replica.stop();
    proxy.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nclean shutdown: replica stopped, proxy and both servers joined");
}
