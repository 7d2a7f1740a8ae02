//! The op-log bound, seen through the facade: what the replica groups keep
//! resident follows the live tables, not the number of re-subscriptions
//! that ever ran.
//!
//! In the paper a logical-mobility location change *is* a re-subscription.
//! A client that keeps 1 000 filters live and moves 50 000 times logs
//! 100 000 ops at its border broker's group, and as many neighbour
//! announcements at each group up the line — and every member of every
//! group must end up holding about a thousand entries, as it did at the
//! half-way point.

use rebeca::broker::replication::{MAX_BATCH_OPS, PREPARE_WINDOW};
use rebeca::{BrokerId, Filter, RebecaError, SimDuration, SystemBuilder, Topology};
use std::collections::VecDeque;

const LIVE: usize = 1_000;
const CYCLES: usize = 50_000;
const GROUP: usize = 3;
const BROKERS: usize = 3;

#[test]
fn resident_log_follows_live_filters_not_cycles() -> Result<(), RebecaError> {
    let mut sys = SystemBuilder::new(Topology::line(BROKERS)?).replication(GROUP).build()?;
    let roamer = sys.add_client(BrokerId::new(2))?;
    sys.run_for(SimDuration::from_millis(100));
    let mut live = VecDeque::with_capacity(LIVE);
    for i in 0..LIVE {
        live.push_back(sys.subscribe(roamer, Filter::builder().eq("room", i as i64).build())?);
    }
    sys.run_for(SimDuration::from_secs(2));

    // Per member: its live entries (the filters, and a client at the border
    // broker) with slack for a table that is mid-move, plus the most a
    // primary keeps uncommitted.
    let per_member = 2 * LIVE + PREPARE_WINDOW * MAX_BATCH_OPS;
    let bound = (BROKERS * GROUP * per_member) as u64;
    let mut logged_at_midpoint = 0;
    for cycle in 0..CYCLES {
        // One location change: the oldest filter goes, a new one comes.
        let gone = live.pop_front().expect("LIVE filters are live");
        sys.unsubscribe(roamer, gone)?;
        let room = (LIVE + cycle) as i64;
        live.push_back(sys.subscribe(roamer, Filter::builder().eq("room", room).build())?);
        if cycle % 100 == 99 {
            sys.run_for(SimDuration::from_millis(50));
        }
        if cycle + 1 == CYCLES / 2 {
            sys.run_for(SimDuration::from_secs(1));
            let stats = sys.replication_stats().expect("replication is on");
            assert!(stats.log_resident <= bound, "at the midpoint: {stats:?}");
            logged_at_midpoint = stats.ops_logged;
        }
    }
    sys.run_for(SimDuration::from_secs(2));

    let stats = sys.replication_stats().expect("replication is on");
    assert!(stats.ops_logged >= (BROKERS * 2 * CYCLES) as u64, "{stats:?}");
    assert!(stats.ops_logged >= 2 * logged_at_midpoint - (BROKERS * 2 * LIVE) as u64);
    assert!(stats.log_resident <= bound, "at the end: {stats:?}");
    // Quiescent, every member has folded everything it logged, and holds
    // exactly its table: 1 000 filters each, and the client at broker 2's.
    assert_eq!(stats.ops_folded, GROUP as u64 * stats.ops_logged, "{stats:?}");
    assert_eq!(stats.log_resident, (GROUP * (BROKERS * LIVE + 1)) as u64, "{stats:?}");
    for b in 0..BROKERS {
        assert_eq!(sys.table_size(BrokerId::new(b as u32))?, LIVE, "broker {b}");
    }
    Ok(())
}
