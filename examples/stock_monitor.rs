//! Stock monitor (Fig. 1 left): physical mobility / location transparency.
//!
//! "Stock quote monitoring can be seamlessly transferred from PCs to PDAs":
//! a trader follows a ticker subscription while commuting between the
//! office broker and the home broker. The subscription is *not*
//! location-dependent — what matters is that the flow survives
//! disconnection and relocation without losses, duplicates, or reordering.
//!
//! Compares the relocation protocol against the naive (JEDI-style)
//! moveOut/moveIn baseline. The trader is a typed [`rebeca::MobileClient`]
//! handle, so only it — never the exchange's fixed client — can be moved,
//! and each hand-off step is a fallible call.
//!
//! Run with: `cargo run --example stock_monitor`

use rebeca::{
    BrokerId, ClientMobilityMode, Deployment, Filter, Notification, RebecaError, SimDuration,
    SystemBuilder, Topology,
};

fn run(mode: ClientMobilityMode) -> Result<(usize, u64, u64, Vec<i64>), RebecaError> {
    // Home — ISP — exchange — ISP — office.
    let mut sys =
        SystemBuilder::new(Topology::line(5)?).deployment(Deployment::reactive()).build()?;
    let exchange = sys.add_client(BrokerId::new(2))?;
    let trader = sys.add_mobile_client_with_mode(mode);

    // Morning: at home (B0).
    sys.arrive(trader, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(500));
    sys.subscribe(trader, Filter::builder().eq("service", "quote").eq("symbol", "RBCA").build())?;
    sys.run_for(SimDuration::from_millis(500));

    let mut tick = 0i64;
    let mut publish_ticks = |sys: &mut rebeca::System, n: usize| -> Result<(), RebecaError> {
        for _ in 0..n {
            sys.publish(
                exchange,
                Notification::builder()
                    .attr("service", "quote")
                    .attr("symbol", "RBCA")
                    .attr("tick", tick),
            )?;
            tick += 1;
            sys.run_for(SimDuration::from_millis(200));
        }
        Ok(())
    };

    publish_ticks(&mut sys, 5)?; // ticks 0..5 at home

    // Commute: out of coverage for a while — the market keeps moving.
    sys.depart(trader)?;
    publish_ticks(&mut sys, 5)?; // ticks 5..10 while disconnected

    // Arrive at the office (B4).
    sys.arrive(trader, BrokerId::new(4))?;
    sys.run_for(SimDuration::from_secs(1));
    publish_ticks(&mut sys, 5)?; // ticks 10..15 at the office
    sys.run_for(SimDuration::from_secs(2));

    let ticks: Vec<i64> = sys
        .delivered(trader)?
        .iter()
        .filter_map(|r| r.notification.get("tick").and_then(|v| v.as_int()))
        .collect();
    let stats = sys.client_stats(trader)?;
    Ok((ticks.len(), stats.duplicates, stats.fifo_violations, ticks))
}

fn main() -> Result<(), RebecaError> {
    println!("trader follows RBCA quotes; 15 ticks published: 5 at home, 5 while");
    println!("commuting (disconnected), 5 at the office\n");
    for (label, mode) in [
        ("relocation (mobile REBECA)", ClientMobilityMode::Relocation),
        ("naive moveOut/moveIn (JEDI-style)", ClientMobilityMode::Naive),
    ] {
        let (delivered, dups, fifo, ticks) = run(mode)?;
        println!("{label}:");
        println!("  delivered {delivered}/15 ticks, {dups} duplicates, {fifo} FIFO violations");
        println!("  ticks: {ticks:?}\n");
        match mode {
            ClientMobilityMode::Relocation => {
                assert_eq!(delivered, 15, "relocation must be lossless");
                assert_eq!(fifo, 0);
            }
            ClientMobilityMode::Naive => {
                assert!(delivered < 15, "the commute gap must be lost");
            }
        }
    }
    println!("the relocation protocol buffers at the old border's replicator and replays on");
    println!("re-attachment — a transparent, uninterrupted flow (paper §1, [8]).");
    Ok(())
}
