//! Tourist guide: "the menus of restaurants along the route of a car".
//!
//! The paper motivates extended logical mobility with exactly this kind of
//! longer-lasting location awareness: the client cannot rely on a menu
//! being published *just* as it enters a region — it may miss it "by a
//! fraction of a second". Pre-subscriptions cast information shadows ahead
//! of the car, buffering menus with a *semantic* policy (only the latest
//! menu per restaurant matters), and replay them on arrival — "for the
//! client this is equivalent to a subscription in the past".
//!
//! The movement graph is passed explicitly (`Some(..)`) and validated
//! against the topology by the fallible builder; the car is a typed
//! [`rebeca::MobileClient`] handle.
//!
//! Run with: `cargo run --example tourist_guide`

use rebeca::{
    BrokerId, BufferSpec, Deployment, Filter, LocationId, MovementGraph, Notification, RebecaError,
    ReplicatorConfig, SimDuration, SystemBuilder, Topology,
};

fn main() -> Result<(), RebecaError> {
    // Five regions along a motorway, one border broker each.
    let regions = 5usize;
    let mut sys = SystemBuilder::new(Topology::line(regions)?)
        .deployment(Deployment::Replicated {
            movement: Some(MovementGraph::line(regions)),
            config: ReplicatorConfig {
                // Semantic buffering: a new menu nullifies the old menu of
                // the same restaurant.
                buffer: BufferSpec::Semantic { key_attrs: vec!["restaurant".into()] },
                ..Default::default()
            },
        })
        .build()?;

    // One menu publisher per region.
    let publishers = (0..regions)
        .map(|r| sys.add_client(BrokerId::new(r as u32)))
        .collect::<Result<Vec<_>, _>>()?;

    // The car starts in region 0, subscribed to menus at its location.
    let car = sys.add_mobile_client();
    sys.arrive(car, BrokerId::new(0))?;
    sys.run_for(SimDuration::from_millis(500));
    sys.subscribe(car, Filter::builder().eq("service", "menu").myloc("location").build())?;
    sys.run_for(SimDuration::from_millis(500));

    // Restaurants publish menus over time — including *updates* that
    // supersede earlier menus.
    let publish_menu = |sys: &mut rebeca::System,
                        region: usize,
                        restaurant: i64,
                        dish: &str|
     -> Result<(), RebecaError> {
        sys.publish(
            publishers[region],
            Notification::builder()
                .attr("service", "menu")
                .attr("location", LocationId::new(region as u32))
                .attr("restaurant", restaurant)
                .attr("dish", dish),
        )?;
        sys.run_for(SimDuration::from_secs(1));
        Ok(())
    };

    // While the car is still in region 0, region 1's restaurants publish.
    publish_menu(&mut sys, 1, 10, "yesterday's soup")?;
    publish_menu(&mut sys, 1, 10, "katsu curry")?; // supersedes the soup
    publish_menu(&mut sys, 1, 11, "linguine")?;
    publish_menu(&mut sys, 2, 20, "schnitzel")?; // region 2: outside nlb(B0) for now

    // Drive: region 0 → 1 → 2.
    for next in [1u32, 2u32] {
        sys.depart(car)?;
        sys.run_for(SimDuration::from_millis(300));
        sys.arrive(car, BrokerId::new(next))?;
        sys.run_for(SimDuration::from_secs(1));
        println!("-- car arrives in region {next}; guide shows:");
        let mut dishes = Vec::new();
        for record in sys.take_delivered(car)? {
            let n = &record.notification;
            let dish = n.get("dish").and_then(|v| v.as_str()).unwrap_or("?").to_owned();
            println!(
                "   restaurant {}: {dish}",
                n.get("restaurant").and_then(|v| v.as_int()).unwrap_or(-1),
            );
            dishes.push(dish);
        }
        if next == 1 {
            // The claim: region 1's shadow replays the latest menu of each
            // restaurant, and the semantic buffer nullified the soup.
            for dish in ["katsu curry", "linguine"] {
                assert!(dishes.iter().any(|d| d == dish), "region 1 must replay {dish}");
            }
            assert!(
                !dishes.iter().any(|d| d == "yesterday's soup"),
                "the superseded menu must not be replayed"
            );
            // More menus appear while the car is in region 1; region 2's
            // shadow (created when the car reached region 1) buffers them.
            publish_menu(&mut sys, 2, 21, "dumplings")?;
        }
    }

    let stats = sys.client_stats(car)?;
    println!(
        "\nduplicates suppressed: {}, FIFO violations: {}",
        stats.duplicates, stats.fifo_violations
    );
    println!("note: restaurant 10 shows only 'katsu curry' — the semantic buffer nullified");
    println!("the superseded soup menu; region 2's early 'schnitzel' was published before any");
    println!("shadow existed there (pop-up coverage is what §4's exception mode is about).");
    Ok(())
}
