//! Size-bounded paging of handover batches.
//!
//! A replica handover or relocation drain can carry an arbitrarily large
//! buffer. Shipped as one message it would occupy its link for the whole
//! transfer — on a framed inter-process link that head-of-line-blocks
//! every other message between the two processes. Handover batches
//! ([`MobilityMsg::BufferedBatch`] / [`MobilityMsg::ReplicaBatch`]) are
//! therefore paged into chunks bounded by a byte budget, with a `complete`
//! marker on the final chunk; receivers act on notifications per chunk and
//! run their completion logic only when the marked chunk arrives.
//!
//! [`MobilityMsg::BufferedBatch`]: rebeca_broker::MobilityMsg::BufferedBatch
//! [`MobilityMsg::ReplicaBatch`]: rebeca_broker::MobilityMsg::ReplicaBatch

use rebeca_core::Notification;
use std::sync::Arc;

/// Byte budget of one handover chunk: replicators page any larger handover
/// buffer.
pub const DEFAULT_MAX_BATCH_BYTES: usize = 64 * 1024;

/// Splits `items` into pages whose cumulative [`Notification::wire_size`]
/// stays within `max_bytes`; a single notification larger than the budget
/// still gets a page of its own (progress over strictness). Always yields
/// at least one page — possibly empty — so a caller can mark the final
/// chunk `complete` even for an empty buffer.
pub fn pages(items: Vec<Arc<Notification>>, max_bytes: usize) -> Vec<Vec<Arc<Notification>>> {
    let mut out: Vec<Vec<Arc<Notification>>> = Vec::new();
    let mut cur: Vec<Arc<Notification>> = Vec::new();
    let mut cur_bytes = 0usize;
    for n in items {
        let sz = n.wire_size();
        if !cur.is_empty() && cur_bytes + sz > max_bytes {
            out.push(std::mem::take(&mut cur));
            cur_bytes = 0;
        }
        cur_bytes += sz;
        cur.push(n);
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_core::NotificationBuilder;
    use rebeca_core::SimTime;

    fn notif(i: i64, pad: usize) -> Arc<Notification> {
        Arc::new(NotificationBuilder::new().attr("i", i).attr("pad", "x".repeat(pad)).publish(
            rebeca_core::ClientId::new(1),
            i as u64,
            SimTime::ZERO,
        ))
    }

    #[test]
    fn empty_input_yields_one_empty_page() {
        let p = pages(Vec::new(), 100);
        assert_eq!(p.len(), 1);
        assert!(p[0].is_empty());
    }

    #[test]
    fn pages_respect_byte_budget_and_keep_order() {
        let items: Vec<_> = (0..10).map(|i| notif(i, 100)).collect();
        let per = items[0].wire_size();
        let p = pages(items.clone(), per * 3);
        assert!(p.len() >= 3, "10 items at 3 per page need several pages");
        let flat: Vec<_> = p.iter().flatten().cloned().collect();
        assert_eq!(flat.len(), items.len());
        for (a, b) in flat.iter().zip(items.iter()) {
            assert!(Arc::ptr_eq(a, b), "paging must preserve order and share allocations");
        }
        for page in &p {
            let bytes: usize = page.iter().map(|n| n.wire_size()).sum();
            assert!(page.len() == 1 || bytes <= per * 3, "page over budget");
        }
    }

    #[test]
    fn oversized_notification_gets_its_own_page() {
        let big = notif(0, 10_000);
        let small = notif(1, 10);
        let p = pages(vec![small.clone(), big.clone(), small], 64);
        assert_eq!(p.len(), 3, "oversized item must not merge into neighbours");
        assert_eq!(p[1].len(), 1);
        assert!(p[1][0].wire_size() > 64);
    }
}
