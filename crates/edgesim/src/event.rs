//! The simulation event queue: time-ordered, FIFO on ties, over small
//! `Copy` event records.

use crate::SimTime;

/// A scheduled simulation event.
///
/// Events are small `Copy` records carrying only index-based ids — device
/// indices, port indices into the switch fabric, and slab-recycled frame /
/// transfer ids — so the executor's hot loop pushes 16-byte payloads
/// through the queue with no boxing and no per-event allocation.
///
/// `Arrive` is the direct-delivery transport's one event; the compute and
/// retry events belong to the application layer, which both delivery
/// modes share; the rest exist only when a [`crate::Topology`] is
/// configured.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A whole message finishes arriving at its destination
    /// (direct-delivery mode). The destination follows from `kind`: the
    /// cloud for cloud-bound kinds, the device otherwise.
    Arrive {
        /// The device sending or receiving the message.
        device: u32,
        /// What the message carries.
        kind: MessageKind,
    },
    /// A compute job completes on a device.
    DeviceComputeDone {
        /// Device index.
        device: u32,
    },
    /// A compute job completes on the cloud on behalf of a device.
    CloudComputeDone {
        /// Device the result belongs to.
        device: u32,
    },
    /// A device's response deadline for a prior request expires. Stale
    /// timers (the response arrived first, or a later attempt superseded
    /// this one) are ignored when they fire.
    RetryTimer {
        /// Device index.
        device: u32,
        /// The request attempt this deadline belongs to (1-based).
        attempt: u32,
    },
    /// A switch/NIC port finishes transmitting its head-of-line frame
    /// (topology mode).
    PortDeparture {
        /// Port index into the fabric.
        port: u32,
    },
    /// A frame finishes propagating to its next-hop port and attempts to
    /// enter that port's drop-tail queue (topology mode).
    PortArrive {
        /// Destination port index.
        port: u32,
        /// Frame slab id.
        frame: u32,
    },
    /// A frame finishes propagating to its destination host's NIC
    /// (topology mode).
    Deliver {
        /// Frame slab id.
        frame: u32,
    },
    /// A reliable transfer's go-back-N retransmit timeout fires
    /// (topology mode). Stale timers — the transfer completed, was
    /// recycled (`gen` mismatch), or the timer was superseded (`epoch`
    /// mismatch) — are ignored.
    RetxTimer {
        /// Transfer slab id.
        transfer: u32,
        /// Slab generation the timer was armed against.
        gen: u32,
        /// Arming epoch the timer belongs to.
        epoch: u32,
    },
    /// A reliable transfer opens its go-back-N window and sends its first
    /// burst (topology mode; delayed past `t=0` by connection handshakes).
    TransferStart {
        /// Transfer slab id.
        transfer: u32,
        /// Slab generation the start was scheduled against.
        gen: u32,
    },
}

/// The kinds of payloads exchanged between cloud and devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A device asks the cloud for its DP prior.
    PriorRequest,
    /// The cloud ships the serialized mixture prior.
    PriorPayload,
    /// A device uploads its raw local samples.
    RawData,
    /// The cloud returns a trained model.
    ModelPayload,
    /// A device reports its fitted model back to the cloud (the
    /// `dre-serve` `ModelReport` telemetry leg; only modeled when a
    /// [`crate::ClientMode`] is configured).
    ModelReport,
}

impl MessageKind {
    /// Whether a device sends this kind to the cloud (rather than the
    /// cloud to a device).
    pub(crate) fn is_cloud_bound(self) -> bool {
        matches!(
            self,
            MessageKind::PriorRequest | MessageKind::RawData | MessageKind::ModelReport
        )
    }
}

/// The pending-event set: pops the earliest event, FIFO among equal
/// timestamps, so runs are deterministic.
///
/// A monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990) over
/// integer-µs [`SimTime`]. The executor only ever schedules at or after
/// the time it last popped (`now + d`, or the cloud's `busy_until ≥ now`),
/// so popped times never decrease, and an event is filed by the highest
/// bit in which its time differs from `last`, the last popped time:
/// bucket `64 − lzcnt(t ⊕ last)`, with bucket 0 holding events at exactly
/// `last`. Popping takes the head of bucket 0; when it is empty, the
/// lowest non-empty bucket's tracked minimum becomes `last` and that
/// bucket's events are refiled into lower buckets. Each event is refiled
/// at most 64 times over its life, and only when the queue's horizon
/// moves, so the common case is an O(1) append and an O(1) pop.
///
/// The 65 buckets are FIFO lists threaded through one slab of nodes
/// (`{time, event, next}`, 32 bytes, the size of a binary-heap entry that
/// carries a `u64` tie-break counter); popped nodes go on a free list.
/// [`EventQueue::with_capacity`] sizes the slab once, and the steady state
/// never touches the allocator.
///
/// **FIFO on ties, without a sequence counter.** An event's bucket is a
/// function of its time and `last` alone, and refiling preserves that
/// (`last` only moves within the refiled bucket's range, which leaves
/// every higher bucket's events where they belong), so events with equal
/// times always share a bucket. Every bucket's list is in schedule order:
/// `schedule` appends at the tail, and a bucket is refiled only when every
/// lower bucket is empty, walking its list in order into those empty
/// buckets. Bucket 0 pops from its head, so equal times pop in schedule
/// order.
#[derive(Debug)]
pub struct EventQueue {
    /// Node slab; a node is either in one bucket's list or on the free
    /// list.
    nodes: Vec<Node>,
    /// Head of the free list, or [`NIL`].
    free: u32,
    heads: [u32; BUCKETS],
    tails: [u32; BUCKETS],
    /// Earliest time in each non-empty bucket.
    mins: [u64; BUCKETS],
    /// Bit `b − 1` is set iff bucket `b ≥ 1` is non-empty (bucket 0's
    /// state is its head).
    occupied: u64,
    /// The last popped time (0 before the first pop), in µs.
    last: u64,
    len: usize,
}

const BUCKETS: usize = 65;

/// The null link.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    time: SimTime,
    event: Event,
    next: u32,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::with_capacity(0)
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Creates an empty queue with pre-allocated room for `capacity`
    /// pending events, so the steady-state hot loop never reallocates the
    /// node slab. Benchmarks and large scenarios size this up front.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            heads: [NIL; BUCKETS],
            tails: [NIL; BUCKETS],
            mins: [0; BUCKETS],
            occupied: 0,
            last: 0,
            len: 0,
        }
    }

    /// Number of pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event's time:
    /// scheduling into the past is a causality bug in the caller.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let t = time.as_micros();
        assert!(
            t >= self.last,
            "EventQueue: event scheduled at {t} µs, before the last popped time {} µs",
            self.last
        );
        let node = Node {
            time,
            event,
            next: NIL,
        };
        let id = if self.free != NIL {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        } else {
            let id = self.nodes.len();
            assert!(
                id < NIL as usize,
                "EventQueue holds at most 2^32 - 1 events"
            );
            self.nodes.push(node);
            id as u32
        };
        self.append(self.bucket(t), id, t);
        self.len += 1;
    }

    /// Pops the earliest event (FIFO among equal timestamps).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.heads[0] == NIL {
            if self.occupied == 0 {
                return None;
            }
            self.refile(self.occupied.trailing_zeros() as usize + 1);
        }
        let id = self.heads[0];
        let node = self.nodes[id as usize];
        self.heads[0] = node.next;
        self.nodes[id as usize].next = self.free;
        self.free = id;
        self.len -= 1;
        Some((node.time, node.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket an event at `t` belongs in, relative to `last`.
    fn bucket(&self, t: u64) -> usize {
        (64 - (t ^ self.last).leading_zeros()) as usize
    }

    /// Appends node `id` (time `t`) at the tail of bucket `b`.
    fn append(&mut self, b: usize, id: u32, t: u64) {
        if self.heads[b] == NIL {
            self.heads[b] = id;
            self.mins[b] = t;
            if b > 0 {
                self.occupied |= 1 << (b - 1);
            }
        } else {
            self.nodes[self.tails[b] as usize].next = id;
            self.mins[b] = self.mins[b].min(t);
        }
        self.tails[b] = id;
    }

    /// Advances `last` to bucket `b`'s minimum and refiles its events, in
    /// list order, into the (empty) lower buckets. Bucket 0 is non-empty
    /// afterwards.
    fn refile(&mut self, b: usize) {
        self.last = self.mins[b];
        let mut id = self.heads[b];
        self.heads[b] = NIL;
        self.occupied &= !(1 << (b - 1));
        while id != NIL {
            let node = &mut self.nodes[id as usize];
            let next = node.next;
            node.next = NIL;
            let t = node.time.as_micros();
            self.append(self.bucket(t), id, t);
            id = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The binary-heap queue the radix heap replaced, kept as the
    /// differential test's oracle: a min-heap of `(time, seq, event)`
    /// whose `u64` schedule counter breaks ties FIFO.
    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<Entry>,
        seq: u64,
    }

    struct Entry {
        time: SimTime,
        seq: u64,
        event: Event,
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl Eq for Entry {}

    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse for a min-heap; sequence breaks ties FIFO.
            other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl ReferenceQueue {
        fn schedule(&mut self, time: SimTime, event: Event) {
            self.heap.push(Entry {
                time,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), Event::DeviceComputeDone { device: 3 });
        q.schedule(at(10), Event::DeviceComputeDone { device: 1 });
        q.schedule(at(20), Event::DeviceComputeDone { device: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for device in 0..5 {
            q.schedule(at(7), Event::DeviceComputeDone { device });
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::DeviceComputeDone { device } => device,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(at(1), Event::CloudComputeDone { device: 0 });
        q.schedule(
            at(2),
            Event::Arrive {
                device: 0,
                kind: MessageKind::PriorRequest,
            },
        );
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn with_capacity_presizes() {
        let mut q = EventQueue::with_capacity(1024);
        assert!(q.capacity() >= 1024);
        let cap_before = q.capacity();
        for i in 0..1024 {
            q.schedule(at(i), Event::DeviceComputeDone { device: 0 });
        }
        // A pre-sized queue absorbs its declared capacity without growing.
        assert_eq!(q.capacity(), cap_before);
    }

    #[test]
    fn equal_time_events_pop_in_schedule_order_property() {
        // Property: for ANY interleaving of timestamps (with heavy ties),
        // events sharing a timestamp pop in exactly the order they were
        // scheduled.
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let times = proptest::collection::vec(0u64..8, 1..200);
        runner
            .run(&times, |times| {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(at(t), Event::DeviceComputeDone { device: i as u32 });
                }
                let mut popped: Vec<(u64, u32)> = Vec::new();
                while let Some((t, e)) = q.pop() {
                    let Event::DeviceComputeDone { device } = e else {
                        unreachable!()
                    };
                    popped.push((t.as_micros(), device));
                }
                // Global time order…
                prop_assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
                // …and schedule (device-index) order within each timestamp.
                prop_assert!(popped
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 || w[0].1 < w[1].1));
                Ok(())
            })
            .unwrap();
    }

    /// The delta a differential-test op schedules at, past the last popped
    /// time: zero (a push at exactly that time), tiny (heavy ties), the
    /// bucket edges `2^k − 1` and `2^k`, the 500 ms RTO, or anything up to
    /// `2^40` µs.
    fn delta(class: u8, k: u32, wide: u64) -> u64 {
        match class {
            0 => 0,
            1 => wide % 4,
            2 => (1 << k) - 1,
            3 => 1 << k,
            4 => 500_000,
            _ => wide,
        }
    }

    #[test]
    fn radix_heap_matches_the_binary_heap_reference() {
        // Property: any interleaving of schedules, pops and drains gives
        // the same `(time, event)` sequence and the same `len()` after
        // every operation from both queues.
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::with_config(
            proptest::test_runner::ProptestConfig::with_cases(256),
        );
        // (op, delta class, bucket-edge exponent, wide delta)
        let ops = proptest::collection::vec((0u8..16, 0u8..6, 0u32..41, 0u64..(1 << 40)), 1..400);
        runner
            .run(&ops, |ops| {
                let mut q = EventQueue::new();
                let mut oracle = ReferenceQueue::default();
                let mut now = 0u64;
                let mut next_id = 0u32;
                for (op, class, k, wide) in ops {
                    match op {
                        // Schedule.
                        0..=8 => {
                            let t = at(now + delta(class, k, wide));
                            let event = Event::RetxTimer {
                                transfer: next_id,
                                gen: k,
                                epoch: class as u32,
                            };
                            next_id += 1;
                            q.schedule(t, event);
                            oracle.schedule(t, event);
                        }
                        // Pop one.
                        9..=14 => {
                            let got = q.pop();
                            prop_assert_eq!(got, oracle.pop());
                            if let Some((t, _)) = got {
                                now = t.as_micros();
                            }
                        }
                        // Drain to empty; later ops refill.
                        _ => loop {
                            let got = q.pop();
                            prop_assert_eq!(got, oracle.pop());
                            match got {
                                Some((t, _)) => now = t.as_micros(),
                                None => break,
                            }
                            prop_assert_eq!(q.len(), oracle.len());
                        },
                    }
                    prop_assert_eq!(q.len(), oracle.len());
                    prop_assert_eq!(q.is_empty(), oracle.len() == 0);
                }
                while let Some(got) = q.pop() {
                    prop_assert_eq!(Some(got), oracle.pop());
                }
                prop_assert_eq!(oracle.pop(), None);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "event scheduled at 9 µs, before the last popped time 10 µs")]
    fn scheduling_before_the_last_popped_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(at(10), Event::DeviceComputeDone { device: 0 });
        q.pop();
        q.schedule(at(9), Event::DeviceComputeDone { device: 1 });
    }

    #[test]
    fn a_node_is_as_small_as_a_binary_heap_entry() {
        // `{time, event, next}` fits in the 32 bytes a `{time, seq, event}`
        // heap entry took, so pre-sizing keeps the same peak memory.
        assert_eq!(std::mem::size_of::<Node>(), 32);
        assert_eq!(std::mem::size_of::<Node>(), std::mem::size_of::<Entry>());
    }
}
