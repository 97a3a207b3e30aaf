//! Simulator kernel throughput: events per second through the engine and
//! queue churn at the live-event counts a session reaches.
//!
//! A session keeps a handful of events pending (2.7 on average over a fleet
//! campaign, never more than about a dozen), and the queue's operations are
//! O(live), so the queue benches hold 4 and 16 live events rather than
//! thousands.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use eavs_sim::prelude::*;

struct PingPong {
    remaining: u64,
}

impl World for PingPong {
    type Event = ();
    fn handle(&mut self, sched: &mut Scheduler<()>, _: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(SimDuration::from_micros(10), ());
        }
    }
}

fn pseudo_delay(i: u64) -> SimDuration {
    SimDuration::from_nanos(1 + i.wrapping_mul(2_654_435_761) % 1_000_000)
}

/// Holds `live` events pending for `steps` steps. Each step pops the
/// earliest event, schedules and cancels a victim, and re-arms the popped
/// event later: the session loop's pattern (a timer fires and re-arms, a
/// vsync or timeout is cancelled and re-set).
fn churn(live: u64, steps: u64) -> u64 {
    let mut q = EventQueue::new();
    for i in 0..live {
        q.push(SimTime::ZERO + pseudo_delay(i), i);
    }
    let mut acc = 0u64;
    for i in 0..steps {
        let (now, v) = q.pop().expect("live events pending");
        acc = acc.wrapping_add(v);
        let victim = q.push(now + pseudo_delay(i + 7), i);
        assert!(q.cancel(victim));
        q.push(now + pseudo_delay(i), v);
    }
    acc
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    const N: u64 = 100_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("event_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(PingPong { remaining: N });
            sim.scheduler().schedule_at(SimTime::ZERO, ());
            sim.run();
            black_box(sim.now())
        })
    });

    const STEPS: u64 = 10_000;
    for live in [4, 16] {
        group.throughput(Throughput::Elements(STEPS));
        group.bench_function(&format!("queue_churn_live{live}_10k"), |b| {
            b.iter(|| black_box(churn(live, STEPS)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
