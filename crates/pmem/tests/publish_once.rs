//! Publish-once accounting: every per-op layer counts into its own stats
//! and publishes `now − published` into a registry. A clone must publish
//! only what it counts itself; the counts it inherited belong to the
//! original, which publishes them.
//!
//! Each test publishes into an isolated `Registry`, so it cannot race
//! other tests on the global counters. The later `Drop` publishes into
//! the global registry, and by then nothing is left unpublished.

use poat_core::{PoolId, Pot, VirtAddr};
use poat_nvm::{DeviceStats, NvmDevice};
use poat_pmem::{Runtime, RuntimeConfig};
use poat_telemetry::{Registry, Series};

const DEVICE_SERIES: [Series<DeviceStats>; 4] = [
    ("nvm.device.bytes_read", |s| s.bytes_read),
    ("nvm.device.bytes_written", |s| s.bytes_written),
    ("nvm.device.clwbs", |s| s.clwbs),
    ("nvm.device.fences", |s| s.fences),
];

/// The sum an original and its clone must publish: the counts at the
/// clone point once, plus what each did afterwards.
fn expected(orig: u64, clone: u64, at_clone: u64) -> u64 {
    orig + clone - at_clone
}

#[test]
fn device_clone_publishes_only_its_own_accesses() {
    let registry = Registry::new();
    let mut dev = NvmDevice::new(1 << 16);
    let pa = dev.alloc_frame().unwrap();
    dev.write(pa, &[1; 16]);
    dev.read(pa, &mut [0; 8]);
    dev.persist_range(pa, 16);

    let mut clone = dev.clone();
    dev.read(pa, &mut [0; 4]);
    clone.write(pa.offset(64), &[2; 32]);
    clone.write(pa.offset(128), &[3; 8]);
    clone.clwb(pa.offset(64));
    clone.fence();
    clone.crash(7);

    dev.publish_into(&registry);
    clone.publish_into(&registry);
    // A second publish has nothing left to add.
    dev.publish_into(&registry);

    assert_eq!(registry.counter("nvm.device.writes").get(), 3);
    assert_eq!(
        registry.counter("nvm.device.bytes_written").get(),
        16 + 32 + 8
    );
    assert_eq!(registry.counter("nvm.device.reads").get(), 2);
    assert_eq!(registry.counter("nvm.device.clwbs").get(), 2);
    assert_eq!(registry.counter("nvm.device.fences").get(), 2);
    assert_eq!(registry.counter("nvm.device.crashes").get(), 1);
    let writes = registry.histogram("nvm.device.write_bytes");
    assert_eq!((writes.count(), writes.sum(), writes.max()), (3, 56, 32));
    let reads = registry.histogram("nvm.device.read_bytes");
    assert_eq!((reads.count(), reads.sum(), reads.max()), (2, 12, 8));
}

#[test]
fn pot_clone_publishes_only_its_own_walks() {
    let registry = Registry::new();
    let mut pot = Pot::new(16);
    for i in 1..=4u32 {
        pot.insert(PoolId::new(i).unwrap(), VirtAddr::new(u64::from(i) << 30))
            .unwrap();
    }
    let walk = |pot: &mut Pot, n: u32| {
        for i in 1..=n {
            pot.walk(PoolId::new(i).unwrap());
        }
    };
    walk(&mut pot, 2);
    let mut clone = pot.clone();
    walk(&mut pot, 1);
    walk(&mut clone, 3);
    assert_eq!((pot.walks(), clone.walks()), (3, 5));

    pot.publish_into(&registry);
    clone.publish_into(&registry);
    assert_eq!(registry.counter("core.pot.walks").get(), 6);
    assert_eq!(registry.histogram("core.pot.probe_len").count(), 6);
}

#[test]
fn runtime_clone_publishes_only_its_own_ops() {
    let registry = Registry::new();
    let mut rt = Runtime::new(RuntimeConfig::default());
    let pool = rt.pool_create("publish_once", 1 << 20).unwrap();
    let oid = rt.pmalloc(pool, 64).unwrap();
    rt.write_u64(oid, 1).unwrap();
    rt.persist(oid, 8).unwrap();

    let (dev_at, xlat_at) = (rt.device_stats(), rt.xlat_stats());
    let mut clone = rt.clone();
    rt.read_u64(oid).unwrap();
    for v in 2..5 {
        clone.write_u64(oid, v).unwrap();
        clone.persist(oid, 8).unwrap();
    }
    let (dev, dev_clone) = (rt.device_stats(), clone.device_stats());
    let (xlat, xlat_clone) = (rt.xlat_stats(), clone.xlat_stats());
    assert!(dev_clone.bytes_written > dev_at.bytes_written && dev.bytes_read > dev_at.bytes_read);

    rt.publish_into(&registry);
    clone.publish_into(&registry);
    drop(rt);
    drop(clone);

    for (name, field) in DEVICE_SERIES {
        assert_eq!(
            registry.counter(name).get(),
            expected(field(&dev), field(&dev_clone), field(&dev_at)),
            "{name}"
        );
    }
    assert_eq!(
        registry.counter("pmem.oid_direct.calls").get(),
        expected(xlat.calls, xlat_clone.calls, xlat_at.calls)
    );
    assert_eq!(
        registry.counter("pmem.oid_direct.instructions").get(),
        expected(
            xlat.instructions,
            xlat_clone.instructions,
            xlat_at.instructions
        )
    );
    assert_eq!(
        registry.counter("pmem.oid_direct.predictor_misses").get(),
        expected(
            xlat.predictor_misses,
            xlat_clone.predictor_misses,
            xlat_at.predictor_misses
        )
    );
}
