//! Allocation guard for periodic delivery: poll → `every <T>` window.
//!
//! A polled reading is three shared handles — the entity id, the
//! canonical handle of its grouping attribute value, and the interned
//! `Boolean` — so a poll sweep makes a constant number of allocator
//! calls, not one (or five) per reading, and a buffered reading costs the
//! three pointers it is made of. This file has its own counting
//! allocator and a single test, so nothing else allocates while it
//! counts.

use diaspec_core::compile_str;
use diaspec_runtime::component::ContextActivation;
use diaspec_runtime::engine::{ContextApi, ControllerApi, Orchestrator};
use diaspec_runtime::entity::AttributeMap;
use diaspec_runtime::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts allocator calls (`alloc` and `realloc`) and live heap bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates two statistics counters around the call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SENSORS: u64 = 1_000;
const GROUPS: u64 = 8;
const POLLS: u64 = 10;
const PERIOD_MS: u64 = 600_000;

#[test]
fn a_polled_reading_costs_handles_not_allocations() {
    let spec = Arc::new(
        compile_str(
            r#"
            device PresenceSensor {
              attribute parkingLot as ParkingLotEnum;
              source presence as Boolean;
            }
            device Messenger { action send(text as String); }
            context Occupancy as Integer {
              when periodic presence from PresenceSensor <10 min>
                grouped by parkingLot every <110 min>
                always publish;
            }
            controller Report { when provided Occupancy do send on Messenger; }
            enumeration ParkingLotEnum { L0, L1, L2, L3, L4, L5, L6, L7 }
            "#,
        )
        .unwrap(),
    );
    let mut orch = Orchestrator::new(spec);
    orch.register_context(
        "Occupancy",
        |_: &mut ContextApi<'_>, activation: ContextActivation<'_>| match activation {
            ContextActivation::Batch(batch) => Ok(Some(Value::Int(batch.readings.len() as i64))),
            _ => Ok(None),
        },
    )
    .unwrap();
    orch.register_controller("Report", |_: &mut ControllerApi<'_>, _: &str, _: &Value| {
        Ok(())
    })
    .unwrap();
    for i in 0..SENSORS {
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "parkingLot".to_owned(),
            Value::enum_value("ParkingLotEnum", format!("L{}", i % GROUPS)),
        );
        let driver = move |_: &str, now: u64| Ok(Value::Bool((now / PERIOD_MS + i) % 3 == 1));
        orch.bind_entity(
            format!("presence-{i:04}").into(),
            "PresenceSensor",
            attrs,
            Box::new(driver),
        )
        .unwrap();
    }
    orch.launch().unwrap();

    let calls_before = CALLS.load(Ordering::Relaxed);
    let live_before = LIVE.load(Ordering::Relaxed);
    orch.run_until(POLLS * PERIOD_MS);
    let calls = CALLS.load(Ordering::Relaxed) - calls_before;
    let grown = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);

    let readings = SENSORS * POLLS;
    assert_eq!(orch.metrics().readings_polled, readings);
    assert_eq!(orch.metrics().periodic_deliveries, POLLS);
    assert_eq!(orch.metrics().publications, 0, "the window is still open");
    assert!(orch.drain_errors().is_empty());

    // Parent commit: about 6.5 calls and 249 B per reading.
    let calls_per_reading = calls as f64 / readings as f64;
    assert!(
        calls_per_reading <= 1.0,
        "{calls} allocator calls for {readings} polled readings ({calls_per_reading:.2} each)"
    );
    // The 110-minute window is sized once, for 12 polls; 10 are in it.
    let bytes_per_reading = grown as f64 / readings as f64;
    assert!(
        bytes_per_reading <= 48.0,
        "{grown} B of live heap for {readings} buffered readings ({bytes_per_reading:.1} B each)"
    );
}
