//! Differential test of the periodic sweep.
//!
//! `Registry::poll` walks a family's records by slot and resolves each
//! member type's declaration once; its reference is the obvious loop of
//! `Registry::query_source` over `discover(type).ids()`, taken one exact
//! member type at a time (member types by name, ids within each — the
//! order a sweep promises). Two registries built from the same seed run
//! the same script of binds, unbinds, rebinds (which reuse freed slots),
//! crashes, lease sweeps and sweeps; one answers each sweep with `poll`,
//! the other with the reference loop. After every step they must agree
//! on the readings and their order, the grouping values, the
//! `RegistryStats`, every lease deadline, and the log of driver calls.
//!
//! The design covers a family with three subtypes under every `@error`
//! policy (`escalate` on the root, `retry`, `failover`, `ignore`), and a
//! source only one subtype declares. Drivers fail, or answer with a value
//! of the wrong type, on a seeded schedule.

use diaspec_core::compile_str;
use diaspec_runtime::entity::{AttributeMap, BindingTime, DeviceInstance, EntityId};
use diaspec_runtime::error::DeviceError;
use diaspec_runtime::registry::{Registry, RegistryStats};
use diaspec_runtime::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

const SPEC: &str = r#"
    device Meter {
      attribute zone as String;
      source level as Integer;
    }
    @error(policy = "retry", attempts = 3)
    device RetryMeter extends Meter { source extra as Integer; }
    @error(policy = "failover")
    device FailoverMeter extends Meter { }
    @error(policy = "ignore")
    device IgnoreMeter extends Meter { }
"#;

const TYPES: [&str; 4] = ["Meter", "RetryMeter", "FailoverMeter", "IgnoreMeter"];
const ZONES: [&str; 3] = ["north", "south", "east"];
const SOURCES: [&str; 2] = ["level", "extra"];
const IDS: u32 = 48;
const LEASE_MS: u64 = 2_500;

/// Every driver call of one registry: (entity, source, now).
type CallLog = Arc<Mutex<Vec<(String, String, u64)>>>;

/// A driver whose n-th answer is a pure function of its seed and `n`:
/// a failure, a value of the wrong type, or an `Integer`.
struct Scripted {
    name: String,
    seed: u64,
    calls: u64,
    log: CallLog,
}

impl DeviceInstance for Scripted {
    fn query(&mut self, source: &str, now: u64) -> Result<Value, DeviceError> {
        self.log
            .lock()
            .unwrap()
            .push((self.name.clone(), source.to_owned(), now));
        self.calls += 1;
        match mix(self.seed ^ self.calls.wrapping_mul(0x9E37_79B9)) % 8 {
            0 | 1 => Err(DeviceError::new(&self.name, source, "scripted failure")),
            2 => Ok(Value::Bool(true)),
            k => Ok(Value::Int(k as i64)),
        }
    }

    fn invoke(&mut self, _action: &str, _args: &[Value], _now: u64) -> Result<(), DeviceError> {
        Ok(())
    }
}

/// SplitMix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One registry and the log of its drivers' calls.
struct Side {
    registry: Registry,
    log: CallLog,
}

impl Side {
    fn new() -> Self {
        let mut registry = Registry::new(Arc::new(compile_str(SPEC).unwrap()));
        registry.set_lease_ttl(Some(LEASE_MS), 0);
        Side {
            registry,
            log: CallLog::default(),
        }
    }

    fn bind(&mut self, id: &str, ty: &str, zone: &str, seed: u64, now: u64) {
        let attributes: AttributeMap = [("zone".to_owned(), Value::from(zone))]
            .into_iter()
            .collect();
        let driver = Scripted {
            name: id.to_owned(),
            seed,
            calls: 0,
            log: Arc::clone(&self.log),
        };
        self.registry
            .bind(
                id.into(),
                ty,
                attributes,
                Box::new(driver),
                BindingTime::Runtime,
                now,
            )
            .unwrap();
    }
}

/// A sweep's readings, compared by value: (entity, grouping value, reading).
type Readings = Vec<(EntityId, Option<Value>, Value)>;

/// The sweep under test.
fn poll(
    registry: &mut Registry,
    root: &str,
    source: &str,
    group: Option<&str>,
    now: u64,
) -> Readings {
    let readings = registry.poll(root, source, group, now);
    // Equal grouping values of one exact type share one canonical handle.
    let type_of = |id: &EntityId| registry.entity(id).map(|info| info.device_type.clone());
    for a in &readings {
        for b in &readings {
            if let (Some(ga), Some(gb)) = (&a.group, &b.group) {
                if ga == gb && type_of(&a.entity) == type_of(&b.entity) {
                    assert!(
                        std::ptr::eq(ga.value(), gb.value()),
                        "two handles of {ga:?}"
                    );
                }
            }
        }
    }
    readings
        .into_iter()
        .map(|r| {
            (
                r.entity,
                r.group.map(|g| g.value().clone()),
                r.value.value().clone(),
            )
        })
        .collect()
}

/// The reference: `query_source` over `discover(root).ids()`, one exact
/// member type at a time, skipping what `poll` skips (an absent reading
/// or any error).
fn reference(
    registry: &mut Registry,
    root: &str,
    source: &str,
    group: Option<&str>,
    now: u64,
) -> Readings {
    let ids = registry.discover(root).ids();
    let members: Vec<String> = registry
        .spec()
        .device_family(root)
        .iter()
        .map(|d| d.name.clone())
        .collect();
    let mut out = Vec::new();
    for member in &members {
        let of_member: Vec<(EntityId, Option<Value>)> = ids
            .iter()
            .filter_map(|id| {
                let info = registry.entity(id)?;
                (&*info.device_type == member.as_str()).then(|| {
                    let group = group.and_then(|g| info.attributes.get(g).cloned());
                    (id.clone(), group)
                })
            })
            .collect();
        for (id, group) in of_member {
            if let Ok(Some(value)) = registry.query_source(&id, source, now) {
                out.push((id, group, value));
            }
        }
    }
    out
}

/// Both registries in the same observable state.
fn assert_agree(polled: &Side, referenced: &Side, step: &str) {
    let (a, b) = (&polled.registry, &referenced.registry);
    assert_eq!(a.stats(), b.stats(), "{step}: stats");
    assert_eq!(a.len(), b.len(), "{step}: bound count");
    let ids = a.discover("Meter").ids();
    assert_eq!(ids, b.discover("Meter").ids(), "{step}: bound ids");
    for id in &ids {
        assert_eq!(a.lease_of(id), b.lease_of(id), "{step}: lease of {id}");
        assert_eq!(a.entity(id), b.entity(id), "{step}: record of {id}");
    }
    assert_eq!(
        *polled.log.lock().unwrap(),
        *referenced.log.lock().unwrap(),
        "{step}: driver calls"
    );
}

/// Runs `rounds` seeded steps; returns the sweep and reading counts and
/// the final stats.
fn run(seed: u64, rounds: u64) -> (u64, u64, RegistryStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut polled, mut referenced) = (Side::new(), Side::new());
    let (mut sweeps, mut readings) = (0, 0);
    for round in 0..rounds {
        let now = round * 100;
        let step = format!("seed {seed} round {round}");
        match rng.gen_range(0..10u32) {
            // Churn: unbind a bound id, or (re)bind a free one under a
            // random type and zone — a rebind reuses a freed slot.
            0..=3 => {
                let id = format!("m-{:02}", rng.gen_range(0..IDS));
                let ty = TYPES[rng.gen_range(0..TYPES.len())];
                let zone = ZONES[rng.gen_range(0..ZONES.len())];
                let driver_seed = rng.gen::<u64>();
                if polled.registry.contains(&id.as_str().into()) {
                    let lost = polled.registry.unbind(&id.as_str().into()).unwrap();
                    assert_eq!(
                        referenced.registry.unbind(&id.as_str().into()).unwrap(),
                        lost,
                        "{step}"
                    );
                } else {
                    polled.bind(&id, ty, zone, driver_seed, now);
                    referenced.bind(&id, ty, zone, driver_seed, now);
                }
            }
            // Crash or restart a bound member.
            4 => {
                let id: EntityId = format!("m-{:02}", rng.gen_range(0..IDS)).into();
                let crashed = rng.gen_bool(0.5);
                let a = polled.registry.set_crashed(&id, crashed).is_ok();
                let b = referenced.registry.set_crashed(&id, crashed).is_ok();
                assert_eq!(a, b, "{step}");
            }
            // A lease sweep: silent and crashed members are reaped.
            5 => {
                let lost = |side: &mut Side| -> Vec<(EntityInfoKey, u64)> {
                    side.registry
                        .expire_leases(now)
                        .into_iter()
                        .map(|t| ((t.lost.id, t.lost.device_type.to_string()), t.deadline))
                        .collect()
                };
                assert_eq!(lost(&mut polled), lost(&mut referenced), "{step}");
            }
            // A sweep.
            _ => {
                let root = TYPES[rng.gen_range(0..TYPES.len())];
                let source = SOURCES[rng.gen_range(0..SOURCES.len())];
                let group = rng.gen_bool(0.5).then_some("zone");
                let got = poll(&mut polled.registry, root, source, group, now);
                let want = reference(&mut referenced.registry, root, source, group, now);
                assert_eq!(got, want, "{step}: sweep of {source} from {root}");
                sweeps += 1;
                readings += got.len() as u64;
            }
        }
        assert_agree(&polled, &referenced, &step);
    }
    (sweeps, readings, polled.registry.stats())
}

/// A lost entity as compared: its id and device type.
type EntityInfoKey = (EntityId, String);

#[test]
fn a_sweep_equals_the_reference_loop_under_churn_crashes_and_every_policy() {
    for seed in [1, 7, 42, 0x5EED] {
        let (sweeps, readings, stats) = run(seed, 600);
        // The script exercises real sweeps and every recovery path.
        assert!(sweeps > 150, "seed {seed}: {sweeps} sweeps");
        assert!(readings > 500, "seed {seed}: {readings} readings");
        for (what, count) in [
            ("retries", stats.retries),
            ("failovers", stats.failovers),
            ("ignored failures", stats.ignored_failures),
            ("lease expiries", stats.lease_expiries),
        ] {
            assert!(count > 0, "seed {seed}: no {what}");
        }
    }
}
