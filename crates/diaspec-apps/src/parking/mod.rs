//! Parking management — the paper's large-scale case study (§II,
//! Figures 4, 6, 8, 10, 11).
//!
//! Masses of per-space presence sensors are orchestrated city-wide:
//!
//! - `ParkingAvailability` counts free spaces per lot every 10 minutes via
//!   the declared MapReduce phases (Figure 10) and refreshes the parking
//!   entrance panels (Figure 11);
//! - `ParkingUsagePattern` accumulates hourly occupancy and classifies
//!   each lot HIGH/MODERATE/LOW on demand (`when required`);
//! - `ParkingSuggestion` combines availability with usage patterns to
//!   rank lots on the city entrance panels;
//! - `AverageOccupancy` aggregates a 24-hour window for management
//!   messaging.
//!
//! The logic is written against the framework generated from
//! `specs/parking.spec` (checked in as [`generated`]).

/// The programming framework generated from `specs/parking.spec` by the
/// design compiler (checked in; kept in sync by a golden test).
// Byte-identical to compiler output (golden-tested): keep rustfmt out.
#[rustfmt::skip]
pub mod generated;
pub mod remote;

use self::generated::*;
use diaspec_devices::common::{ActuationLog, RecordingActuator};
use diaspec_devices::parking::{ParkingCityModel, ParkingConfig, PresenceSensorDriver, UsageCurve};
use diaspec_runtime::entity::AttributeMap;
use diaspec_runtime::error::{ComponentError, RuntimeError};
use diaspec_runtime::transport::TransportConfig;
use diaspec_runtime::value::{Value, ValueCodec};
use diaspec_runtime::{Orchestrator, ProcessingMode};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The DiaSpec design this application implements (Figure 8).
pub const SPEC: &str = include_str!("../../../../specs/parking.spec");

/// Sizing and environment knobs of the parking application.
#[derive(Debug, Clone, PartialEq)]
pub struct ParkingAppConfig {
    /// Presence sensors (= spaces) per parking lot.
    pub sensors_per_lot: usize,
    /// Environment dynamics.
    pub environment: ParkingConfig,
    /// Hourly usage curve of the city.
    pub curve: UsageCurve,
    /// Simulated transport.
    pub transport: TransportConfig,
    /// How declared MapReduce phases execute.
    pub processing: ProcessingMode,
    /// How many lots the city-entrance panels suggest.
    pub suggestions: usize,
}

impl Default for ParkingAppConfig {
    fn default() -> Self {
        ParkingAppConfig {
            sensors_per_lot: 100,
            environment: ParkingConfig::default(),
            curve: UsageCurve::default(),
            transport: TransportConfig::default(),
            processing: ProcessingMode::Serial,
            suggestions: 3,
        }
    }
}

// ---- context logic -----------------------------------------------------------

/// `ParkingAvailability` MapReduce phases — the body of Figure 10.
struct AvailabilityMapReduce;

impl ParkingAvailabilityMapReduce for AvailabilityMapReduce {
    fn map(
        &self,
        parking_lot: &ParkingLotEnum,
        presence: bool,
        emit: &mut dyn FnMut(ParkingLotEnum, bool),
    ) {
        if !presence {
            emit(*parking_lot, true); // one record per free space
        }
    }

    fn reduce(&self, _parking_lot: &ParkingLotEnum, values: &[bool]) -> i64 {
        values.len() as i64
    }
}

/// `ParkingAvailability` context: wraps the reduced counts into the
/// declared `Availability[]` (Figure 10's `onPeriodicPresence`).
struct AvailabilityLogic;

impl ParkingAvailabilityImpl for AvailabilityLogic {
    fn on_periodic_presence(
        &mut self,
        _support: &mut ParkingAvailabilitySupport<'_, '_>,
        presence_by_parking_lot: BTreeMap<ParkingLotEnum, i64>,
    ) -> Result<Option<Vec<Availability>>, ComponentError> {
        let list = ParkingLotEnum::ALL
            .iter()
            .map(|lot| Availability {
                parking_lot: *lot,
                count: presence_by_parking_lot.get(lot).copied().unwrap_or(0),
            })
            .collect();
        Ok(Some(list))
    }
}

/// `ParkingUsagePattern` context: exponentially weighted occupancy per
/// lot, classified HIGH/MODERATE/LOW on demand.
struct UsagePatternLogic {
    /// EWMA of occupancy per lot.
    occupancy: BTreeMap<ParkingLotEnum, f64>,
    alpha: f64,
}

impl UsagePatternLogic {
    fn new() -> Self {
        UsagePatternLogic {
            occupancy: BTreeMap::new(),
            alpha: 0.3,
        }
    }

    fn classify(occupancy: f64) -> UsagePatternEnum {
        if occupancy >= 0.75 {
            UsagePatternEnum::High
        } else if occupancy >= 0.4 {
            UsagePatternEnum::Moderate
        } else {
            UsagePatternEnum::Low
        }
    }
}

impl ParkingUsagePatternImpl for UsagePatternLogic {
    fn on_periodic_presence(
        &mut self,
        _support: &mut ParkingUsagePatternSupport<'_, '_>,
        presence_by_parking_lot: BTreeMap<ParkingLotEnum, Vec<bool>>,
    ) -> Result<Option<Vec<UsagePattern>>, ComponentError> {
        for (lot, readings) in presence_by_parking_lot {
            if readings.is_empty() {
                continue;
            }
            let occupied = readings.iter().filter(|o| **o).count() as f64 / readings.len() as f64;
            let entry = self.occupancy.entry(lot).or_insert(occupied);
            *entry = self.alpha * occupied + (1.0 - self.alpha) * *entry;
        }
        Ok(None) // `no publish`: served on demand only
    }

    fn on_demand(
        &mut self,
        _support: &mut ParkingUsagePatternSupport<'_, '_>,
    ) -> Result<Option<Vec<UsagePattern>>, ComponentError> {
        let patterns = ParkingLotEnum::ALL
            .iter()
            .map(|lot| UsagePattern {
                parking_lot: *lot,
                level: Self::classify(self.occupancy.get(lot).copied().unwrap_or(0.0)),
            })
            .collect();
        Ok(Some(patterns))
    }
}

/// `AverageOccupancy` context: mean occupancy per lot over the 24-hour
/// aggregation window.
struct AverageOccupancyLogic;

impl AverageOccupancyImpl for AverageOccupancyLogic {
    fn on_periodic_presence(
        &mut self,
        _support: &mut AverageOccupancySupport<'_, '_>,
        presence_by_parking_lot: BTreeMap<ParkingLotEnum, Vec<bool>>,
    ) -> Result<Option<Vec<ParkingOccupancy>>, ComponentError> {
        let list = presence_by_parking_lot
            .into_iter()
            .map(|(lot, readings)| {
                let occupancy = if readings.is_empty() {
                    0.0
                } else {
                    readings.iter().filter(|o| **o).count() as f64 / readings.len() as f64
                };
                ParkingOccupancy {
                    parking_lot: lot,
                    occupancy,
                }
            })
            .collect();
        Ok(Some(list))
    }
}

/// `ParkingSuggestion` context: ranks lots by free spaces, preferring
/// lots with historically low usage (they are likelier to stay free).
struct SuggestionLogic {
    suggestions: usize,
}

impl ParkingSuggestionImpl for SuggestionLogic {
    fn on_parking_availability(
        &mut self,
        support: &mut ParkingSuggestionSupport<'_, '_>,
        parking_availability: Vec<Availability>,
    ) -> Result<Option<Vec<ParkingLotEnum>>, ComponentError> {
        let patterns = support.get_parking_usage_pattern()?;
        let usage_of = |lot: &ParkingLotEnum| {
            patterns
                .iter()
                .find(|p| p.parking_lot == *lot)
                .map_or(UsagePatternEnum::Moderate, |p| p.level)
        };
        let mut ranked: Vec<&Availability> = parking_availability.iter().collect();
        ranked.sort_by_key(|a| {
            let usage_penalty = match usage_of(&a.parking_lot) {
                UsagePatternEnum::Low => 0,
                UsagePatternEnum::Moderate => 1,
                UsagePatternEnum::High => 2,
            };
            // Most free spaces first; penalize historically busy lots.
            (-(a.count), usage_penalty)
        });
        Ok(Some(
            ranked
                .into_iter()
                .take(self.suggestions)
                .map(|a| a.parking_lot)
                .collect(),
        ))
    }
}

// ---- controller logic ----------------------------------------------------------

/// `ParkingEntrancePanelController`: Figure 11's implementation.
struct EntrancePanelLogic;

impl ParkingEntrancePanelControllerImpl for EntrancePanelLogic {
    fn on_parking_availability(
        &mut self,
        support: &mut ParkingEntrancePanelControllerSupport<'_, '_>,
        value: Vec<Availability>,
    ) -> Result<(), ComponentError> {
        for availability in value {
            let status = format!("free: {}", availability.count);
            support
                .parking_entrance_panels()
                .where_location(availability.parking_lot)
                .update(status)?;
        }
        Ok(())
    }
}

/// `CityEntrancePanelController`: shows the ranked suggestions at every
/// city entrance.
struct CityPanelLogic;

impl CityEntrancePanelControllerImpl for CityPanelLogic {
    fn on_parking_suggestion(
        &mut self,
        support: &mut CityEntrancePanelControllerSupport<'_, '_>,
        value: Vec<ParkingLotEnum>,
    ) -> Result<(), ComponentError> {
        let names: Vec<&str> = value.iter().map(|lot| lot.name()).collect();
        support
            .city_entrance_panels()
            .update(format!("suggested lots: {}", names.join(", ")))?;
        Ok(())
    }
}

/// `MessengerController`: daily occupancy digest for management.
struct MessengerLogic;

impl MessengerControllerImpl for MessengerLogic {
    fn on_average_occupancy(
        &mut self,
        support: &mut MessengerControllerSupport<'_, '_>,
        value: Vec<ParkingOccupancy>,
    ) -> Result<(), ComponentError> {
        let body: Vec<String> = value
            .iter()
            .map(|o| format!("{}={:.0}%", o.parking_lot.name(), o.occupancy * 100.0))
            .collect();
        support
            .messengers()
            .send_message(format!("daily occupancy: {}", body.join(" ")))?;
        Ok(())
    }
}

// ---- wiring --------------------------------------------------------------------

/// A fully wired parking-management application.
pub struct ParkingApp {
    /// The launched orchestrator.
    pub orchestrator: Orchestrator,
    /// The simulated city (lot occupancy handles).
    pub lots: BTreeMap<String, diaspec_devices::common::SharedCell<Vec<bool>>>,
    /// Updates received by parking entrance panels, keyed by lot name.
    pub entrance_panels: BTreeMap<String, ActuationLog>,
    /// Updates received by city entrance panels, keyed by entrance name.
    pub city_panels: BTreeMap<String, ActuationLog>,
    /// Messages received by the management messenger.
    pub messenger: ActuationLog,
}

impl ParkingApp {
    /// The latest availability value published, decoded.
    #[must_use]
    pub fn latest_availability(&self) -> Option<Vec<Availability>> {
        self.orchestrator
            .last_value("ParkingAvailability")
            .and_then(ValueCodec::from_value)
    }

    /// The latest suggestions published, decoded.
    #[must_use]
    pub fn latest_suggestions(&self) -> Option<Vec<ParkingLotEnum>> {
        self.orchestrator
            .last_value("ParkingSuggestion")
            .and_then(ValueCodec::from_value)
    }
}

/// Registers every context and controller of the design on `orch` — the
/// application's compute and control layers, independent of where the
/// devices live. [`build`] uses it for the single-process application;
/// the distributed parking demo uses it for the coordinator unit, which
/// runs the same components against remote device proxies.
///
/// # Errors
///
/// Returns [`RuntimeError`] on a design/framework mismatch.
pub fn register_components(
    orch: &mut Orchestrator,
    config: &ParkingAppConfig,
) -> Result<(), RuntimeError> {
    orch.register_context(
        "ParkingAvailability",
        ParkingAvailabilityAdapter(AvailabilityLogic),
    )?;
    orch.register_map_reduce(
        "ParkingAvailability",
        ParkingAvailabilityMapReduceAdapter(AvailabilityMapReduce),
    )?;
    orch.register_context(
        "ParkingUsagePattern",
        ParkingUsagePatternAdapter(UsagePatternLogic::new()),
    )?;
    orch.register_context(
        "AverageOccupancy",
        AverageOccupancyAdapter(AverageOccupancyLogic),
    )?;
    orch.register_context(
        "ParkingSuggestion",
        ParkingSuggestionAdapter(SuggestionLogic {
            suggestions: config.suggestions,
        }),
    )?;
    orch.register_controller(
        "ParkingEntrancePanelController",
        ParkingEntrancePanelControllerAdapter(EntrancePanelLogic),
    )?;
    orch.register_controller(
        "CityEntrancePanelController",
        CityEntrancePanelControllerAdapter(CityPanelLogic),
    )?;
    orch.register_controller(
        "MessengerController",
        MessengerControllerAdapter(MessengerLogic),
    )?;
    Ok(())
}

/// Builds and launches the parking-management application over a
/// simulated city.
///
/// # Errors
///
/// Returns [`RuntimeError`] on wiring failure (design/framework
/// mismatch).
pub fn build(config: ParkingAppConfig) -> Result<ParkingApp, RuntimeError> {
    let spec =
        Arc::new(diaspec_core::compile_str(SPEC).expect("bundled parking.spec must compile"));
    let mut orch = Orchestrator::with_transport(spec, config.transport);
    orch.set_processing_mode(config.processing);
    register_components(&mut orch, &config)?;

    // Simulated city: one lot per ParkingLotEnum variant.
    let lot_names: Vec<&'static str> = ParkingLotEnum::ALL.iter().map(|l| l.name()).collect();
    let environment = ParkingConfig {
        spaces_per_lot: config.sensors_per_lot,
        ..config.environment
    };
    let city = ParkingCityModel::new(lot_names.clone(), environment, config.curve.clone());
    let (lots, process) = city.into_process();

    orch.begin_deployment();
    // One presence sensor per space (paper: "each parking space is
    // equipped with a PresenceSensor device").
    for lot_name in &lot_names {
        let lot_cell = lots[*lot_name].clone();
        let lot_value = Value::enum_value("ParkingLotEnum", *lot_name);
        for space in 0..config.sensors_per_lot {
            let mut attrs = AttributeMap::new();
            attrs.insert("parkingLot".to_owned(), lot_value.clone());
            orch.bind_entity(
                format!("presence-{lot_name}-{space}").into(),
                "PresenceSensor",
                attrs,
                Box::new(PresenceSensorDriver::new(lot_cell.clone(), space)),
            )?;
        }
    }
    // One entrance panel per lot.
    let mut entrance_panels = BTreeMap::new();
    for lot_name in &lot_names {
        let log = ActuationLog::new();
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "location".to_owned(),
            Value::enum_value("ParkingLotEnum", *lot_name),
        );
        orch.bind_entity(
            format!("panel-{lot_name}").into(),
            "ParkingEntrancePanel",
            attrs,
            Box::new(RecordingActuator::new(log.clone())),
        )?;
        entrance_panels.insert((*lot_name).to_owned(), log);
    }
    // One panel per city entrance.
    let mut city_panels = BTreeMap::new();
    for entrance in CityEntranceEnum::ALL {
        let log = ActuationLog::new();
        let mut attrs = AttributeMap::new();
        attrs.insert(
            "location".to_owned(),
            Value::enum_value("CityEntranceEnum", entrance.name()),
        );
        orch.bind_entity(
            format!("city-panel-{}", entrance.name()).into(),
            "CityEntrancePanel",
            attrs,
            Box::new(RecordingActuator::new(log.clone())),
        )?;
        city_panels.insert(entrance.name().to_owned(), log);
    }
    // The management messenger.
    let messenger = ActuationLog::new();
    orch.bind_entity(
        "messenger-mgmt".into(),
        "Messenger",
        AttributeMap::new(),
        Box::new(RecordingActuator::new(messenger.clone())),
    )?;

    orch.spawn_process_at("city-dynamics", process, ENVIRONMENT_FIRST_STEP_MS);
    orch.launch()?;

    Ok(ParkingApp {
        orchestrator: orch,
        lots,
        entrance_panels,
        city_panels,
        messenger,
    })
}

/// First wake of the environment dynamics, offset from the minute grid
/// so environment steps never coincide with the 10-minute delivery
/// instants: a batch then always reflects the model state at its poll
/// time. The distributed demo pumps ticks to edge environments on the
/// same grid so both runs step the city at identical sim times.
pub const ENVIRONMENT_FIRST_STEP_MS: u64 = 61_000;

/// The orchestration-level summary of a parking run, built only from
/// coordinator-side observations: published contexts, the messenger's
/// local actuation log, engine metrics and surfaced errors (drained).
/// Every way of running the deployment — in one process, over TCP, under
/// chaos — must render these bytes identically (`deploy_smoke.sh`, E21).
pub fn render_summary(orch: &mut Orchestrator, messenger: &ActuationLog) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let availability: Option<Vec<Availability>> = orch
        .last_value("ParkingAvailability")
        .and_then(ValueCodec::from_value);
    match availability {
        Some(list) => {
            let cells: Vec<String> = list
                .iter()
                .map(|a| format!("{}={}", a.parking_lot.name(), a.count))
                .collect();
            let _ = writeln!(out, "availability: {}", cells.join(" "));
        }
        None => out.push_str("availability: none\n"),
    }
    let suggestions: Option<Vec<ParkingLotEnum>> = orch
        .last_value("ParkingSuggestion")
        .and_then(ValueCodec::from_value);
    match suggestions {
        Some(lots) => {
            let names: Vec<&str> = lots.iter().map(|l| l.name()).collect();
            let _ = writeln!(out, "suggestions: {}", names.join(", "));
        }
        None => out.push_str("suggestions: none\n"),
    }
    let _ = writeln!(out, "digests: {}", messenger.count("sendMessage"));
    let m = orch.metrics();
    let _ = writeln!(
        out,
        "metrics: periodic={} polled={} mapreduce={} publications={} actuations={}",
        m.periodic_deliveries,
        m.readings_polled,
        m.map_reduce_executions,
        m.publications,
        m.actuations
    );
    let _ = writeln!(out, "errors: {}", orch.drain_errors().len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN_MIN: u64 = 10 * 60 * 1000;

    fn small() -> ParkingAppConfig {
        ParkingAppConfig {
            sensors_per_lot: 20,
            ..ParkingAppConfig::default()
        }
    }

    #[test]
    fn availability_counts_match_simulated_city() {
        let mut app = build(small()).unwrap();
        app.orchestrator.run_until(TEN_MIN);
        let availability = app.latest_availability().expect("published");
        assert_eq!(availability.len(), ParkingLotEnum::ALL.len());
        // Counts must equal the model's free spaces at delivery time. The
        // environment only steps every minute and the batch is delivered at
        // the poll instant (zero-latency transport), so they agree exactly.
        for a in &availability {
            let free = app.lots[a.parking_lot.name()]
                .update(|spaces| spaces.iter().filter(|o| !**o).count());
            assert_eq!(a.count, free as i64, "lot {}", a.parking_lot.name());
        }
        assert!(app.orchestrator.drain_errors().is_empty());
    }

    #[test]
    fn entrance_panels_receive_updates_per_lot() {
        let mut app = build(small()).unwrap();
        app.orchestrator.run_until(TEN_MIN * 2);
        for (lot, log) in &app.entrance_panels {
            assert_eq!(log.count("update"), 2, "lot {lot}");
            let last = log.last().unwrap();
            assert!(
                last.args[0].as_str().unwrap().starts_with("free: "),
                "{last:?}"
            );
        }
    }

    #[test]
    fn suggestions_rank_by_free_spaces() {
        let mut app = build(small()).unwrap();
        // Make lot A22 completely free and B16 completely full.
        app.lots["A22"].update(|spaces| spaces.iter_mut().for_each(|s| *s = false));
        app.lots["B16"].update(|spaces| spaces.iter_mut().for_each(|s| *s = true));
        app.orchestrator.run_until(TEN_MIN);
        let suggestions = app.latest_suggestions().expect("published");
        assert_eq!(suggestions.len(), 3);
        assert_eq!(suggestions[0], ParkingLotEnum::A22, "{suggestions:?}");
        assert!(!suggestions.contains(&ParkingLotEnum::B16));
        // City panels showed them.
        for log in app.city_panels.values() {
            assert_eq!(log.count("update"), 1);
            assert!(log.last().unwrap().args[0]
                .as_str()
                .unwrap()
                .contains("A22"));
        }
    }

    #[test]
    fn messenger_gets_daily_digest_after_24h_window() {
        let mut app = build(ParkingAppConfig {
            sensors_per_lot: 5,
            ..ParkingAppConfig::default()
        })
        .unwrap();
        let day = 24 * 3600 * 1000;
        app.orchestrator.run_until(day - 1);
        assert_eq!(app.messenger.len(), 0, "window not yet elapsed");
        app.orchestrator.run_until(day + TEN_MIN);
        assert_eq!(app.messenger.count("sendMessage"), 1);
        let msg = app.messenger.last().unwrap();
        assert!(msg.args[0].as_str().unwrap().contains("daily occupancy"));
        assert!(app.orchestrator.drain_errors().is_empty());
    }

    #[test]
    fn parallel_processing_equals_serial() {
        let run = |mode| {
            let mut app = build(ParkingAppConfig {
                processing: mode,
                ..small()
            })
            .unwrap();
            app.orchestrator.run_until(TEN_MIN);
            app.latest_availability()
        };
        assert_eq!(
            run(ProcessingMode::Serial),
            run(ProcessingMode::Parallel(4))
        );
    }

    #[test]
    fn usage_pattern_classification_tracks_occupancy() {
        // Freeze the environment dynamics so lot states are fully under
        // test control.
        let mut app = build(ParkingAppConfig {
            sensors_per_lot: 20,
            environment: ParkingConfig {
                arrival_rate: 0.0,
                departure_rate: 0.0,
                initial_occupancy: 0.5,
                ..ParkingConfig::default()
            },
            ..ParkingAppConfig::default()
        })
        .unwrap();
        app.lots["A22"].update(|s| s.iter_mut().for_each(|o| *o = true));
        app.lots["D6"].update(|s| s.iter_mut().for_each(|o| *o = false));
        // Several hours: the hourly usage-pattern EWMA converges.
        app.orchestrator.run_until(4 * 3600 * 1000);
        // The pattern is pulled through the public on-demand path: each
        // availability publication triggers ParkingSuggestion's `get`.
        let suggestions = app.latest_suggestions().expect("published");
        // D6 (empty, LOW usage) must rank first; A22 (full, HIGH) is absent.
        assert_eq!(suggestions[0], ParkingLotEnum::D6, "{suggestions:?}");
        assert!(!suggestions.contains(&ParkingLotEnum::A22));
        assert!(app.orchestrator.drain_errors().is_empty());
    }

    #[test]
    fn scales_to_thousands_of_sensors() {
        let mut app = build(ParkingAppConfig {
            sensors_per_lot: 500, // 4000 sensors city-wide
            ..ParkingAppConfig::default()
        })
        .unwrap();
        assert_eq!(app.orchestrator.registry().len(), 8 * 500 + 8 + 4 + 1);
        app.orchestrator.run_until(TEN_MIN);
        assert_eq!(
            app.orchestrator.metrics().readings_polled,
            2 * 4000,
            "two periodic contexts polled all sensors once each... (10-min ones)"
        );
        assert!(app.latest_availability().is_some());
    }
}
