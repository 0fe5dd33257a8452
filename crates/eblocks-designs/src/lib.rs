//! The library of real eBlock systems used in the paper's Table 1.
//!
//! The paper evaluates on "15 actual eBlock systems appearing at \[8\]" — the
//! UCR eBlocks yes/no-systems page, which no longer exists. Only each
//! design's *name* and *inner-block count* survive in Table 1, so this crate
//! reconstructs each system from its name and purpose, with the stated inner
//! count, and pins the expected partitioning outcome (both exhaustive and
//! PareDown, for the paper's 2-in/2-out programmable block) as metadata.
//! Integration tests in the workspace verify our algorithms reproduce those
//! outcomes.
//!
//! One Table 1 row is internally inconsistent: *Two Button Light* (3 inner →
//! total 3 with 1 programmable) implies a single-block partition, which §4 of
//! the paper itself forbids. We reconstruct the closest consistent design
//! (total 2 with 1 programmable) and flag it via [`Expected::note`].
//!
//! [`podium_timer_3`] is additionally pinned to the paper's Fig. 5: the
//! PareDown walk-through (remove 9, 8, 7, 6 → accept `{2,3,4,5}`; remove 7 →
//! accept `{6,8,9}`; skip lone 7) is reproduced step-for-step by
//! `tests/figure5_trace.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eblocks_core::{ComputeKind, Design, OutputKind, SensorKind};

pub mod intro;

pub use intro::{
    all_intro, conference_room_detector, copy_machine_detector, garage_open_at_night,
    mailroom_notifier, sleepwalk_detector,
};

/// Expected partitioning outcome for a library design, as reported in
/// Table 1 for the 2-in/2-out programmable block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Inner blocks in the user's original design.
    pub inner_original: usize,
    /// Exhaustive-search result `(inner total, programmable)`, where the
    /// paper reports one (`None` = the `--` rows the search could not finish).
    pub exhaustive: Option<(usize, usize)>,
    /// PareDown result `(inner total, programmable)`.
    pub pare_down: (usize, usize),
    /// Deviation notes versus the paper's row, if any.
    pub note: Option<&'static str>,
}

/// A reconstructed library design plus its expected outcome.
#[derive(Debug, Clone)]
pub struct LibraryDesign {
    /// Design name as listed in Table 1.
    pub name: &'static str,
    /// The reconstructed network.
    pub design: Design,
    /// Expected partitioning results.
    pub expected: Expected,
}

/// One Table 1 row: the design's name, how to build it, and its expected
/// outcome.
struct Row {
    name: &'static str,
    build: fn() -> Design,
    expected: Expected,
}

impl Row {
    fn library_design(&self) -> LibraryDesign {
        LibraryDesign {
            name: self.name,
            design: (self.build)(),
            expected: self.expected,
        }
    }
}

/// The 15 designs, in Table 1 order. A lookup builds only the design it
/// finds.
const TABLE_1: [Row; 15] = [
    Row {
        name: "Ignition Illuminator",
        build: ignition_illuminator,
        expected: Expected {
            inner_original: 2,
            exhaustive: Some((1, 1)),
            pare_down: (1, 1),
            note: None,
        },
    },
    Row {
        name: "Night Lamp Controller",
        build: night_lamp_controller,
        expected: Expected {
            inner_original: 2,
            exhaustive: Some((1, 1)),
            pare_down: (1, 1),
            note: None,
        },
    },
    Row {
        name: "Entry Gate Detector",
        build: entry_gate_detector,
        expected: Expected {
            inner_original: 2,
            exhaustive: Some((1, 1)),
            pare_down: (1, 1),
            note: None,
        },
    },
    Row {
        name: "Carpool Alert",
        build: carpool_alert,
        expected: Expected {
            inner_original: 2,
            exhaustive: Some((1, 1)),
            pare_down: (1, 1),
            note: None,
        },
    },
    Row {
        name: "Cafeteria Food Alert",
        build: cafeteria_food_alert,
        expected: Expected {
            inner_original: 3,
            exhaustive: Some((1, 1)),
            pare_down: (1, 1),
            note: None,
        },
    },
    Row {
        name: "Podium Timer 2",
        build: podium_timer_2,
        expected: Expected {
            inner_original: 3,
            exhaustive: Some((1, 1)),
            pare_down: (1, 1),
            note: None,
        },
    },
    Row {
        name: "Any Window Open Alarm",
        build: any_window_open_alarm,
        expected: Expected {
            inner_original: 3,
            exhaustive: Some((3, 0)),
            pare_down: (3, 0),
            note: None,
        },
    },
    Row {
        name: "Two Button Light",
        build: two_button_light,
        expected: Expected {
            inner_original: 3,
            exhaustive: Some((2, 1)),
            pare_down: (2, 1),
            note: Some(
                "paper reports total 3 with 1 programmable, which implies a \
                 single-block partition the paper itself forbids; we pin the \
                 closest consistent outcome (total 2, 1 programmable)",
            ),
        },
    },
    Row {
        name: "Doorbell Extender 1",
        build: || doorbell_extender(5),
        expected: Expected {
            inner_original: 5,
            exhaustive: Some((5, 0)),
            pare_down: (5, 0),
            note: None,
        },
    },
    Row {
        name: "Doorbell Extender 2",
        build: || doorbell_extender(6),
        expected: Expected {
            inner_original: 6,
            exhaustive: Some((6, 0)),
            pare_down: (6, 0),
            note: None,
        },
    },
    Row {
        name: "Podium Timer 3",
        build: podium_timer_3,
        expected: Expected {
            inner_original: 8,
            exhaustive: Some((3, 3)),
            pare_down: (3, 2),
            note: None,
        },
    },
    Row {
        name: "Noise At Night Detector",
        build: noise_at_night_detector,
        expected: Expected {
            inner_original: 10,
            exhaustive: Some((6, 4)),
            pare_down: (6, 4),
            note: None,
        },
    },
    Row {
        name: "Two-Zone Security",
        build: two_zone_security,
        expected: Expected {
            inner_original: 19,
            exhaustive: None,
            pare_down: (10, 3),
            note: None,
        },
    },
    Row {
        name: "Motion on Property Alert",
        build: motion_on_property_alert,
        expected: Expected {
            inner_original: 19,
            exhaustive: None,
            pare_down: (19, 0),
            note: None,
        },
    },
    Row {
        name: "Timed Passage",
        build: timed_passage,
        expected: Expected {
            inner_original: 23,
            exhaustive: None,
            pare_down: (14, 5),
            note: None,
        },
    },
];

/// All 15 designs, in Table 1 order.
pub fn all() -> Vec<LibraryDesign> {
    TABLE_1.iter().map(Row::library_design).collect()
}

/// Looks up a library design by its Table 1 name, building only that one.
pub fn by_name(name: &str) -> Option<LibraryDesign> {
    TABLE_1
        .iter()
        .find(|row| row.name == name)
        .map(Row::library_design)
}

/// Car ignition on while it is dark → illuminate the cabin lamp.
/// Inner: `{not, and}` — merges into one programmable block.
pub fn ignition_illuminator() -> Design {
    let mut d = Design::new("ignition-illuminator");
    let ignition = d.add_block("ignition", SensorKind::ContactSwitch);
    let light = d.add_block("light", SensorKind::Light);
    let dark = d.add_block("dark", ComputeKind::Not);
    let both = d.add_block("both", ComputeKind::and2());
    let lamp = d.add_block("lamp", OutputKind::Relay);
    d.connect((light, 0), (dark, 0)).unwrap();
    d.connect((ignition, 0), (both, 0)).unwrap();
    d.connect((dark, 0), (both, 1)).unwrap();
    d.connect((both, 0), (lamp, 0)).unwrap();
    d
}

/// Lamp turns on a little while after darkness falls.
/// Inner: `{not, delay}` chain — merges into one programmable block.
pub fn night_lamp_controller() -> Design {
    let mut d = Design::new("night-lamp-controller");
    let light = d.add_block("light", SensorKind::Light);
    let dark = d.add_block("dark", ComputeKind::Not);
    let settle = d.add_block("settle", ComputeKind::Delay { ticks: 5 });
    let lamp = d.add_block("lamp", OutputKind::Relay);
    d.connect((light, 0), (dark, 0)).unwrap();
    d.connect((dark, 0), (settle, 0)).unwrap();
    d.connect((settle, 0), (lamp, 0)).unwrap();
    d
}

/// Beep for a moment whenever the entry gate opens (contact goes low).
/// Inner: `{not, pulse}` chain — merges into one programmable block.
pub fn entry_gate_detector() -> Design {
    let mut d = Design::new("entry-gate-detector");
    let gate = d.add_block("gate", SensorKind::ContactSwitch);
    let opened = d.add_block("opened", ComputeKind::Not);
    let beep = d.add_block("beep", ComputeKind::PulseGen { ticks: 3 });
    let buzzer = d.add_block("buzzer", OutputKind::Buzzer);
    d.connect((gate, 0), (opened, 0)).unwrap();
    d.connect((opened, 0), (beep, 0)).unwrap();
    d.connect((beep, 0), (buzzer, 0)).unwrap();
    d
}

/// Carpool arrival button latches an indicator and sounds a short alert.
/// Inner: `{toggle, pulse}` chain — merges into one programmable block.
pub fn carpool_alert() -> Design {
    let mut d = Design::new("carpool-alert");
    let button = d.add_block("button", SensorKind::Button);
    let arrived = d.add_block("arrived", ComputeKind::Toggle);
    let chime = d.add_block("chime", ComputeKind::PulseGen { ticks: 4 });
    let buzzer = d.add_block("buzzer", OutputKind::Buzzer);
    d.connect((button, 0), (arrived, 0)).unwrap();
    d.connect((arrived, 0), (chime, 0)).unwrap();
    d.connect((chime, 0), (buzzer, 0)).unwrap();
    d
}

/// Fresh food put out (tray contact) while the cafeteria lights are on →
/// short announcement chime. Inner: `{not, and, pulse}` — merges into one.
pub fn cafeteria_food_alert() -> Design {
    let mut d = Design::new("cafeteria-food-alert");
    let tray = d.add_block("tray", SensorKind::ContactSwitch);
    let light = d.add_block("light", SensorKind::Light);
    let placed = d.add_block("placed", ComputeKind::Not);
    let both = d.add_block("both", ComputeKind::and2());
    let chime = d.add_block("chime", ComputeKind::PulseGen { ticks: 3 });
    let buzzer = d.add_block("buzzer", OutputKind::Buzzer);
    d.connect((tray, 0), (placed, 0)).unwrap();
    d.connect((placed, 0), (both, 0)).unwrap();
    d.connect((light, 0), (both, 1)).unwrap();
    d.connect((both, 0), (chime, 0)).unwrap();
    d.connect((chime, 0), (buzzer, 0)).unwrap();
    d
}

/// Two-LED podium timer: start button arms the timer, warning LED after a
/// while. Inner: `{toggle, delay, pulse}` chain — merges into one.
pub fn podium_timer_2() -> Design {
    let mut d = Design::new("podium-timer-2");
    let start = d.add_block("start", SensorKind::Button);
    let armed = d.add_block("armed", ComputeKind::Toggle);
    let wait = d.add_block("wait", ComputeKind::Delay { ticks: 30 });
    let warn = d.add_block("warn", ComputeKind::PulseGen { ticks: 10 });
    let led = d.add_block("led", OutputKind::Led);
    d.connect((start, 0), (armed, 0)).unwrap();
    d.connect((armed, 0), (wait, 0)).unwrap();
    d.connect((wait, 0), (warn, 0)).unwrap();
    d.connect((warn, 0), (led, 0)).unwrap();
    d
}

/// Alarm if any of four windows is open: an OR tree over four contact
/// switches. Every candidate partition needs ≥3 input pins, so none fits a
/// 2-in/2-out block — the design keeps its 3 pre-defined gates.
pub fn any_window_open_alarm() -> Design {
    let mut d = Design::new("any-window-open-alarm");
    let windows: Vec<_> = (1..=4)
        .map(|i| d.add_block(format!("window{i}"), SensorKind::ContactSwitch))
        .collect();
    let left = d.add_block("left", ComputeKind::or2());
    let right = d.add_block("right", ComputeKind::or2());
    let any = d.add_block("any", ComputeKind::or2());
    let buzzer = d.add_block("buzzer", OutputKind::Buzzer);
    d.connect((windows[0], 0), (left, 0)).unwrap();
    d.connect((windows[1], 0), (left, 1)).unwrap();
    d.connect((windows[2], 0), (right, 0)).unwrap();
    d.connect((windows[3], 0), (right, 1)).unwrap();
    d.connect((left, 0), (any, 0)).unwrap();
    d.connect((right, 0), (any, 1)).unwrap();
    d.connect((any, 0), (buzzer, 0)).unwrap();
    d
}

/// Either of two buttons toggles its own lamp; a third indicator lights when
/// either button is held. Inner: two toggles (which pair into one
/// programmable block) plus an OR gate left pre-defined.
pub fn two_button_light() -> Design {
    let mut d = Design::new("two-button-light");
    let b1 = d.add_block("button1", SensorKind::Button);
    let b2 = d.add_block("button2", SensorKind::Button);
    let t1 = d.add_block("toggle1", ComputeKind::Toggle);
    let t2 = d.add_block("toggle2", ComputeKind::Toggle);
    let either = d.add_block("either", ComputeKind::or2());
    let lamp1 = d.add_block("lamp1", OutputKind::Relay);
    let lamp2 = d.add_block("lamp2", OutputKind::Relay);
    let held = d.add_block("held", OutputKind::Led);
    d.connect((b1, 0), (t1, 0)).unwrap();
    d.connect((b2, 0), (t2, 0)).unwrap();
    d.connect((b1, 0), (either, 0)).unwrap();
    d.connect((b2, 0), (either, 1)).unwrap();
    d.connect((t1, 0), (lamp1, 0)).unwrap();
    d.connect((t2, 0), (lamp2, 0)).unwrap();
    d.connect((either, 0), (held, 0)).unwrap();
    d
}

/// Doorbell rings a buzzer in each of `rooms` rooms, gated by a per-room
/// enable switch. Every AND shares the doorbell signal but has its own
/// enable, so any two gates need 3 input pins: no partition fits and all
/// gates stay pre-defined (Table 1 rows "Doorbell Extender 1/2").
pub fn doorbell_extender(rooms: usize) -> Design {
    let mut d = Design::new(format!("doorbell-extender-{rooms}"));
    let bell = d.add_block("bell", SensorKind::Button);
    for i in 1..=rooms {
        let enable = d.add_block(format!("enable{i}"), SensorKind::ContactSwitch);
        let gate = d.add_block(format!("gate{i}"), ComputeKind::and2());
        let buzzer = d.add_block(format!("buzzer{i}"), OutputKind::Buzzer);
        d.connect((bell, 0), (gate, 0)).unwrap();
        d.connect((enable, 0), (gate, 1)).unwrap();
        d.connect((gate, 0), (buzzer, 0)).unwrap();
    }
    d
}

/// The Fig. 5 design: Podium Timer 3. Blocks are named `n1`–`n12` to match
/// the paper's numbering (`n1` sensor; `n2`–`n9` inner; `n10`–`n12` LEDs).
///
/// Reconstructed so that the PareDown walk-through in §4.2.1 reproduces
/// exactly: starting from all eight inner blocks, the heuristic removes
/// `n9`, then `n8` (rank tie with `n2`, broken by indegree), then `n7` and
/// `n6`, accepting `{n2,n3,n4,n5}`; on the remainder it removes `n7` and
/// accepts `{n6,n8,n9}`; the lone `n7` fits but single-block partitions are
/// invalid, so it stays pre-defined. Exhaustive search instead covers all
/// eight blocks with three programmable blocks (Table 1: total 3, prog. 3).
pub fn podium_timer_3() -> Design {
    let mut d = Design::new("podium-timer-3");
    let n1 = d.add_block("n1", SensorKind::Button);
    let n2 = d.add_block("n2", ComputeKind::Splitter);
    let n3 = d.add_block("n3", ComputeKind::PulseGen { ticks: 40 });
    let n4 = d.add_block("n4", ComputeKind::Delay { ticks: 20 });
    let n5 = d.add_block("n5", ComputeKind::PulseGen { ticks: 10 });
    let n6 = d.add_block("n6", ComputeKind::Splitter);
    let n7 = d.add_block("n7", ComputeKind::Splitter);
    let n8 = d.add_block("n8", ComputeKind::and2());
    let n9 = d.add_block("n9", ComputeKind::Not);
    let n10 = d.add_block("n10", OutputKind::Led);
    let n11 = d.add_block("n11", OutputKind::Led);
    let n12 = d.add_block("n12", OutputKind::Led);

    d.connect((n1, 0), (n2, 0)).unwrap();
    d.connect((n2, 0), (n3, 0)).unwrap();
    d.connect((n2, 1), (n6, 0)).unwrap();
    d.connect((n3, 0), (n4, 0)).unwrap();
    d.connect((n4, 0), (n5, 0)).unwrap();
    d.connect((n5, 0), (n7, 0)).unwrap();
    d.connect((n6, 0), (n8, 0)).unwrap();
    d.connect((n6, 1), (n9, 0)).unwrap();
    d.connect((n7, 0), (n8, 1)).unwrap();
    d.connect((n7, 1), (n10, 0)).unwrap();
    d.connect((n8, 0), (n11, 0)).unwrap();
    d.connect((n9, 0), (n12, 0)).unwrap();
    d
}

/// Four-zone noise-at-night detector: per zone, a sound sensor gated by a
/// zone-enable switch fires a pulse on its LED; a 3-input OR collects the
/// zones into a master alarm gated by darkness and a master switch.
/// The four `{and, pulse}` pairs each fit one programmable block; the two
/// 3-input collectors can never fit (Table 1: 10 inner → total 6, prog. 4).
pub fn noise_at_night_detector() -> Design {
    let mut d = Design::new("noise-at-night-detector");
    let mut pulses = Vec::new();
    for i in 1..=4 {
        let sound = d.add_block(format!("sound{i}"), SensorKind::Sound);
        let enable = d.add_block(format!("enable{i}"), SensorKind::ContactSwitch);
        let gate = d.add_block(format!("gate{i}"), ComputeKind::and2());
        let pulse = d.add_block(format!("pulse{i}"), ComputeKind::PulseGen { ticks: 5 });
        let led = d.add_block(format!("led{i}"), OutputKind::Led);
        d.connect((sound, 0), (gate, 0)).unwrap();
        d.connect((enable, 0), (gate, 1)).unwrap();
        d.connect((gate, 0), (pulse, 0)).unwrap();
        d.connect((pulse, 0), (led, 0)).unwrap();
        pulses.push(pulse);
    }
    // or3 over zones 1–3; zone 4 joins at the master AND-3 with darkness and
    // the master arm switch.
    let collect = d.add_block("collect", ComputeKind::or3());
    d.connect((pulses[0], 0), (collect, 0)).unwrap();
    d.connect((pulses[1], 0), (collect, 1)).unwrap();
    d.connect((pulses[2], 0), (collect, 2)).unwrap();
    let light = d.add_block("light", SensorKind::Light);
    let armed = d.add_block("armed", SensorKind::ContactSwitch);
    let master = d.add_block(
        "master",
        ComputeKind::Logic3(eblocks_core::TruthTable3::from_mask(
            // out = (in0 || in1) && in2  where in0 = collector, in1 = zone-4
            // pulse, in2 = armed switch: minterms with in2 and (in0 or in1).
            0b1110_0000,
        )),
    );
    d.connect((collect, 0), (master, 0)).unwrap();
    d.connect((pulses[3], 0), (master, 1)).unwrap();
    d.connect((armed, 0), (master, 2)).unwrap();
    // Darkness drives its own indicator so the light sensor is used.
    let dark_led = d.add_block("dark_led", OutputKind::Led);
    d.connect((light, 0), (dark_led, 0)).unwrap();
    let siren = d.add_block("siren", OutputKind::Buzzer);
    d.connect((master, 0), (siren, 0)).unwrap();
    d
}

/// Two-zone security system. Each zone ORs its door contacts through a
/// left-deep tree into a zone siren (uncoverable: every gate carries a fresh
/// sensor signal, so any candidate needs ≥3 input pins), and each zone has
/// three per-door chime chains `door → toggle → pulse → led` (1-in/1-out, so
/// PareDown merges the six chains pairwise into three programmable blocks).
/// (Table 1: 19 inner → total 10, prog. 3.)
pub fn two_zone_security() -> Design {
    let mut d = Design::new("two-zone-security");

    // Zone 1: five doors through a 4-gate OR tree; zone 2: four doors
    // through a 3-gate tree. 7 uncoverable gates total.
    for (zone, doors) in [(1usize, 5usize), (2, 4)] {
        let contacts: Vec<_> = (1..=doors)
            .map(|i| d.add_block(format!("z{zone}_door{i}"), SensorKind::ContactSwitch))
            .collect();
        let mut acc = {
            let g = d.add_block(format!("z{zone}_or1"), ComputeKind::or2());
            d.connect((contacts[0], 0), (g, 0)).unwrap();
            d.connect((contacts[1], 0), (g, 1)).unwrap();
            g
        };
        for (k, c) in contacts[2..].iter().enumerate() {
            let g = d.add_block(format!("z{zone}_or{}", k + 2), ComputeKind::or2());
            d.connect((acc, 0), (g, 0)).unwrap();
            d.connect((*c, 0), (g, 1)).unwrap();
            acc = g;
        }
        let siren = d.add_block(format!("z{zone}_siren"), OutputKind::Buzzer);
        d.connect((acc, 0), (siren, 0)).unwrap();
    }

    // Six chime chains: entry indication per monitored inner door.
    for (zone, chime) in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)] {
        let door = d.add_block(format!("z{zone}_inner{chime}"), SensorKind::ContactSwitch);
        let latch = d.add_block(format!("z{zone}_latch{chime}"), ComputeKind::Toggle);
        let chirp = d.add_block(
            format!("z{zone}_chirp{chime}"),
            ComputeKind::PulseGen { ticks: 4 },
        );
        let led = d.add_block(format!("z{zone}_led{chime}"), OutputKind::Led);
        d.connect((door, 0), (latch, 0)).unwrap();
        d.connect((latch, 0), (chirp, 0)).unwrap();
        d.connect((chirp, 0), (led, 0)).unwrap();
    }
    d
}

/// Motion alert across the whole property: 20 motion sensors collected by a
/// left-deep OR tree of 19 gates. Every gate brings a fresh sensor signal,
/// so no candidate fits 2 input pins: nothing is partitioned (Table 1:
/// 19 inner → total 19, prog. 0).
pub fn motion_on_property_alert() -> Design {
    let mut d = Design::new("motion-on-property-alert");
    let sensors: Vec<_> = (1..=20)
        .map(|i| d.add_block(format!("motion{i}"), SensorKind::Motion))
        .collect();
    let mut acc = {
        let g = d.add_block("or1", ComputeKind::or2());
        d.connect((sensors[0], 0), (g, 0)).unwrap();
        d.connect((sensors[1], 0), (g, 1)).unwrap();
        g
    };
    for (k, s) in sensors[2..].iter().enumerate() {
        let g = d.add_block(format!("or{}", k + 2), ComputeKind::or2());
        d.connect((acc, 0), (g, 0)).unwrap();
        d.connect((*s, 0), (g, 1)).unwrap();
        acc = g;
    }
    let buzzer = d.add_block("buzzer", OutputKind::Buzzer);
    d.connect((acc, 0), (buzzer, 0)).unwrap();
    d
}

/// Timed passage monitor. Five doorways get `door → delay → pulse → led`
/// timing chains (2 inner blocks each) and four more get a plain
/// `door → toggle → led` latch (1 inner block each); PareDown merges these
/// nine 1-in/1-out fragments pairwise into five programmable blocks. A
/// nine-gate OR tree over ten corridor motion sensors (uncoverable: fresh
/// sensor signal per gate) drives the master buzzer.
/// (Table 1: 23 inner → total 14, prog. 5.)
pub fn timed_passage() -> Design {
    let mut d = Design::new("timed-passage");

    // Five timed doorway chains (delay-then-pulse: 2 inner blocks each).
    for way in 1..=5usize {
        let door = d.add_block(format!("w{way}_door"), SensorKind::ContactSwitch);
        let linger = d.add_block(format!("w{way}_linger"), ComputeKind::Delay { ticks: 6 });
        let warn = d.add_block(format!("w{way}_warn"), ComputeKind::PulseGen { ticks: 8 });
        let led = d.add_block(format!("w{way}_led"), OutputKind::Led);
        d.connect((door, 0), (linger, 0)).unwrap();
        d.connect((linger, 0), (warn, 0)).unwrap();
        d.connect((warn, 0), (led, 0)).unwrap();
    }

    // Four latched doorway indicators (1 inner block each).
    for way in 6..=9usize {
        let door = d.add_block(format!("w{way}_door"), SensorKind::ContactSwitch);
        let latch = d.add_block(format!("w{way}_latch"), ComputeKind::Toggle);
        let led = d.add_block(format!("w{way}_led"), OutputKind::Led);
        d.connect((door, 0), (latch, 0)).unwrap();
        d.connect((latch, 0), (led, 0)).unwrap();
    }

    // Corridor motion collector: left-deep OR tree, 9 gates over 10 sensors.
    let sensors: Vec<_> = (1..=10)
        .map(|i| d.add_block(format!("corridor{i}"), SensorKind::Motion))
        .collect();
    let mut acc = {
        let g = d.add_block("any1", ComputeKind::or2());
        d.connect((sensors[0], 0), (g, 0)).unwrap();
        d.connect((sensors[1], 0), (g, 1)).unwrap();
        g
    };
    for (k, s) in sensors[2..].iter().enumerate() {
        let g = d.add_block(format!("any{}", k + 2), ComputeKind::or2());
        d.connect((acc, 0), (g, 0)).unwrap();
        d.connect((*s, 0), (g, 1)).unwrap();
        acc = g;
    }
    let buzzer = d.add_block("buzzer", OutputKind::Buzzer);
    d.connect((acc, 0), (buzzer, 0)).unwrap();
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_designs_validate() {
        for entry in all() {
            entry
                .design
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        }
    }

    #[test]
    fn inner_counts_match_table1() {
        for entry in all() {
            assert_eq!(
                entry.design.inner_blocks().count(),
                entry.expected.inner_original,
                "{}",
                entry.name
            );
        }
    }

    #[test]
    fn names_unique_and_lookup_works() {
        let designs = all();
        assert_eq!(designs.len(), 15);
        for entry in &designs {
            let found = by_name(entry.name).unwrap();
            assert_eq!(found.name, entry.name);
            assert_eq!(found.expected, entry.expected, "{}", entry.name);
            assert_eq!(
                eblocks_core::netlist::to_netlist(&found.design),
                eblocks_core::netlist::to_netlist(&entry.design),
                "{}",
                entry.name
            );
        }
        assert!(by_name("No Such Design").is_none());
    }

    #[test]
    fn figure5_graph_shape() {
        let d = podium_timer_3();
        assert_eq!(d.num_blocks(), 12);
        assert_eq!(d.inner_blocks().count(), 8);
        assert_eq!(d.sensors().count(), 1);
        assert_eq!(d.outputs().count(), 3);
        // The paper's level tie-break relies on n7 being deeper than n6.
        let lv = eblocks_core::levels(&d);
        let id = |n: &str| d.block_by_name(n).unwrap();
        assert!(lv[id("n7").index()] > lv[id("n6").index()]);
    }

    #[test]
    fn census_consistency() {
        for entry in all() {
            let c = entry.design.census();
            assert_eq!(c.inner, entry.expected.inner_original, "{}", entry.name);
            assert_eq!(
                c.programmable, 0,
                "{}: library designs are pre-synthesis",
                entry.name
            );
            assert!(c.sensors > 0 && c.outputs > 0, "{}", entry.name);
        }
    }
}
