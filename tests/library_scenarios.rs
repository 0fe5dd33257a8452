//! Behavioral scenarios for the reconstructed library designs: each system
//! is simulated through the situation its name promises, pre- and
//! post-synthesis (the synthesized network must pass the same scenario).

use eblocks::designs;
use eblocks::sim::{Simulator, Stimulus, Trace};
use eblocks::synth::{synthesize, SynthesisOptions};

/// Runs the scenario against the original design and the synthesized one.
fn both_ways(name: &str, stim: &Stimulus, until: u64, check: impl Fn(&Trace, &str)) {
    let entry = designs::by_name(name).unwrap_or_else(|| panic!("unknown design {name}"));
    let original = Simulator::new(&entry.design).unwrap();
    check(&original.run(stim, until).unwrap(), "original");

    let result = synthesize(
        &entry.design,
        &SynthesisOptions {
            verify: false, // the scenario below is the verification
            ..Default::default()
        },
    )
    .unwrap();
    let synth = Simulator::with_programs(&result.synthesized, &result.programs).unwrap();
    check(&synth.run(stim, until).unwrap(), "synthesized");
}

#[test]
fn ignition_illuminator_lights_in_the_dark() {
    let stim = Stimulus::new()
        .set(10, "light", true) // daytime
        .set(20, "ignition", true) // engine on in daylight: no lamp
        .set(40, "light", false) // night falls, engine still on: lamp
        .set(60, "ignition", false);
    both_ways("Ignition Illuminator", &stim, 100, |t, tag| {
        assert_eq!(t.value_at("lamp", 30), Some(false), "{tag}: daylight");
        assert_eq!(t.value_at("lamp", 50), Some(true), "{tag}: dark + ignition");
        assert_eq!(t.final_value("lamp"), Some(false), "{tag}: engine off");
    });
}

#[test]
fn night_lamp_waits_for_darkness_to_settle() {
    let stim = Stimulus::new()
        .set(10, "light", true)
        .set(30, "light", false);
    both_ways("Night Lamp Controller", &stim, 100, |t, tag| {
        assert_eq!(
            t.value_at("lamp", 32),
            Some(false),
            "{tag}: not settled yet"
        );
        assert_eq!(
            t.final_value("lamp"),
            Some(true),
            "{tag}: lamp on after delay"
        );
    });
}

#[test]
fn entry_gate_beeps_on_opening() {
    // Contact open = low; the NOT makes the pulse fire on gate opening.
    let stim = Stimulus::new().set(10, "gate", true).set(40, "gate", false);
    both_ways("Entry Gate Detector", &stim, 100, |t, tag| {
        assert_eq!(t.value_at("buzzer", 41), Some(true), "{tag}: beep on open");
        assert_eq!(t.final_value("buzzer"), Some(false), "{tag}: beep ends");
    });
}

#[test]
fn carpool_alert_latches_and_chimes() {
    let stim = Stimulus::new().pulse(10, 4, "button");
    both_ways("Carpool Alert", &stim, 100, |t, tag| {
        assert_eq!(t.value_at("buzzer", 12), Some(true), "{tag}: chime fires");
        assert_eq!(t.final_value("buzzer"), Some(false), "{tag}: chime expires");
    });
}

#[test]
fn cafeteria_alert_needs_lights_on() {
    let stim = Stimulus::new()
        .set(10, "tray", false) // tray lifted: contact low -> `placed` high
        .set(30, "light", true); // lights come on with tray signal active
    both_ways("Cafeteria Food Alert", &stim, 100, |t, tag| {
        assert_eq!(t.value_at("buzzer", 20), Some(false), "{tag}: lights off");
        assert_eq!(t.value_at("buzzer", 31), Some(true), "{tag}: chime");
        assert_eq!(t.final_value("buzzer"), Some(false), "{tag}: chime expires");
    });
}

#[test]
fn podium_timer_2_warns_after_delay() {
    let stim = Stimulus::new().pulse(10, 4, "start");
    both_ways("Podium Timer 2", &stim, 200, |t, tag| {
        assert_eq!(t.value_at("led", 20), Some(false), "{tag}: still counting");
        // Delay 30 ticks then a 10-tick warning pulse.
        assert_eq!(t.value_at("led", 45), Some(true), "{tag}: warning");
        assert_eq!(t.final_value("led"), Some(false), "{tag}: warning over");
    });
}

#[test]
fn any_window_open_alarm_is_an_or() {
    let stim = Stimulus::new()
        .set(10, "window3", true)
        .set(40, "window3", false)
        .set(60, "window1", true)
        .set(61, "window4", true);
    both_ways("Any Window Open Alarm", &stim, 100, |t, tag| {
        assert_eq!(t.value_at("buzzer", 20), Some(true), "{tag}: one window");
        assert_eq!(t.value_at("buzzer", 50), Some(false), "{tag}: closed");
        assert_eq!(t.final_value("buzzer"), Some(true), "{tag}: two windows");
    });
}

#[test]
fn two_button_light_toggles_independently() {
    let stim = Stimulus::new()
        .pulse(10, 4, "button1")
        .pulse(30, 4, "button2")
        .pulse(50, 4, "button1");
    both_ways("Two Button Light", &stim, 100, |t, tag| {
        assert_eq!(t.value_at("lamp1", 20), Some(true), "{tag}: lamp1 on");
        assert_eq!(t.value_at("lamp2", 40), Some(true), "{tag}: lamp2 on");
        assert_eq!(
            t.final_value("lamp1"),
            Some(false),
            "{tag}: lamp1 toggled off"
        );
        assert_eq!(t.final_value("lamp2"), Some(true), "{tag}: lamp2 stays");
    });
}

#[test]
fn doorbell_extender_rings_enabled_rooms_only() {
    let stim = Stimulus::new().set(5, "enable2", true).pulse(20, 5, "bell");
    both_ways("Doorbell Extender 1", &stim, 60, |t, tag| {
        assert_eq!(
            t.value_at("buzzer2", 22),
            Some(true),
            "{tag}: enabled room rings"
        );
        assert_eq!(
            t.value_at("buzzer1", 22),
            Some(false),
            "{tag}: disabled room silent"
        );
        assert_eq!(t.final_value("buzzer2"), Some(false), "{tag}: ring ends");
    });
}

#[test]
fn podium_timer_3_sequences_lights() {
    let stim = Stimulus::new().pulse(10, 4, "n1");
    both_ways("Podium Timer 3", &stim, 300, |t, tag| {
        // n10 mirrors the timing chain's pulse (via splitter n7).
        let n10_rose = t.history("n10").iter().any(|&(_, v)| v);
        assert!(n10_rose, "{tag}: warning LED fires");
        // n12 = NOT of the n2 branch: high initially (all-low inputs).
        assert_eq!(t.value_at("n12", 5), Some(true), "{tag}: n12 idle high");
    });
}

#[test]
fn noise_at_night_reports_per_zone() {
    let stim = Stimulus::new()
        .set(5, "enable2", true)
        .pulse(20, 3, "sound2")
        .pulse(40, 3, "sound3"); // zone 3 not enabled: no pulse
    both_ways("Noise At Night Detector", &stim, 100, |t, tag| {
        assert_eq!(
            t.value_at("led2", 22),
            Some(true),
            "{tag}: enabled zone fires"
        );
        assert_eq!(
            t.value_at("led3", 42),
            Some(false),
            "{tag}: disabled zone silent"
        );
        assert_eq!(t.final_value("led2"), Some(false), "{tag}: pulse expires");
    });
}

#[test]
fn two_zone_security_sirens_and_chimes() {
    let stim = Stimulus::new()
        .set(10, "z1_door2", true)
        .pulse(40, 4, "z2_inner1");
    both_ways("Two-Zone Security", &stim, 120, |t, tag| {
        assert_eq!(
            t.value_at("z1_siren", 20),
            Some(true),
            "{tag}: zone 1 tree fires"
        );
        assert_eq!(
            t.value_at("z2_siren", 20),
            Some(false),
            "{tag}: zone 2 quiet"
        );
        assert_eq!(t.value_at("z2_led1", 42), Some(true), "{tag}: chime latch");
    });
}

#[test]
fn motion_on_property_alert_is_a_big_or() {
    let stim = Stimulus::new()
        .set(10, "motion17", true)
        .set(50, "motion17", false);
    both_ways("Motion on Property Alert", &stim, 100, |t, tag| {
        assert_eq!(
            t.value_at("buzzer", 20),
            Some(true),
            "{tag}: any sensor fires"
        );
        assert_eq!(t.final_value("buzzer"), Some(false), "{tag}: clears");
    });
}

#[test]
fn timed_passage_warns_after_linger() {
    let stim = Stimulus::new().set(10, "w2_door", true); // door held open
    both_ways("Timed Passage", &stim, 120, |t, tag| {
        assert_eq!(t.value_at("w2_led", 12), Some(false), "{tag}: within grace");
        // Delay 6 then an 8-tick pulse.
        assert_eq!(
            t.value_at("w2_led", 18),
            Some(true),
            "{tag}: lingering warned"
        );
        assert_eq!(t.value_at("w2_led", 40), Some(false), "{tag}: pulse over");
    });
}

#[test]
fn timed_passage_corridor_collector() {
    let stim = Stimulus::new().set(10, "corridor7", true);
    both_ways("Timed Passage", &stim, 60, |t, tag| {
        assert_eq!(
            t.value_at("buzzer", 20),
            Some(true),
            "{tag}: corridor motion"
        );
    });
}
