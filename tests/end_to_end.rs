//! End-to-end integration: geometry → channel → OTAM waveform → packets.
//!
//! These tests cross every crate boundary: a room is traced, beams
//! synthesized, a waveform generated at sample level, noise injected, and
//! real packets recovered.

use mmx::channel::blockage::HumanBlocker;
use mmx::core::prelude::*;
use mmx::phy::joint::DemodPath;
use mmx::phy::packet::Packet;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn packet_survives_the_paper_testbed() {
    let testbed = Testbed::paper_default();
    let pose = testbed.node_pose_at(Vec2::new(1.0, 2.0));
    let link = testbed.otam_link(pose, &[]);
    let packet = Packet::new(9, 77, vec![0xAB; 256]);
    let (rx, parsed) = link.send_packet(&packet, &mut rng(5));
    assert_eq!(parsed.expect("delivery"), packet);
    assert_eq!(rx.unwrap().used, DemodPath::Ask);
}

#[test]
fn packet_survives_blocked_los_with_inverted_polarity() {
    let testbed = Testbed::paper_default();
    let pose = testbed.node_pose_at(Vec2::new(1.0, 2.0));
    let person = HumanBlocker {
        position: Vec2::new(3.4, 2.0),
        radius: 0.25,
        loss: Db::new(40.0),
    };
    let link = testbed.otam_link(pose, &[person]);
    let packet = Packet::new(2, 1, vec![0x5A; 128]);
    let (rx, parsed) = link.send_packet(&packet, &mut rng(6));
    let rx = rx.expect("sync through reflections");
    assert!(rx.inverted, "blocked LoS must invert");
    assert_eq!(parsed.expect("delivery via Beam 0"), packet);
}

#[test]
fn waveform_ber_matches_theory_at_low_snr() {
    // Push many bits through a marginal link and compare the measured
    // BER with the closed form used by the evaluation harness.
    let testbed = Testbed::paper_default();
    // A far, rotated node: weak link.
    let pos = Vec2::new(0.4, 3.6);
    let facing = (testbed.ap().position - pos).bearing() + Degrees::new(45.0);
    let pose = Pose::new(pos, facing);
    let link = testbed.otam_link(pose, &[]);
    let theory = link.theoretical_ber();
    // Only meaningful when the theory BER is measurable in 40k bits.
    if !(1e-3..0.4).contains(&theory) {
        // Channel generated a clean link in this geometry; nothing to
        // compare statistically.
        return;
    }
    let mut bits: Vec<bool> = mmx::phy::packet::PREAMBLE.to_vec();
    let mut prbs = mmx::dsp::prbs::Prbs::prbs15(3);
    bits.extend(prbs.bits(40_000));
    let mut r = rng(8);
    let wave = link.waveform(&bits, &mut r);
    let rx = link.receive(&wave).expect("sync");
    let ber = mmx::phy::bits::bit_error_rate(&bits[32..], &rx.bits);
    assert!(
        ber < theory * 20.0 + 1e-4,
        "measured {ber} vs theory {theory}"
    );
}

#[test]
fn observation_and_waveform_agree_on_polarity() {
    let testbed = Testbed::paper_default();
    for (x, y) in [(1.0, 2.0), (2.0, 1.0), (1.5, 3.2)] {
        let pose = testbed.node_pose_at(Vec2::new(x, y));
        let blocker = HumanBlocker {
            position: Vec2::new((x + 5.8) / 2.0, (y + 2.0) / 2.0),
            radius: 0.25,
            loss: Db::new(40.0),
        };
        let obs = testbed.observe(pose, &[blocker]);
        let link = testbed.otam_link(pose, &[blocker]);
        let bits: Vec<bool> = mmx::phy::packet::PREAMBLE
            .iter()
            .cloned()
            .chain([true, false, true])
            .collect();
        let wave = link.waveform(&bits, &mut rng(4));
        if let Some(rx) = link.receive(&wave) {
            assert_eq!(
                rx.inverted, obs.inverted,
                "at ({x},{y}): waveform and analytic polarity disagree"
            );
        }
    }
}

#[test]
fn coding_pushes_marginal_links_through() {
    // The §9.3 extension: a link with raw BER ~1e-2 becomes usable with
    // the K=7 convolutional code.
    use mmx::phy::coding::convolutional;
    let testbed = Testbed::paper_default();
    // Find a marginal pose by scanning away from the AP.
    let mut link = None;
    'outer: for x in [0.4, 0.6, 0.8] {
        for rot in 0..12 {
            let pos = Vec2::new(x, 3.5);
            let facing = (testbed.ap().position - pos).bearing() + Degrees::new(rot as f64 * 15.0);
            let cand = testbed.otam_link(Pose::new(pos, facing), &[]);
            let ber = cand.theoretical_ber();
            if (1e-3..5e-2).contains(&ber) {
                link = Some(cand);
                break 'outer;
            }
        }
    }
    let Some(link) = link else {
        return; // no marginal geometry in this room — nothing to test
    };
    let mut prbs = mmx::dsp::prbs::Prbs::prbs9(1);
    let data = prbs.bits(2000);
    let coded = convolutional::encode(&data);
    let mut bits: Vec<bool> = mmx::phy::packet::PREAMBLE.to_vec();
    bits.extend(&coded);
    let wave = link.waveform(&bits, &mut rng(12));
    let rx = link.receive(&wave).expect("sync");
    let decoded = convolutional::decode(&rx.bits[..coded.len()]);
    let coded_ber = mmx::phy::bits::bit_error_rate(&data, &decoded);
    let raw_ber = mmx::phy::bits::bit_error_rate(&coded, &rx.bits[..coded.len()]);
    assert!(
        coded_ber < raw_ber || raw_ber == 0.0,
        "coding did not help: raw {raw_ber} coded {coded_ber}"
    );
}

#[test]
fn full_network_stack_delivers() {
    let mut sim = scenario::smart_home(4);
    let cfg = sim.config_mut();
    cfg.duration = Seconds::new(0.5);
    cfg.walkers = 1;
    cfg.seed = 2;
    let report = sim.run().expect("runs");
    let total = report.total_goodput();
    assert!(
        total.mbps() > 25.0,
        "4 cameras × 10 Mbps delivered only {total}"
    );
}
