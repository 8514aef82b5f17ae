//! Quickstart: one node, one AP, one packet — end to end.
//!
//! Builds the paper's testbed, places an HD camera 4.3 m from the AP,
//! checks the analytic link, then pushes a real packet through the
//! sample-level OTAM waveform simulation (beam switching → channel →
//! AWGN → envelope/FSK demodulation → CRC).
//!
//! Run with: `cargo run --example quickstart`

use mmx::core::prelude::*;
use mmx::phy::packet::Packet;
use rand::SeedableRng;

fn main() {
    // The 6 m × 4 m lab of §9, AP on the east wall.
    let testbed = Testbed::paper_default();

    // A node on the west side, facing the AP (scenario 1 of Fig. 12).
    let node_pose = testbed.node_pose_at(Vec2::new(1.5, 2.0));

    // --- Analytic link (what Figs. 10/12 plot) -------------------------
    let obs = testbed.observe(node_pose, &[]);
    println!("== analytic link ==");
    println!("SNR with OTAM     : {}", obs.snr_otam);
    println!("SNR without OTAM  : {} (Beam 1 only)", obs.snr_beam1);
    println!("ASK level depth   : {}", obs.separation);
    println!("polarity inverted : {}", obs.inverted);
    println!("BER with OTAM     : {:.2e}", obs.ber_otam);
    println!("BER without OTAM  : {:.2e}", obs.ber_beam1);

    // --- Sample-level packet transfer ----------------------------------
    let link = testbed.otam_link(node_pose, &[]);
    let packet = Packet::new(1, 42, &b"hello from a 1.1 W mmWave node"[..]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let (rx, parsed) = link.send_packet(&packet, &mut rng);

    println!("\n== waveform-level packet ==");
    let rx = rx.expect("frame sync");
    println!("sync offset       : {} symbols", rx.sync_offset);
    println!("demodulated via   : {:?}", rx.used);
    println!(
        "measured SNR      : {}",
        rx.snr.expect("preamble SNR estimate")
    );
    match parsed {
        Ok(p) => {
            assert_eq!(p, packet);
            println!(
                "payload delivered : {:?}",
                std::str::from_utf8(&p.payload).unwrap()
            );
        }
        Err(e) => println!("packet lost: {e:?}"),
    }

    // --- The headline numbers ------------------------------------------
    let node = NodeStation::new(1, node_pose, BitRate::from_mbps(100.0));
    let power = node.tx_power_draw();
    println!("\n== node hardware ==");
    println!("power draw        : {power}");
    println!(
        "energy efficiency : {:.1} nJ/bit at 100 Mbps",
        node.front_end().max_bit_rate().energy_per_bit_nj(power)
    );
}
