//! Rate adaptation: stretching mmX past the paper's 18 m.
//!
//! The node's 100 Mbps ceiling is a *switch-speed* limit, not a link
//! budget. Clocking the SPDT slower buys 3 dB per halving, so a camera
//! that only needs 10 Mbps keeps streaming far beyond the fixed-rate
//! range — and ARQ mops up the residual losses. This example walks a
//! camera away from the AP and reports the adapted rate, the predicted
//! BER, and the ARQ-protected goodput at each distance.
//!
//! Run with: `cargo run --example rate_adaptation`

use mmx::channel::room::{Material, Room};
use mmx::core::prelude::*;
use mmx::core::report::TextTable;
use mmx::net::arq::{effective_goodput, ArqConfig};
use mmx::phy::rate::RateAdapter;

fn main() {
    // A 40 m hall.
    let room = Room::rectangular(42.0, 4.0, Material::Drywall);
    let ap = Pose::new(Vec2::new(41.5, 2.0), Degrees::new(180.0));
    let testbed = Testbed::new(room, ap);
    let adapter = RateAdapter::standard();
    let arq = ArqConfig::standard();

    let mut table = TextTable::new([
        "distance m",
        "SNR@100MHz dB",
        "rate Mbps",
        "BER",
        "ARQ goodput Mbps",
    ]);
    let packet_bits = 1400 * 8;
    for d in (2..=40).step_by(2) {
        let pos = Vec2::new(ap.position.x - d as f64, 2.0);
        let obs = testbed.observe(testbed.node_pose_at(pos), &[]);
        let snr_ref = obs.snr_otam - Db::new(6.0); // 25 MHz → 100 MHz noise
        match adapter.select(snr_ref, obs.separation) {
            Some(rate) => {
                let ber = adapter.ber_at(snr_ref, obs.separation, rate);
                let per = 1.0 - (1.0 - ber).powi(packet_bits);
                let goodput = effective_goodput(rate, per, &arq);
                table.row([
                    format!("{d}"),
                    format!("{:.1}", snr_ref.value()),
                    format!("{:.0}", rate.mbps()),
                    format!("{ber:.1e}"),
                    format!("{:.1}", goodput.mbps()),
                ]);
            }
            None => {
                table.row([
                    format!("{d}"),
                    format!("{:.1}", snr_ref.value()),
                    "-".into(),
                    "-".into(),
                    "0.0".into(),
                ]);
            }
        }
    }
    println!("== rate adaptation down a 40 m hall ==");
    println!("{}", table.render());
    println!(
        "The paper's fixed 100 Mbps works to ~18 m; adaptation keeps an HD camera\n\
         (10 Mbps) alive far beyond, and ARQ ({} retries) hides the residual PER.",
        arq.max_retries
    );
}
