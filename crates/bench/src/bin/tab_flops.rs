//! §5.1 flop rates: per-node Mflop/s and aggregate Gflop/s.
//!
//! The paper quotes: LINGER at 570 Mflop on one Cray C90 head
//! (of 1 Gflop peak), 40 Mflop on one IBM Power2 (→ 58 with tuning),
//! 15 Mflop on one T3D node; PLINGER aggregates 2.4 Gflop on 64 SP2
//! nodes and 9.6 Gflop on 256 ("thus 15 Gflop or more should be
//! achievable").
//!
//! Here the flop count comes from two censuses kept in `ode::StepStats`:
//! the RHS's analytic operation count per evaluation, and the stepper's
//! count of the Runge–Kutta stage algebra (`≈ stages²·n` per step).  The
//! single-node rows divide each, and their sum, by the same measured
//! in-mode wall time; the aggregates divide the sum by the farm
//! simulator's wall time at the paper's node counts (efficiency
//! included).
//!
//! ```text
//! cargo run --release -p bench --bin tab_flops [n_modes] [k_max]
//! ```

use bench::experiments::{measure_serial, print_table, scaling_workload};
use plinger::{run_serial, simulate_farm, SchedulePolicy, SimParams};

fn main() {
    let n_modes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(96);
    let k_max: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.04);

    println!("# §5.1 reproduction: flop rates");
    let spec = scaling_workload(n_modes, k_max);
    let (outputs, serial_wall) = match run_serial(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tab_flops: serial pass failed: {e}");
            std::process::exit(1);
        }
    };
    let rhs_flops: u64 = outputs.iter().map(|o| o.stats.rhs_flops).sum();
    let stepper_flops: u64 = outputs.iter().map(|o| o.stats.stepper_flops).sum();
    let total_flops = rhs_flops + stepper_flops;
    let in_mode_secs: f64 = outputs.iter().map(|o| o.cpu_seconds).sum();
    let mflops = |flops: u64| format!("{:.0}", flops as f64 / in_mode_secs / 1e6);

    println!(
        "# serial LINGER: {:.2} Gflop ({:.2} RHS + {:.2} stepper) over {} modes in {:.2} s ({:.2} s incl. setup)",
        total_flops as f64 / 1e9,
        rhs_flops as f64 / 1e9,
        stepper_flops as f64 / 1e9,
        outputs.len(),
        in_mode_secs,
        serial_wall
    );

    let rows = [
        vec![
            "this machine: RHS".to_string(),
            mflops(rhs_flops),
            "RHS census / in-mode wall".to_string(),
        ],
        vec![
            "this machine: stepper".to_string(),
            mflops(stepper_flops),
            "stage-algebra census / in-mode wall".to_string(),
        ],
        vec![
            "this machine: total".to_string(),
            mflops(total_flops),
            "RHS + stepper / in-mode wall".to_string(),
        ],
        vec![
            "Cray C90 node (paper)".to_string(),
            "570".to_string(),
            "57% of 1 Gflop peak".to_string(),
        ],
        vec![
            "IBM Power2 (paper)".to_string(),
            "40 → 58".to_string(),
            "1/7 of 266 Mflop peak; tuned".to_string(),
        ],
        vec![
            "Cray T3D node (paper)".to_string(),
            "15".to_string(),
            "1/10 of peak".to_string(),
        ],
    ];
    print_table(&["single node", "Mflop/s", "note"], &rows[..]);

    // --- aggregate rates at the paper's node counts --------------------
    println!("\n# aggregate rates (farm-simulated on measured durations):");
    let (durations, _, _) = measure_serial(&spec);
    let mut rows = Vec::new();
    for (n, paper) in [
        (64usize, "2.4 Gflop (SP2×64)"),
        (256, "9.6 Gflop (SP2×256), 3.7 (T3D×256)"),
    ] {
        let sim = simulate_farm(&SimParams {
            durations: durations.clone(),
            policy: SchedulePolicy::LargestFirst,
            ks: spec.ks.clone(),
            n_workers: n,
            overhead: 5.0e-5,
            startup: 0.0,
            speeds: Vec::new(),
        });
        let agg = total_flops as f64 / sim.wall_seconds / 1e9;
        rows.push(vec![
            n.to_string(),
            format!("{agg:.2}"),
            format!("{:.0}%", 100.0 * sim.efficiency()),
            paper.to_string(),
        ]);
    }
    print_table(
        &["nodes", "this code [Gflop/s]", "efficiency", "paper"],
        &rows,
    );
    println!("# note: with {n_modes} modes the 256-node farm starves (fewer jobs than");
    println!("# nodes); the paper's production runs used thousands of k-values.");
}
