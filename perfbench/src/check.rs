//! Result checks.  Each returns `Err(reason)` instead of panicking, so
//! a failed check counts as one failed operation and the run goes on.

use std::sync::Arc;

use background::Background;
use boltzmann::ModeOutput;
use plinger::RunSpec;
use recomb::ThermoHistory;

/// Bit patterns of everything a mode carries except its timing
/// (`ik` and `cpu_seconds` in the header).
fn physics_bits(out: &ModeOutput) -> Vec<u64> {
    let (mut header, payload) = out.to_wire(0);
    header[18] = 0.0; // cpu_seconds: timing, not physics
    header.iter().chain(&payload).map(|v| v.to_bits()).collect()
}

/// `got` must equal `want` bit for bit, timing aside.
pub fn same_mode(got: &ModeOutput, want: &ModeOutput) -> Result<(), String> {
    if physics_bits(got) == physics_bits(want) {
        Ok(())
    } else {
        Err(format!(
            "mode k={:e} differs from its serial evolution",
            got.k
        ))
    }
}

/// `got`, mode `idx` of a finished job, must match
/// `boltzmann::evolve_mode` on the job's own spec, bitwise.
pub fn mode_matches_serial(spec: &RunSpec, idx: usize, got: &ModeOutput) -> Result<(), String> {
    let bg = Background::new(spec.cosmo.clone());
    let thermo = ThermoHistory::new(&bg);
    let want = boltzmann::evolve_mode(&bg, &thermo, spec.ks[idx], &spec.mode_config())
        .map_err(|e| format!("serial evolve failed: {e}"))?;
    same_mode(got, &want)
}

/// A job returned one finite mode per grid point, in grid order.
pub fn outputs_complete(spec: &RunSpec, outputs: &[ModeOutput]) -> Result<(), String> {
    if outputs.len() != spec.ks.len() {
        return Err(format!(
            "{} of {} modes returned",
            outputs.len(),
            spec.ks.len()
        ));
    }
    for (o, &k) in outputs.iter().zip(&spec.ks) {
        if o.k.to_bits() != k.to_bits() || !o.delta_c.is_finite() {
            return Err(format!("mode k={k:e} missing or not finite"));
        }
    }
    Ok(())
}

/// `l(l+1)C_l` (from `l = 2`) must be finite and nonnegative at every
/// `l`, and positive on the Sachs–Wolfe plateau `l ≤ 10`, which the
/// grid's logarithmic head samples densely.  Higher multipoles may
/// read 0: a thinned grid can alias the spline negative there, and the
/// assembly clamps `C_l` at 0.
pub fn band_power_sane(band: &[f64]) -> Result<(), String> {
    let bad = band
        .iter()
        .enumerate()
        .position(|(i, v)| !(v.is_finite() && (*v > 0.0 || (*v == 0.0 && i + 2 > 10))));
    match bad {
        None => Ok(()),
        Some(i) => Err(format!("l(l+1)C_l at l={} is {}", i + 2, band[i])),
    }
}

/// `δ_c(k)` must be finite and nonzero at every k.
pub fn transfer_sane(delta_c: &[f64]) -> Result<(), String> {
    match delta_c.iter().position(|v| !(v.is_finite() && *v != 0.0)) {
        None => Ok(()),
        Some(i) => Err(format!("delta_c of mode {i} is {}", delta_c[i])),
    }
}

/// Two response bodies must be identical reals.
pub fn same_body(got: &Arc<Vec<f64>>, want: &Arc<Vec<f64>>) -> Result<(), String> {
    if Arc::ptr_eq(got, want)
        || got
            .iter()
            .map(|v| v.to_bits())
            .eq(want.iter().map(|v| v.to_bits()))
    {
        Ok(())
    } else {
        Err("response body differs from the first response for the same key".into())
    }
}
