//! Error paths and guard rails of the mode evolver.

use background::{Background, CosmoParams};
use boltzmann::{evolve_mode, ModeConfig, Preset};
use recomb::ThermoHistory;

#[test]
fn open_universe_is_rejected() {
    let mut p = CosmoParams::standard_cdm();
    p.omega_c = 0.3; // Ω_k ≈ 0.65: strongly open
    let bg = Background::new(p);
    let th = ThermoHistory::new(&bg);
    match evolve_mode(&bg, &th, 0.01, &ModeConfig::default()) {
        Err(err @ boltzmann::EvolveError::NonFlat { omega_k }) => {
            assert!(omega_k > 0.6, "Ω_k = {omega_k}");
            assert!(err.to_string().contains("flat background"), "{err}");
        }
        other => panic!("open universe evolved: {:?}", other.map(|_| ())),
    }
}

#[test]
fn nonpositive_k_is_a_typed_error() {
    let bg = Background::new(CosmoParams::standard_cdm());
    let th = ThermoHistory::new(&bg);
    for bad in [0.0, -1.0e-3, f64::NAN, f64::INFINITY] {
        match evolve_mode(&bg, &th, bad, &ModeConfig::default()) {
            Err(boltzmann::EvolveError::BadWavenumber { .. }) => {}
            other => panic!("k = {bad} must be rejected, got {:?}", other.map(|_| ())),
        }
    }
}

#[test]
fn evolve_error_formats_with_context() {
    // check the error Display carries the failing wavenumber
    let err = boltzmann::EvolveError::Ode {
        k: 0.25,
        source: ode::OdeError::TooManySteps { t: 100.0 },
    };
    let msg = err.to_string();
    assert!(msg.contains("0.25"), "missing k context: {msg}");
    assert!(msg.contains("step budget"), "missing cause: {msg}");
}

#[test]
fn lcdm_preset_runs_end_to_end() {
    // Λ-dominated model exercises the dark-energy background terms
    let bg = Background::new(CosmoParams::lcdm());
    let th = ThermoHistory::new(&bg);
    let cfg = ModeConfig {
        preset: Preset::Draft,
        ..Default::default()
    };
    let out = evolve_mode(&bg, &th, 0.01, &cfg).unwrap();
    assert!(out.delta_c.is_finite() && out.delta_c.abs() > 1.0);
    // late-time ISW: ψ at τ0 is below its matter-era plateau — just
    // sanity-check finiteness and sign here
    assert!(out.psi.is_finite() && out.psi > 0.0);
}
