"""End-to-end acceptance suite: one test per shipped guarantee.

Each test pins the numbers and tolerances the package commits to; a failure
here means a headline behavior regressed, not an implementation detail.
The truncation-accuracy test (03) states a target the fixed 20-level cutoff
cannot meet at the strongest squeeze values; it is expected to fail and its
message carries the measured error floor and the cutoff that would meet it.
"""

import json
import math

import numpy as np
from scipy.stats import kstwobign

from atomsqueeze import cli, fock, homodyne, jaynes_cummings as jc, modes, superposition
from atomsqueeze.jaynes_cummings import AtomPrep, JCParams
from atomsqueeze.superposition import SuperpositionSpec
import oracles

OPTIMAL = SuperpositionSpec(beta_abs=0.5, rel_phase=0.0)
OPTIMAL_RHO = fock.to_density(superposition.make_superposition(OPTIMAL))
ONE_THIRD = SuperpositionSpec(beta_abs=math.sqrt(1.0 / 3.0), rel_phase=0.0)
ROTATING_FRAME = JCParams(omega0=0.0, omega=0.0, coupling=1.0)


def test_acceptance_01_optimal_superposition_hits_three_sixteenths():
    v1 = superposition.superposition_variance(OPTIMAL, 1)
    assert abs(v1 - 3.0 / 16.0) <= 1e-12
    db = fock.variance_to_db(v1)
    assert round(db, 4) == -1.2494
    assert round(-db, 2) == 1.25  # about 1.25 dB below the vacuum floor


def test_acceptance_02_transient_closed_forms_match_reduced_density():
    angles = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    times = np.linspace(0.0, 2.0 * math.pi, 20)
    for theta in angles:
        for phi in angles:
            prep = AtomPrep(float(theta), float(phi))
            for lt in times:
                v1, v2 = oracles.field_variances(prep, ROTATING_FRAME, float(lt))
                c1, c2 = jc.closed_form_variances(prep, float(lt))
                assert abs(v1 - c1) <= 1e-10
                assert abs(v2 - c2) <= 1e-10
    # ground-weighted preparation: the X1 transient dips as 1/4 - sin^2(t)/16
    prep = AtomPrep(2.0 * math.pi / 3.0, math.pi / 2.0)
    for lt in np.linspace(0.0, math.pi, 101):
        expected = 0.25 - math.sin(float(lt)) ** 2 / 16.0
        assert abs(jc.closed_form_variance_at(prep, float(lt), 0.0) - expected) <= 1e-12
        v1, _ = oracles.field_variances(prep, ROTATING_FRAME, float(lt))
        assert abs(v1 - expected) <= 1e-10


def test_acceptance_03_squeezed_vacuum_structure_and_truncation_accuracy():
    vec, _ = superposition.squeezed_vacuum(0.5, 20)
    assert np.all(vec.amplitudes[1::2] == 0.0)  # odd levels carry no weight
    ratio = (vec.amplitudes[2] / vec.amplitudes[0]).real
    assert abs(ratio - (-math.sqrt(2.0) * math.tanh(0.5) / 2.0)) <= 1e-12
    failures = []
    for xi in (0.25, 0.5, 0.75, 1.0):
        v, _ = superposition.squeezed_vacuum(xi, 20)
        var = fock.quadrature_stats(fock.to_density(v), 0.0).variance
        err = abs(var - math.exp(-2.0 * xi) / 4.0)
        if err > 1e-6:
            failures.append((xi, err))
    assert not failures, (
        "squeezed quadrature variance misses exp(-2 xi)/4 by more than 1e-6 at "
        + ", ".join(f"xi={xi} (error {err:.3e})" for xi, err in failures)
        + "; the renormalized 20-level truncation has an error floor set by the "
        "discarded even-photon tail (measured 6.3e-5 at xi=0.75, 2.2e-3 at xi=1.0), "
        "so no implementation at this cutoff can meet the 1e-6 target beyond "
        "xi ~ 0.6; the smallest even cutoff that meets it through xi=1.0 is 52"
    )


def test_acceptance_04_phase_space_origin_normalization_and_marginal():
    from atomsqueeze import wigner

    rho = fock.to_density(superposition.make_superposition(ONE_THIRD))
    grid = wigner.wigner_of_state(rho)  # default window and resolution
    assert abs(grid.values[100, 100] - (2.0 / math.pi) / 3.0) <= 1e-6
    assert abs(grid.integral - 1.0) <= 1e-6
    x, dens = wigner.wigner_marginal(grid, 0.0)
    norm = np.trapezoid(dens, x)
    mean = np.trapezoid(x * dens, x) / norm
    var = np.trapezoid(x * x * dens, x) / norm - mean * mean
    assert abs(var - 0.19444) <= 2e-3


def test_acceptance_05_homodyne_million_sample_statistics():
    run = homodyne.HomodyneRun(
        state=OPTIMAL_RHO, phi_lo=0.0, eta_total=1.0, n_samples=1_000_000, seed=20260819
    )
    est = homodyne.estimate_variance(homodyne.sample_quadratures(run))
    assert abs(est.var_hat - 0.1875) <= 5.0 * est.std_error_of_var

    lossy_run = homodyne.HomodyneRun(
        state=OPTIMAL_RHO, phi_lo=0.0, eta_total=0.94, n_samples=1_000_000, seed=20260820
    )
    est = homodyne.estimate_variance(homodyne.sample_quadratures(lossy_run))
    assert abs(est.var_hat - 0.19125) <= 5.0 * est.std_error_of_var

    # distributional check: 100 seeds, each held to the 0.1% KS level
    n = 100_000
    lossy = homodyne.detected_state(OPTIMAL_RHO, 0.94)
    xs, cdf = homodyne.tabulated_cdf(lossy, 0.0)
    critical = kstwobign.isf(0.001) / math.sqrt(n)
    rejections = 0
    for seed in range(100):
        run = homodyne.HomodyneRun(
            state=OPTIMAL_RHO, phi_lo=0.0, eta_total=0.94, n_samples=n, seed=seed
        )
        if homodyne.ks_statistic(homodyne.sample_quadratures(run), xs, cdf) >= critical:
            rejections += 1
    assert rejections <= 1


def test_acceptance_06_uncertainty_floor_on_random_states():
    rng = np.random.default_rng(20260818)
    for _ in range(1000):
        n_max = int(rng.integers(1, 11))
        z = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
        rho = fock.to_density(fock.make_fock_vector(z))
        for phi in np.linspace(0.0, math.pi, 8, endpoint=False):
            v_a = fock.quadrature_stats(rho, float(phi)).variance
            v_b = fock.quadrature_stats(rho, float(phi) + math.pi / 2.0).variance
            assert v_a * v_b >= 1.0 / 16.0 - 1e-10


def test_acceptance_07_mode_overlap_linewidth_and_budget():
    tau = 230e-9
    gamma = 1.0 / tau
    em = modes.emitted_mode(gamma)
    for gt in (0.1, 1.0, 5.0, 10.0):
        got = modes.mode_overlap(em, modes.lo_mode(gamma, gt * tau))
        assert abs(got - (1.0 - math.exp(-gt))) <= 1e-9

    emitter = modes.EmitterParams.from_lifetime(tau)
    computed, consistent = modes.linewidth_check(emitter, claimed_hz=700e3)
    assert 691.9e3 <= computed < 692.0e3
    assert consistent

    budget = modes.detected_squeezing(
        OPTIMAL, 0.94, em, modes.lo_mode(gamma, 5.0 * tau)
    )
    assert abs(budget.detected_db - (-1.1546)) <= 1e-3


def test_acceptance_08_dipole_criterion_predicts_field_squeezing():
    angles = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    predicted = []
    for theta in angles:
        for phi in angles:
            prep = AtomPrep(float(theta), float(phi))
            if jc.dipole_squeezing_check(prep).field_squeezing_predicted:
                assert jc.min_field_variance(prep) < 0.25
                predicted.append(prep)
    assert len(predicted) > 100  # the predicted region is a finite patch, not a fluke
    # spot-check with the actual reduced state: the dip is reachable, not just formal
    lts = np.linspace(0.0, math.pi, 41)
    phis_lo = np.linspace(0.0, math.pi, 41)
    for prep in predicted[:: max(1, len(predicted) // 5)][:5]:
        rho = oracles.reduced_field_density(jc._rotating_joint(prep, math.pi / 2.0))
        numeric_min = min(
            fock.quadrature_stats(rho, float(pl)).variance for pl in phis_lo
        )
        closed_min = min(
            jc.closed_form_variance_at(prep, float(lt), float(pl))
            for lt in lts
            for pl in phis_lo
        )
        assert closed_min < 0.25
        assert numeric_min < 0.25


def test_acceptance_09_cli_reruns_are_byte_identical(tmp_path):
    configs = {
        "variance": "beta = 0.5\nphi = 0.25\n",
        "jc-sweep": "theta = 2.0\nt-max = 3.0\nsteps = 7\n",
        "wigner": "beta = 0.57735\nres = 41\n",
        "homodyne": "beta = 0.5\nsamples = 300\nseed = 21\n",
        "phase-scan": "beta = 0.5\nsamples = 300\nn-phases = 4\nseed = 22\n",
        "budget": "collection = 0.94\nwindow-lifetimes = 5\n",
        "window-sweep": "collection = 0.9\nmin-lifetimes = 1\nmax-lifetimes = 4\nsteps = 4\n",
    }
    for command, body in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(body)
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}.{attempt}"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            raw = out.read_bytes().decode("utf-8")
            outputs.append(
                "\n".join(l for l in raw.splitlines() if "timestamp" not in l).encode("utf-8")
            )
        assert outputs[0] == outputs[1], f"{command} output changed between identical runs"
        # sanity: the stream is substantial, not an empty file passing trivially
        assert len(outputs[0]) > 100
