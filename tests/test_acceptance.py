"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or -rA); the
assertions carry the pinned tolerances.  The randomized family mixes
hypothesis-satisfying (ferromagnetic-style) draws with generic even-parity
draws so the ground-state subset is never empty.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from gibbs_ground import (
    ClassicalPotential,
    CouplingTable,
    ModelInstance,
    build_hypercube,
    eigen_residual,
    groundstate_hypotheses,
    min_eigenvalue,
    quantum_expectation,
    spin_product,
    squared_magnetization,
    trial_vector_checks,
)
from gibbs_ground import cli
from gibbs_ground.classical import estimate_from_samples, gibbs_averages, metropolis_samples
from gibbs_ground.models import build_v
from gibbs_ground.lattice import nearest_neighbor_pairs
from gibbs_ground.operators import product_operator

from .conftest import ALPHA_GRID, MODEL_SHAPES, random_model, sx_product_bound, xxz_model
from .flip_terms import dense_from_operator
from .oracles import open_chain_correlation, site_coords, xxz_dense

# tanh(5)^3, the frozen large-coupling correlation at distance 3
TANH5_CUBED = 0.9997276375186346


@pytest.fixture(scope="module")
def model_family():
    """The 50 randomized models of the eigenstate criterion: half generic
    even-parity tables, half with nonpositive couplings by construction."""
    rng = np.random.default_rng(20240101)
    models = []
    for k in range(50):
        flavor = "ferro" if k % 2 else "generic"
        models.append(
            random_model(rng, flavor=flavor, shapes=MODEL_SHAPES, alphas=ALPHA_GRID)
        )
    return models


def test_criterion_01_eigenstate_residual(model_family):
    start = time.monotonic()
    for model in model_family:
        residual = eigen_residual(model.h, model.state)
        scale = max(model.h.norm_max, 1e-300)
        assert residual <= 1e-10 * scale, (
            f"residual {residual:.3e} above 1e-10 * {scale:.3e} "
            f"for model {model.digest()}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 (eigenstate residual, 50 models, {elapsed:.1f}s): PASS")


def test_criterion_02_ground_state(model_family):
    start = time.monotonic()
    checked = 0
    for model in model_family:
        if not groundstate_hypotheses(model.table).satisfied:
            continue
        checked += 1
        scale = max(model.h.norm_max, 1e-300)
        spectral = min_eigenvalue(model.h)
        assert spectral.method == "dense"
        assert spectral.eigenvalue >= -1e-9 * scale
        rayleigh = abs(
            float(np.vdot(model.state, model.h.mat @ model.state).real)
        ) / float(np.dot(model.state, model.state))
        assert rayleigh <= 1e-10 * scale
    elapsed = time.monotonic() - start
    assert checked >= 10, "hypothesis-satisfying subset is too small to be meaningful"
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 2 (ground state, {checked} models, {elapsed:.1f}s): PASS")


def test_criterion_03_two_route_agreement(model_family):
    for model in model_family:
        scale = max(model.h.norm_max, 1e-300)
        assert model.two_path_diff <= 1e-12 * scale
    print("\nACCEPTANCE 3 (two-route Hamiltonian agreement, 50 models): PASS")


def test_criterion_04_xxz_reduction():
    rng = np.random.default_rng(77)
    shapes = [(1, L) for L in (4, 5, 6, 7, 8)] + [(2, 2)]
    for k in range(20):
        d, L = shapes[int(rng.integers(len(shapes)))]
        lat = build_hypercube(d, L)
        coupling = float(rng.choice([-1, 1]) * rng.uniform(0.2, 1.2))
        alpha = float(rng.uniform(0.0, 1.5))
        model = xxz_model(lat, coupling, alpha)

        heights = [float(sum(c)) for c in site_coords(lat)]
        pairs = [(x, y, coupling) for x, y in nearest_neighbor_pairs(lat)]
        oracle = xxz_dense(lat.n_sites, pairs, heights, alpha)
        generic_v = dense_from_operator(build_v(model)).diagonal()
        assert np.abs(generic_v - oracle.diagonal()).max() <= 1e-12

        generic_h = dense_from_operator(model.h)
        assert np.abs(generic_h - oracle).max() <= 1e-12 * model.h.norm_max
    print("\nACCEPTANCE 4 (XXZ reduction against the dense oracle, 20 draws): PASS")


def test_criterion_05_x_product_lower_bound():
    for L in (6, 10):
        lat = build_hypercube(1, L)
        potential = ClassicalPotential.ising_nn(lat, 1.0)
        table = CouplingTable.xx_nearest_neighbor(lat, -1.0)
        masks = [1 << x for x in range(L)]
        masks += [
            (1 << x) | (1 << y) for x, y in itertools.combinations(range(L), 2)
        ]
        for alpha in (0.0, 1.0, 2.0, 5.0):
            model = ModelInstance(
                lattice=lat, table=table, potential=potential, alpha=alpha
            )
            for mask in masks:
                record = sx_product_bound(model, mask)
                assert record.passed, (L, alpha, mask, record.details)
                if alpha == 0.0:
                    assert abs(record.value - 1.0) <= 1e-12
                    assert abs(record.threshold - 1.0) <= 1e-12
    print("\nACCEPTANCE 5 (x-product lower bound, |A| in {1,2}): PASS")


def test_criterion_06_classical_reduction_and_transfer_matrix():
    lat = build_hypercube(1, 8)
    potential = ClassicalPotential.ising_nn(lat, 1.0)
    table = CouplingTable.xx_nearest_neighbor(lat, -1.0)
    for alpha in (0.0, 0.5, 1.0, 2.0, 5.0):
        model = ModelInstance(
            lattice=lat, table=table, potential=potential, alpha=alpha
        )
        for x, y in [(0, 1), (0, 3), (2, 5), (1, 6)]:
            op = product_operator(3, (1 << x) | (1 << y), lat)
            quantum = quantum_expectation(op, model.state)
            (classical,) = gibbs_averages([spin_product(x, y)], potential, alpha)
            assert abs(quantum - classical) <= 1e-10 * max(1.0, abs(classical))
            oracle = open_chain_correlation(8, alpha, x, y)
            closed = math.tanh(alpha) ** abs(x - y)
            assert quantum == pytest.approx(oracle, rel=1e-9, abs=1e-12)
            assert quantum == pytest.approx(closed, rel=1e-9, abs=1e-12)
    # the frozen large-coupling value at distance 3
    model5 = ModelInstance(lattice=lat, table=table, potential=potential, alpha=5.0)
    op = product_operator(3, 0b1001, lat)
    assert quantum_expectation(op, model5.state) == pytest.approx(
        TANH5_CUBED, rel=1e-9
    )
    print("\nACCEPTANCE 6 (classical reduction + transfer-matrix oracle): PASS")


def test_criterion_07_weighted_symmetry_and_quadratic_form(model_family):
    for model in model_family:
        hyp = groundstate_hypotheses(model.table)
        scale = max(model.h.norm_max, 1e-300)

        rev, qf = trial_vector_checks(
            model, trials=20, seed=404, require_nonneg=hyp.satisfied
        )
        assert rev.value <= 1e-10, (model.digest(), rev.details)
        # with an odd y-set the form is a skipped record, which passes
        assert qf.passed, (model.digest(), qf.details)

        ones = np.ones(model.h_conjugate.dim)
        assert np.abs(model.h_conjugate.mat @ ones).max() <= 1e-12 * scale
    print("\nACCEPTANCE 7 (weighted symmetry, quadratic form, row sums): PASS")


def test_criterion_08_metropolis_consistency():
    start = time.monotonic()
    lat = build_hypercube(1, 8)
    potential = ClassicalPotential.ising_nn(lat, 1.0)
    (exact,) = gibbs_averages([spin_product(0, 1)], potential, 0.5)
    samples, _ = metropolis_samples(
        potential, 0.5, sweeps=100_000, burn_in=10_000, seed=20240501
    )
    estimate, std_error = estimate_from_samples(spin_product(0, 1), samples)
    assert abs(estimate - exact) <= 3 * std_error

    lat2 = build_hypercube(2, 8)
    potential2 = ClassicalPotential.ising_nn(lat2, 1.0)
    for alpha in (0.2, 1.0):
        samples, _ = metropolis_samples(
            potential2, alpha, sweeps=20_000, burn_in=2_000, seed=20240502
        )
        estimate, std_error = estimate_from_samples(squared_magnetization(), samples)
        assert math.isfinite(estimate)
        assert std_error < 0.02, (alpha, estimate, std_error)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 8 (Metropolis consistency, {elapsed:.1f}s): PASS")


def test_criterion_09_byte_identical_outputs(tmp_path):
    doc = {
        "schema": 1,
        "lattice": {"d": 1, "L": 6},
        "couplings": {"preset": "xx", "J": -1.0},
        "potential": {"preset": "ising-nn", "K": 1.0},
        "alphas": [0.0, 1.0],
        "pairs": [[0, 3]],
        "mc": {"sweeps": 5000, "burn_in": 500, "seed": 31},
        "checks": {"trials": 10, "seed": 17},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    outputs = {}
    for command, filename in [("verify", "report.json"), ("sample", "samples.json")]:
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{command}{run}"
            code = cli.main(
                [command, "--config", str(config), "--out", str(out)]
            )
            assert code == 0
            blobs.append((out / filename).read_bytes())
        assert blobs[0] == blobs[1], f"{command} output not deterministic"
        outputs[command] = blobs[0]
    assert json.loads(outputs["verify"])["all_passed"] is True
    print("\nACCEPTANCE 9 (byte-identical verify/sample reruns): PASS")
