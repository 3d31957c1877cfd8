"""Executable checks of the defining properties of the constructed models.

Each check measures a residual or gap, judges it against a pinned tolerance
scaled by the largest Hamiltonian entry, and returns a record carrying the
measured value, the threshold, and whether the check is asserted (counts
toward overall pass/fail) or informational.  Checks follow two-route logic
wherever possible: a matrix-level computation is compared against an
independent classical or closed-form evaluation.  The two assemblies of H0
and of its Boltzmann conjugate H+ are built in gibbs_ground.models; H0's
gap is measured there, H+'s here, and both are judged only here.  A NaN
fails whatever it reaches: maxima over terms and trials are numpy's,
which keep a NaN, and each guard reads `if not value <= tol: raise`.

The records of verify_model, in report order.  A record under the one
rule ("rule: yes", built by _at_most) passes exactly when its reported
value is at most its reported threshold.  |H| is the largest entry of H,
F and F' are seeded trial vectors (see below), c is a classical Gibbs
average.

  record                 routes compared                  threshold         rule  fails in
  ---------------------  -------------------------------  ----------------  ----  -------------
  groundstate_hypotheses informational: odd y-sets, and   none              -     -
                         the sign of every J_C
  eigenstate_residual    |H Psi| / |Psi| against the      1e-10 |H|         yes   P
                         exact null eigenvalue 0
  hamiltonian_two_route  offdiagonal_grouping's gap, a    1e-12 |H|         yes   (a)
                         duplicate (see below)
  offdiagonal_grouping   H0 from the table entries        1e-12 |H0|        yes   P, (a)
                         against sum_C J_C X_[C]
  state_norm_partition   |Psi|^2 from decoded spins       1e-12, relative   yes   P
                         against the mask-native Z        to Z
  classical_reduction    z-product in Psi against c       1e-10 max(1,|c|)  yes   P[...[0,1]]
  [x,y]
  sx_product_bound[A]    x-product in Psi against the     the lower bound   no    P[...[0]]:
                         reweighted c (1e-10 relative),   exp(-(alpha/2)          agreement
                         and c against the lower bound    max|W_A|); the
                                                          value c must be
                                                          at least it
  conjugate_two_route    direct H+ against the            1e-10 |H|         yes   (a)
                         similarity transform of H
  conjugate_row_sums     row sums of the similarity       1e-12 |H|         yes   P
                         transform of H, (H Psi)_r /
                         Psi_r, against zero
  ground_energy          lowest eigenvalue of H against   -1e-9 |H|; the    no    (b)
                         the null eigenvalue 0            value must be at
                                                          least it
  rayleigh_quotient      |<Psi, H Psi>| / |Psi|^2         1e-10 |H|         yes   P
                         against 0
  reversibility          H+ against its weighted adjoint, 1e-10 |H||F||F'|  yes   P
                         and against H between
                         half-weighted vectors
  dirichlet_form         weighted <F, H+ F> against the   1e-10 |H| |F|^2;  no    P: two-route;
                         flip-difference sum; both        nonnegativity           (c): nonneg-
                         nonnegative under the hypotheses at -1e-12               ativity

  P    tests/test_verify.py::test_verify_model_fails_the_record_of_a_perturbed_route[record]
  (a)  tests/test_cli.py::test_verify_reports_a_disagreeing_assembly_route
  (b)  tests/test_verify.py::test_verify_model_fails_sector_local_sign_violation
  (c)  tests/test_verify.py::test_dirichlet_form_sign_violation_breaks_nonnegativity

Each control stands for a bug outside the record's own arithmetic:

  eigenstate_residual    a Boltzmann vector that H does not annihilate
  offdiagonal_grouping,  a term of H0 misplaced or mis-phased, seen as a
  hamiltonian_two_route  table route and a grouped route that disagree
  state_norm_partition   a wrong partition value
  classical_reduction    a wrong classical Gibbs average
  sx_product_bound       a wrong classical flip weight
  conjugate_two_route    a wrong entry of the directly assembled H+
  conjugate_row_sums,    a diagonal V that does not cancel the flip terms
  rayleigh_quotient      of H on Psi
  reversibility,         a directly assembled H+ that is not symmetric in
  dirichlet_form         the Boltzmann-weighted inner product
  ground_energy          a sign-violating J_C: Psi is not the ground state

reversibility and dirichlet_form come from one pass over the trial
vectors (trial_vector_checks); each keeps its own witnesses.

Two records duplicate others.  rayleigh_quotient is implied by
eigenstate_residual: by Cauchy-Schwarz |<Psi, H Psi>| / |Psi|^2 <=
|H Psi| / |Psi|, both thresholds are 1e-10 |H|, and rayleigh_quotient is
asserted only where eigenstate_residual is.  hamiltonian_two_route reads
offdiagonal_grouping's gap against a threshold that is the looser one
unless the table has an identity entry ([], [], phi).  Both stay while the
benchmark workloads pin the 14 record names.

Trial vectors and eigensolver start vectors are SplitMix64 outputs in
[-1, 1) (gibbs_ground.splitmix), so no report depends on numpy's generator
streams.  The `trials` vectors F are runs of dim outputs from output 0
on, F' the next `trials` runs; both records read the same F.  Each vector
is drawn once, from its own counters, when it is used, so the pass holds
O(dim) of them whatever `trials` is.  The start vectors of both
eigensolver routes, which run on numpy alone, are outputs 0 to dim - 1 of
the stream with seed 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classical import (
    _check_pairs,
    _mask_chunks,
    classical_expectation,
    flip_weight,
    max_abs_flip_energy,
    spin_product,
)
from .errors import (
    ConstraintError,
    ConvergenceError,
    InternalConsistencyError,
    NonHermitianError,
    SizeCapError,
)
from .lattice import Caps, nearest_neighbor_pairs, pair_mask, sites_from_mask
from .models import (
    CouplingTable,
    ModelInstance,
    _similarity_conjugate,
    diagonal_couplings,
)
from .operators import OperatorMatrix, apply, flip_graph_labels, max_entry_diff, product_operator
from .splitmix import check_seed, uniform

# Pinned tolerances, all relative to the largest Hamiltonian entry except
# where noted.
EIGEN_RESIDUAL_RTOL = 1e-10
# Two independent assemblies of the same Hamiltonian must agree to this
# fraction of the largest entry; the conjugated form involves exponential
# reweighting, so its two routes are compared at a slightly looser one.
TWO_PATH_RTOL = 1e-12
CONJUGATE_RTOL = 1e-10
GROUND_ENERGY_RTOL = 1e-9
RAYLEIGH_RTOL = 1e-10
OFFDIAG_RTOL = 1e-12
ROW_SUM_RTOL = 1e-12
NORM_PARTITION_RTOL = 1e-12  # relative to the partition value
CLASSICAL_REDUCTION_RTOL = 1e-10  # relative, floored at 1
SX_AGREEMENT_RTOL = 1e-10  # relative to the classical value
SX_BOUND_SLACK = 1e-12
SYMMETRY_RTOL = 1e-10  # of |H|_max * |F| * |F'|
DIRICHLET_RTOL = 1e-10
DIRICHLET_NONNEG_SLACK = 1e-12
IMAG_PART_TOL = 1e-10

# Thick-restart Lanczos: the basis holds at most LANCZOS_BASIS vectors, a
# restart keeps the LANCZOS_KEEP lowest Ritz vectors, and the lowest one is
# accepted once its residual is at most LANCZOS_RTOL * |H|_max (100 times
# inside the residual guard).  The budget counts products with H.
LANCZOS_BASIS = 100
LANCZOS_KEEP = 30
LANCZOS_RTOL = 1e-12
LANCZOS_MAX_PRODUCTS = 10_000


def _plain(value):
    """Recursively convert numpy scalars so payloads serialize as JSON."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class CheckRecord:
    """Outcome of a single check."""

    name: str
    passed: bool
    asserted: bool
    value: float | None
    threshold: float | None
    details: dict

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "asserted": bool(self.asserted),
            "value": None if self.value is None else float(self.value),
            "threshold": None if self.threshold is None else float(self.threshold),
            "details": _plain(self.details),
        }


@dataclass
class VerificationReport:
    """All check records for one model, with the model's input digest."""

    model_digest: str
    alpha: float
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records if r.asserted)

    def to_payload(self) -> dict:
        return {
            "model_digest": self.model_digest,
            "alpha": self.alpha,
            "all_passed": self.all_passed,
            "checks": [r.to_payload() for r in self.records],
        }


def _at_most(
    name: str, value: float, threshold: float, asserted: bool = True, **details
) -> CheckRecord:
    """A record that passes exactly when the value it reports is at most the
    threshold it reports."""
    return CheckRecord(name, bool(value <= threshold), asserted, value, threshold, details)


@dataclass(frozen=True)
class SpectralResult:
    """Smallest eigenvalue, its residual against the full matrix, the route
    that produced it, and the flip-graph block count and largest block
    size (1 and the dimension on the iterative route)."""

    eigenvalue: float
    residual: float
    method: str
    blocks: int
    largest_block: int


@dataclass(frozen=True)
class HypothesisReport:
    """Parity and sign conditions under which the Boltzmann state is a
    ground state: no odd y-sets, and every diagonal coupling nonpositive."""

    odd_entries: tuple[tuple[int, int, float], ...]
    positive_couplings: tuple[dict, ...]
    satisfied: bool


def eigen_residual(h: OperatorMatrix, psi: np.ndarray) -> float:
    """|H psi| / |psi|; zero when psi is the null eigenvector it should be."""
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ConstraintError("cannot compute an eigen residual of the zero vector")
    return float(np.linalg.norm(apply(h, psi))) / norm


def _lowest_vector(block: np.ndarray, lam: float) -> np.ndarray:
    """A unit eigenvector of a Hermitian block for its lowest eigenvalue
    lam: one step of inverse iteration, a solve with block - lam*I from
    SplitMix64 outputs (seed 0), which blows up along the wanted
    direction.  The block is shifted in place, so the solve's own copy is
    the only other n x n array.  An exactly singular solve (an eigenvalue
    met exactly, as in a 1x1 block) falls back to a full dense solve of the
    shifted block, whose eigenvectors are the block's, in the same order."""
    n = len(block)
    block.flat[:: n + 1] -= lam
    try:
        vec = np.linalg.solve(block, uniform(0, 0, n))
    except np.linalg.LinAlgError:
        vec = None
    if vec is None or not np.isfinite(vec).all():
        return np.linalg.eigh(block)[1][:, 0]
    return vec / np.linalg.norm(vec)


def _lanczos_lowest(h: OperatorMatrix) -> np.ndarray:
    """A unit vector for the lowest eigenvalue of Hermitian h, by
    thick-restart Lanczos (Wu & Simon 2000) on the flip-term product.

    The basis starts from SplitMix64 outputs (seed 0) and is kept
    orthonormal by two Gram-Schmidt passes per product; the projected
    matrix is assembled from their coefficients.  When the basis is full,
    Rayleigh-Ritz on it either accepts the lowest Ritz vector, whose
    residual is beta * |last component| with beta the norm of the next,
    not yet normalised, Lanczos vector, or restarts from the LANCZOS_KEEP
    lowest Ritz vectors and that next vector.  A beta within tolerance
    means an invariant subspace, so Rayleigh-Ritz runs early.  Raises
    ConvergenceError once LANCZOS_MAX_PRODUCTS products have not sufficed.
    """
    dim = h.dim
    real = h.is_real
    size = min(LANCZOS_BASIS, dim)
    keep = min(LANCZOS_KEEP, size - 1)
    tol = LANCZOS_RTOL * h.norm_max
    basis = np.empty((size, dim), dtype=float if real else complex)
    projected = np.zeros((size, size), dtype=basis.dtype)
    # A fixed-seed start vector makes reruns repeat exactly; a generic one
    # cannot be orthogonal to the lowest mode by symmetry.
    start = uniform(0, 0, dim)
    basis[0] = start / np.linalg.norm(start)
    kept, products = 0, 0
    while True:
        for j in range(kept, size):
            w = apply(h, basis[j])
            if real:
                w = w.real.copy()
            products += 1
            span = basis[: j + 1]
            coeffs = np.zeros(j + 1, dtype=basis.dtype)
            for _ in range(2):
                step = (span @ w.conj()).conj()
                w -= step @ span
                coeffs += step
            projected[: j + 1, j] = coeffs
            projected[j, : j + 1] = coeffs.conj()
            beta = float(np.linalg.norm(w))
            if beta <= tol or products >= LANCZOS_MAX_PRODUCTS or j == size - 1:
                break
            basis[j + 1] = w / beta
        n = j + 1
        theta, ritz = np.linalg.eigh(projected[:n, :n])
        residual = beta * abs(ritz[-1, 0])
        if residual <= tol:
            vec = ritz[:, 0] @ basis[:n]
            return vec / np.linalg.norm(vec)
        if products >= LANCZOS_MAX_PRODUCTS:
            raise ConvergenceError(
                f"Lanczos did not converge within {LANCZOS_MAX_PRODUCTS} products: the lowest "
                f"Ritz residual is {residual:.3e}, above {tol:.3e}"
            )
        basis[:keep] = ritz[:, :keep].T @ basis[:n]
        basis[keep] = w / beta
        projected[:] = 0.0
        projected[:keep, :keep] = np.diag(theta[:keep])
        kept = keep


def min_eigenvalue(h: OperatorMatrix, dense_sites: int = Caps.dense_sites) -> SpectralResult:
    """Smallest eigenvalue of a Hermitian operator.

    Arithmetic is real when every entry has a zero imaginary part.  On at
    most dense_sites sites the operator is split into the connected
    components of its flip graph (H couples m only to m XOR C), numbered by
    smallest mask; each block is filled dense from the rows of
    h.row_table, the table apply reads, and its lowest eigenvalue, from
    numpy's eigvalsh, decides the winner (the first in block order on a
    tie).  One block is alive at a time, beside LAPACK's copy of it: only
    the winner's bounds are kept, and its block is filled again for one
    step of inverse iteration at its eigenvalue (_lowest_vector), whatever
    the block size.  Above the cap, thick-restart Lanczos on H
    itself, with numpy and the flip-term product alone, finds the lowest
    eigenvector from a start vector of SplitMix64 outputs (seed 0; see
    _lanczos_lowest), and the eigenvalue is its Rayleigh quotient on H.
    The residual is always measured against the full H, which also proves
    the blocks closed.

    Raises NonHermitianError on non-Hermitian input and ConvergenceError
    if the iterative route does not converge within LANCZOS_MAX_PRODUCTS
    products with H.
    """
    if not h.is_hermitian:
        raise NonHermitianError(
            "smallest-eigenvalue computation requires a Hermitian matrix"
        )
    dim = h.dim
    if h.n_sites <= dense_sites:
        _, labels = np.unique(flip_graph_labels(h), return_inverse=True)
        n_blocks = int(labels.max()) + 1
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], np.arange(n_blocks + 1))
        position = np.empty(dim, dtype=np.int64)
        position[order] = np.arange(dim)
        columns, entries = h.row_table

        def block(start, stop):
            # Rows start to stop of the block order, off the row table.
            # Nonzero entries never leave their block; a zero may sit in a
            # column of another block, so only nonzero entries are placed.
            members = order[start:stop]
            values = entries[:, members]
            terms, rows = np.nonzero(values)
            dense = np.zeros((stop - start, stop - start), dtype=entries.dtype)
            dense[rows, position[columns[terms, members[rows]]] - start] = values[terms, rows]
            return dense

        lam, best = math.inf, None
        for start, stop in zip(bounds[:-1], bounds[1:]):
            low = float(np.linalg.eigvalsh(block(start, stop))[0])
            if low < lam:
                lam, best = low, (start, stop)
        start, stop = best
        vec = np.zeros(dim, dtype=entries.dtype)
        vec[order[start:stop]] = _lowest_vector(block(start, stop), lam)
        h_vec = apply(h, vec)
        method, blocks, largest_block = "dense", n_blocks, int(np.diff(bounds).max())
    else:
        vec = _lanczos_lowest(h)
        h_vec = apply(h, vec)
        lam = float(np.vdot(vec, h_vec).real)
        method, blocks, largest_block = "iterative", 1, dim
    residual = float(np.linalg.norm(h_vec - lam * vec))
    if not residual <= 1e-10 * max(h.norm_max, abs(lam)):
        raise InternalConsistencyError(
            f"{method} eigensolver residual {residual:.3e} is implausibly large"
        )
    return SpectralResult(
        eigenvalue=lam,
        residual=residual,
        method=method,
        blocks=blocks,
        largest_block=largest_block,
    )


def groundstate_hypotheses(
    table: CouplingTable, cap: int = Caps.enumeration_sites
) -> HypothesisReport:
    """Flag odd y-sets and enumerate the sign of every diagonal coupling
    over all assignments of its own sites (exact, 2^|C| cases per set, at
    most cap sites), one chunk of assignments at a time."""
    odd = table.odd_entries
    positive = []
    for coupling in diagonal_couplings(table):
        size = coupling.sites_mask.bit_count()
        if size > cap:
            raise SizeCapError(
                f"hypothesis enumeration over a {size}-site union set exceeds "
                f"the cap of {cap}"
            )
        worst = max(
            float(coupling.restricted_values(local).real.max())
            for local in _mask_chunks(size)
        )
        if worst > 0.0:
            positive.append(
                {"sites": list(sites_from_mask(coupling.sites_mask)), "max_value": worst}
            )
    return HypothesisReport(
        odd_entries=odd,
        positive_couplings=tuple(positive),
        satisfied=not odd and not positive,
    )


def quantum_expectation(op: OperatorMatrix, psi: np.ndarray) -> float:
    """(psi, O psi) / (psi, psi).  For a Hermitian operator the imaginary
    part must vanish to IMAG_PART_TOL; it is a builder bug otherwise."""
    denom = float(np.vdot(psi, psi).real)
    if denom == 0.0:
        raise ConstraintError("expectation in the zero vector is undefined")
    value = complex(np.vdot(psi, apply(op, psi))) / denom
    if op.is_hermitian and not abs(value.imag) <= IMAG_PART_TOL * max(1.0, abs(value.real)):
        raise InternalConsistencyError(
            f"Hermitian expectation has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def sx_product_bound(model: ModelInstance, sites_mask: int) -> CheckRecord:
    """Expectation of the x-Pauli product over a site set in the Boltzmann
    state: the matrix route must match the classical reweighted average
    <exp(-(alpha/2) W_A)>, and both obey the positive lower bound
    exp(-(alpha/2) max|W_A|).

    Between the quantum and enumeration caps only the classical route and
    the bound are checked (the 2^n operator would be out of range).
    """
    potential, alpha, caps = model.potential, model.alpha, model.caps
    classical = classical_expectation(
        flip_weight(potential, alpha, sites_mask),
        potential,
        alpha,
        cap=caps.enumeration_sites,
    )
    max_w = max_abs_flip_energy(potential, sites_mask, cap=caps.enumeration_sites)
    bound = math.exp(-0.5 * alpha * max_w)
    details = {
        "classical": float(classical),
        "lower_bound": float(bound),
        "max_abs_flip_energy": float(max_w),
    }
    agree_ok = True
    if model.lattice.n_sites <= caps.quantum_sites:
        op = product_operator(1, sites_mask, model.lattice, cap=caps.quantum_sites)
        quantum = quantum_expectation(op, model.state)
        agreement = abs(quantum - classical) / abs(classical)
        agree_ok = agreement <= SX_AGREEMENT_RTOL
        details["quantum"] = float(quantum)
        details["relative_gap"] = float(agreement)
    else:
        details["quantum"] = None
    bound_ok = classical >= bound * (1.0 - SX_BOUND_SLACK)
    return CheckRecord(
        name=f"sx_product_bound[{','.join(map(str, sites_from_mask(sites_mask)))}]",
        passed=agree_ok and bound_ok,
        asserted=True,
        value=float(classical),
        threshold=float(bound),
        details=details,
    )


def _check_trials(trials: int, dim: int):
    """ConstraintError unless the F and F' of trials trial vectors, 2 *
    trials * dim outputs, fit the seed's stream (the rule of
    metropolis_samples)."""
    if trials < 1:
        raise ConstraintError(f"a randomized check needs at least 1 trial, got {trials}")
    if 2 * trials * dim >= 1 << 64:
        raise ConstraintError(
            f"{trials} trials of dimension {dim} need 2^64 or more SplitMix64 outputs"
        )


def _trial_vector(seed: int, dim: int, k: int) -> np.ndarray:
    """Trial vector k of the seed's stream: the outputs [k*dim, (k+1)*dim)
    of uniform."""
    return uniform(seed, k * dim, dim)


def trial_vector_checks(
    model: ModelInstance, trials: int = 20, seed: int = 0, require_nonneg: bool = True
) -> tuple[CheckRecord, CheckRecord]:
    """The reversibility and dirichlet_form records from one pass over the
    seed's trial vectors, F the vectors 0 to trials - 1 and F' the next
    trials of them; each F, F', H+ F, H+ F' and H applied to the
    half-weighted F is computed once.

    reversibility compares the weighted adjoint of H+ with H+ and with H
    between half-weighted vectors; dirichlet_form compares the weighted
    form <F, H+ F> with the flip-difference sum

        -(1/2) sum_C sum_s J_C(s) e^{-(alpha/2)[U(s) + U(flip(s,C))]}
                           (F(s) - F(flip(s,C)))^2,

    and with require_nonneg (the sign hypothesis) asks both to be
    nonnegative.  Weights use the potential shifted by its minimum, which
    rescales both sides alike.  Both need every y-set even (the couplings
    must commute with the flips): otherwise reversibility is informational
    and dirichlet_form a skipped record.  Raises ConstraintError on a seed
    outside [0, 2^64 - 1] or on trials beyond the stream (_check_trials).
    """
    masks, shifted = model.masks, model.shifted_energies
    dim = len(masks)
    _check_trials(trials, dim)
    even = not model.table.odd_entries
    w = np.exp(-model.alpha * shifted)
    wh = np.exp(-0.5 * model.alpha * shifted)
    hc, norm, tiny = model.h_conjugate, model.h.norm_max, np.finfo(float).tiny
    flip_data = []
    for coupling in model.couplings:
        if even and coupling.sites_mask != 0:
            perm = masks ^ coupling.sites_mask
            weight2 = np.exp(-0.5 * model.alpha * (shifted + shifted[perm]))
            flip_data.append((perm, coupling.values(masks) * weight2))

    # Running extremes by numpy, which keeps a NaN that Python's max and min
    # drop after the first value; argmin keeps the first of tied zeros, as
    # min does.  A NaN then fails every comparison below.
    max_sym = max_conj = max_gap = 0.0
    min_form = math.inf
    for k in range(trials):
        f = _trial_vector(seed, dim, k)
        g = _trial_vector(seed, dim, trials + k)
        hcf = apply(hc, f)
        scale = max(norm * np.linalg.norm(f) * np.linalg.norm(g), tiny)
        form = np.sum(w * np.conj(hcf) * g)
        max_sym = np.maximum(max_sym, abs(form - np.sum(w * f * apply(hc, g))) / scale)
        conj_gap = abs(form - np.vdot(apply(model.h, wh * f), wh * g))
        max_conj = np.maximum(max_conj, conj_gap / scale)
        if even:
            scale = max(norm * float(np.dot(f, f)), tiny)
            lhs = complex(np.sum(w * np.conj(hcf) * f))
            rhs = 0.0 + 0.0j
            for perm, jw in flip_data:
                diff = f - f[perm]
                rhs -= 0.5 * np.sum(jw * diff * diff)
            max_gap = np.maximum(max_gap, abs(lhs - rhs) / scale)
            forms = (min_form, lhs.real / scale, rhs.real / scale)
            min_form = forms[np.argmin(forms)]

    reversibility = _at_most(
        "reversibility",
        float(np.maximum(max_sym, max_conj)),
        SYMMETRY_RTOL,
        even,
        max_symmetry_gap=float(max_sym),
        max_conjugation_gap=float(max_conj),
        trials=trials,
        seed=seed,
    )
    if not even:
        skipped = {"skipped": "odd y-sets make the flip-difference route inapplicable"}
        return reversibility, CheckRecord("dirichlet_form", True, False, None, None, skipped)
    nonneg_ok = not require_nonneg or min_form >= -DIRICHLET_NONNEG_SLACK
    details = {
        "max_two_route_gap": float(max_gap),
        "min_scaled_form": float(min_form),
        "nonnegativity_required": require_nonneg,
        "trials": trials,
        "seed": seed,
    }
    passed = max_gap <= DIRICHLET_RTOL and nonneg_ok
    return reversibility, CheckRecord(
        "dirichlet_form", passed, True, float(max_gap), DIRICHLET_RTOL, details
    )


# ---------------------------------------------------------------------------
# Full verification driver
# ---------------------------------------------------------------------------


def verify_model(
    model: ModelInstance,
    *,
    trials: int = 20,
    seed: int = 0,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> VerificationReport:
    """Run the full check suite on one model and collect the records.

    Checks that depend on the parity/sign hypotheses are asserted only when
    those hypotheses hold; otherwise they are computed and reported as
    informational, mapping where the properties actually hold.  Every check
    runs under model.caps: a model above caps.quantum_sites stops before
    any check, with SizeCapError, as does a pair site outside the lattice,
    a seed outside [0, 2^64 - 1] or trials whose vectors overrun the
    seed's stream, with ConstraintError.  A pair (x, x) is legal, as in
    the scan.
    """
    check_seed(seed)
    if pairs is None:
        pairs = nearest_neighbor_pairs(model.lattice)[:2]
    _check_pairs(model.lattice.n_sites, pairs)
    caps = model.caps
    # model.masks is the model's quantum-cap check, before any enumeration
    _check_trials(trials, len(model.masks))
    report = VerificationReport(model_digest=model.digest(), alpha=model.alpha)
    records = report.records
    # Z is the squared norm of the Boltzmann state: an alpha whose state
    # leaves double precision, above or below, stops here with
    # NumericRangeError, before any check computes with that state.
    z_value = model.partition_value()
    norm = model.h.norm_max
    # The spectral solve, verify's largest transient, runs before the checks
    # build their operators; its record keeps its place in the report below.
    if model.h.is_hermitian:
        spectral = min_eigenvalue(model.h, dense_sites=caps.dense_sites)

    hypotheses = groundstate_hypotheses(model.table, cap=caps.enumeration_sites)
    records.append(
        CheckRecord(
            "groundstate_hypotheses",
            True,
            False,
            None,
            None,
            {
                "satisfied": hypotheses.satisfied,
                "odd_y_sets": [list(e[:2]) for e in hypotheses.odd_entries],
                "positive_couplings": list(hypotheses.positive_couplings),
            },
        )
    )

    records.append(
        _at_most(
            "eigenstate_residual",
            eigen_residual(model.h, model.state),
            EIGEN_RESIDUAL_RTOL * norm,
            not hypotheses.odd_entries,
            h_norm_max=norm,
        )
    )
    records.append(
        _at_most("hamiltonian_two_route", model.two_path_diff, TWO_PATH_RTOL * norm)
    )
    records.append(
        _at_most(
            "offdiagonal_grouping", model.two_path_diff, OFFDIAG_RTOL * model.h0.norm_max
        )
    )
    norm_sq = model.state_norm_squared()
    records.append(
        _at_most(
            "state_norm_partition",
            abs(norm_sq - z_value) / z_value,
            NORM_PARTITION_RTOL,
            norm_squared=norm_sq,
            partition_value=z_value,
        )
    )

    for x, y in pairs:
        # (x, x) is s_x s_x = 1: the z-product over the empty set
        op = product_operator(3, pair_mask(x, y), model.lattice, cap=caps.quantum_sites)
        quantum = quantum_expectation(op, model.state)
        classical = classical_expectation(
            spin_product(x, y), model.potential, model.alpha, cap=caps.enumeration_sites
        )
        records.append(
            _at_most(
                f"classical_reduction[{x},{y}]",
                abs(quantum - classical),
                CLASSICAL_REDUCTION_RTOL * max(1.0, abs(classical)),
                quantum=quantum,
                classical=classical,
            )
        )

    # (x, x) is sigma^x_x sigma^x_x = I: the x-product over the empty set
    sx_sets = [1 << 0] + [pair_mask(x, y) for x, y in pairs[:1]]
    for mask in sx_sets:
        records.append(sx_product_bound(model, mask))

    # The similarity route of H+, built once for both records and dropped
    # before the later checks; its row r is (H Psi)_r / Psi_r.
    similarity = _similarity_conjugate(model)
    conjugate_gap = max_entry_diff(model.h_conjugate, similarity)
    row_sums = apply(similarity, np.ones(model.h.dim))
    del similarity
    records.append(_at_most("conjugate_two_route", conjugate_gap, CONJUGATE_RTOL * norm))
    records.append(
        _at_most("conjugate_row_sums", float(np.abs(row_sums).max()), ROW_SUM_RTOL * norm)
    )

    if model.h.is_hermitian:
        records.append(
            CheckRecord(
                "ground_energy",
                spectral.eigenvalue >= -GROUND_ENERGY_RTOL * norm,
                hypotheses.satisfied,
                spectral.eigenvalue,
                -GROUND_ENERGY_RTOL * norm,
                {
                    "method": spectral.method,
                    "residual": spectral.residual,
                    "blocks": spectral.blocks,
                    "largest_block": spectral.largest_block,
                },
            )
        )

        rayleigh = abs(float(np.vdot(model.state, apply(model.h, model.state)).real)) / norm_sq
        records.append(
            _at_most(
                "rayleigh_quotient", rayleigh, RAYLEIGH_RTOL * norm, hypotheses.satisfied
            )
        )

    records.extend(trial_vector_checks(model, trials, seed, hypotheses.satisfied))
    return report
