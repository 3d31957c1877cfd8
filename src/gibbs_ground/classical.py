"""Classical spin layer: multilinear potentials, flips, Gibbs sums, Metropolis.

A configuration of n spins is encoded as a bitmask (bit set means spin -1,
so the all-up configuration is mask 0), or in vectorized form as an int8
array of +-1 values with shape (nconf, n).  The potential is a sparse
multilinear polynomial over site subsets B,

    U(s) = sum_B c_B * prod_{x in B} s_x,

so every monomial evaluates to +-c_B exactly and flip energies

    W_A(s) = U(flip(s, A)) - U(s) = -2 * sum_{B : |B & A| odd} c_B prod_{x in B} s_x

carry no floating-point cancellation beyond the final sum.

Exact enumeration evaluates the monomials straight from the bitmasks: the
monomial of B at configuration m is (-1)^popcount(m & B).  Observables
("configuration functionals") for the generic routes and for Metropolis are
vectorized callables taking a (nconf, n) spins array and returning a
length-nconf float array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConstraintError, NumericRangeError, SizeCapError
from .lattice import Lattice, nearest_neighbor_pairs, height_field, sites_from_mask

# Exact Gibbs sums enumerate 2^n configurations; 24 sites (16.7M terms)
# keeps them in the seconds range.  Larger systems go through Metropolis.
ENUMERATION_CAP = 24

# Chunk size for enumeration, bounds peak memory at a few hundred MB.
_CHUNK = 1 << 18

# Alphas reweighted together by one accumulation pass of the exact order-
# parameter scan; each holds a chunk-sized accumulator, so a longer grid
# takes further passes instead of more memory.
_ALPHA_GROUP = 8

Functional = Callable[[np.ndarray], np.ndarray]


def flip(config: int, sites_mask: int) -> int:
    """Negate the spins on a site set: a bitmask XOR (an involution)."""
    return config ^ sites_mask


def spins_from_masks(masks: np.ndarray, n_sites: int) -> np.ndarray:
    """Decode configuration bitmasks to an int8 array of +-1, shape (nconf, n)."""
    masks = np.asarray(masks, dtype=np.uint64)
    bits = (masks[:, None] >> np.arange(n_sites, dtype=np.uint64)) & np.uint64(1)
    return (1 - 2 * bits.astype(np.int8)).astype(np.int8)


def monomial_signs(masks: np.ndarray, subset_masks: Sequence[int]) -> np.ndarray:
    """int8 table of (-1)^popcount(m & B), one row per subset B and one
    column per configuration mask m: the monomial prod_{x in B} s_x at m."""
    masks = np.asarray(masks, dtype=np.uint64)
    table = np.empty((len(subset_masks), len(masks)), dtype=np.int8)
    for row, subset in zip(table, subset_masks):
        odd = np.bitwise_count(masks & np.uint64(subset)) & np.uint8(1)
        np.subtract(1, 2 * odd.view(np.int8), out=row)
    return table


def mask_from_spins(spins: Sequence[int]) -> int:
    """Inverse of spins_from_masks for a single configuration."""
    mask = 0
    for i, s in enumerate(spins):
        if s == -1:
            mask |= 1 << i
        elif s != 1:
            raise ConstraintError(f"spin value {s} at site {i} is not +-1")
    return mask


@dataclass(frozen=True)
class ClassicalPotential:
    """Sparse multilinear potential sum_B c_B prod_{x in B} s_x."""

    n_sites: int
    terms: tuple[tuple[int, float], ...]  # (site-set bitmask, coefficient)

    def __post_init__(self):
        seen = set()
        top = 1 << self.n_sites
        for mask, coeff in self.terms:
            if mask in seen:
                raise ConstraintError(f"duplicate potential term for mask {mask:#x}")
            seen.add(mask)
            if mask < 0 or mask >= top:
                raise ConstraintError(
                    f"potential term mask {mask:#x} outside {self.n_sites} sites"
                )
            if not math.isfinite(coeff):
                raise ConstraintError(f"non-finite coefficient for mask {mask:#x}")

    @classmethod
    def zero(cls, n_sites: int) -> "ClassicalPotential":
        return cls(n_sites=n_sites, terms=())

    @classmethod
    def from_terms(
        cls, n_sites: int, terms: Iterable[tuple[Iterable[int], float]]
    ) -> "ClassicalPotential":
        """Build from (site index list, coefficient) pairs."""
        packed = []
        for sites, coeff in terms:
            mask = 0
            for s in sites:
                mask |= 1 << s
            packed.append((mask, float(coeff)))
        return cls(n_sites=n_sites, terms=tuple(packed))

    @classmethod
    def ising_nn(cls, lattice: Lattice, coupling: float) -> "ClassicalPotential":
        """Ferromagnetic (for coupling > 0) nearest-neighbor Ising potential
        U(s) = -coupling * sum_<xy> s_x s_y with free boundaries."""
        terms = [
            ((1 << x) | (1 << y), -coupling)
            for x, y in nearest_neighbor_pairs(lattice)
        ]
        return cls(n_sites=lattice.n_sites, terms=tuple(terms))

    @classmethod
    def linear_height(cls, lattice: Lattice) -> "ClassicalPotential":
        """Staircase field U(s) = sum_x u_x s_x with u_x the coordinate sum."""
        heights = height_field(lattice)
        terms = [(1 << x, float(u)) for x, u in enumerate(heights) if u != 0]
        return cls(n_sites=lattice.n_sites, terms=tuple(terms))

    @cached_property
    def _site_lists(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        return tuple((sites_from_mask(mask), coeff) for mask, coeff in self.terms)

    def value(self, config: int) -> float:
        """Evaluate U at a single bitmask configuration."""
        total = 0.0
        for mask, coeff in self.terms:
            sign = -1.0 if (config & mask).bit_count() & 1 else 1.0
            total += coeff * sign
        return total

    def value_many(self, spins: np.ndarray) -> np.ndarray:
        """Evaluate U on a (nconf, n) spins array."""
        out = np.zeros(spins.shape[0])
        for sites, coeff in self._site_lists:
            if sites:
                out += coeff * np.prod(spins[:, sites], axis=1).astype(np.float64)
            else:
                out += coeff
        return out

    def flip_energy(self, config: int, sites_mask: int) -> float:
        """W_A(s) = U(flip(s, A)) - U(s), computed incrementally."""
        total = 0.0
        for mask, coeff in self.terms:
            if (mask & sites_mask).bit_count() & 1:
                sign = -1.0 if (config & mask).bit_count() & 1 else 1.0
                total += coeff * sign
        return -2.0 * total

    def flip_energy_many(self, spins: np.ndarray, sites_mask: int) -> np.ndarray:
        """W_A on a (nconf, n) spins array."""
        out = np.zeros(spins.shape[0])
        for (sites, coeff), (mask, _) in zip(self._site_lists, self.terms):
            if (mask & sites_mask).bit_count() & 1:
                out += coeff * np.prod(spins[:, sites], axis=1).astype(np.float64)
        return -2.0 * out

    def term_signs(self, masks: np.ndarray) -> np.ndarray:
        """Monomial table of the terms at configuration masks, shape
        (len(terms), nconf); the input of the two *_from_signs methods."""
        return monomial_signs(masks, [mask for mask, _ in self.terms])

    def energy_from_signs(self, signs: np.ndarray) -> np.ndarray:
        """U from a term_signs table, summed in term order like value_many."""
        out = np.zeros(signs.shape[1])
        for row, (_, coeff) in zip(signs, self.terms):
            out += coeff * row
        return out

    def flip_energy_from_signs(self, signs: np.ndarray, sites_mask: int) -> np.ndarray:
        """W_A from a term_signs table, summed like flip_energy_many."""
        out = np.zeros(signs.shape[1])
        for row, (mask, coeff) in zip(signs, self.terms):
            if (mask & sites_mask).bit_count() & 1:
                out += coeff * row
        return -2.0 * out


def _mask_chunks(n_sites: int):
    """Yield uint64 configuration-mask chunks covering all 2^n configurations."""
    total = 1 << n_sites
    for start in range(0, total, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)


def _check_enumerable(n_sites: int, cap: int):
    if n_sites > cap:
        raise SizeCapError(
            f"exact enumeration over {n_sites} sites exceeds the cap of {cap}; "
            "use the Metropolis path instead"
        )


def _min_energy(potential: ClassicalPotential) -> float:
    lo = math.inf
    for masks in _mask_chunks(potential.n_sites):
        lo = min(lo, potential.energy_from_signs(potential.term_signs(masks)).min())
    return lo


def _finite(values: list, what: str) -> list:
    """Pass the values through, or raise when one left the float range."""
    if not all(math.isfinite(v) for v in values):
        raise NumericRangeError(
            f"{what} is not finite: the Boltzmann weights left the range "
            "of double precision"
        )
    return values


def partition_function(
    potential: ClassicalPotential, alpha: float, cap: int = ENUMERATION_CAP
) -> float:
    """Z(alpha) = sum_s exp(-alpha U(s)) by exact enumeration.

    The sum is accumulated relative to the minimum of U so that only the
    final rescaling can overflow; it raises NumericRangeError if it does.
    """
    _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    shift = _min_energy(potential)
    total = 0.0
    for masks in _mask_chunks(potential.n_sites):
        energy = potential.energy_from_signs(potential.term_signs(masks))
        total += np.exp(-alpha * (energy - shift)).sum()
    try:
        z = float(total) * math.exp(-alpha * shift)
    except OverflowError:
        z = math.inf
    return _finite([z], f"Z at alpha={alpha:g}")[0]


def classical_expectation(
    f: Functional,
    potential: ClassicalPotential,
    alpha: float,
    cap: int = ENUMERATION_CAP,
) -> float:
    """Gibbs expectation <f> = Z^-1 sum_s f(s) exp(-alpha U(s)), exactly."""
    return gibbs_averages([f], potential, alpha, cap=cap)[0]


# Overflow here ends as a non-finite average, which _finite names, so
# numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def gibbs_averages(
    fs: Sequence[Functional],
    potential: ClassicalPotential,
    alpha: float,
    cap: int = ENUMERATION_CAP,
) -> list[float]:
    """Exact Gibbs expectations of several functionals in one sweep.

    Raises NumericRangeError when an average is not finite (an observable
    that overflowed, possibly times an underflowed weight).
    """
    _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    shift = _min_energy(potential)
    weight_total = 0.0
    totals = [0.0] * len(fs)
    for masks in _mask_chunks(potential.n_sites):
        spins = spins_from_masks(masks, potential.n_sites)
        weights = np.exp(-alpha * (potential.value_many(spins) - shift))
        weight_total += weights.sum()
        for k, f in enumerate(fs):
            totals[k] += float(np.dot(weights, np.asarray(f(spins), dtype=np.float64)))
    averages = [t / weight_total for t in totals]
    return _finite(averages, f"a Gibbs average at alpha={alpha:g}")


@dataclass(frozen=True)
class OrderAverages:
    """Exact Gibbs averages of the order parameters at one alpha: squared
    z-magnetization, mean site flip weight (1/n) sum_x exp(-(alpha/2) W_x),
    and per pair s_x s_y and exp(-(alpha/2) W_{x,y})."""

    alpha: float
    mz_sq: float
    mx: float
    sz_sz: tuple[float, ...]
    sx_sx: tuple[float, ...]


def order_parameter_averages(
    potential: ClassicalPotential,
    alphas: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    cap: int = ENUMERATION_CAP,
) -> list[OrderAverages]:
    """Exact order parameters over an alpha grid from one enumeration.

    A shift pass finds min U; an accumulation pass (one per _ALPHA_GROUP
    alphas) evaluates the term signs, U, every W_x and W_{x,y}, mz^2 and the
    z-pair signs once per chunk of configuration masks, and reweights them
    for every alpha of the group.  Sums run in the same order as
    gibbs_averages over squared_magnetization, the mean of the site
    flip_weights, spin_product and flip_weight, so every value equals that
    route's bit for bit.  Raises NumericRangeError on a non-finite average.
    """
    for alpha in alphas:
        _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    shift = _min_energy(potential)
    out: list[OrderAverages] = []
    for start in range(0, len(alphas), _ALPHA_GROUP):
        out += _reweight_order_parameters(
            potential, alphas[start : start + _ALPHA_GROUP], pairs, shift
        )
    return out


# Overflow here ends as a non-finite average, which _finite names, so
# numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _reweight_order_parameters(potential, alphas, pairs, shift) -> list[OrderAverages]:
    n = potential.n_sites
    weight_totals = [0.0] * len(alphas)
    totals = [[0.0] * (2 + 2 * len(pairs)) for _ in alphas]
    for masks in _mask_chunks(n):
        signs = potential.term_signs(masks)
        energy = potential.energy_from_signs(signs)
        m = (n - 2.0 * np.bitwise_count(masks)) / n
        mz_sq = m * m
        flip_sums = [np.zeros(len(masks)) for _ in alphas]
        for x in range(n):
            w_x = potential.flip_energy_from_signs(signs, 1 << x)
            for acc, alpha in zip(flip_sums, alphas):
                acc += np.exp(-0.5 * alpha * w_x)
        z_pairs = monomial_signs(masks, [(1 << x) ^ (1 << y) for x, y in pairs])
        w_pairs = [
            potential.flip_energy_from_signs(signs, (1 << x) | (1 << y))
            for x, y in pairs
        ]
        for k, alpha in enumerate(alphas):
            weights = np.exp(-alpha * (energy - shift))
            weight_totals[k] += weights.sum()
            row = totals[k]
            row[0] += float(np.dot(weights, mz_sq))
            row[1] += float(np.dot(weights, flip_sums[k] / n))
            for j, (z, w) in enumerate(zip(z_pairs, w_pairs)):
                row[2 + 2 * j] += float(np.dot(weights, z.astype(np.float64)))
                row[3 + 2 * j] += float(np.dot(weights, np.exp(-0.5 * alpha * w)))
    out = []
    for alpha, row, weight_total in zip(alphas, totals, weight_totals):
        v = [t / weight_total for t in row]
        _finite(v, f"an order parameter at alpha={alpha:g}")
        out.append(
            OrderAverages(
                alpha=alpha,
                mz_sq=v[0],
                mx=v[1],
                sz_sz=tuple(v[2::2]),
                sx_sx=tuple(v[3::2]),
            )
        )
    return out


def max_abs_flip_energy(
    potential: ClassicalPotential, sites_mask: int, cap: int = ENUMERATION_CAP
) -> float:
    """max_s |W_A(s)| by exact enumeration."""
    _check_enumerable(potential.n_sites, cap)
    return float(
        max(
            np.abs(
                potential.flip_energy_from_signs(potential.term_signs(masks), sites_mask)
            ).max()
            for masks in _mask_chunks(potential.n_sites)
        )
    )


def _validate_alpha(alpha: float):
    if alpha < 0 or not math.isfinite(alpha):
        raise ConstraintError(f"alpha must be a finite nonnegative real, got {alpha}")


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def spin_product(*sites: int) -> Functional:
    """Observable prod_{x in sites} s_x."""
    idx = list(sites)

    def f(spins: np.ndarray) -> np.ndarray:
        if not idx:
            return np.ones(spins.shape[0])
        return np.prod(spins[:, idx], axis=1).astype(np.float64)

    return f


def squared_magnetization() -> Functional:
    """Observable (|Lambda|^-1 sum_x s_x)^2."""

    def f(spins: np.ndarray) -> np.ndarray:
        m = spins.mean(axis=1, dtype=np.float64)
        return m * m

    return f


def flip_weight(
    potential: ClassicalPotential, alpha: float, sites_mask: int
) -> Functional:
    """Observable exp(-(alpha/2) W_A(s)); its Gibbs average is the
    x-product expectation <prod_{x in A} sigma^x_x> in the Boltzmann state."""

    def f(spins: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * alpha * potential.flip_energy_many(spins, sites_mask))

    return f


# ---------------------------------------------------------------------------
# Metropolis sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetropolisResult:
    estimate: float
    std_error: float
    acceptance_rate: float
    sweeps: int
    burn_in: int
    seed: int
    batches: int


def metropolis_samples(
    potential: ClassicalPotential,
    alpha: float,
    *,
    sweeps: int,
    burn_in: int,
    seed: int,
) -> tuple[np.ndarray, float]:
    """Run a single-spin-flip Metropolis chain and record one configuration
    per sweep after burn-in.

    One sweep is n_sites proposals at uniformly random sites; a flip of site
    x is accepted with probability min(1, exp(-alpha W_x(s))).  Returns the
    (sweeps, n) int8 sample array and the overall acceptance rate.
    """
    _validate_alpha(alpha)
    if sweeps <= 0:
        raise ConstraintError("sweeps must be positive")
    n = potential.n_sites
    if n > 64:
        raise SizeCapError("Metropolis sampling supports at most 64 sites")
    rng = np.random.default_rng(seed)

    # Per-site term lists: W_x(s) = -2 s_x * sum_{B containing x} c_B prod_{y in B, y != x} s_y
    local: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(n)]
    for mask, coeff in potential.terms:
        members = sites_from_mask(mask)
        for x in members:
            local[x].append((coeff, tuple(y for y in members if y != x)))

    spins = [1] * n
    samples = np.empty((sweeps, n), dtype=np.int8)
    accepted = 0
    total_steps = (burn_in + sweeps) * n
    exp = math.exp
    for t in range(burn_in + sweeps):
        sites = rng.integers(0, n, size=n)
        uniforms = rng.random(n)
        for k in range(n):
            x = sites[k]
            h = 0.0
            for coeff, rest in local[x]:
                prod = coeff
                for y in rest:
                    prod *= spins[y]
                h += prod
            w = -2.0 * spins[x] * h
            if w <= 0.0 or uniforms[k] < exp(-alpha * w):
                spins[x] = -spins[x]
                accepted += 1
        if t >= burn_in:
            samples[t - burn_in] = spins
    return samples, accepted / total_steps


def estimate_from_samples(
    f: Functional, samples: np.ndarray, batches: int = 32
) -> tuple[float, float]:
    """Estimate mean and batch-means standard error of f over a sample chain;
    NumericRangeError if the mean is not finite."""
    values = np.asarray(f(samples), dtype=np.float64)
    nb = min(batches, len(values))
    per = len(values) // nb
    trimmed = values[: nb * per].reshape(nb, per)
    means = trimmed.mean(axis=1)
    estimate = _finite([float(means.mean())], "a Metropolis estimate")[0]
    if nb < 2:
        return estimate, math.inf
    std_error = float(means.std(ddof=1) / math.sqrt(nb))
    return estimate, std_error


def metropolis_estimate(
    f: Functional,
    potential: ClassicalPotential,
    alpha: float,
    *,
    sweeps: int,
    burn_in: int | None = None,
    seed: int,
    batches: int = 32,
) -> MetropolisResult:
    """Metropolis estimate of the Gibbs expectation of f, with standard error
    from batch means.  Fully deterministic for a fixed seed."""
    if burn_in is None:
        burn_in = max(1, sweeps // 10)
    samples, acceptance = metropolis_samples(
        potential, alpha, sweeps=sweeps, burn_in=burn_in, seed=seed
    )
    estimate, std_error = estimate_from_samples(f, samples, batches=batches)
    return MetropolisResult(
        estimate=estimate,
        std_error=std_error,
        acceptance_rate=acceptance,
        sweeps=sweeps,
        burn_in=burn_in,
        seed=seed,
        batches=min(batches, sweeps),
    )
