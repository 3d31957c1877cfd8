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
monomial of B at configuration m is (-1)^popcount(m & B).  The masks run in
chunks of 2^_CHUNK_BITS that share their low bits, so each monomial is its
low-bit sign row, built once, times a sign fixed per chunk, and sums over
terms and sites that see only low bits are taken once and reused in every
chunk (_Enumeration).  partition_function, max_abs_flip_energy,
order_parameter_averages and the operators of a ModelInstance (one chunk
over all masks) run on it; gibbs_averages, the independent witness, decodes
spins.  Observables ("configuration functionals") for the generic routes and
for Metropolis are vectorized callables taking a (nconf, n) spins array and
returning a length-nconf float array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConstraintError, NumericRangeError, SizeCapError
from .lattice import (
    Caps,
    Lattice,
    _check_mask_width,
    height_field,
    mask_from_sites,
    nearest_neighbor_pairs,
    sites_from_mask,
)

# Enumeration runs over chunks of 2^_CHUNK_BITS configuration masks (one
# chunk of 2^n below that), which bounds its memory at tens of MB at the cap.
_CHUNK_BITS = 18

# Alphas reweighted together by one accumulation pass of the exact order-
# parameter scan; each holds two chunk-sized arrays (its cached site-flip
# prefix and its accumulator), so a longer grid takes further passes
# instead of more memory.
_ALPHA_GROUP = 8

_BATCHES = 32  # batch means behind a Metropolis standard error

Functional = Callable[[np.ndarray], np.ndarray]


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


@dataclass(frozen=True)
class ClassicalPotential:
    """Sparse multilinear potential sum_B c_B prod_{x in B} s_x."""

    n_sites: int
    terms: tuple[tuple[int, float], ...]  # (site-set bitmask, coefficient)

    def __post_init__(self):
        _check_mask_width(self.n_sites, "a potential")
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
        """Build from (site index list, coefficient) pairs; a site repeated
        within one list raises ConstraintError."""
        packed = [(mask_from_sites(sites), float(coeff)) for sites, coeff in terms]
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

    def value_many(self, spins: np.ndarray) -> np.ndarray:
        """Evaluate U on a (nconf, n) spins array."""
        out = np.zeros(spins.shape[0])
        for sites, coeff in self._site_lists:
            if sites:
                out += coeff * np.prod(spins[:, sites], axis=1).astype(np.float64)
            else:
                out += coeff
        return out

    def flip_energy_many(self, spins: np.ndarray, sites_mask: int) -> np.ndarray:
        """W_A on a (nconf, n) spins array."""
        out = np.zeros(spins.shape[0])
        for (sites, coeff), (mask, _) in zip(self._site_lists, self.terms):
            if (mask & sites_mask).bit_count() & 1:
                out += coeff * np.prod(spins[:, sites], axis=1).astype(np.float64)
        return -2.0 * out


def _mask_chunks(n_sites: int):
    """Yield uint64 configuration-mask chunks covering all 2^n configurations."""
    total = 1 << n_sites
    size = 1 << _CHUNK_BITS
    for start in range(0, total, size):
        yield np.arange(start, min(start + size, total), dtype=np.uint64)


def _leading_run(flags: Iterable[bool]) -> int:
    """Number of leading true flags."""
    return sum(1 for _ in itertools.takewhile(bool, flags))


class _Enumeration:
    """Mask-native evaluation of a potential, one chunk of masks at a time.

    With c = min(n, chunk_bits), chunk k holds the masks (k << c) | lo for
    lo < 2^c: the chunks of _mask_chunks at the default, and all 2^n masks
    in order, one chunk, at chunk_bits = n (ModelInstance.enumeration).  There
    the monomial of term B is eps * row(B), where row(B) is the sign row of
    B's low bits over lo, built once, and eps = (-1)^popcount((k << c) & B).
    chunks() folds eps into the coefficients (chunk 0 until it first runs):
    (-c)*row and c*(-row) are the same +-c exactly.  A term without high
    bits has eps = 1 in every chunk, so the energy over the leading run of
    such terms is summed once, and every chunk copies it and adds the
    remaining terms in term order, as value_many does.
    """

    def __init__(self, potential: ClassicalPotential, chunk_bits: int | None = None):
        self.n_sites = potential.n_sites
        self.bits = min(self.n_sites, _CHUNK_BITS if chunk_bits is None else chunk_bits)
        self.size = 1 << self.bits
        self.low = self.size - 1
        self.masks = [mask for mask, _ in potential.terms]
        self.base = [coeff for _, coeff in potential.terms]
        self.coeffs = list(self.base)
        self.high = 0
        self.rows = self.low_rows(self.masks)
        # Scratch of term_sum, free for callers between kernel calls.
        self.tmp = self.buffer()
        self.prefix = _leading_run(self.is_low(mask) for mask in self.masks)
        self.energy_prefix = (
            self.term_sum(range(self.prefix), None, self.buffer()) if self.prefix else None
        )

    def buffer(self) -> np.ndarray:
        return np.empty(self.size)

    def low_rows(self, masks: Sequence[int]) -> np.ndarray:
        """Sign rows of the site sets' low bits over lo (monomial_signs)."""
        lo = np.arange(self.size, dtype=np.uint64)
        return monomial_signs(lo, [mask & self.low for mask in masks])

    def is_low(self, mask: int) -> bool:
        """True when the site set lies in the low bits, the same in every chunk."""
        return mask & self.low == mask

    def odd_terms(self, sites_mask: int) -> list[int]:
        """Indices of the terms whose flip energy over sites_mask is nonzero."""
        return [t for t, mask in enumerate(self.masks) if (mask & sites_mask).bit_count() & 1]

    def chunks(self):
        """Select each chunk in turn; yield the popcount of its high bits."""
        for k in range(1 << (self.n_sites - self.bits)):
            self.high = k << self.bits
            self.coeffs = [-c if self.odd(mask) else c for mask, c in zip(self.masks, self.base)]
            yield k.bit_count()

    def odd(self, mask: int) -> bool:
        """True when the monomial of mask is eps = -1 times its low row here."""
        return bool((self.high & mask).bit_count() & 1)

    def term_sum(self, terms, start, out: np.ndarray) -> np.ndarray:
        """start + sum_t c_t row_t over the terms in order (start None is
        zeros, as in value_many); returns out, or start if no terms."""
        for t in terms:
            coeff = self.coeffs[t]
            if start is None:
                # 0.0 + c*row is c*row, except that it is +0.0 where c is zero.
                if coeff:
                    np.multiply(self.rows[t], coeff, out=out)
                else:
                    out.fill(0.0)
            else:
                np.multiply(self.rows[t], coeff, out=self.tmp)
                np.add(start, self.tmp, out=out)
            start = out
        if start is None:
            out.fill(0.0)
            return out
        return start

    def energy(self, out: np.ndarray) -> np.ndarray:
        """U over the selected chunk (the cached prefix itself if it is all)."""
        return self.term_sum(range(self.prefix, len(self.masks)), self.energy_prefix, out)

    def flip_energy(self, terms, out: np.ndarray) -> np.ndarray:
        """W_A over the selected chunk, given A's odd_terms."""
        return np.multiply(self.term_sum(terms, None, out), -2.0, out=out)


def _check_enumerable(n_sites: int, cap: int):
    if n_sites > cap:
        raise SizeCapError(
            f"exact enumeration over {n_sites} sites exceeds the cap of {cap}; "
            "use the Metropolis path instead"
        )


def _min_energy(enum: _Enumeration) -> float:
    out = enum.buffer()
    return min(enum.energy(out).min() for _ in enum.chunks())


def _finite(values: list, what: str) -> list:
    """Pass the values through, or raise when one left the float range."""
    if not all(math.isfinite(v) for v in values):
        raise NumericRangeError(
            f"{what} is not finite: the Boltzmann weights left the range "
            "of double precision"
        )
    return values


def partition_function(
    potential: ClassicalPotential, alpha: float, cap: int = Caps.enumeration_sites
) -> float:
    """Z(alpha) = sum_s exp(-alpha U(s)) by exact enumeration.

    The sum is accumulated relative to the minimum of U so that only the
    final rescaling can overflow; it raises NumericRangeError if it does.
    """
    _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    enum = _Enumeration(potential)
    shift = _min_energy(enum)
    energy, weights = enum.buffer(), enum.buffer()
    total = 0.0
    for _ in enum.chunks():
        np.subtract(enum.energy(energy), shift, out=weights)
        np.multiply(weights, -alpha, out=weights)
        total += np.exp(weights, out=weights).sum()
    try:
        z = float(total) * math.exp(-alpha * shift)
    except OverflowError:
        z = math.inf
    return _finite([z], f"Z at alpha={alpha:g}")[0]


def classical_expectation(
    f: Functional,
    potential: ClassicalPotential,
    alpha: float,
    cap: int = Caps.enumeration_sites,
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
    cap: int = Caps.enumeration_sites,
) -> list[float]:
    """Exact Gibbs expectations of several functionals in one sweep.

    Raises NumericRangeError when an average is not finite (an observable
    that overflowed, possibly times an underflowed weight).
    """
    _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    shift = _min_energy(_Enumeration(potential))
    weight_total = 0.0
    totals = [0.0] * len(fs)
    for masks in _mask_chunks(potential.n_sites):
        # Functionals read decoded spins: the classical witness of the operators.
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


# Overflow here ends as a non-finite average, which _finite names, so
# numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def order_parameter_averages(
    potential: ClassicalPotential,
    alphas: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    cap: int = Caps.enumeration_sites,
) -> list[OrderAverages]:
    """Exact order parameters over an alpha grid from one enumeration.

    A shift pass finds min U; an accumulation pass (one per _ALPHA_GROUP
    alphas) evaluates U, every W_x and W_{x,y}, mz^2 and the z-pair signs
    once per chunk of configuration masks, and reweights them for every
    alpha of the group.  Over the leading run of sites whose W_x is the same
    in every chunk, the sum of exp(-(alpha/2) W_x) is taken once per pass,
    and each chunk adds the remaining sites to it.  Sums run in the same
    order as gibbs_averages over squared_magnetization, the mean of the
    site flip_weights, spin_product and flip_weight, so every value equals
    that route's bit for bit.  Raises NumericRangeError on a non-finite
    average.
    """
    for alpha in alphas:
        _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    enum = _Enumeration(potential)
    shift = _min_energy(enum)
    n = enum.n_sites
    site_terms = [enum.odd_terms(1 << x) for x in range(n)]
    site_prefix = _leading_run(
        all(enum.is_low(enum.masks[t]) for t in terms) for terms in site_terms
    )
    z_masks = [(1 << x) ^ (1 << y) for x, y in pairs]
    z_rows = enum.low_rows(z_masks)
    pair_terms = [enum.odd_terms((1 << x) | (1 << y)) for x, y in pairs]
    low_popcount = np.bitwise_count(np.arange(enum.size, dtype=np.uint64))
    popcount = np.empty(enum.size, dtype=np.uint8)
    energy, w, weights = enum.buffer(), enum.buffer(), enum.buffer()
    w_pairs = [enum.buffer() for _ in pairs]
    t = enum.tmp
    prefix_buffer = np.empty((min(len(alphas), _ALPHA_GROUP), enum.size))
    sums_buffer = prefix_buffer if site_prefix == n else np.empty_like(prefix_buffer)
    out: list[OrderAverages] = []
    for start in range(0, len(alphas), _ALPHA_GROUP):
        group = alphas[start : start + _ALPHA_GROUP]
        flip_prefix = prefix_buffer[: len(group)]
        flip_prefix.fill(0.0)
        flip_sums = sums_buffer[: len(group)]
        for x in range(site_prefix):
            enum.flip_energy(site_terms[x], w)
            for acc, alpha in zip(flip_prefix, group):
                np.multiply(w, -0.5 * alpha, out=t)
                np.add(acc, np.exp(t, out=t), out=acc)
        weight_totals = [0.0] * len(group)
        totals = [[0.0] * (2 + 2 * len(pairs)) for _ in group]
        for high_popcount in enum.chunks():
            energy_now = enum.energy(energy)
            for x in range(site_prefix, n):
                enum.flip_energy(site_terms[x], w)
                for acc, prefix, alpha in zip(flip_sums, flip_prefix, group):
                    np.multiply(w, -0.5 * alpha, out=t)
                    np.add(prefix if x == site_prefix else acc, np.exp(t, out=t), out=acc)
            for terms, w_pair in zip(pair_terms, w_pairs):
                enum.flip_energy(terms, w_pair)
            z_signs = [-1.0 if enum.odd(z) else 1.0 for z in z_masks]
            # mz^2 = ((n - 2 popcount) / n)^2, into w, which the sites are done with
            np.add(low_popcount, high_popcount, out=popcount)
            mz_sq = np.subtract(n, np.multiply(popcount, 2.0, out=w), out=w)
            np.divide(mz_sq, n, out=mz_sq)
            np.multiply(mz_sq, mz_sq, out=mz_sq)
            for k, alpha in enumerate(group):
                np.subtract(energy_now, shift, out=weights)
                np.multiply(weights, -alpha, out=weights)
                np.exp(weights, out=weights)
                weight_totals[k] += weights.sum()
                row = totals[k]
                row[0] += float(np.dot(weights, mz_sq))
                row[1] += float(np.dot(weights, np.divide(flip_sums[k], n, out=t)))
                for j, (z_row, z_sign, w_pair) in enumerate(zip(z_rows, z_signs, w_pairs)):
                    row[2 + 2 * j] += float(np.dot(weights, np.multiply(z_row, z_sign, out=t)))
                    np.multiply(w_pair, -0.5 * alpha, out=t)
                    row[3 + 2 * j] += float(np.dot(weights, np.exp(t, out=t)))
        for alpha, row, weight_total in zip(group, totals, weight_totals):
            v = [s / weight_total for s in row]
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
    potential: ClassicalPotential, sites_mask: int, cap: int = Caps.enumeration_sites
) -> float:
    """max_s |W_A(s)| by exact enumeration."""
    _check_enumerable(potential.n_sites, cap)
    enum = _Enumeration(potential)
    terms = enum.odd_terms(sites_mask)
    w = enum.buffer()
    return float(max(np.abs(enum.flip_energy(terms, w), out=w).max() for _ in enum.chunks()))


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


def default_burn_in(sweeps: int, burn_in: int | None = None) -> int:
    """burn_in if given, else a tenth of the sweeps (at least one)."""
    return max(1, sweeps // 10) if burn_in is None else burn_in


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
    if burn_in < 0:
        raise ConstraintError("burn_in must be nonnegative")
    n = potential.n_sites
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


def estimate_from_samples(f: Functional, samples: np.ndarray) -> tuple[float, float]:
    """Estimate mean and batch-means standard error of f over a sample chain;
    NumericRangeError if the mean is not finite."""
    values = np.asarray(f(samples), dtype=np.float64)
    nb = min(_BATCHES, len(values))
    per = len(values) // nb
    trimmed = values[: nb * per].reshape(nb, per)
    means = trimmed.mean(axis=1)
    estimate = _finite([float(means.mean())], "a Metropolis estimate")[0]
    if nb < 2:
        return estimate, math.inf
    std_error = float(means.std(ddof=1) / math.sqrt(nb))
    return estimate, std_error


def metropolis_averages(
    fs: Sequence[Functional], potential: ClassicalPotential, alpha: float,
    *, sweeps: int, burn_in: int, seed: int,
) -> tuple[list[tuple[float, float]], float]:
    """(mean, standard error) of each functional over one Metropolis chain,
    and the chain's acceptance rate."""
    samples, acceptance = metropolis_samples(
        potential, alpha, sweeps=sweeps, burn_in=burn_in, seed=seed
    )
    return [estimate_from_samples(f, samples) for f in fs], acceptance
