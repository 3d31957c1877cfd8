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
chunks that share their low bits, so each monomial is its low-bit sign row,
built once, times a sign fixed per chunk: sums over terms and sites that
see only low bits are taken once and reused in every chunk, and a term
without low bits is one number per chunk (_Enumeration).
partition_function, max_abs_flip_energy, order_parameter_averages and the
operators of a ModelInstance (one chunk over all masks) run on it;
gibbs_averages, the independent witness, decodes spins.

Sums run over blocks of 2^_CHUNK_BITS masks (one block of 2^n below that)
through np.add.reduce, whose pairwise order is fixed, and the blocks'
partial sums are added left to right in block order, on both routes.  The
witness reduces each block whole.  The kernel evaluates a block of more
than 2^_LEAF_BITS masks as leaves of 2^_LEAF_BITS, and adds the leaves'
reductions pairwise, ((l0 + l1) + (l2 + l3)) (_join_leaves): np.add.reduce
sums a power-of-two block of 256 values or more as the sum of its two
halves' sums, recursively, so the join has the block's bits.  The kernel's
scans run their leaves on worker threads, one per usable CPU and at most
one per block (_scan).  No value depends on the worker count or on the
BLAS thread count, and the two routes agree bit for bit.

Observables ("configuration functionals") for the generic routes and
for Metropolis are vectorized callables taking a (nconf, n) spins array and
returning a length-nconf float array.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
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
    pair_mask,
    sites_from_mask,
)
from .splitmix import bits53

# Sums run over blocks of 2^_CHUNK_BITS configuration masks (one block of
# 2^n below that), which the kernel evaluates as leaves of 2^_LEAF_BITS
# masks: 128 KiB per float64 array, so that a leaf's arrays stay in cache.
# An exact order-parameter scan holds per worker thread, at any n, three
# leaf-sized arrays, two per alpha of a pass and one per pair whose W_{x,y}
# sees high bits: 1.2 MiB for 3 alphas and low pairs, whose W_{x,y} the
# workers share.  Smaller leaves double the numpy calls, on which the
# workers contend for the GIL; below 2^7 the join would lose the block's
# bits (np.add.reduce's base case).
_CHUNK_BITS = 16
_LEAF_BITS = 14

# Worker threads of an exact scan (_scan), the calling thread included;
# None means one per CPU the process may use.  Never more than the
# summation blocks, and no value depends on it.
_WORKERS: int | None = None

# Alphas reweighted together by one accumulation pass of the exact order-
# parameter scan, one row each of (alphas x masks) arrays: each alpha holds
# a row of the cached site-flip prefix, which the workers share, and two
# rows per worker (its weights and its accumulator), so a longer grid takes
# further passes instead of more memory.
_ALPHA_GROUP = 8

_BATCHES = 32  # batch means behind a Metropolis standard error

_SWEEP_BLOCK = 256  # sweeps of a Metropolis chain drawn per SplitMix64 call; no sample depends on it

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

    Chunk k holds the masks (k << c) | lo for lo < 2^c.  At chunk_bits = n
    (ModelInstance.enumeration), c = n: all 2^n masks in order, one chunk.
    At the default, the summation block is that of _mask_chunks, 2^b masks
    with b = min(n, _CHUNK_BITS), run as 2^depth leaves (c = b - depth,
    depth = max(0, b - _LEAF_BITS)), whose results _join_leaves adds, so a
    block of 2^_LEAF_BITS masks or fewer runs whole.  There the monomial of
    term B is eps * row(B), where row(B) is the sign row of
    B's low bits over lo, built once, and eps = (-1)^popcount((k << c) & B),
    which _Chunk folds into the coefficients.  A term without high bits has
    eps = 1 in every chunk, so the energy over the leading run of such terms
    is summed once, and every chunk copies it and adds the remaining terms in
    term order, as value_many does.  A term without low bits (flat) has a
    row of +1s, so it adds the number +-c.  Worker threads share it: after
    __init__ only the scratch of first changes, under energy() and
    flip_energy(), which the calling thread alone uses.
    """

    def __init__(self, potential: ClassicalPotential, chunk_bits: int | None = None):
        self.n_sites = potential.n_sites
        block = min(self.n_sites, _CHUNK_BITS if chunk_bits is None else chunk_bits)
        self.depth = max(0, block - _LEAF_BITS) if chunk_bits is None else 0
        self.bits = block - self.depth
        self.size = 1 << self.bits
        self.low = self.size - 1
        self.chunk_count = 1 << (self.n_sites - self.bits)
        self.masks = [mask for mask, _ in potential.terms]
        self.base = [coeff for _, coeff in potential.terms]
        self.rows = self.low_rows(self.masks)
        # A term without low bits has a row of +1s: c*row is the number c.
        self.flat = [not mask & self.low for mask in self.masks]
        self.prefix = _leading_run(self.is_low(mask) for mask in self.masks)
        self.energy_prefix = None
        # Chunk 0 has eps = 1 everywhere, so it also sums the cached prefix.
        self.first = _Chunk(self, 0, self.buffer())
        if self.prefix:
            self.energy_prefix = self.first._term_sum(range(self.prefix), None, self.buffer())

    def buffer(self) -> np.ndarray:
        return np.empty(self.size)

    def low_rows(self, masks: Sequence[int]) -> np.ndarray:
        """Sign rows of the site sets' low bits over lo (monomial_signs)."""
        lo = np.arange(self.size, dtype=np.uint64)
        return monomial_signs(lo, [mask & self.low for mask in masks])

    def is_low(self, mask: int) -> bool:
        """True when the site set lies in the low bits, the same in every chunk."""
        return mask & self.low == mask

    def _all_low(self, terms) -> bool:
        """True when the terms lie in the low bits, so that their sums are
        the same in every chunk."""
        return all(self.is_low(self.masks[t]) for t in terms)

    def odd_terms(self, sites_mask: int) -> list[int]:
        """Indices of the terms whose flip energy over sites_mask is nonzero."""
        return [t for t, mask in enumerate(self.masks) if (mask & sites_mask).bit_count() & 1]

    def energy(self, out: np.ndarray) -> np.ndarray:
        """U over the first chunk, which is every mask at chunk_bits >= n."""
        return self.first._energy(out)

    def flip_energy(self, terms, out: np.ndarray) -> np.ndarray:
        """W_A over the first chunk, given A's odd_terms."""
        return self.first._flip_energy(terms, out)


class _Chunk:
    """Chunk k of an _Enumeration: its sign selection and its worker's
    scratch.

    Chunks on different workers write to nothing they share, so they run at
    once.  The methods are underscore-named because worker threads call
    them: the benchmark's tracer wraps the public methods of this module on
    one span stack.
    """

    def __init__(self, enum: _Enumeration, k: int, tmp: np.ndarray):
        self.enum = enum
        self.high = k << enum.bits
        self.high_popcount = k.bit_count()
        # eps folded in: (-c)*row and c*(-row) are the same +-c exactly.
        self.coeffs = [-c if self._odd(mask) else c for mask, c in zip(enum.masks, enum.base)]
        # Scratch of _term_sum, one per worker and free for callers between
        # kernel calls.
        self.tmp = tmp

    def _odd(self, mask: int) -> bool:
        """True when the monomial of mask is eps = -1 times its low row here."""
        return bool((self.high & mask).bit_count() & 1)

    def _term_sum(self, terms, start, out: np.ndarray) -> np.ndarray:
        """start + sum_t c_t row_t over the terms in order (start None is
        zeros, as in value_many); returns out, or start if no terms."""
        rows, flat = self.enum.rows, self.enum.flat
        for t in terms:
            coeff = self.coeffs[t]
            if start is None:
                # 0.0 + c*row is c*row, except that it is +0.0 where c is zero.
                if not coeff:
                    out.fill(0.0)
                elif flat[t]:
                    out.fill(coeff)
                else:
                    np.multiply(rows[t], coeff, out=out)
            elif flat[t]:
                # a row of +1s: c*row is c
                np.add(start, coeff, out=out)
            else:
                np.multiply(rows[t], coeff, out=self.tmp)
                np.add(start, self.tmp, out=out)
            start = out
        if start is None:
            out.fill(0.0)
            return out
        return start

    def _energy(self, out: np.ndarray) -> np.ndarray:
        """U over the chunk (the cached prefix itself if it is all)."""
        enum = self.enum
        return self._term_sum(range(enum.prefix, len(enum.masks)), enum.energy_prefix, out)

    def _flip_energy(self, terms, out: np.ndarray) -> np.ndarray:
        """W_A over the chunk, given A's odd_terms."""
        return np.multiply(self._term_sum(terms, None, out), -2.0, out=out)

    def _flat_flip_energy(self, terms) -> float:
        """W_A over the chunk, one number, given A's odd_terms, all flat:
        _flip_energy's sum from 0.0 in the same order, whose first step
        also turns a -0.0 coefficient into +0.0."""
        return _in_order(self.coeffs[t] for t in terms) * -2.0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan(enum: _Enumeration, start_worker) -> list:
    """Every chunk's result, in chunk order, computed on worker threads.

    Each worker calls start_worker() once for a function of a _Chunk, which
    owns that worker's buffers, and applies it to the chunks it takes, each
    built on the worker's one scratch array.  The workers are the calling
    thread and _WORKERS - 1 more (one per usable CPU by default), never
    more than the summation blocks, so one block starts no thread.  A
    worker runs under the caller's numpy error state and must call only
    underscore-named helpers.  Callers fold the results in chunk order, so
    no value depends on the worker count.
    """
    count = enum.chunk_count
    workers = min(count >> enum.depth, _WORKERS or _usable_cpus())
    results = [None] * count
    pending = iter(range(count))
    lock = threading.Lock()
    errors: list[BaseException] = []
    errstate = np.geterr()

    def run():
        try:
            with np.errstate(**errstate):
                work = start_worker()
                tmp = np.empty(enum.size)
                while not errors:
                    with lock:
                        k = next(pending, None)
                    if k is None:
                        return
                    results[k] = work(_Chunk(enum, k, tmp))
        except BaseException as exc:  # raised again below, once every worker stopped
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    run()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _join_leaves(enum: _Enumeration, results: list) -> list:
    """Each summation block's result, in block order, from its leaves'
    results in chunk order, adjacent ones added depth times: np.add.reduce
    of 2^k >= 256 values is the sum of its halves' reductions, so the join
    has the block's bits."""
    for _ in range(enum.depth):
        results = [first + second for first, second in zip(results[::2], results[1::2])]
    return results


def _in_order(partials):
    """The partial sums added left to right in their order, the blocks' in
    block order (not sum(), which compensates float sums from Python 3.12
    on)."""
    total = 0.0
    for partial in partials:
        total = total + partial
    return total


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """sum_i a_i b_i over the last axis within one chunk, in np.add.reduce's
    fixed pairwise order, which an axis=1 reduction of a C-contiguous array
    keeps per row (a BLAS dot splits a long vector across its threads)."""
    return np.add.reduce(np.multiply(a, b, out=out), axis=-1)


def _check_enumerable(n_sites: int, cap: int):
    if n_sites > cap:
        raise SizeCapError(
            f"exact enumeration over {n_sites} sites exceeds the cap of {cap}; "
            "use the Metropolis path instead"
        )


def _min_energy(enum: _Enumeration) -> float:
    def start_worker():
        out = np.empty(enum.size)
        return lambda chunk: chunk._energy(out).min()

    return min(_scan(enum, start_worker))


def _finite(values: list, what: str) -> list:
    """Pass the values through, or raise when one left the float range."""
    if not all(math.isfinite(v) for v in values):
        raise NumericRangeError(
            f"{what} is not finite: the Boltzmann weights left the range "
            "of double precision"
        )
    return values


# Overflow here, in the workers too (_scan), ends as a Z named below.
@np.errstate(over="ignore", invalid="ignore")
def partition_function(
    potential: ClassicalPotential, alpha: float, cap: int = Caps.enumeration_sites
) -> float:
    """Z(alpha) = sum_s exp(-alpha U(s)) by exact enumeration.

    The sum is accumulated relative to the minimum of U so that only the
    final rescaling can leave double precision; it raises NumericRangeError
    if Z overflows or falls below the smallest normal double.
    """
    _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    enum = _Enumeration(potential)
    shift = _min_energy(enum)

    def start_worker():
        weights = np.empty(enum.size)

        def work(chunk):
            np.subtract(chunk._energy(weights), shift, out=weights)
            np.multiply(weights, -alpha, out=weights)
            return np.add.reduce(np.exp(weights, out=weights))

        return work

    total = _in_order(_join_leaves(enum, _scan(enum, start_worker)))
    try:
        z = float(total) * math.exp(-alpha * float(shift))
    except OverflowError:
        z = math.inf
    if not sys.float_info.min <= z <= sys.float_info.max:
        raise NumericRangeError(
            f"Z at alpha={alpha:g} is {z:g}, outside the normal doubles: "
            "the Boltzmann weights left the range of double precision"
        )
    return z


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
        weight_total += np.add.reduce(weights)
        for k, f in enumerate(fs):
            totals[k] += _dot(weights, np.asarray(f(spins), dtype=np.float64))
    averages = [t / weight_total for t in totals]
    return _finite(averages, f"a Gibbs average at alpha={alpha:g}")


def _check_pairs(n_sites: int, pairs: Sequence[tuple[int, int]]):
    """ConstraintError for a pair with a site outside the n sites; a
    repeated site, as in (5, 5), is a pair."""
    for pair in pairs:
        if not all(0 <= site < n_sites for site in pair):
            raise ConstraintError(f"pair {tuple(pair)} has a site outside the {n_sites} sites")


def _half_weights(w: np.ndarray, half_alphas: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-(alpha/2) W) into out, one row per alpha, given W over a chunk
    and the column of -alpha/2."""
    return np.exp(np.multiply(w, half_alphas, out=out), out=out)


def _site_flip_prefix(enum: _Enumeration, site_terms, half_alphas, out: np.ndarray) -> np.ndarray:
    """sum_x exp(-(alpha/2) W_x) over the first chunk, one row per alpha,
    given each site's odd_terms and the column of -alpha/2, into out: the
    sum in every chunk when those terms lie in the low bits."""
    out.fill(0.0)
    w, t = enum.buffer(), np.empty_like(out)
    for terms in site_terms:
        np.add(out, _half_weights(enum.flip_energy(terms, w), half_alphas, t), out=out)
    return out


# Overflow here ends as a non-finite average, which _finite names, so
# numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def order_parameter_averages(
    potential: ClassicalPotential,
    alphas: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    cap: int = Caps.enumeration_sites,
) -> list[list[float]]:
    """Exact order parameters over an alpha grid from one enumeration: per
    alpha, the Gibbs averages of order_parameter_functionals, in its order.

    A shift pass finds min U; an accumulation pass (one per _ALPHA_GROUP
    alphas) evaluates U, every W_x and W_{x,y}, mz^2 and the z-pair signs
    once per chunk of configuration masks, and reweights them for every
    alpha of the group at once, on (alphas x masks) arrays: one numpy call
    per site or pair serves the whole group, and each weighted sum is one
    row reduction.  A flip energy whose odd terms all lie in the low bits
    is the same in every chunk: over the leading run of such sites the sum
    of exp(-(alpha/2) W_x) is taken once per pass, and each chunk adds the
    remaining sites to it; such a pair's W_{x,y} is evaluated once, into an
    array the workers share.  A site whose odd terms have no low bits has
    one W_x per chunk, a number.  The chunks are the leaves of the blocks;
    each block's sums are its leaves' added pairwise (_join_leaves), then
    the blocks' in order.  Sums run in the same order as gibbs_averages over
    order_parameter_functionals, so every value equals that route's bit for
    bit.  Raises ConstraintError on a pair site outside the lattice and
    NumericRangeError on a non-finite average.
    """
    for alpha in alphas:
        _validate_alpha(alpha)
    _check_enumerable(potential.n_sites, cap)
    _check_pairs(potential.n_sites, pairs)
    enum = _Enumeration(potential)
    shift = _min_energy(enum)
    n = enum.n_sites
    site_terms = [enum.odd_terms(1 << x) for x in range(n)]
    site_prefix = _leading_run(enum._all_low(terms) for terms in site_terms)
    flat_sites = [all(enum.flat[t] for t in terms) for terms in site_terms]
    # a pair's z-product and its flip set are over the same sites
    pair_masks = [pair_mask(x, y) for x, y in pairs]
    z_rows = enum.low_rows(pair_masks)
    pair_terms = [enum.odd_terms(mask) for mask in pair_masks]
    shared_pairs = [
        enum.flip_energy(terms, enum.buffer()) if enum._all_low(terms) else None
        for terms in pair_terms
    ]
    low_popcount = np.bitwise_count(np.arange(enum.size, dtype=np.uint64))
    prefix_buffer = np.empty((min(len(alphas), _ALPHA_GROUP), enum.size))
    out: list[list[float]] = []
    for start in range(0, len(alphas), _ALPHA_GROUP):
        group = alphas[start : start + _ALPHA_GROUP]
        # columns, so that one operation on a chunk serves every alpha
        column = np.array(group, dtype=np.float64)[:, None]
        neg_alphas, half_alphas = -column, -0.5 * column
        flip_prefix = _site_flip_prefix(
            enum, site_terms[:site_prefix], half_alphas, prefix_buffer[: len(group)]
        )

        def start_worker():
            energy, w = enum.buffer(), enum.buffer()
            weights, acc = np.empty_like(flip_prefix), np.empty_like(flip_prefix)
            w_pairs = [enum.buffer() if s is None else s for s in shared_pairs]
            popcount = np.empty(enum.size, dtype=np.uint8)

            def work(chunk):
                """The chunk's weight sums, then its weighted sums of mz^2,
                the mean site flip weight and, per pair, s_x s_y and
                exp(-(alpha/2) W_{x,y}): one row per column of the table,
                one column per alpha of the group."""
                t = chunk.tmp
                energy_now = chunk._energy(energy)
                # the site-flip sums, into acc; weights is free scratch so far
                flip_sums = flip_prefix
                for x in range(site_prefix, n):
                    if flat_sites[x]:
                        # np.exp, not math.exp, has the bits of the arrays
                        weight_x = np.exp(chunk._flat_flip_energy(site_terms[x]) * half_alphas)
                    else:
                        chunk._flip_energy(site_terms[x], w)
                        weight_x = _half_weights(w, half_alphas, weights)
                    flip_sums = np.add(flip_sums, weight_x, out=acc)
                for terms, w_pair, shared in zip(pair_terms, w_pairs, shared_pairs):
                    if shared is None:
                        chunk._flip_energy(terms, w_pair)
                z_signs = [-1.0 if chunk._odd(z) else 1.0 for z in pair_masks]
                # mz^2 = ((n - 2 popcount) / n)^2, into w, which the sites are done with
                np.add(low_popcount, chunk.high_popcount, out=popcount)
                mz_sq = np.subtract(n, np.multiply(popcount, 2.0, out=w), out=w)
                np.divide(mz_sq, n, out=mz_sq)
                np.multiply(mz_sq, mz_sq, out=mz_sq)
                np.subtract(energy_now, shift, out=energy)
                np.exp(np.multiply(energy, neg_alphas, out=weights), out=weights)
                sums = np.empty((3 + 2 * len(pairs), len(group)))
                sums[0] = np.add.reduce(weights, axis=1)
                # the mean site flip weight first: acc is scratch after it
                sums[2] = _dot(weights, np.divide(flip_sums, n, out=acc), acc)
                sums[1] = _dot(weights, mz_sq, acc)
                for j, (z_row, z_sign, w_pair) in enumerate(zip(z_rows, z_signs, w_pairs)):
                    sums[3 + 2 * j] = _dot(weights, np.multiply(z_row, z_sign, out=t), acc)
                    sums[4 + 2 * j] = _dot(weights, _half_weights(w_pair, half_alphas, acc), acc)
                return sums

            return work

        blocks = _join_leaves(enum, _scan(enum, start_worker))
        for alpha, row in zip(group, _in_order(blocks).T.tolist()):
            weight_total, *sums = row
            v = [s / weight_total for s in sums]
            out.append(_finite(v, f"an order parameter at alpha={alpha:g}"))
    return out


def max_abs_flip_energy(
    potential: ClassicalPotential, sites_mask: int, cap: int = Caps.enumeration_sites
) -> float:
    """max_s |W_A(s)| by exact enumeration; ConstraintError when A is not
    a set of the potential's sites."""
    _check_enumerable(potential.n_sites, cap)
    if not 0 <= sites_mask < 1 << potential.n_sites:
        raise ConstraintError(
            f"flip set {sites_mask:#x} outside the {potential.n_sites} sites"
        )
    enum = _Enumeration(potential)
    terms = enum.odd_terms(sites_mask)

    def start_worker():
        w = np.empty(enum.size)
        return lambda chunk: np.abs(chunk._flip_energy(terms, w), out=w).max()

    return float(max(_scan(enum, start_worker)))


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


def mean_site_flip_weight(potential: ClassicalPotential, alpha: float) -> Functional:
    """Observable (1/n) sum_x exp(-(alpha/2) W_x(s)), whose Gibbs average is
    the mean x-magnetization."""
    n = potential.n_sites

    def f(spins: np.ndarray) -> np.ndarray:
        acc = np.zeros(spins.shape[0])
        for x in range(n):
            acc += np.exp(-0.5 * alpha * potential.flip_energy_many(spins, 1 << x))
        return acc / n

    return f


def order_parameter_functionals(
    potential: ClassicalPotential, alpha: float, pairs: Sequence[tuple[int, int]]
) -> list[Functional]:
    """The order parameters of a scan, in its order: squared
    z-magnetization, mean site flip weight, then per pair s_x s_y and
    exp(-(alpha/2) W_{x,y}).  W flips the set {x} ^ {y}, empty for a
    repeated site (x, x), whose x-product is the identity."""
    fs = [squared_magnetization(), mean_site_flip_weight(potential, alpha)]
    for x, y in pairs:
        fs += [spin_product(x, y), flip_weight(potential, alpha, pair_mask(x, y))]
    return fs


# ---------------------------------------------------------------------------
# Metropolis sampling
# ---------------------------------------------------------------------------


def default_burn_in(sweeps: int, burn_in: int | None = None) -> int:
    """burn_in if given, else a tenth of the sweeps (at least one)."""
    return max(1, sweeps // 10) if burn_in is None else burn_in


def _proposals(bits: np.ndarray, n: int) -> tuple[list[int], list[float]]:
    """Sites floor(b n / 2^53) < n and uniforms b / 2^53 in [0, 1), exactly,
    from top-53-bit outputs b in (site, uniform) pairs."""
    sites = (bits[0::2] * np.uint64(n)) >> np.uint64(53)
    return sites.tolist(), (bits[1::2] * 2.0**-53).tolist()


def metropolis_samples(
    potential: ClassicalPotential, alpha: float, *, sweeps: int, burn_in: int, seed: int
) -> tuple[np.ndarray, float]:
    """Run a single-spin-flip Metropolis chain from the all-up state and
    record one configuration per sweep after burn-in.

    One sweep is n_sites proposals at uniformly random sites; a flip of site
    x is accepted with probability min(1, exp(-alpha W_x(s))).  Proposal k
    of sweep t (burn-in counted) draws outputs 2(t n + k), its site, and
    2(t n + k) + 1, its uniform, of the seed's SplitMix64 stream.  Returns
    the (sweeps, n) int8 sample array and the overall acceptance rate;
    ConstraintError on a seed outside [0, 2^64 - 1], on 2^63 proposals or
    more, or on samples that do not fit in memory.
    """
    _validate_alpha(alpha)
    if sweeps <= 0:
        raise ConstraintError("sweeps must be positive")
    if burn_in < 0:
        raise ConstraintError("burn_in must be nonnegative")
    n = potential.n_sites
    total = burn_in + sweeps
    if 2 * total * n >= 1 << 64:
        raise ConstraintError(f"{total} sweeps of {n} sites need 2^64 or more SplitMix64 outputs")
    try:
        samples = np.empty((sweeps, n), dtype=np.int8)
    except MemoryError as exc:
        raise ConstraintError(f"{sweeps} samples of {n} sites do not fit in memory") from exc

    # Per-site term lists: W_x(s) = -2 s_x * sum_{B containing x} c_B prod_{y in B, y != x} s_y
    local: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(n)]
    for members, coeff in potential._site_lists:
        for x in members:
            local[x].append((coeff, tuple(y for y in members if y != x)))

    spins = [1] * n
    accepted = 0
    exp = math.exp
    for t in range(total):
        if t % _SWEEP_BLOCK == 0:
            count = 2 * n * min(_SWEEP_BLOCK, total - t)
            sites, uniforms = _proposals(bits53(seed, 2 * t * n, count), n)
        k = t % _SWEEP_BLOCK * n
        for x, u in zip(sites[k : k + n], uniforms[k : k + n]):
            h = 0.0
            for coeff, rest in local[x]:
                prod = coeff
                for y in rest:
                    prod *= spins[y]
                h += prod
            w = -2.0 * spins[x] * h
            if w <= 0.0 or u < exp(-alpha * w):
                spins[x] = -spins[x]
                accepted += 1
        if t >= burn_in:
            samples[t - burn_in] = spins
    return samples, accepted / (total * n)


def estimate_from_samples(f: Functional, samples: np.ndarray) -> tuple[float, float]:
    """Estimate mean and batch-means standard error of f over a sample chain
    of at least two samples (ConstraintError otherwise); NumericRangeError
    if the mean is not finite."""
    values = np.asarray(f(samples), dtype=np.float64)
    if len(values) < 2:
        raise ConstraintError(
            f"a batch-means standard error needs at least 2 samples, got {len(values)}"
        )
    nb = min(_BATCHES, len(values))
    per = len(values) // nb
    trimmed = values[: nb * per].reshape(nb, per)
    means = trimmed.mean(axis=1)
    estimate = _finite([float(means.mean())], "a Metropolis estimate")[0]
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


# ---------------------------------------------------------------------------
# Order-parameter scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    """One (alpha, pair) row of the order-parameter table; the standard
    errors are 0.0 on exact rows."""

    alpha: float
    x: int
    y: int
    sx_sx: float
    sx_sx_se: float
    sz_sz: float
    sz_sz_se: float
    mz_sq: float
    mz_sq_se: float
    mx: float
    mx_se: float
    method: str


def order_parameter_scan(
    potential: ClassicalPotential,
    alphas: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    *,
    cap: int = Caps.enumeration_sites,
    sweeps: int = 20000,
    burn_in: int | None = None,
    seed: int = 0,
) -> list[ScanRow]:
    """The order_parameter_functionals over an alpha grid, one row per
    alpha and pair, alpha-major: two-point x and z correlations, squared
    z-magnetization and mean x-magnetization.

    All four observables are classical averages in the Gibbs measure of
    the potential (the z observables directly, the x observables through
    the reweighting exp(-(alpha/2) W)).  On at most cap sites one exact
    enumeration serves the whole grid; above it each alpha runs a
    Metropolis chain.  A pair site outside the lattice raises
    ConstraintError on both routes.
    """
    _check_pairs(potential.n_sites, pairs)
    if potential.n_sites <= cap:
        method = "exact"
        estimates = [
            [(value, 0.0) for value in values]
            for values in order_parameter_averages(potential, alphas, pairs, cap=cap)
        ]
    else:
        method = "metropolis"
        burn_in = default_burn_in(sweeps, burn_in)
        estimates = [
            metropolis_averages(
                order_parameter_functionals(potential, alpha, pairs), potential, alpha,
                sweeps=sweeps, burn_in=burn_in, seed=seed,
            )[0]
            for alpha in alphas
        ]
    rows = []
    for alpha, (mz_sq, mx, *pair_estimates) in zip(alphas, estimates):
        for (x, y), sz_sz, sx_sx in zip(pairs, pair_estimates[::2], pair_estimates[1::2]):
            rows.append(ScanRow(float(alpha), x, y, *sx_sx, *sz_sz, *mz_sq, *mx, method))
    return rows
