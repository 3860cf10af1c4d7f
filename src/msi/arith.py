"""Sieved arithmetic functions and Dirichlet convolution with the unit function.

Provides:
- FunctionTable: exact tabulation of an arithmetic function on [1, max_n]
- Mobius function mu(n) via a least-prime-factor linear sieve
- divisor-count function d(n) via the harmonic double loop
- f = g*1 (Dirichlet convolution with unit) and its Mobius inversion
- support cutoffs, fixed [1, Q] or growing [1, floor((x+h)**theta)]
- integer scaling of g by its common denominator, for the integer kernels

All table arithmetic is exact (Python ints and fractions.Fraction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence, Union

import numpy as np

Rational = Union[int, Fraction]

PRESET_NAMES = ("delta1", "unit", "mobius", "mobius-squared")
RANDOM_DENOMINATOR = 1000  # of every random:SEED value and every seeded test table


class FunctionTable:
    """Arithmetic function tabulated exactly on [1, max_n].

    `values` holds exact rationals (int or Fraction), values[k] = f(k+1).
    Tables are immutable after construction and safe to share across threads.
    """

    __slots__ = ("max_n", "values")

    def __init__(self, values: Sequence[Rational]):
        vals = tuple(values)
        if not vals:
            raise ValueError("a FunctionTable needs max_n >= 1 values")
        self.max_n = len(vals)
        self.values = vals

    def __getitem__(self, n: int) -> Rational:
        if not 1 <= n <= self.max_n:
            raise IndexError(f"n={n} outside table domain [1, {self.max_n}]")
        return self.values[n - 1]

    def get(self, n: int) -> Rational:
        """f(n), reading the table as zero outside [1, max_n]."""
        if 1 <= n <= self.max_n:
            return self.values[n - 1]
        return 0

    def scale(self, c: Rational) -> "FunctionTable":
        return FunctionTable([c * v for v in self.values])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.max_n == other.max_n and all(
            a == b for a, b in zip(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.max_n, self.values))

    def __repr__(self) -> str:
        head = ", ".join(str(v) for v in self.values[:6])
        tail = ", ..." if self.max_n > 6 else ""
        return f"FunctionTable(max_n={self.max_n}, [{head}{tail}])"


@dataclass(frozen=True)
class SupportCutoff:
    """Support restriction for g: fixed [1, Q] or growing [1, floor(m**theta)].

    In fixed mode the limit is independent of the evaluation point; in power
    mode the limit at center x with window half-width h is floor((x+h)**theta),
    nondecreasing in x and at most x + h for theta <= 1.
    """

    mode: str
    q: int | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.mode == "fixed":
            if self.q is None or self.q < 1:
                raise ValueError("fixed cutoff needs Q >= 1")
        elif self.mode == "power":
            if self.theta is None or not 0.0 < self.theta <= 1.0:
                raise ValueError("power cutoff needs theta in (0, 1]")
        else:
            raise ValueError(f"unknown cutoff mode {self.mode!r}")

    @classmethod
    def fixed(cls, q: int) -> "SupportCutoff":
        return cls(mode="fixed", q=q)

    @classmethod
    def power(cls, theta: float) -> "SupportCutoff":
        return cls(mode="power", theta=theta)

    @classmethod
    def parse(cls, spec: str | None, q: int | None = None) -> "SupportCutoff":
        """The CLI's --cutoff: `fixed` (or no spec) at q, or `power:THETA`.

        q, the CLI's --q or a sweep's q-rule value, is required by a fixed
        cutoff and refused by a power cutoff, so it is never ignored.
        """
        if spec and spec.startswith("power:"):
            if q is not None:
                raise ValueError(f"--q does not apply to the cutoff {spec}")
            return cls.power(float(spec.split(":", 1)[1]))
        if spec and spec != "fixed":
            raise ValueError(f"bad cutoff {spec!r}; use fixed or power:THETA")
        if q is None:
            raise ValueError("--q is required for a fixed cutoff")
        return cls.fixed(q)

    def limit(self, m: int) -> int:
        """Support bound when the window reaches up to m = x + h."""
        if self.mode == "fixed":
            return self.q
        return power_floor(m, self.theta)

    def label(self) -> str:
        """fixed:Q or power:THETA, the cutoff as reports name it."""
        if self.mode == "fixed":
            return f"fixed:{self.q}"
        return f"power:{self.theta}"


def power_floor(m: int, theta: float) -> int:
    """floor(m**theta) for integer m >= 1, guarding float-pow underestimates.

    theta = 1/2 goes through isqrt and is exact; otherwise a small nudge
    repairs cases like 1024**0.3 evaluating just below 8.0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if theta == 1.0:
        return m
    if theta == 0.5:
        return isqrt(m)
    return int(m ** theta + 1e-9)


def sieve_mobius(max_n: int) -> FunctionTable:
    """Mobius function mu(n) for 1 <= n <= max_n, by linear sieve.

    The sieve tracks least prime factors, so each composite is crossed off
    exactly once: mu(1) = 1, mu flips sign per new prime factor, and mu = 0
    as soon as a squared prime factor appears.

    Args:
        max_n: Table size, at least 1.

    Returns:
        FunctionTable of ints with values in {-1, 0, 1}.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    mu = [0] * (max_n + 1)
    mu[1] = 1
    lpf = [0] * (max_n + 1)
    primes: list[int] = []
    for i in range(2, max_n + 1):
        if lpf[i] == 0:
            lpf[i] = i
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if p > lpf[i] or i * p > max_n:
                break
            lpf[i * p] = p
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return FunctionTable(mu[1:])


def sieve_divisor_count(max_n: int) -> FunctionTable:
    """Divisor-count d(n) = #{q : q | n} for n <= max_n.

    Harmonic double loop: every q <= max_n adds 1 to each of its multiples,
    O(max_n log max_n) additions in total.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    d = np.zeros(max_n + 1, dtype=np.int64)
    for q in range(1, max_n + 1):
        d[q::q] += 1
    return FunctionTable([int(v) for v in d[1:]])


def dirichlet_convolve_unit(g: FunctionTable, max_n: int) -> FunctionTable:
    """f = g*1, i.e. f(n) = sum of g(q) over divisors q of n, exactly.

    g is read as zero beyond its table, so max_n may exceed g.max_n (the
    usual case: g supported on [1, Q], f needed up to 2N + h).
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    f: list[Rational] = [0] * (max_n + 1)
    for q in range(1, min(g.max_n, max_n) + 1):
        gq = g[q]
        if gq:
            for m in range(q, max_n + 1, q):
                f[m] += gq
    return FunctionTable(f[1:])


def mobius_invert(f: FunctionTable) -> FunctionTable:
    """g with g(n) = sum over divisors q | n of mu(q) f(n/q), exactly.

    Round trip: dirichlet_convolve_unit(mobius_invert(f), f.max_n) == f.
    """
    max_n = f.max_n
    mu = sieve_mobius(max_n)
    g: list[Rational] = [0] * (max_n + 1)
    for q in range(1, max_n + 1):
        mq = mu[q]
        if mq:
            for m in range(1, max_n // q + 1):
                g[q * m] += mq * f[m]
    return FunctionTable(g[1:])


def integer_scaled(g: FunctionTable, top: int) -> tuple[int, list[int]]:
    """(D, gd): D the common denominator of g on [1, top], gd[n] = D g(n) as ints, gd[0] = 0.

    The integer kernels work on D g and divide by D (or D**2) once at the end.
    """
    vals = g.values[:top]
    den = lcm(*(v.denominator for v in vals))
    return den, [0] + [v.numerator * (den // v.denominator) for v in vals]


def divisors(n: int) -> list[int]:
    """Sorted divisors of n (trial division up to sqrt n)."""
    small, large = [], []
    for a in range(1, isqrt(n) + 1):
        if n % a == 0:
            small.append(a)
            if a * a != n:
                large.append(n // a)
    return small + large[::-1]


def random_rational_table(max_n: int, seed: int) -> FunctionTable:
    """Seeded table of exact rationals in [-1, 1] with denominator RANDOM_DENOMINATOR."""
    rng, d = random.Random(seed), RANDOM_DENOMINATOR
    return FunctionTable([Fraction(rng.randint(-d, d), d) for _ in range(max_n)])


def preset_table(spec: str, max_n: int) -> FunctionTable:
    """Build one of the named g presets on [1, max_n].

    Accepted specs: delta1, unit, mobius, mobius-squared, random:SEED.
    These cover the majorant hypotheses |g| <= mu**2 and |g| <= 1 as well as
    the degenerate delta1 case.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if spec == "delta1":
        return FunctionTable([1] + [0] * (max_n - 1))
    if spec == "unit":
        return FunctionTable([1] * max_n)
    if spec == "mobius":
        return sieve_mobius(max_n)
    if spec == "mobius-squared":
        mu = sieve_mobius(max_n)
        return FunctionTable([v * v for v in mu.values])
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad random seed in preset {spec!r}") from exc
        return random_rational_table(max_n, seed)
    raise ValueError(
        f"unknown preset {spec!r}; expected one of {PRESET_NAMES} or random:SEED"
    )


def essential_bound_probe(f: FunctionTable, eps: float = 0.25) -> float:
    """max over n of |f(n)| / n**eps: a report, not an assertion.

    Growth slower than every fixed power cannot be certified from a finite
    table; this probe just surfaces the worst observed ratio at one eps.
    """
    return max(abs(float(v)) / (n ** eps) for n, v in enumerate(f.values, start=1))


def write_csv(table: FunctionTable, stream) -> None:
    """Serialize as CSV with header `n,value`, values as exact `p/q` or int."""
    stream.write("n,value\n")
    for n, v in enumerate(table.values, start=1):
        stream.write(f"{n},{v}\n")


def read_csv(stream) -> FunctionTable:
    """Read a table written by write_csv; accepts `p/q`, ints, or decimals."""
    header = stream.readline().strip()
    if header != "n,value":
        raise ValueError(f"expected header 'n,value', got {header!r}")
    vals: list[Rational] = []
    for lineno, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        n_str, v_str = line.split(",")
        if int(n_str) != len(vals) + 1:
            raise ValueError(f"line {lineno}: non-contiguous index {n_str}")
        vals.append(Fraction(v_str))
    return FunctionTable(vals)
