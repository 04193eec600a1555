"""Reduced quadratic form, nonnegativity certificate, and the k-window.

Fixing k, a representation of A*(m-2)+B by the form is a solution of the
auxiliary system (alpha, beta) = (2A+B+k(m-4), B+k(m-2)).  Eliminating the
first variable turns the system into a single positive definite quadratic
equation of rank n-1 whose right-hand side is

    (2A+B+k(m-4)) * a_1 - (B+k(m-2))^2 * a_1 / S,        S = sum a_i.

Two quadratic inequalities in k carve the useful window: the right-hand side
must exceed a size threshold C (roots alpha_minus/alpha_plus), and the linear
target must dominate the quadratic one, max(a_i) * alpha <= beta^2 (roots
beta_minus/beta_plus).  The stronger inequality (S - a_1) * alpha <= beta^2
(`nonneg_certificate`) pins the plane-ellipsoid intersection inside the closed
positive orthant outright.  Window endpoints are quadratic irrationals; they
are stored and compared exactly, never as floats, since feasibility flips on
integers adjacent to the endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .forms import Domain, MgonalForm, decompose

__all__ = [
    "ReducedForm",
    "SqrtVal",
    "KWindow",
    "build_reduced_form",
    "reduced_rhs",
    "nonneg_certificate",
    "k_window",
    "feasible_k",
]


def _sign_int(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_x_plus_b_sqrt_c(x: int, b: int, c: int) -> int:
    """Exact sign of x + b*sqrt(c) for integers with c >= 0."""
    if c < 0:
        raise ValueError("negative radicand")
    root_term = _sign_int(b) if c > 0 else 0
    if root_term == 0:
        return _sign_int(x)
    if x == 0:
        return root_term
    if _sign_int(x) == root_term:
        return root_term
    # opposite signs: the larger square wins
    cmp = _sign_int(x * x - b * b * c)
    return cmp * _sign_int(x)


def _sign_sum(x: int, p: int, a: int, q: int, b: int) -> int:
    """Exact sign of x + p*sqrt(a) - q*sqrt(b), a, b >= 0 integers."""
    if a < 0 or b < 0:
        raise ValueError("negative radicand")
    # sign of t = p*sqrt(a) - q*sqrt(b)
    left = _sign_int(p) if a > 0 else 0
    right = _sign_int(q) if b > 0 else 0
    if left == right == 0:
        t_sign = 0
    elif left >= 0 and right <= 0:
        t_sign = 1 if (left > 0 or right < 0) else 0
    elif left <= 0 and right >= 0:
        t_sign = -1
    else:
        t_sign = _sign_int(p * p * a - q * q * b) * left
    if t_sign == 0:
        return _sign_int(x)
    if x == 0 or _sign_int(x) == t_sign:
        return t_sign if x == 0 else _sign_int(x)
    # x and t have opposite signs: compare x^2 with t^2 via one more radical,
    # x^2 - t^2 = (x^2 - p^2 a - q^2 b) + 2 p q sqrt(a b)
    w = x * x - p * p * a - q * q * b
    return _sign_int(x) * _sign_x_plus_b_sqrt_c(w, 2 * p * q, a * b)


@dataclass(frozen=True)
class SqrtVal:
    """The real number (num + sign*sqrt(rad)) / den, handled exactly."""

    num: int
    rad: int
    den: int
    sign: int  # +1 or -1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if self.rad < 0:
            raise ValueError("negative radicand; the endpoint does not exist")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")

    def cmp_int(self, k: int) -> int:
        """Sign of (self - k)."""
        return _sign_x_plus_b_sqrt_c(self.num - k * self.den, self.sign, self.rad)

    def cmp(self, other: "SqrtVal") -> int:
        """Sign of (self - other)."""
        x = self.num * other.den - other.num * self.den
        return _sign_sum(
            x,
            self.sign * other.den,
            self.rad,
            other.sign * self.den,
            other.rad,
        )

    def shifted(self, c: int) -> "SqrtVal":
        """self + c."""
        return SqrtVal(self.num + c * self.den, self.rad, self.den, self.sign)

    def approx(self, digits: int = 15) -> float | None:
        """The value as a float, None when it lies outside the float range."""
        scale = 10 ** (digits + 5)
        root = math.isqrt(self.rad * scale * scale)
        try:
            return float(Fraction(self.num * scale + self.sign * root, self.den * scale))
        except OverflowError:
            return None

    def to_json_dict(self) -> dict:
        approx = self.approx()
        return {
            "num": self.num,
            "radicand": self.rad,
            "den": self.den,
            "sign": self.sign,
            "approx": None if approx is None else float(f"{approx:.15g}"),
        }


@dataclass(frozen=True)
class ReducedForm:
    """Rank n-1 quadratic form with Gram diagonal a_i(a_1+a_i), off-diagonal a_i*a_j."""

    base: MgonalForm
    gram: tuple[tuple[int, ...], ...]
    r: tuple[Fraction, ...]


def _leading_minors_positive(gram: tuple[tuple[int, ...], ...]) -> bool:
    # Bareiss fraction-free elimination; sizes here are at most 5x5.
    size = len(gram)
    for k in range(1, size + 1):
        mat = [list(row[:k]) for row in gram[:k]]
        prev = 1
        for col in range(k - 1):
            if mat[col][col] == 0:
                swap = next((r for r in range(col + 1, k) if mat[r][col]), None)
                if swap is None:
                    return False  # singular leading minor
                mat[col], mat[swap] = mat[swap], mat[col]
                for c in range(k):
                    mat[col][c] = -mat[col][c]
            for row in range(col + 1, k):
                for c in range(col + 1, k):
                    mat[row][c] = (mat[row][c] * mat[col][col] - mat[row][col] * mat[col][c]) // prev
                mat[row][col] = 0
            prev = mat[col][col]
        if mat[k - 1][k - 1] <= 0:
            return False
    return True


def build_reduced_form(form: MgonalForm) -> ReducedForm:
    """Gram matrix and shift vector of the rank-(n-1) reduction."""
    if form.rank < 2:
        raise ValueError("reduction needs rank >= 2")
    a = form.coeffs
    a1 = a[0]
    rest = a[1:]
    gram = tuple(
        tuple(ai * (a1 + ai) if i == j else ai * aj for j, aj in enumerate(rest))
        for i, ai in enumerate(rest)
    )
    s = form.coeff_sum
    r = tuple(Fraction(1, s) for _ in rest)
    # the defining linear system of r must hold exactly for the constant vector
    for i, ai in enumerate(rest):
        lhs = sum(gram[i][j] * r[j] for j in range(len(rest)))
        if lhs != ai:
            raise AssertionError(f"r-system residual nonzero at row {i}")
    if sum(ai * ri for ai, ri in zip(rest, r)) != 1 - Fraction(a1, s):
        raise AssertionError("shift identity violated")
    if not _leading_minors_positive(gram):
        raise AssertionError("reduced Gram matrix is not positive definite")
    return ReducedForm(form, gram, r)


def reduced_rhs(form: MgonalForm, a_part: int, b_part: int, k: int) -> Fraction:
    """Right-hand side of the reduced equation, exact."""
    m = form.m
    a1 = form.coeffs[0]
    s = form.coeff_sum
    beta = b_part + k * (m - 2)
    return Fraction((2 * a_part + b_part + k * (m - 4)) * a1) - Fraction(beta * beta * a1, s)


def nonneg_certificate(form: MgonalForm, alpha: int, beta: int) -> bool:
    """(S - a_1) * alpha <= beta^2: then every real solution of the system is >= 0.

    Minimizing one coordinate over the plane-ellipsoid intersection forces the
    others equal, and the minimum of x_j is nonnegative exactly when
    beta^2 >= (S - a_j) * alpha; the smallest coefficient binds.  The weaker
    max-coefficient variant max(a_i) * alpha <= beta^2 is NOT sufficient once
    the rank exceeds 2 (e.g. weights (1,1,1,5,5) with alpha=179, beta=41 admit
    the solution (-2,1,2,3,5)); both versions agree at rank <= 2.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    return (form.coeff_sum - form.coeffs[0]) * alpha <= beta * beta


@dataclass(frozen=True)
class KWindow:
    """Exact endpoints of the two k-inequalities, plus emptiness diagnostics.

    The usable window for k is the open interval (beta_plus, alpha_plus);
    endpoints are None when the corresponding radicand is negative (for the
    beta pair that means the certificate holds for every k).
    """

    alpha_minus: SqrtVal | None
    alpha_plus: SqrtVal | None
    beta_minus: SqrtVal | None
    beta_plus: SqrtVal | None
    C: int
    alpha_radicand: int
    beta_radicand: int

    def contains(self, k: int) -> bool:
        """Strict interior of (beta_plus, alpha_plus)."""
        if self.alpha_plus is None or self.alpha_plus.cmp_int(k) <= 0:
            return False
        if self.beta_plus is not None and self.beta_plus.cmp_int(k) >= 0:
            return False
        return True

    def empty_reason(self) -> str | None:
        """None if some integer could sit in the window, else why not."""
        if self.alpha_plus is None:
            return "radicand"
        if self.beta_plus is not None and self.beta_plus.cmp(self.alpha_plus) >= 0:
            return "ordering"
        return None

    def to_json_dict(self) -> dict:
        def enc(v: SqrtVal | None) -> dict | None:
            return None if v is None else v.to_json_dict()

        return {
            "alpha_minus": enc(self.alpha_minus),
            "alpha_plus": enc(self.alpha_plus),
            "beta_minus": enc(self.beta_minus),
            "beta_plus": enc(self.beta_plus),
            "C": self.C,
            "empty_reason": self.empty_reason(),
        }


def k_window(form: MgonalForm, a_part: int, b_part: int, c_param: int = 0) -> KWindow:
    """Exact window endpoints for the decomposition (A, B) and threshold C."""
    if c_param < 0:
        raise ValueError("C must be nonnegative")
    m = form.m
    a1 = form.coeffs[0]
    an = form.coeffs[-1]
    s = form.coeff_sum
    two_a_plus_b = 2 * a_part + b_part

    q_alpha = s * (m - 4) - 2 * b_part * (m - 2)
    rad_alpha = a1 * a1 * q_alpha * q_alpha + 4 * (m - 2) ** 2 * a1 * (
        a1 * (s * two_a_plus_b - b_part * b_part) - c_param * s
    )
    den_alpha = 2 * (m - 2) ** 2 * a1

    q_beta = an * (m - 4) - 2 * b_part * (m - 2)
    rad_beta = q_beta * q_beta + 4 * (m - 2) ** 2 * (an * two_a_plus_b - b_part * b_part)
    den_beta = 2 * (m - 2) ** 2

    if rad_alpha >= 0:
        alpha_minus = SqrtVal(a1 * q_alpha, rad_alpha, den_alpha, -1)
        alpha_plus = SqrtVal(a1 * q_alpha, rad_alpha, den_alpha, +1)
    else:
        alpha_minus = alpha_plus = None
    if rad_beta >= 0:
        beta_minus = SqrtVal(q_beta, rad_beta, den_beta, -1)
        beta_plus = SqrtVal(q_beta, rad_beta, den_beta, +1)
    else:
        beta_minus = beta_plus = None
    return KWindow(alpha_minus, alpha_plus, beta_minus, beta_plus, c_param, rad_alpha, rad_beta)


def feasible_k(
    form: MgonalForm,
    n: int,
    c_param: int = 0,
    k_max: int = 10_000,
) -> list[tuple[int, tuple[int, ...]]]:
    """All k in [0, k_max] inside the window whose system has a nonnegative solution.

    Returns ascending (k, witness) pairs; each witness is re-checked against
    both system equations and nonnegativity before being reported.
    """
    from .represent import SystemInstance, solve_system  # the sieve module, which k_window does not need

    if n < 0:
        raise ValueError("target must be nonnegative")
    dec = decompose(form.m, n)
    window = k_window(form, dec.A, dec.B, c_param)
    m = form.m
    out: list[tuple[int, tuple[int, ...]]] = []
    for k in range(0, k_max + 1):
        if not window.contains(k):
            continue
        alpha = 2 * dec.A + dec.B + k * (m - 4)
        beta = dec.B + k * (m - 2)
        if alpha < 0 or beta < 0:
            continue
        witness = solve_system(SystemInstance(form, alpha, beta), Domain.NONNEG)
        if witness is None:
            continue
        if any(x < 0 for x in witness):
            raise AssertionError(f"feasible_k witness {witness} has a negative entry at k = {k}")
        out.append((k, witness))
    return out
