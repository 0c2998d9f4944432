"""Group words over the tangle generators, the gauge slice, and the defining
functions of the two perturbed varieties.

Both tangle groups are generated by {a, b, f, h, p, q}.  Words are written as
strings: a lowercase letter is a generator, the corresponding uppercase letter
its inverse (so ``"QPbpq"`` reads q^-1 p^-1 b p q).  The named loops c, e, g,
d, w and the perturbation longitudes are fixed words in these generators.
Generator values and word images are (w, x, y, z) tuples (``quat``), and
``eval_word`` is the one evaluator.

The gauge slice parameterizes representations by chart coordinates
(s, gamma, theta, nu, tau):

    a = i,  b = e^{gamma k} i,  f = e^{theta k} i,
    h = nu i + sqrt(1 - nu^2) e^{tau i} j,
    p = exp(s Im(b h)),  q = exp(s Im(e^{theta k} h)).

On this slice the earring variety is the zero set of
G = (Re(p q h^- a h^-), Re(p q h^- a)) and the bypass variety the zero set of
G' = (Re(q^- p^- h p q h^- a), Re(h^- a)); the second component of G' equals
nu on the nose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quat
from ._kernels import BYPASS, EARRING


def inverse_word(word: str) -> str:
    return word.swapcase()[::-1]


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def commutator(x: str, y: str) -> str:
    return free_reduce(x + y + inverse_word(x) + inverse_word(y))


# named loops expressed in the generators, as reduced words
LAMBDA_P = "bh"
LAMBDA_Q = "fAh"
C_WORD = "QPbpq"
D_WORD = "QPBpbaFqf"
W_WORD = commutator("AhQP", "h")

# images of the generators under the tangle involution exchanging the two
# boundary spheres; the h-image is the same reduced word for both tangles
# (the earring form h^- w^- reduces to it when w is written out).
U_A = inverse_word(D_WORD)
U_B = free_reduce(U_A + inverse_word(C_WORD) + D_WORD)
U_F = "F"
U_H = "AhQPHpqHa"

# boundary restriction characters
CHARS_P0 = ("bA", "fA", "bF")
CHARS_P1 = tuple(free_reduce(w) for w in (C_WORD + inverse_word(D_WORD),
                                          "f" + inverse_word(D_WORD),
                                          C_WORD + "F"))


# the relators of both tangle groups, earring and bypass: they agree
RELATORS = (commutator("p", LAMBDA_P), commutator("q", LAMBDA_Q))


# |nu| bound of the chart domain, with a slack for roots on its edge
NU_MAX = 0.5 + 1e-9
TWO_PI = 2 * np.pi


def chart_angle(x):
    """The chart's angle rule, elementwise: x into [0, 2 pi) by ``np.mod``,
    whose 2 pi for a tiny negative angle reads as 0."""
    x = np.mod(x, TWO_PI)
    return np.where(x == TWO_PI, 0.0, x)


def wrapped_angle(x, xp=np):
    """The signed difference x of two angles, less a multiple of 2 pi, as
    mod(x + pi, 2 pi) - pi: in [-pi, pi], as x just below -pi rounds to pi.
    ``xp=math`` runs it on a Python float, ``xp=numpy`` on arrays."""
    if xp is math:
        return (x + math.pi) % TWO_PI - math.pi
    return np.mod(x + np.pi, TWO_PI) - np.pi


@dataclass
class Rep:
    """A representation recorded by its values on the six generators, or a
    batch of them: (w, x, y, z) tuples of floats or arrays, and s may be an
    array too."""

    a: tuple
    b: tuple
    f: tuple
    h: tuple
    p: tuple
    q: tuple
    variant: str = EARRING
    s: float | np.ndarray = 0.0


def slice_parts(s, gamma, theta, nu, tau) -> dict[str, tuple]:
    """The gauge slice's values on b, f, h, p and q as (w, x, y, z) tuples
    of arrays, and a = i as a tuple of floats; all inputs broadcast,
    complex ones too."""
    gamma, theta, nu, tau = np.broadcast_arrays(gamma, theta, nu, tau)
    if np.any(np.abs(nu) > NU_MAX):
        raise ValueError("nu out of [-1/2, 1/2]")
    zero = np.zeros_like(gamma)
    ct, st = np.cos(theta), np.sin(theta)
    b = (zero, np.cos(gamma), np.sin(gamma), zero)
    r = np.sqrt(1.0 - nu * nu)
    h = (zero, nu, r * np.cos(tau), r * np.sin(tau))
    s = np.asarray(s)
    # p = exp(s Im(b h)), q = exp(s Im(e^{theta k} h))
    p = quat.qexp(*(s * x for x in quat.mul(b, h)[1:]))
    q = quat.qexp(*(s * x for x in quat.mul((ct, zero, zero, st), h)[1:]))
    return {"a": quat.I, "b": b, "f": (zero, ct, st, zero), "h": h, "p": p,
            "q": q}


def embed_L(variant, s, gamma, theta, nu, tau) -> Rep:
    """The gauge-slice representation of one variant at chart coordinates
    (s, gamma, theta, nu, tau), which broadcast: one point or a batch."""
    return Rep(variant=variant, s=s, **slice_parts(s, gamma, theta, nu, tau))


def eval_word(rep, word: str, start=None):
    """Image of a word under a Rep or a dict of generator values, or of
    ``start`` times it, with the products taken left to right; the empty
    word gives one."""
    vals = vars(rep) if isinstance(rep, Rep) else rep
    out = start
    for ch in word:
        x = vals[ch.lower()]
        if ch.isupper():
            x = quat.conj(x)
        out = x if out is None else quat.mul(out, x)
    return quat.ONE if out is None else out


def distance(p, q) -> float:
    """Largest difference of the parts of two (batched) quaternions."""
    return float(np.max([np.max(np.abs(x - y)) for x, y in zip(p, q)]))


def g_of_rep(rep) -> tuple[np.ndarray, np.ndarray]:
    """Earring defining pair evaluated on an arbitrary representation."""
    g1 = eval_word(rep, "pqHaH")[0]
    g2 = eval_word(rep, "pqHa")[0]
    return g1, g2


def gp_of_rep(rep) -> tuple[np.ndarray, np.ndarray]:
    """Bypass defining pair evaluated on an arbitrary representation."""
    g1 = eval_word(rep, "QPhpqHa")[0]
    g2 = eval_word(rep, "Ha")[0]
    return g1, g2


def variety_residual(rep) -> float:
    """max |G| or |G'| according to the representation's variant."""
    pair = g_of_rep(rep) if rep.variant == EARRING else gp_of_rep(rep)
    return float(np.max(np.abs(np.stack(pair))))


def perturbation_residuals(rep: Rep) -> tuple[float, float]:
    """Largest distances of p from exp(s Im lambda_p) and of q from
    exp(s Im lambda_q) over a (batched) representation."""
    def miss(x, lam):
        return distance(x, quat.qexp(
            *(rep.s * c for c in eval_word(rep, lam)[1:])))

    return miss(rep.p, LAMBDA_P), miss(rep.q, LAMBDA_Q)


def check_identities(rep: Rep) -> float:
    """Largest residual of the slice relation, the relators and the
    perturbation conditions over a (batched) gauge-slice representation."""
    def dist(w1, w2=""):
        return distance(eval_word(rep, w1), eval_word(rep, w2))

    return max(dist("PaFqf", "hpqHa"),
               *(dist(r) for r in RELATORS),
               *perturbation_residuals(rep))


def w2_value(s, gamma, theta, nu, tau):
    """Image of the commutator word w at earring chart coordinates, which
    broadcast; equals -1 exactly on the earring variety.  The bypass tangle
    has no such condition."""
    return eval_word(slice_parts(s, gamma, theta, nu, tau), W_WORD)


def rho_eps(eps1, eps2, s, variant: str = EARRING) -> Rep:
    """The four explicit fixed representations: a=i, b=j, f=eps1 i,
    h=eps2 j, p=1, q=exp(s eps1 eps2 j), over eps1, eps2 = +-1 and s, which
    broadcast.  They lie on both varieties for every s."""
    eps1, eps2, s = np.broadcast_arrays(eps1, eps2, s)
    if not np.all((np.abs(eps1) == 1) & (np.abs(eps2) == 1)):
        raise ValueError("eps must be +-1")
    one = np.ones(s.shape)

    def times(x, q):
        return tuple(x * c for c in q)

    return Rep(a=times(one, quat.I), b=times(one, quat.J),
               f=times(eps1, quat.I), h=times(eps2, quat.J),
               p=times(one, quat.ONE),
               q=quat.qexp(*times(s * eps1 * eps2, quat.J)[1:]),
               variant=variant, s=s)
