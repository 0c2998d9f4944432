"""Group words over the tangle generators, the gauge slice, and the defining
functions of the two perturbed varieties.

Both tangle groups are generated by {a, b, f, h, p, q}.  Words are written as
strings: a lowercase letter is a generator, the corresponding uppercase letter
its inverse (so ``"QPbpq"`` reads q^-1 p^-1 b p q).  The named loops c, e, g,
d, w and the perturbation longitudes are fixed words in these generators.

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

from dataclasses import dataclass, field

import numpy as np

from . import quat
from . import _kernels
from ._kernels import BYPASS, EARRING

GENERATORS = "abfhpq"


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


@dataclass(frozen=True)
class Word:
    """A freely reduced word over {a,b,f,h,p,q} and inverses."""

    text: str

    def __post_init__(self):
        reduced = free_reduce(self.text)
        if reduced != self.text:
            object.__setattr__(self, "text", reduced)
        for ch in self.text:
            if ch.lower() not in GENERATORS:
                raise ValueError(f"unknown generator {ch!r}")

    @property
    def letters(self) -> list[tuple[str, int]]:
        return [(ch.lower(), -1 if ch.isupper() else 1) for ch in self.text]

    def inverse(self) -> "Word":
        return Word(inverse_word(self.text))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.text + other.text)

    def __len__(self) -> int:
        return len(self.text)


# named loops expressed in the generators
LAMBDA_P = Word("bh")
LAMBDA_Q = Word("fAh")
C_WORD = Word("QPbpq")
E_WORD = Word("baF")
G_WORD = Word("QbaFq")
D_WORD = Word("QPBpbaFqf")
W_WORD = Word(commutator("AhQP", "h"))

# images of the generators under the tangle involution exchanging the two
# boundary spheres; the h-image is the same reduced word for both tangles
# (the earring form h^- w^- reduces to it when w is written out).
U_A = D_WORD.inverse()
U_B = Word(free_reduce(U_A.text + inverse_word(C_WORD.text) + D_WORD.text))
U_F = Word("F")
U_H = Word("AhQPHpqHa")

# boundary restriction characters
CHARS_P0 = (Word("bA"), Word("fA"), Word("bF"))
CHARS_P1 = (
    Word(C_WORD.text + inverse_word(D_WORD.text)),
    Word("f" + inverse_word(D_WORD.text)),
    Word(C_WORD.text + "F"),
)


@dataclass(frozen=True)
class Presentation:
    name: str
    generators: tuple[str, ...]
    relators: tuple[Word, ...]


# "Pi" presents both tangle groups, earring and bypass: their relators agree
PRESENTATIONS = {
    "Pi": Presentation("Pi", tuple("abfpqh"),
                       (Word(commutator("p", LAMBDA_P.text)),
                        Word(commutator("q", LAMBDA_Q.text)))),
    "Pi0": Presentation("Pi0", tuple("abef"), (Word("baF" + inverse_word(E_WORD.text)),)),
    "Pi1": Presentation("Pi1", tuple("cdgf"),
                        (Word(free_reduce(C_WORD.text + D_WORD.text + "F"
                                          + inverse_word(G_WORD.text))),)),
}


# |nu| bound of the chart domain, with the slack ChartPoint allows
NU_MAX = 0.5 + 1e-9


@dataclass
class ChartPoint:
    """Coordinates (s, gamma, theta, nu, tau) on the compact chart domain."""

    s: float
    gamma: float
    theta: float
    nu: float
    tau: float
    variant: str = EARRING

    def __post_init__(self):
        if abs(self.nu) > NU_MAX:
            raise ValueError(f"nu = {self.nu} out of [-1/2, 1/2]")
        # np.mod rounds a tiny negative angle up to 2 pi, which is 0
        for name in ("gamma", "theta", "tau"):
            x = float(np.mod(getattr(self, name), 2 * np.pi))
            setattr(self, name, 0.0 if x == 2 * np.pi else x)
        if self.variant not in (EARRING, BYPASS):
            raise ValueError(f"unknown variant {self.variant!r}")

    def iota_hat(self) -> "ChartPoint":
        """The free involution (s, -gamma, -theta, nu, tau + pi)."""
        return ChartPoint(self.s, -self.gamma, -self.theta, self.nu,
                          self.tau + np.pi, self.variant)


@dataclass
class Rep:
    """A representation recorded by its values on the six generators."""

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray
    h: np.ndarray
    p: np.ndarray
    q: np.ndarray
    variant: str = EARRING
    s: float = 0.0
    source: ChartPoint | None = None

    def value(self, gen: str) -> np.ndarray:
        return getattr(self, gen)

    def values(self) -> dict[str, np.ndarray]:
        return {g: getattr(self, g) for g in GENERATORS}


def embed_arrays(s, gamma, theta, nu, tau) -> dict[str, np.ndarray]:
    """Vectorized gauge-slice embedding; all inputs broadcast, complex ones
    too."""
    gamma, theta, nu, tau = np.broadcast_arrays(gamma, theta, nu, tau)
    if np.any(np.abs(nu) > NU_MAX):
        raise ValueError("nu out of [-1/2, 1/2]")
    zero = np.zeros_like(gamma)
    a = np.broadcast_to(quat.I, gamma.shape + (4,)).copy()
    b = np.stack([zero, np.cos(gamma), np.sin(gamma), zero], axis=-1)
    f = np.stack([zero, np.cos(theta), np.sin(theta), zero], axis=-1)
    r = np.sqrt(1.0 - nu * nu)
    h = np.stack([zero, nu, r * np.cos(tau), r * np.sin(tau)], axis=-1)
    p = quat.qexp(s * quat.ima(quat.mul(b, h)))
    ek = np.stack([np.cos(theta), zero, zero, np.sin(theta)], axis=-1)
    q = quat.qexp(s * quat.ima(quat.mul(ek, h)))
    return {"a": a, "b": b, "f": f, "h": h, "p": p, "q": q}


def embed_L(pt: ChartPoint) -> Rep:
    """The gauge-slice representation at a chart point."""
    vals = embed_arrays(pt.s, pt.gamma, pt.theta, pt.nu, pt.tau)
    return Rep(variant=pt.variant, s=pt.s, source=pt, **vals)


def eval_word(rep, word) -> np.ndarray:
    """Image of a word under the representation; the empty word gives 1.

    ``rep`` may be a Rep or a dict of generator values (possibly batched).
    The running product is renormalized periodically to bound drift in long
    words.
    """
    vals = rep.values() if isinstance(rep, Rep) else rep
    text = word.text if isinstance(word, Word) else free_reduce(word)
    shape = np.asarray(vals["a"]).shape[:-1]
    out = np.broadcast_to(quat.ONE, shape + (4,)).copy()
    for i, ch in enumerate(text):
        x = vals[ch.lower()]
        if ch.isupper():
            x = quat.conj(x)
        out = quat.mul(out, x)
        if (i + 1) % quat.RENORM_EVERY == 0:
            out = quat.normalize(out)
    return out


def g_of_rep(rep) -> tuple[np.ndarray, np.ndarray]:
    """Earring defining pair evaluated on an arbitrary representation."""
    g1 = quat.real_part(eval_word(rep, "pqHaH"))
    g2 = quat.real_part(eval_word(rep, "pqHa"))
    return g1, g2


def gp_of_rep(rep) -> tuple[np.ndarray, np.ndarray]:
    """Bypass defining pair evaluated on an arbitrary representation."""
    g1 = quat.real_part(eval_word(rep, "QPhpqHa"))
    g2 = quat.real_part(eval_word(rep, "Ha"))
    return g1, g2


def variety_residual(rep) -> float:
    """max |G| or |G'| according to the representation's variant."""
    pair = g_of_rep(rep) if rep.variant == EARRING else gp_of_rep(rep)
    return float(np.max(np.abs(np.stack(pair))))


def G(pt: ChartPoint) -> tuple[float, float]:
    """The earring pair at a chart point (fast kernel path)."""
    g1, g2 = _kernels.g_scalar(_kernels.EARRING, pt.s, pt.gamma, pt.theta,
                               pt.nu, pt.tau)
    return float(g1), float(g2)


def Gp(pt: ChartPoint) -> tuple[float, float]:
    """The bypass pair at a chart point; the second entry is nu exactly."""
    g1, g2 = _kernels.g_scalar(_kernels.BYPASS, pt.s, pt.gamma, pt.theta,
                               pt.nu, pt.tau)
    return float(g1), float(g2)


@dataclass
class IdentityReport:
    slice_relation: float
    relator_p: float
    relator_q: float
    perturbation_p: float
    perturbation_q: float
    max_residual: float = field(init=False)

    def __post_init__(self):
        self.max_residual = max(self.slice_relation, self.relator_p,
                                self.relator_q, self.perturbation_p,
                                self.perturbation_q)


def perturbation_residuals(rep: Rep) -> tuple[float, float]:
    """Distances of p from exp(s Im lambda_p) and of q from
    exp(s Im lambda_q)."""
    def miss(x, lam):
        return float(np.max(np.abs(
            x - quat.qexp(rep.s * quat.ima(eval_word(rep, lam))))))

    return miss(rep.p, LAMBDA_P), miss(rep.q, LAMBDA_Q)


def check_identities(pt: ChartPoint) -> IdentityReport:
    """Residuals of the slice relation, the relators, and the perturbation
    conditions at one chart point."""
    rep = embed_L(pt)

    def dist(w1, w2):
        return float(np.max(np.abs(eval_word(rep, w1) - eval_word(rep, w2))))

    def dist_one(w):
        return float(np.max(np.abs(eval_word(rep, w) - quat.ONE)))

    pert_p, pert_q = perturbation_residuals(rep)
    report = IdentityReport(
        slice_relation=dist("PaFqf", "hpqHa"),
        relator_p=dist_one(commutator("p", LAMBDA_P.text)),
        relator_q=dist_one(commutator("q", LAMBDA_Q.text)),
        perturbation_p=pert_p,
        perturbation_q=pert_q,
    )
    return report


def w2_value(pt: ChartPoint) -> np.ndarray:
    """Image of the commutator word w; equals -1 exactly on the earring
    variety.  The bypass tangle has no such condition."""
    if pt.variant != EARRING:
        raise ValueError("the w2 condition exists only for the earring tangle")
    return eval_word(embed_L(pt), W_WORD)


def rho_eps(eps1: int, eps2: int, s: float, variant: str = EARRING) -> Rep:
    """The four explicit fixed representations: a=i, b=j, f=eps1 i,
    h=eps2 j, p=1, q=exp(s eps1 eps2 j).  They lie on both varieties for
    every s."""
    if eps1 not in (1, -1) or eps2 not in (1, -1):
        raise ValueError("eps must be +-1")
    return Rep(
        a=quat.I.copy(),
        b=quat.J.copy(),
        f=float(eps1) * quat.I,
        h=float(eps2) * quat.J,
        p=quat.ONE.copy(),
        q=quat.qexp(s * eps1 * eps2 * quat.J),
        variant=variant,
        s=s,
    )


def rho_eps_chart(eps1: int, eps2: int, s: float, variant: str = EARRING) -> ChartPoint:
    """Chart coordinates of the same four points (they happen to lie on the
    gauge slice: b = j is e^{(pi/2) k} i)."""
    theta = 0.0 if eps1 == 1 else np.pi
    tau = 0.0 if eps2 == 1 else np.pi
    return ChartPoint(s, np.pi / 2, theta, 0.0, tau, variant)
