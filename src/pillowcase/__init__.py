"""Numerical study of the perturbed traceless SU(2) character varieties of the
earring and bypass tangles, their restriction maps into a product of
pillowcases, and the induced operations (doubling, figure-eight) on immersed
curves.

Subpackage layout:

- ``quat``        unit-quaternion arithmetic over numpy arrays
- ``words``       group words, tangle presentations, the gauge slice, and the
                  defining functions of the two varieties
- ``variety``     batched fiber solving, fold circles, topology checks, and the
                  closed-form circles over the bottom edge
- ``projection``  pillowcase orbits and character triples, the two
                  restriction maps, the reflection, and the
                  boundary-exchanging involution
- ``curves``      immersed-curve calculus in the pillowcase
- ``compose``     correspondence composition via pseudo-arclength
                  continuation, on fold circles the caller passes
- ``verify``      the invariant battery: every check of the paper's claims
                  with its thresholds, Theorem B and the bottom-edge
                  predictions among them
- ``cli``         command-line surface (trace / compose / scene / verify)

Hot kernels live in ``_kernels``: ``jet``, the defining pair with its exact
derivatives on floats and arrays, the continuation corrector, and ``newton``,
the one array Newton of the fiber roots, dense corrector and fold circles.
"""

__version__ = "0.1.0"
