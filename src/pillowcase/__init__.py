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
- ``projection``  pillowcase points, the two restriction maps, and all
                  symmetries / involutions
- ``curves``      immersed-curve calculus in the pillowcase
- ``compose``     correspondence composition via pseudo-arclength continuation
- ``verify``      the invariant battery: every check of the paper's claims
                  with its thresholds
- ``cli``         command-line surface (trace / compose / scene / verify)

Hot kernels live in ``_kernels``: the defining pair on numpy arrays, batched
fiber Newton, and the defining pair with its exact Jacobian one point at a
time for continuation and fold extraction.
"""

__version__ = "0.1.0"
