"""Lyapunov exponents: pointwise, integrated, and an independent oracle.

Three generator choices with known answers calibrate the estimators:
the cat map (closed-form exponent), the identity/rotations (exactly zero),
and a random product of the two unipotent shears whose exponent the
discretized projective transfer operator reproduces to many digits.
"""

import math

import skewlab as sl
import skewlab.fiber_maps as fm

CAT = (2, 1, 1, 1)
SHEAR_UP = (1, 1, 0, 1)
SHEAR_LO = (1, 0, 1, 1)


def constant_system(mat):
    space = sl.ShiftSpace(2, metric_base=0.5)
    family = sl.LocallyConstantFamily(
        1, {0: fm.ToralAutomorphism(mat), 1: fm.ToralAutomorphism(mat)}
    )
    return sl.SkewSystem(space, sl.BaseMeasure("bernoulli", probs=(0.5, 0.5)), family)


def main():
    cat = constant_system(CAT)
    x = sl.periodic_point(cat.space, (0,))
    est = sl.iterate_cocycle(cat, x, (0.3, 0.7), 10_000).log_norm / 10_000
    exact = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    print("cat map: pointwise %.10f   exact %.10f" % (est, exact))

    ident = constant_system((1, 0, 0, 1))
    print("identity: integrated exponent =",
          sl.integrated_exponent(ident, 20, 100, seed=1).mean, "(exact zero)")

    # i.i.d. product of the two shears: genuinely random, positive exponent
    space = sl.ShiftSpace(2, metric_base=0.5)
    family = sl.LocallyConstantFamily(
        1, {0: fm.ToralAutomorphism(SHEAR_UP), 1: fm.ToralAutomorphism(SHEAR_LO)}
    )
    shears = sl.SkewSystem(space, sl.BaseMeasure("bernoulli", probs=(0.5, 0.5)), family)
    mc = sl.integrated_exponent(shears, 200, 2000, seed=11)
    oracle = sl.furstenberg_exponent_transfer_operator(
        [SHEAR_UP, SHEAR_LO], (0.5, 0.5), n_bins=10_000
    )
    print("shear product: Monte Carlo %.6f +- %.1e   transfer operator %.6f"
          % (mc.mean, mc.stderr, oracle))
    print("gap %.2e -- two completely independent computations" % abs(mc.mean - oracle))

    # Oseledets data at the fixed point of the cat system
    frame = sl.oseledets_frame(cat, sl.PeriodicPoint((0,)), (0.3, 0.7), depth=60)
    print("Oseledets frame: e_u angle %.6f  e_s angle %.6f  gap %.6f  converged=%s"
          % (frame.e_u, frame.e_s, frame.gap, frame.converged))


if __name__ == "__main__":
    main()
