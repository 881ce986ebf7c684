"""Pinching + twisting => positive exponent: the full detection pipeline.

The system pairs the cat map with the cat map post-composed with a
localized twist.  At the fixed point of symbol 0 the return cocycle is the
unperturbed cat map, so pinching (a positive average return exponent)
holds trivially.  The twist enters through the holonomy loop attached to a
homoclinic point: transporting the Oseledets directions around loop
iterates moves them clearly off the target directions on a definite
fraction of sampled points, which is the twisting verdict.  Together the
two flags predict a positive integrated exponent; the unperturbed
contrast shows the criterion is sufficient but not necessary.
"""

import skewlab as sl
import skewlab.fiber_maps as fm


def build(T):
    cat = fm.ToralAutomorphism((2, 1, 1, 1))
    g1 = cat if T == 0.0 else fm.Composite([cat, fm.LocalizedTwist((0.25, 0.25), 0.2, T)])
    space = sl.ShiftSpace(2, metric_base=0.5)
    return sl.SkewSystem(
        space,
        sl.BaseMeasure("bernoulli", probs=(0.5, 0.5)),
        sl.LocallyConstantFamily(1, {0: cat, 1: g1}),
    )


def run(T):
    system = build(T)
    p = sl.PeriodicPoint((0,))
    z = sl.homoclinic_point(system.space, p, insert_symbol=1, insert_index=1)
    pin = sl.check_pinching(system, p, grid=16, n_steps=300)
    loop = sl.build_holonomy_loop(system, p, z, i=2)
    tw = sl.check_twisting(loop)
    est = sl.integrated_exponent(system, 100, 2000, seed=8)
    probe = sl.su_state_probe(system, p, loop)
    seps = [s for _, s in tw.per_point if s is not None]
    frac = sum(1 for s in seps if s > 0.05) / max(len(seps), 1)
    print("T=%.1f: pinching=%-5s (integral %.4f)  twisting=%-5s "
          "(twisted fraction %.2f)  L=%.4f +- %.1e  probe %.3f"
          % (T, pin.positive, pin.integral, tw.twisting, frac,
             est.mean, est.stderr, probe))


def main():
    print("cat / twisted-cat random product, twist angle T:")
    run(0.5)
    run(0.0)
    print()
    print("T=0.5: both flags hold and the exponent is firmly positive.")
    print("T=0:   the loop is A^2, which fixes A's eigendirections, so")
    print("       twisting fails -- yet L stays positive: the criterion")
    print("       is one-sided.")


if __name__ == "__main__":
    main()
