"""The copying construction: from one covering relation family to a
disjoint, converse-coherent partition.

Starting from a pre-frame — base points, kappa relation indices with a
converse involution, and relations that jointly cover all pairs — the
builder makes 2*kappa + 1 copies of each point and assigns every pair of
copies to exactly one index, using only cyclic arithmetic on the levels.
"""

from relsyl.copying import (
    IndexArithmetic, PreFrame, build_copies, choose, random_preframe,
    verify_contract,
)

pre = PreFrame(
    points=("u", "v"),
    kappa=2,
    conv={1: 1, 2: 2},
    r0={
        1: frozenset({("u", "u"), ("u", "v"), ("v", "u")}),
        2: frozenset({("u", "v"), ("v", "u"), ("v", "v")}),
    },
)

cf = build_copies(pre, choose(pre))
print(f"base: {len(pre.points)} points, kappa={pre.kappa}")
print(f"copied: {len(cf.w)} points "
      f"({2 * pre.kappa + 1} levels per base point)")

report = verify_contract(cf, pre)
for name, result in report.properties.items():
    print(f"  {name:22s} {'ok' if result.ok else 'FAILED'}")

# The level arithmetic: addition wraps modulo 2*kappa + 1, distance is
# the cyclic one, and m <. n says n sits within kappa forward steps.
arith = IndexArithmetic(2)
print(f"\ncarrier {list(arith.carrier)}, 3 (+) 4 = {arith.oplus(3, 4)}, "
      f"|0 (-) 4| = {arith.ominus(0, 4)}, 3 <. 0: {arith.lessdot(3, 0)}")

# Random frames keep the builder honest; every one passes the contract.
bad_seeds = [s for s in range(500)
             if not verify_contract(
                 build_copies(p := random_preframe(s), choose(p)), p).ok]
print("\nfailures over 500 random frames:", bad_seeds)
