"""Bounded satisfiability, validity, entailment, and model shrinking.

The solver searches models of growing size and reports honestly: `Sat`
with a witness, `UnsatUpTo(k)` when the bound was exhausted, or `Unsat`
only when the bound reaches the exponential completeness threshold.
"""

from relsyl import (
    entails, eval_formula, is_sat, is_valid, minimize_model, parse_formula,
)
from relsyl.semantics import model_to_json, random_model

f = parse_formula("EE(a,b)[r] & !AA(a,b)[r]")
verdict = is_sat(f, 3)
print("query:", "EE(a,b)[r] & !AA(a,b)[r]")
print("witness model:")
print(model_to_json(verdict.witness))

print("\nvalidity of the quantifier-swap theorem:")
print(" ", is_valid(parse_formula("EA(a,b)[r] -> AE(b,a)[r^]"), 4))

print("\nentailment with a side condition:")
print(" ", entails([parse_formula("AE(a,b)[r]"), parse_formula("c <= a")],
                   parse_formula("AE(c,b)[r]"), 4))

# For formulas without AE/EA atoms, truth survives restriction to a
# handful of witness points: at most small_model_bound(g) of them, two
# for each EE atom that occurs positively, two for each AA atom and one
# for each <= atom that occurs negatively.
g = parse_formula("EE(a,b)[r] & !(b <= a)")
big = next(m for s in range(1000)
           for m in [random_model(40, ["a", "b"], ["r"], seed=s)]
           if eval_formula(m, g))
small = minimize_model(big, g)
print(f"\nminimizer: {len(big.domain)} points -> {len(small.domain)} points, "
      f"formula still {eval_formula(small, g)}")
