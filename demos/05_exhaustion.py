"""Continuity of the minimal value under exhaustion of the node sets.

Solving on growing head-portions of each plate (with a constraint headroom
factor shrinking to 1) drives the optimal value down to the full-problem
value, and the truncated minimizers converge to the full minimizer in the
energy seminorm.  Each stage is the full problem with sigma scaled by the
headroom on each plate's kept head and zero on the rest: under the box
constraint that is the truncated problem, and it solves on the full
problem's own Gram.  With a deliberately tight constraint the smallest
truncation is infeasible at headroom 1 but admissible once the constraint
is scaled up; that is exactly what the headroom is for.
"""

import numpy as np

from vequil import Condenser, KernelSpec, SolverConfig, condenser_gram, make_plate, zero_field
from vequil.analysis import exhaustion_experiment
from vequil.solver import Problem

rng = np.random.default_rng(3)
n = 80
nodes_pos = rng.uniform(-1, 1, (n, 3)) * [1.0, 1.0, 0.3] + [-2.0, 0.0, 0.0]
nodes_neg = rng.uniform(-1, 1, (n, 3)) * [1.0, 1.0, 0.3] + [2.0, 0.0, 0.0]


def show(trace):
    print(" fraction  headroom  feasible      value     gap to full minimizer")
    for st in trace.stages:
        val = f"{st.value:.8f}" if st.feasible else "   --"
        gap = f"{st.semimetric_gap:.3e}" if st.feasible else "   --"
        print(f"   {st.node_fraction:4.2f}     {st.sigma_scale:4.2f}     "
              f"{str(st.feasible):<5}   {val}   {gap}")
    print(f" full value: {trace.full_value:.8f}")


print("A) ample constraint: every truncation feasible, values decrease to the limit")
c = Condenser(plates=(make_plate(0, +1, nodes_pos, sigma=0.08, mass=1.0),
                      make_plate(1, -1, nodes_neg, sigma=0.08, mass=1.1)))
K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
prob = Problem(condenser=c, gram=K, field=zero_field(c), config=SolverConfig(grad_tol=1e-10))
show(exhaustion_experiment(prob, [0.25, 0.5, 0.75, 1.0], [1.3, 1.1, 1.02, 1.0]))

print("\nB) tight constraint: headroom restores feasibility of small truncations")
# 25% truncation: admissible g-mass 20 * 0.04 = 0.8 < 1, but 1.5 * 0.8 = 1.2 >= 1
c2 = Condenser(plates=(make_plate(0, +1, nodes_pos, sigma=0.04, mass=1.0),
                       make_plate(1, -1, nodes_neg, sigma=0.04, mass=1.0)))
K2 = condenser_gram(KernelSpec("riesz", alpha=2.0), c2)
prob2 = Problem(condenser=c2, gram=K2, field=zero_field(c2), config=SolverConfig(grad_tol=1e-10))
print("   headroom 1 everywhere:")
show(exhaustion_experiment(prob2, [0.25, 0.5, 1.0], [1.0, 1.0, 1.0]))
print("   headroom 1.5 / 1.1 / 1.0:")
show(exhaustion_experiment(prob2, [0.25, 0.5, 1.0], [1.5, 1.1, 1.0]))
