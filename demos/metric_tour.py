"""A tour of the dependence functionals on one small joint measure.

Every metric returns a MetricValue carrying a certificate: the rectangle,
partition pair, sign functions, coupling, or test function that attains the
reported value. Certificates can be re-evaluated independently of the
search that produced them.

Run:  python demos/metric_tour.py
"""
from asymdep import (
    alpha_coefficient,
    beta_partition,
    bl_to_product,
    cf_gap_lattice,
    cov_sup_pm1,
    dependence_matrix,
    evaluate_certificate,
    prokhorov_to_product_upper,
    variation_norm,
)
from asymdep.families import random_joint

joint = random_joint(seed=7, n1=4, n2=3)
dep = dependence_matrix(joint)

print("dependence matrix (joint - product of marginals):")
for row in dep.entries:
    print("   ", "  ".join(f"{str(x):>7}" for x in row))
print()

var = variation_norm(dep)
alpha = alpha_coefficient(joint)
beta = beta_partition(joint)
cov = cov_sup_pm1(joint)
pi = prokhorov_to_product_upper(joint)
bl = bl_to_product(joint)
cf = cf_gap_lattice(joint)

print(f"variation norm      = {var.value}   (AI-4 scale)")
print(f"alpha (rectangles)  = {alpha.value}   witness A={alpha.certificate['A']}, "
      f"B={alpha.certificate['B']}")
print(f"beta (partitions)   = {beta.value}")
print(f"cov_sup over +/-1   = {cov.value}   f={cov.certificate['f']}, "
      f"g={cov.certificate['g']}")
print(f"prokhorov to product <= {pi.value:.6f}   (epsilon = "
      f"{pi.certificate['epsilon']:.6f})")
print(f"bounded-Lipschitz   = {bl.value:.6f}")
print(f"max cf gap on lattice = {cf.value:.6f}   at t={cf.certificate['t']}, "
      f"s={cf.certificate['s']}")
print()

print("structural identities on finite supports:")
print(f"  beta == variation / 2  : {beta.value == var.value / 2}")
print(f"  cov_sup == 4 * alpha   : {cov.value == 4 * alpha.value}")
print(f"  prokhorov <= tv / 2    : {pi.value <= float(var.value) / 2 + 1e-12}")
print(f"  prokhorov^2 <= bl      : {pi.value ** 2 <= bl.value + 1e-9}")
print(f"  bl <= 3 * prokhorov    : {bl.value <= 3 * pi.value + 1e-9}")
print()

print("re-evaluating certificates from scratch:")
for mv in (var, alpha, beta, cov):
    again = evaluate_certificate(mv, dep=dep)
    print(f"  {mv.name:<14} certificate re-evaluates to {again} "
          f"(match: {again == mv.value})")
