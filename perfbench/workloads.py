"""Workloads of the kahlerlab benchmark: the CLI ops each one runs, the
input files they read, and the closed-form facts their reports must show.

Each op is a ``kahlerlab`` command line.  The workload seed fixes every op's
``--seed``; the program sees nothing but the generated argv and input files.
"""

import random

# Complex matrices are JSON rows of [re, im] pairs (see the README).
def _diag_pairs(*entries):
    n = len(entries)
    return [[[float(entries[i]), 0.0] if i == j else [0.0, 0.0] for j in range(n)]
            for i in range(n)]


_TORUS2 = {"kind": "torus", "n": 2, "periods": 1.0}

INPUT_FILES = {
    "A_diag211.json": _diag_pairs(2, 1, 1),
    "A_diag211h.json": _diag_pairs(2, 1, 1, 0.5),
    "tori3.json": {"model": {"kind": "product", "n": 6,
                             "factors": [_TORUS2, _TORUS2, _TORUS2]}},
    "fs_x_flat.json": {"model": {"kind": "product", "n": 4,
                                 "factors": [{"kind": "fs", "n": 2},
                                             {"kind": "flat", "n": 2}]}},
}

# Ops are (argv without --seed/--out, closed-form mobility dimension or None,
# seed pool or None).  Without a pool the op's --seed is drawn from the
# workload seed; with one, the workload seed picks an entry of the pool.
# Mobility dimensions: (n+1)^2 for Fubini-Study at B = -1/4, n^2 for a flat
# torus or a product of flat tori at B = 0 (real dimension d = 2n).

# spectral's lambda_eigenspace_angle check fails at some sample points although
# the eigenvalues have the expected multiplicities (1 of 76 seeds tried; seed
# 63704871, run by the probe below), so the timed op draws from seeds checked
# to pass at the seed code.
SPECTRAL_SEEDS = [597673764, 2090156632, 1950286845, 981861099, 1881433163,
                  1919713882, 1101658568, 920872423, 818012013, 1048198453,
                  1163663436, 1712160842, 2130951275, 542654998, 2130265317,
                  1174227546]

WORKLOADS = {
    # The README invocation with the Killing-drift branch on: single-point
    # order-1 metric jets on CNum code dominate; transport and order-3 jets idle.
    "hplanar-fs2": [
        (["hplanar", "--model", "fs", "--n", "2", "--A-file", "A_diag211.json"], None, None),
    ],
    # Batched RK4 transport of the prolonged system and the constraint SVD at
    # fiber sizes 49 / 25 / 9; metric jets are nearly idle (flat models).
    "mobility": [
        (["mobility", "--config", "tori3.json", "--B", "0"], 6 ** 2, None),
        (["mobility", "--model", "fs", "--n", "4", "--B", "-0.25"], (4 + 1) ** 2, None),
        (["mobility", "--model", "torus", "--n", "2", "--B", "0"], 2 ** 2, None),
    ],
    # Order-2/3 jets at single points with tensor payloads, jet_einsum,
    # jet_matrix_inverse, pullback metrics and repeated geom lookups; the
    # d = 12 ops build jet_space(12, 2) cold.
    "residuals-order3": [
        (["verify-kahler", "--model", "fs", "--n", "3"], None, None),
        (["curvature", "--model", "fs", "--n", "4"], None, None),
        (["hpr-check", "--n", "3", "--A-file", "A_diag211h.json"], None, None),
        (["spectral", "--n", "3", "--A-file", "A_diag211h.json"], None, SPECTRAL_SEEDS),
        (["tanno", "--n", "3", "--A-file", "A_diag211h.json"], None, None),
        (["curvature", "--config", "tori3.json", "--B", "0"], None, None),
        (["verify-kahler", "--config", "tori3.json"], None, None),
    ],
}

# Known defects kept visible outside the timed workloads, where a crash or a
# seed-dependent failure would have no time: the batched geometry path cannot
# broadcast a flat factor against a curved one, and the spectral check above.
PROBE = [
    (["mobility", "--config", "fs_x_flat.json", "--B", "-0.25"], None, None),
    (["hplanar", "--config", "fs_x_flat.json"], None, None),
    (["spectral", "--n", "3", "--A-file", "A_diag211h.json"], None, [63704871]),
]


def ops(workload, seed):
    """The workload's ops as (argv, expected mobility dimension) pairs, with
    per-op seeds drawn from ``seed`` and reports written to op<k>.json."""
    spec = PROBE if workload == "probe" else WORKLOADS[workload]
    rng = random.Random(seed)
    out = []
    for k, (argv, dim, pool) in enumerate(spec):
        op_seed = rng.randrange(2 ** 31)
        if pool is not None:
            op_seed = pool[op_seed % len(pool)]
        out.append((argv + ["--seed", str(op_seed), "--out", f"op{k}.json"], dim))
    return out
