"""Shrunk repro (code review of the fuzzing PR): the inner sum iterates
``v1``, a dictionary bound by the ENCLOSING loop over a rank-3 tensor, so
the factor guards' empty-environment analysis judged it scalar and lifted
it across ``{0 -> ...}`` — rewrite_everywhere now threads proven binder
ranks to the factor-moving transforms, and e-graph fragments restrict
moves to closed factors."""
PROGRAM = "sum(<k1, v1> in T0) { 0 -> (sum(<k2, v2> in v1) v2) * 2 }"
TENSORS = {"T0": [[[0.4, 0.9], [0.2, 0.0], [0.7, 0.3]],
                  [[0.0, 0.5], [0.6, 0.1], [0.0, 0.8]],
                  [[0.3, 0.0], [0.9, 0.4], [0.5, 0.2]]]}
FORMATS = {"T0": "dense"}
SCALARS = {}
CONFIGS = [("greedy", "interpret"), ("egraph", "interpret"), ("greedy", "typed")]
