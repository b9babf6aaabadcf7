"""Shrunk fuzz repro (seed 1000000187): the A2/A3 dict-factor rewrite rules
turned ``{0 -> c0} * {3 -> 1}`` (key intersection = {}) into
``{0 -> {3 -> c0}}`` — the rules are only sound for scalar factors and now
carry a type condition."""
PROGRAM = "{ 0 -> c0 } * { 3 -> 1 }"
TENSORS = {}
FORMATS = {}
SCALARS = {"c0": 1.0}
CONFIGS = [("egraph", "interpret"), ("egraph", "compile"), ("egraph", "typed")]
