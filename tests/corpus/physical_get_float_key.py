"""Shrunk fuzz repro (seed 777000005804): PhysicalTrie.get / PhysicalHashMap
.get / PhysicalArray.get truncated non-integral keys with int(key), so a
fused plan looking up ``T0_trie(0.5)`` hit slot 0 while the logical tensor
missed — positional/physical containers share values.integral_index now."""
PROGRAM = "sum(<k3, v4> in T0) T0(v4)"
TENSORS = {"T0": [0.5, 2.0, 0.75]}
FORMATS = {"T0": "trie"}
SCALARS = {}
CONFIGS = [("egraph", "interpret"), ("greedy", "compile"), ("greedy", "typed")]
