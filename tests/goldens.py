"""Frozen reference values for the bundled programs.

The grammar listings were derived by hand from the program texts (one
nonterminal per control-flow node, one per client method) and are compared
modulo nonterminal renaming.  The report text was frozen from a run whose
locations were checked against the program source by hand.
"""

from __future__ import annotations

# Behavior grammar of recursive_pair.mg seen from thread f: two mutually
# recursive client methods, a branch in each, no loop.
RECURSIVE_PAIR_GRAMMAR = """\
Start: F'
F' -> A
A -> B
B -> a C
C -> D
C -> E
D -> G' E
E -> b F
F -> epsilon
G' -> G
G -> H
H -> c I
I -> J
I -> M
J -> G' K
K -> d L
L -> F' M
M -> epsilon
"""

# Behavior grammar of loop_branch.mg seen from thread f: one while loop
# whose body branches between b and c, then a trailing d.
LOOP_BRANCH_GRAMMAR = """\
Start: F'
F' -> A
A -> B
B -> a C
B -> a G
C -> D
C -> E
D -> b F
E -> c F
F -> B
G -> d H
H -> epsilon
"""

# Behavior of alternating_loop.mg seen from thread main, before
# simplification: every control-flow node keeps its own nonterminal.
ALTERNATING_LOOP_RAW = """\
Start: A
A -> B
D -> E F
E -> X
F -> G
G -> H
B -> C
C -> D
L -> M
L -> N
M -> O
N -> R
O -> a P
H -> I
I -> K
I -> J
J -> L
K -> T U
BF -> BG
U -> V W
BG -> b BH
T -> BA
BH -> T BI
W -> epsilon
BI -> epsilon
V -> BD
BB -> c BC
Q -> S
BC -> epsilon
P -> Q
BD -> BE
S -> H
BE -> a BF
R -> b Q
Y -> Z
X -> Y
Z -> epsilon
BA -> BB
"""

# The same behavior after unit-chain inlining.
ALTERNATING_LOOP_OPTIMIZED = """\
Start: A'
A' -> A
A -> I
L -> b I
L -> a I
I -> L
I -> T V
T -> c
V -> a b T
"""

# Text report for branching_client.mg; the two call locations are the
# else-branch a() on line 14 and g's b() on line 25.
BRANCHING_CLIENT_REPORT = """\
VIOLATION 1
  clause:  "a b"
  word:    a b
  thread:  run
  site:    M@branching_client.mg:10
  calls:
    branching_client.mg:14  a
    branching_client.mg:25  b
  lowest common ancestor: run.2 in method run (not atomically executed)
  suggestion: make run atomic

1 violation(s)
"""

# Per-pair expectations for the bundled corpus: clause count of the module
# contract, violation count for the bad variant, and the methods named as
# lowest common ancestors.  The fixed variant must always report zero.
CORPUS_EXPECTED = {
    "account_transfer": (4, 2, {"payout", "transfer"}),
    "arithmetic_db": (2, 2, {"recompute", "seed"}),
    "cache_lookup": (1, 1, {"load"}),
    "connection_pool": (2, 2, {"talk"}),
    "coord_pair": (4, 1, {"plot"}),
    "coord_swap": (2, 1, {"swap"}),
    "elevator_control": (2, 2, {"ascend", "dispatch"}),
    "knight_moves": (1, 1, {"turn"}),
    "local_counter": (2, 1, {"bump"}),
    "sensor_poll": (1, 1, {"poll"}),
    "store_inventory": (1, 1, {"sell"}),
    "string_buffer": (1, 1, {"trim"}),
    "under_report": (1, 1, {"reconcile"}),
    "vector_alloc": (1, 1, {"produce"}),
    "vector_fail": (2, 1, {"scan"}),
}

