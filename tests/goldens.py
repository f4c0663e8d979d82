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


# sha256 of stdout and the exit code of
# `atomguard check --dump-grammar --dump-table --dump-trees [FLAGS] FILE`
# for every bundled program, run from the repository root with color off,
# frozen before the dumps were rendered from the checker's own records.
# Keyed by (FLAGS, FILE relative to the repository root).
DUMP_DIGESTS = {
    ("", "src/atomguard/data/corpus/account_transfer.bad.mg"): (
        1,
        "acbb27516c4d098f72cdceacc5655216a606d8023e914c19a7f026c9fd840603",
    ),
    ("", "src/atomguard/data/corpus/account_transfer.fixed.mg"): (
        0,
        "8f7f0b740b191fa5fbad0431e5cca6bfa3caafeeced54a0e8e08060dec6d5b27",
    ),
    ("", "src/atomguard/data/corpus/arithmetic_db.bad.mg"): (
        1,
        "b0922744520bcb777601b681e8690709290f90bcd5bd7dce7dedfe3f52e83827",
    ),
    ("", "src/atomguard/data/corpus/arithmetic_db.fixed.mg"): (
        0,
        "def29b36e4e15bbc290f23c13d1c76bd9bb75b5214d8aaf6f1c264be56c7e07d",
    ),
    ("", "src/atomguard/data/corpus/cache_lookup.bad.mg"): (
        1,
        "91bf23c2fc8b323e0aa032cc845dcd38139e1631b2a2efa22e2ec4db3918d7ee",
    ),
    ("", "src/atomguard/data/corpus/cache_lookup.fixed.mg"): (
        0,
        "48a9d05a8cc7269ed8b618797a2dd9f36ff251446ce69b65b11f7644c37ba79a",
    ),
    ("", "src/atomguard/data/corpus/connection_pool.bad.mg"): (
        1,
        "c6fded63d0fded9c89e9170841fdd34f9850d9bc1f99cf1297bf6fa24f325b83",
    ),
    ("", "src/atomguard/data/corpus/connection_pool.fixed.mg"): (
        0,
        "b6b4b20ec7bcc9305806715aceda8b76cdeb81754d0867896e00b3a942e9bc4b",
    ),
    ("", "src/atomguard/data/corpus/coord_pair.bad.mg"): (
        1,
        "bb788a99f412193906661928daef57303692613f42ae3662c955617b31bfca15",
    ),
    ("", "src/atomguard/data/corpus/coord_pair.fixed.mg"): (
        0,
        "ba134c0d65f5fa2cb4299413a5e32c0e40bcea2d5db3cc23df5611872abe5e20",
    ),
    ("", "src/atomguard/data/corpus/coord_swap.bad.mg"): (
        1,
        "6fc3a1e6af36d783753597331cbf02c2c1add3be41108d4411e97aaaf9f3ade1",
    ),
    ("", "src/atomguard/data/corpus/coord_swap.fixed.mg"): (
        0,
        "3b50cbf7e48c36b5765f77a19d49a991bad96a68fa09ab47b5da3bac6595a2c5",
    ),
    ("", "src/atomguard/data/corpus/elevator_control.bad.mg"): (
        1,
        "d97e9255ece336cc204f9c9839fb2d07d607b112b611d6bd171136d4df8fd2a6",
    ),
    ("", "src/atomguard/data/corpus/elevator_control.fixed.mg"): (
        0,
        "ce0c9673ab5e0462316179f2154cb77398d502e18231ec39eebba4107007ae7d",
    ),
    ("", "src/atomguard/data/corpus/knight_moves.bad.mg"): (
        1,
        "25da1f533ec76af23f9a048d3f03ee6574b1970a32d965426ccf285edbc7176e",
    ),
    ("", "src/atomguard/data/corpus/knight_moves.fixed.mg"): (
        0,
        "908df88a91a7eb9a72c771e3c8c5f4e4ac158ddf7f935282ce9606de0e93bd10",
    ),
    ("", "src/atomguard/data/corpus/local_counter.bad.mg"): (
        1,
        "a1d42ae7821a19063199bf4be1e67a36534d32d14a324cc64b9a6e57342c8e38",
    ),
    ("", "src/atomguard/data/corpus/local_counter.fixed.mg"): (
        0,
        "ed121628ead02a518ba974018a26d2e0ec5c5bfe17af02f21bd121f4817e0f23",
    ),
    ("", "src/atomguard/data/corpus/sensor_poll.bad.mg"): (
        1,
        "9b7309a7e8afc71a9a49a9a006ca67b10e828bca7912576ac31decc05538d7b0",
    ),
    ("", "src/atomguard/data/corpus/sensor_poll.fixed.mg"): (
        0,
        "1c0b062038b7937579be91061d84efec427fbcb6b66363f6dcaf3297c5da6580",
    ),
    ("", "src/atomguard/data/corpus/store_inventory.bad.mg"): (
        1,
        "38fe2da0857253c741b5613b363e611ca919fb2a2c0fcca5b03a5be84856a2d2",
    ),
    ("", "src/atomguard/data/corpus/store_inventory.fixed.mg"): (
        0,
        "120bd5873a54f55f5f8b01cf5497d05cbafd9e219b881416beebbc1ed7992eaa",
    ),
    ("", "src/atomguard/data/corpus/string_buffer.bad.mg"): (
        1,
        "5a5ea7cda8e3653f2d62a651f30065ae35f8bba9748daca22c21984028e937aa",
    ),
    ("", "src/atomguard/data/corpus/string_buffer.fixed.mg"): (
        0,
        "3cc2c2dd13e7ca23e9e0827cc0e045c30422716c058e97d3eb044112565df618",
    ),
    ("", "src/atomguard/data/corpus/under_report.bad.mg"): (
        1,
        "409bd4822e6cca800a387d7e0c25cd0f914f373f7d136fbf5f3ded167d4b8c93",
    ),
    ("", "src/atomguard/data/corpus/under_report.fixed.mg"): (
        0,
        "a642e7a3a43215942017449a8f0a6ea08b252eeff2babcc9b0b3f1a3250c489f",
    ),
    ("", "src/atomguard/data/corpus/vector_alloc.bad.mg"): (
        1,
        "08e78a330d47bb96dc09eebadbc525f4281f34cf1de8d8d52632c9936390b597",
    ),
    ("", "src/atomguard/data/corpus/vector_alloc.fixed.mg"): (
        0,
        "a1889f2ee1a400d14b1e8ce7a92e7883778f0e380a4af224a43e0dd640641c8e",
    ),
    ("", "src/atomguard/data/corpus/vector_fail.bad.mg"): (
        1,
        "a5cea382412c275d29e2a48cb58bd894e44881572c08bf260a2583d724142b6f",
    ),
    ("", "src/atomguard/data/corpus/vector_fail.fixed.mg"): (
        0,
        "84d6640afbf1c9fc85946fdddf432ade34d366cbbab4a0ed5ee4990a594b8fe9",
    ),
    ("", "src/atomguard/data/programs/alternating_loop.mg"): (
        1,
        "79ad1e908249901b6046e32d6afeab169a769439d84b8f82bba451320af796b3",
    ),
    ("", "src/atomguard/data/programs/branching_client.mg"): (
        1,
        "d770ad02140b76bea2b02af8e2f5099b956453a324f5ce936172f7199edaf3b2",
    ),
    ("", "src/atomguard/data/programs/loop_branch.mg"): (
        0,
        "b4f91afc6da7ed226db3505acd02533f52a9148554082a3ec92502986e40079c",
    ),
    ("", "src/atomguard/data/programs/nested_calls.mg"): (
        0,
        "1f353e0cda491f3eb803d445589ee9869778ef7d13121a3c155e9c1e66018a83",
    ),
    ("", "src/atomguard/data/programs/recursive_pair.mg"): (
        0,
        "5bb466ccd9f0f2e083b77158873475ae4d832d9d9c31149c3463fd1205272f68",
    ),
    ("", "src/atomguard/data/programs/scheduler.mg"): (
        1,
        "c8b251bd9574d91e4c74d78c11bd95b4a3db0315da6d532092465381d0af791c",
    ),
    ("", "src/atomguard/data/programs/straight_line.mg"): (
        1,
        "9a9c32eb1ee37fd975406634ba32852485f726eaf7e359bf3ba3cd35db94b223",
    ),
    ("--class-scope", "src/atomguard/data/corpus/account_transfer.bad.mg"): (
        1,
        "fe4b4895d26830610d1723c9155d51dd2d27d121a7c95828652814884ff6861d",
    ),
    ("--class-scope", "src/atomguard/data/corpus/account_transfer.fixed.mg"): (
        0,
        "5f3767082b7e12a6d5323c2a2f22525673f3a22f0bb0ac8d99f9438a7b2710d5",
    ),
    ("--class-scope", "src/atomguard/data/corpus/arithmetic_db.bad.mg"): (
        1,
        "5174878ee206801af1605f3fd5a8e015b07c1c99d2c216fe7ab16738bea7a3ab",
    ),
    ("--class-scope", "src/atomguard/data/corpus/arithmetic_db.fixed.mg"): (
        0,
        "c9e8593b30e686922d20d0e5c0b3823cccd34cc44147e832326ad9d0e768c7ec",
    ),
    ("--class-scope", "src/atomguard/data/corpus/cache_lookup.bad.mg"): (
        1,
        "4af7f87f7d8e64c8fd1241f2b1c7ddcca9a877f76676c18244bcb42889a7a561",
    ),
    ("--class-scope", "src/atomguard/data/corpus/cache_lookup.fixed.mg"): (
        0,
        "221cbc1bedd7d01dd3078e471535711a949a5a7c5f44fe0068fb9577906d34eb",
    ),
    ("--class-scope", "src/atomguard/data/corpus/connection_pool.bad.mg"): (
        1,
        "b64900a61e7e1aeba638fd7dbae8b756cfc5f9e15763b0f6d116cbef652217d7",
    ),
    ("--class-scope", "src/atomguard/data/corpus/connection_pool.fixed.mg"): (
        0,
        "f6d41377886c30383f8ae38b3b4ecbf33cfdc2c72c6808d6e19ac79ab012d302",
    ),
    ("--class-scope", "src/atomguard/data/corpus/coord_pair.bad.mg"): (
        1,
        "d39a4914c6bf41cad6780c764dd42b470cc473c7606a9fbf3232a16f88bdd3e3",
    ),
    ("--class-scope", "src/atomguard/data/corpus/coord_pair.fixed.mg"): (
        0,
        "953c145ad998c9e12b25ae36d26dc2af7f1f3a9a7391693b2aee4e6087df4db4",
    ),
    ("--class-scope", "src/atomguard/data/corpus/coord_swap.bad.mg"): (
        1,
        "10b38e5ede4f7e319c3e943bcdae002c22983b245149dbb6e4076a7ae803ad46",
    ),
    ("--class-scope", "src/atomguard/data/corpus/coord_swap.fixed.mg"): (
        0,
        "eb6ddb171b1929c1f2e424e1fd17e6572471b856b0b7affc7672437bf28bde3b",
    ),
    ("--class-scope", "src/atomguard/data/corpus/elevator_control.bad.mg"): (
        1,
        "03d832e4dead01c51e903659a958eb3dc9b382d43f14fa099b7036e114834810",
    ),
    ("--class-scope", "src/atomguard/data/corpus/elevator_control.fixed.mg"): (
        0,
        "4bb590961e3cd1925bc9918ede987f2fbcb1b27a34f18e56489e9925041e05a2",
    ),
    ("--class-scope", "src/atomguard/data/corpus/knight_moves.bad.mg"): (
        1,
        "680314c45e5c4ac688da001d530c0103df76836d0ea3641c93cbb1f802557588",
    ),
    ("--class-scope", "src/atomguard/data/corpus/knight_moves.fixed.mg"): (
        0,
        "d6dd82b6733df16b15c86b59af52e93230a2f013f71afcf2f934ced5c939ed43",
    ),
    ("--class-scope", "src/atomguard/data/corpus/local_counter.bad.mg"): (
        1,
        "007bda33dd9afbf4680d542ade27d6a69a0c78e7987751d06e6cce65e93a496a",
    ),
    ("--class-scope", "src/atomguard/data/corpus/local_counter.fixed.mg"): (
        0,
        "99c26bd0a1a2c9c471217efb779a7715f078fe640fb87ab106566e0f19b61d62",
    ),
    ("--class-scope", "src/atomguard/data/corpus/sensor_poll.bad.mg"): (
        1,
        "471567ef0b1b4146b4c2ccbfa3bf3d3af8f8cd9e0572df5faa2817b761c4bf5d",
    ),
    ("--class-scope", "src/atomguard/data/corpus/sensor_poll.fixed.mg"): (
        0,
        "ca59c5316e64462e5315932c83c99be99027eb3b88d9ca0f4cd94ea1a42722d3",
    ),
    ("--class-scope", "src/atomguard/data/corpus/store_inventory.bad.mg"): (
        1,
        "6e88c29643c50f82be733b80e020dbf331da2ef95fc2af5671680cb7082f39f2",
    ),
    ("--class-scope", "src/atomguard/data/corpus/store_inventory.fixed.mg"): (
        0,
        "bfa95100e66307d1691ed4212c41c75ccb87c9b1c66a2abf7a11d8c5246b7532",
    ),
    ("--class-scope", "src/atomguard/data/corpus/string_buffer.bad.mg"): (
        1,
        "415d3f2319ee50cfd356d7b4a43ac99a158bea7c69f17eb2ad3072aa6b44be9b",
    ),
    ("--class-scope", "src/atomguard/data/corpus/string_buffer.fixed.mg"): (
        0,
        "f7c61118fcd030e610567d7196bdf9ab77377842ce953e0a92b5d0607799281e",
    ),
    ("--class-scope", "src/atomguard/data/corpus/under_report.bad.mg"): (
        1,
        "bca5169246e814fc6e783f6b7e7cf51708b7c4a360752c7fca84814ccd7ce7c5",
    ),
    ("--class-scope", "src/atomguard/data/corpus/under_report.fixed.mg"): (
        0,
        "8b029a9ddd5ef9464b19d601b134643f149d61bcb5326559cc70fb28d5af3709",
    ),
    ("--class-scope", "src/atomguard/data/corpus/vector_alloc.bad.mg"): (
        1,
        "d25e4005d2036ab768b113bdab7aa784a0ae61f3434558fbc3118a902daea391",
    ),
    ("--class-scope", "src/atomguard/data/corpus/vector_alloc.fixed.mg"): (
        0,
        "929d71c9e97c88d55dbe5b4c41fcfb2a6bcfef3f9f719002e82a88d4a691546c",
    ),
    ("--class-scope", "src/atomguard/data/corpus/vector_fail.bad.mg"): (
        1,
        "10261dccda21ff1e1fc8a83a15529e4aac84e97a903c4e988ed1be46dba46ac7",
    ),
    ("--class-scope", "src/atomguard/data/corpus/vector_fail.fixed.mg"): (
        0,
        "8f697b000259d74b5f8b52f3db2f4b5e79eb4aa1113ffa3db7d4966d0c304c79",
    ),
    ("--class-scope", "src/atomguard/data/programs/alternating_loop.mg"): (
        1,
        "fe6482e0f248c61550630c6ba17fb3d14ca4db30862c8e80089469d3eca18e5f",
    ),
    ("--class-scope", "src/atomguard/data/programs/branching_client.mg"): (
        1,
        "24fd2939fb1edb78ab29ba8301cbb4279f1418e24503af6cd774313c057afe16",
    ),
    ("--class-scope", "src/atomguard/data/programs/loop_branch.mg"): (
        0,
        "ccba8d90fe5e2e6653b5d059b68378ef6e4a911fbe4d4227ca6f9f4c76299f34",
    ),
    ("--class-scope", "src/atomguard/data/programs/nested_calls.mg"): (
        0,
        "8d143f0881b37d2da6be8d534ecd9fb109fde15e6c4c155cc456fbffd5c64d04",
    ),
    ("--class-scope", "src/atomguard/data/programs/recursive_pair.mg"): (
        0,
        "0cd4969324b7456922eeebaf31f312f3dfa4859e180ff698c32ad575860ec9b7",
    ),
    ("--class-scope", "src/atomguard/data/programs/scheduler.mg"): (
        1,
        "0afc18f880dcfa899e8b61bc38b0f25e6680b98d1e7685b581b9ea1ad8be2c2a",
    ),
    ("--class-scope", "src/atomguard/data/programs/straight_line.mg"): (
        1,
        "2a54d7dfde0b6b912c6a8bc12d3cc1166778ce87402fa0ba72b64c8728010107",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/account_transfer.bad.mg"): (
        1,
        "1f05a3bcb2397c80328cea33e92685b5db40bd5d59e68862df2cf0027afe569b",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/account_transfer.fixed.mg"): (
        0,
        "04550d5bc0e614aab45c157cf25d96f2156636bcf03298ce69ad8eab0ebd44a8",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/arithmetic_db.bad.mg"): (
        1,
        "7019f5da7bffd0bde5cd5354e92eebbff71068aaa26ca0c346756693807e4077",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/arithmetic_db.fixed.mg"): (
        0,
        "e1b1c6c7b7dd253587b8de9da96986a76834e62fe239cebbfb5b16c178cc668a",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/cache_lookup.bad.mg"): (
        1,
        "8b6f4ed79eb997d8dc111bebfcb8af326b736367873c73b6e975c54408602fc0",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/cache_lookup.fixed.mg"): (
        0,
        "af0eee16aedcc1bb2439b46b43c32bfce062fb462f928b48b4c3fb7ca7fe19cb",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/connection_pool.bad.mg"): (
        1,
        "a97350fb7a69092bd1db1ec14cbd992a9e7dbafe5e8536da7a0c48c7d60cc9da",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/connection_pool.fixed.mg"): (
        0,
        "0a3c0c78c4eb34db3c6597fd20b4fd11ba53dbbe3176f8b559120c14c9cb82d6",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/coord_pair.bad.mg"): (
        1,
        "a6758457345055b2db104f410048cf3b0c1e9da3ed85a00cdf306d4897b314c6",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/coord_pair.fixed.mg"): (
        0,
        "f2d2d9d1fe67a172d008d225af967425fdaadb075363bec1ffe1d8e857ae594a",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/coord_swap.bad.mg"): (
        1,
        "75cd3d9f0ca4e6310ee8ec4651c405e64e7ce119e5608f48b8c360dc1a25b428",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/coord_swap.fixed.mg"): (
        0,
        "88c6e96d14dfd850eab2218d2f7ac3dd6bb4cee4a47ef56396128a4b816eb9a9",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/elevator_control.bad.mg"): (
        1,
        "58505c5c215cffe1858efa618f776b9e54a1231def081ad2cb47ba7524577846",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/elevator_control.fixed.mg"): (
        0,
        "e4cc0202e9728f0b58cd1bc1214ef1ad63a3ce22e9a36a9c4b13228c003fdab6",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/knight_moves.bad.mg"): (
        1,
        "e7e8d4d1237cd15d6f35e8c0fa160f0b2360314252b08b94c342322a458da353",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/knight_moves.fixed.mg"): (
        0,
        "7a49801112563e5e7a048af4d293612f9fdada0ac32165ec87ee2c3acdce5dcd",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/local_counter.bad.mg"): (
        1,
        "9d65bd8eb053d65812bd924c54edc94bcccbc597956bd7a9e88b792b8777c579",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/local_counter.fixed.mg"): (
        0,
        "d5899f86cba835d19810d582d064613c65b388772b1cbbd22f54db0d54efdda0",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/sensor_poll.bad.mg"): (
        1,
        "4faa98b057cc6b1cb3ec2ac68169a5d873da8fe6651d34a3f30d0d5d388eb3a6",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/sensor_poll.fixed.mg"): (
        0,
        "1b46b29a02eccc5e162bcf483e69e1fa9be8046794b7b28987bab457db75a478",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/store_inventory.bad.mg"): (
        1,
        "09bf1abc9b911bb7c51f82fe79818c94071258ddeb26c3c868e8b0d4caf0f3c4",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/store_inventory.fixed.mg"): (
        0,
        "3c8e1b27b73fd16de594feb2849ac83a1cafc6d70b4dc7111615cebfa5811070",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/string_buffer.bad.mg"): (
        1,
        "55f80766b37658f069aec3508a6fdd8e844225bf1b1288b235879cc44a083c2f",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/string_buffer.fixed.mg"): (
        0,
        "5e0a9a3871b45edc4bc19ce5d94313006f5cfa4c9eac414c78a7a0abc1bd3d09",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/under_report.bad.mg"): (
        1,
        "fe0a295147bd974031323d4ce53c3a4b26416f4d6e5c3ed3dd357ecc87caa926",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/under_report.fixed.mg"): (
        0,
        "a602ba7afe7aa3be3adbd75d7d45d83f8cf9791847047117d8d626704d249f14",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/vector_alloc.bad.mg"): (
        1,
        "d9b7286775f19a8326161d30c49536e7d0cb77637e095857f35aadeef1077df2",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/vector_alloc.fixed.mg"): (
        0,
        "f3bdf7de19d1fcd99a48a6d061b306ae02fcbd90312e73c633e391e8bbac1418",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/vector_fail.bad.mg"): (
        1,
        "fee050a390e7641acb908f2722c0da69663a0f2fe88416484da48e9f99b33fdd",
    ),
    ("--no-points-to", "src/atomguard/data/corpus/vector_fail.fixed.mg"): (
        0,
        "01779da6f895600c49f2cb0939d907f13f7d647502c95b3489393d33c0345821",
    ),
    ("--no-points-to", "src/atomguard/data/programs/alternating_loop.mg"): (
        1,
        "fb92818a8423f34cd5dc6f3d9dc579d4f639ca0a2c411d21909dd34cd9b16fc9",
    ),
    ("--no-points-to", "src/atomguard/data/programs/branching_client.mg"): (
        1,
        "b28899378852846b368af02a9edd5fdefe00d456e4e6a2c5ae99ab0afe4f9904",
    ),
    ("--no-points-to", "src/atomguard/data/programs/loop_branch.mg"): (
        0,
        "b4f91afc6da7ed226db3505acd02533f52a9148554082a3ec92502986e40079c",
    ),
    ("--no-points-to", "src/atomguard/data/programs/nested_calls.mg"): (
        0,
        "5ad976e8318bbf646740612fdac9f3cd1533bd32d1c3aa30fe8232725e8a841a",
    ),
    ("--no-points-to", "src/atomguard/data/programs/recursive_pair.mg"): (
        0,
        "5bb466ccd9f0f2e083b77158873475ae4d832d9d9c31149c3463fd1205272f68",
    ),
    ("--no-points-to", "src/atomguard/data/programs/scheduler.mg"): (
        1,
        "1f1b8dd9dba6aa24fcaa953196a73c168aec38cdc0d344f6b249b6c554838a9d",
    ),
    ("--no-points-to", "src/atomguard/data/programs/straight_line.mg"): (
        1,
        "10368e18ece01cc131a701a7afe1b92568e2abce50eb80e52a7b2fe90d204050",
    ),
}
