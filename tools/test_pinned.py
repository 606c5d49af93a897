"""Pinned CLI checks. Each row of ROWS runs one bitgather call in a fresh
interpreter, with its timeout, and checks its stdout sha256 or its exit code.
Every output is a pure function of layout, model and seed, so a digest holds
on every platform and Python. Run from the repository root:

    PYTHONPATH=src python -m pytest -q -W error tools/test_pinned.py
"""

import functools
import hashlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

REPO = Path(__file__).resolve().parents[1]


def uniform(size: int, seed: int = 0, width: float = 10, height: float = 10) -> list[tuple[float, float]]:
    r = random.Random(seed)
    return [(r.uniform(0, width), r.uniform(0, height)) for _ in range(size)]


def clustered(parents: int, children: int, seed: int = 0) -> list[tuple[float, float]]:
    """A Matern cluster layout: parents uniform in a 10 x 10 square, each with
    its children uniform in the disk of radius 0.3 around it (drawn in the
    disk's square, its corners refused), listed a cluster at a time."""
    r = random.Random(seed)

    def child(x: float, y: float) -> tuple[float, float]:
        while True:
            dx, dy = r.uniform(-0.3, 0.3), r.uniform(-0.3, 0.3)
            if dx * dx + dy * dy <= 0.09:
                return x + dx, y + dy

    return [child(x, y) for x, y in [(r.uniform(0, 10), r.uniform(0, 10)) for _ in range(parents)]
            for _ in range(children)]


def circle(size: int, seed: int = 0) -> list[tuple[float, float]]:
    """Nodes on the circle of radius 5 about (5, 5): the rational point
    ((1 - t*t) / (1 + t*t), 2t / (1 + t*t)) for t uniform in [-1, 1], its x
    mirrored at random. Only correctly rounded arithmetic, no libm call, so
    the file is the same on every platform."""
    r = random.Random(seed)

    def point(t: float, side: float) -> tuple[float, float]:
        return 5 + side * (1 - t * t) / (1 + t * t), 5 + 5 * 2 * t / (1 + t * t)

    return [point(r.uniform(-1, 1), 5.0 if r.random() < 0.5 else -5.0) for _ in range(size)]


def twins() -> list[tuple[float, float]]:
    nodes = uniform(61)
    nodes.insert(40, nodes[7])  # node 40 sits on node 7
    return nodes


def layout_text(nodes: list[tuple[float, float]]) -> str:
    """A layout's placement file: the header, then id,x,y for each node, each coordinate as its repr."""
    return "id,x,y\n" + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(nodes))


# Each header echoes topology=<name>, so a renamed layout changes every digest.
LAYOUTS = {
    **{f"n{size}.csv": functools.partial(uniform, size) for size in (8, 10, 12, 14, 16, 17, 40, 50, 500, 2000, 2001)},
    "n200_seed3.csv": functools.partial(uniform, 200, 3),
    "twins.csv": twins,
    # Layouts where the cell grid pays less or not at all: 40 nodes per
    # 0.3-radius disk, a 1000 x 1 corridor, 2000 nodes in a 1 x 1 square
    # (every block covers it), a circle, and uniform nodes in x order (each
    # cell's nodes near one another in the file).
    "clustered2000.csv": functools.partial(clustered, 50, 40),
    "corridor1000.csv": functools.partial(uniform, 1000, 0, 1000, 1),
    "dense2000.csv": functools.partial(uniform, 2000, 0, 1, 1),
    "circle1000.csv": functools.partial(circle, 1000),
    "xsorted2000.csv": lambda: sorted(uniform(2000)),
}


class Row(NamedTuple):
    layout: str
    argv: str  # "{order}" stands for the layout's ids shuffled by random.Random(0)
    timeout: float  # seconds, interpreter start included
    expect: str | int  # a stdout sha256 (and exit 0), or a nonzero exit code; a refusal writes no stdout
    stderr: str | None = None  # all that a refusal prints, where pinned


SINGULAR = "error: d = 0 with negative exponent is singular"
# The spanning MIN pair at N=2000, and the greedy_prim run whose total it must equal.
SPANNING_MIN = Row("n2000.csv", "optimize --strategy brute_force --rule min", 60,
                   "04a6e87f88ccc0ce5e639fee357d807e6c7964636c800b123875aa0d7c20ffb6")
PRIM_MIN = Row("n2000.csv", "optimize --strategy greedy_prim --rule min", 60,
               "f9da72b4bcc48b936d21dd3365312f980954edcb344ca5e7397d4da985ba80b6")

SPARSE_GRID_ARGV = (
    "bits --model 2 --n 12 --beta 0.5",
    "evaluate --model 2 --n 12 --beta 0.5 --rule max --order {order}",
    "evaluate --model 2 --n 12 --beta 0.5 --rule additive --order {order}",
    "optimize --strategy greedy_prim --model 2 --n 12 --beta 0.5 --rule min",
)
# Each layout's digests, in SPARSE_GRID_ARGV's order.
SPARSE_GRID = {
    "clustered2000.csv": (
        "8eb337af3ede14d2ca770fe86dfec186e192a241332aba04268adda44255740b",
        "4dc565ec411f56ba32b46df00663bf51e0a872fa25d6994d7d723d27b36d966b",
        "7c66d54ac969a098110b4b9e124a6ce4e3637036924ac0cc96cf93f23e7c34a1",
        "13fbbbab4102e8547343c15721a92972b707a199fce134e9e781746de376acd7",
    ),
    "corridor1000.csv": (
        "7828c0f5a0c71af86e1586c07ae71cffa7a63d62d2a33e2e05a8bb49061b64fc",
        "68c7373c6ea239eeeab3aaa45da52a063300fd07bb5a7e899c27b76e0608a5ad",
        "f6fce60104bef23422ee3553514c7c9f96385dec1e209d9a761fbbc22451e360",
        "eb5afb1498351db05be1353c0608638bfaee7efd6e14f4ad17f8d8cd3ed92bbc",
    ),
    "dense2000.csv": (
        "e75243ca010e95cf6fc1e8dc8f31afc04cc5795ad436451ba0083a694f4aaa79",
        "ae44b759d754a7461b479f24548eb99c8155d388c8a208abbbac6c3bc862fa10",
        "e6b5348e87a4f1738736cd6e039df582e41768ac6ee14029f7ad9a7ae7ae56f3",
        "cd1f5f710ed2590dcdae69c6286321ab36b303537c11f6b27724f771d86dd08f",
    ),
    "circle1000.csv": (
        "a2e3f3e47b724c449f141add5b607511f41b4244f0d2ee66df10d6b73245709f",
        "e7c1528d1bb6f199b498d0f99a268628fdb27eda699849f99c5035334efa7350",
        "8e847952f319b960d304b24f713bfe10032351417b56f8c2089ca1171fd9b61f",
        "ed2cbf7b15dd38054fa41fd98574e8d812ff3121ae1647aa238e5fcba60baa31",
    ),
    "xsorted2000.csv": (
        "9060a93b64e7b3466fa05f494432625a1684d9756fc17f216c30f1eb370b3084",
        "feaa4ba5a12f3c010bbb77cf83d54aeb0935fcdafec75b4285fcbcca69e0e850",
        "7fa918957e3c4fb379d230b63dc00d33c4a605d53110fed492b79256d68312be",
        "b8bd5f94d73a7af3a3a1ff742c2b3cb699e3cfd42038e4623e4055321461d015",
    ),
}

# Times quoted below were measured on a 2-vCPU Xeon VM under Python 3.11.7.
ROWS = [
    # Exhaustive stats, under every rule, and brute force outside the two
    # spanning-tree pairs pass over the 2**N polled sets instead of the N!
    # schedules; the spanning pairs descend one path by an exact bound. Each
    # call at N=10 takes about 0.1-0.15 s, a hard pair at N=14 about 0.25 s
    # and exhaustive additive stats at N=16 (the limit) about 0.6-1 s, since
    # the pass reads each ADDITIVE budget off exact integer sums (1.3-2.1 s
    # when each was folded afresh, when these digests were recorded). N=17
    # is refused before any budget is computed.
    Row("n10.csv", "stats --mode exhaustive --model 1 --rule min", 5,
        "fdc2d3f5da15e4ede46234d32e7edf929a6207da4116d74764d081863b06562a"),
    Row("n10.csv", "stats --mode exhaustive --model 1 --rule max", 5,
        "59c4530963db74be37f16bb3134e5eefcca1b20ba175d527750ac84ef242abeb"),
    Row("n10.csv", "stats --mode exhaustive --model 2 --rule additive", 5,
        "21d2518b38e81328bbfeae727de87a68240ced025965fe956cb2393b6d20794e"),
    Row("n10.csv", "optimize --strategy brute_force --model 1 --rule min --objective minimize", 5,
        "0601c3323544f9b2536c5807e8e9a1ba7c08feb1fb65c0bea90fee90a271679b"),
    Row("n10.csv", "optimize --strategy brute_force --model 1 --rule min --objective maximize", 5,
        "e17f193a93b1ff77949bc5e7437e5baca2c970b4c8d3395012a2cb217cd80d68"),
    Row("n10.csv", "optimize --strategy brute_force --model 1 --rule max --objective minimize", 5,
        "a79f4a555f769bc0d7161eaa8a5376098dced2d5fb84b368d624a76f08bb7b40"),
    Row("n10.csv", "optimize --strategy brute_force --model 1 --rule max --objective maximize", 5,
        "e013e47335b6d564e7e764ab275f9250482020c0bb26313f4396fb4334a9cfdb"),
    Row("n10.csv", "optimize --strategy brute_force --model 2 --rule additive --objective minimize", 5,
        "c47e5eaffc1f5c34dd893e48ad602770f3327b7494665e870de14b5ee28d9540"),
    Row("n10.csv", "optimize --strategy brute_force --model 2 --rule additive --objective maximize", 5,
        "4fd8ce7335cac5179c4d5bb9c68819d6162b55b5c2e9957d16f0f735892f49cc"),
    Row("n14.csv", "optimize --strategy brute_force --model 2 --n 12 --beta 0.5 --rule additive --objective minimize", 5,
        "fd2399119b05ba9efa8e1a8f2a8323499e58aa3be64fa940e98376a0ec3f176c"),
    Row("n14.csv", "optimize --strategy brute_force --model 2 --n 12 --beta 0.5 --rule additive --objective maximize", 5,
        "9373df42f091c8c610a648f10a66a85653a1ec76dc353cad528f5f980c1cd44b"),
    Row("n14.csv", "optimize --strategy brute_force --model 1 --beta 0.5 --rule min --objective maximize", 5,
        "d8f5f4b94c3db4a448d5792dcd7bea762346d95fe4ee28f84637347fd5506858"),
    Row("n16.csv", "stats --mode exhaustive --model 2 --rule additive", 10,
        "aa896bff2ce66e9b9af446ef5d32e2e74693ccc8ccaf18176e64acb8e4cab5d8"),
    # The integer pass at its edges, digests recorded when each budget was
    # folded afresh: at alpha = 1e-320 and beta = -20 some sums overflow to
    # inf and the staircase's last step is inf (min 16 < mean 30.93 < max 48);
    # at n = 2**53 the staircase could have more steps than the pass has
    # budgets, so each sum is labelled by decay_bits; and the benchmark's
    # enumerate model at the limit.
    Row("n10.csv", "stats --mode exhaustive --model 2 --n 8 --alpha 1e-320 --beta -20 --rule additive", 10,
        "4a9315a1991e09eaab42037b3124f1c54a81ad9e5d8cb05852af4e2d32f293bf"),
    Row("n10.csv", "optimize --strategy brute_force --model 2 --n 8 --alpha 1e-320 --beta -20 --rule additive "
        "--objective minimize", 10, "234c3ae5300f617954a8b3121d17d30e0507f736b8a8e9c0a11a127d5a01389a"),
    Row("n10.csv", "stats --mode exhaustive --model 2 --n 9007199254740992 --beta 0.05 --rule additive", 10,
        "0282ec13976ce9cbcedacf85d5951a404b701b66a4275edf77f434e8702d1afa"),
    Row("n16.csv", "stats --mode exhaustive --model 2 --n 8 --beta 0.05 --rule additive", 10,
        "3b022ba8fda0ed945ceaf8cfabaca415fe6b45fb31388874005f548a331982e0"),
    # Under MIN and MAX the pass reads each budget off the same exact integer
    # sums, each pair budget weighing one digit: about 0.55-0.85 s each at
    # N=16 (0.8-1.45 s when each budget was folded afresh per set, when
    # these digests were recorded).
    Row("n16.csv", "stats --mode exhaustive --model 1 --rule min", 10,
        "7fcaa6fd10491cc1b4471c51a643524a993df15d0449475f8dd3680a5cbc761f"),
    Row("n16.csv", "stats --mode exhaustive --model 1 --rule max", 10,
        "71fddb5a2128291a1b22aa331b16272424cb731f00de48660758a8a75efe4287"),
    Row("n16.csv", "optimize --strategy brute_force --model 1 --rule max --objective minimize", 10,
        "13686216611424a67eaecaed9f8c64cbbabff528e918ba3acfb470d03607218e"),
    Row("n17.csv", "stats --mode exhaustive --model 2 --rule additive", 5, 4),
    # The spanning-pair brute force reruns greedy_prim's Prim loop keyed by
    # an exact bound, in O(N**2) time and O(N) memory. At N=2000, the largest
    # N it accepts, each takes about 1.9-2.7 s and greedy_prim about 0.85-1.1 s, so
    # 60 s catches a return to the O(N**3) descent. The first two digests
    # were recorded with the descent that scanned the whole order per poll.
    # Under the default model every Prim link on n2000.csv ties (MIN: all 1;
    # MAX: all 5), so these two cannot see a wrong hop walk in
    # schedule._descent. The next three run models whose tree links differ:
    # deleting the left-hand walk changes the MIN one (1-12 bit links) and
    # the n200_seed3.csv one, deleting the right-hand walk all three.
    SPANNING_MIN,
    Row("n2000.csv", "optimize --strategy brute_force --rule max --objective maximize", 60,
        "b98f0546d94ca2d23f8c18a6b7282ee3a19d8c58ab30b4f6c4bc15044946fa4a"),
    Row("n2000.csv", "optimize --strategy brute_force --model 2 --n 12 --beta 50 --rule min", 60,
        "7d3b472c47c235faa1c8460991fe3d099e151d783c8d27120e57d13481e92b20"),
    Row("n2000.csv", "optimize --strategy brute_force --model 1 --n 16 --rule max --objective maximize", 60,
        "51b97922cceb9b63c199eac1170afabb3bf1725d6298694a53ab89f4e2d4d593"),
    Row("n200_seed3.csv", "optimize --strategy brute_force --model 1 --n 16 --beta 1 --rule max --objective maximize", 60,
        "7a682f8fe468bbcb5b61205193d6818fd2f4aeaff327aa7cf0e47ffb47b8a9bb"),
    PRIM_MIN,
    Row("n2001.csv", "optimize --strategy brute_force --rule min", 5, 4),
    # Shuffled orders at N=500, which the benchmark's field row does not run.
    # Each takes about 0.1-0.25 s: 5 s catches a complexity regression, not a
    # constant factor, which the benchmark measures.
    Row("n500.csv", "evaluate --model 2 --rule additive --order {order}", 5,
        "885eef2471e6d3052eda4468338a2268821a99a4052d36b8fc7a58c9c1ffbd0f"),
    Row("n500.csv", "simulate --model 2 --rule additive --order {order}", 5,
        "ab98baa0de9d0785166f8caf397c56e4ba59e86390cafcff340bb2269b227f08"),
    Row("n500.csv", "simulate --model 2 --rule min --order {order}", 5,
        "b2f7bc2d0bc82f92b02354473e63874fb548a5178c96e7c8fc6d9878e2b401b0"),
    # Under MAX with beta >= 0 the farthest earlier node sets each budget; at
    # this slow decay the budgets vary with that distance, so reading the
    # nearest instead changes both digests.
    Row("n500.csv", "evaluate --model 2 --n 12 --beta 0.05 --rule max --order {order}", 5,
        "07a413b7d2b5ca5527f27cf5e01ed0880b93af013e9ac0141f4919ccf8889eae"),
    Row("n500.csv", "simulate --model 2 --n 12 --beta 0.05 --rule max --order {order}", 5,
        "7db44df0dae71955b7076b3c80974f4cc30e89d83d253e336d3586addf2b28fb"),
    # A MIN walk reads each node's budget off its nearest earlier node, and
    # every simulate decodes against it, from one sorted sweep per order
    # (Topology.nearest_links); these digests were recorded with a row of
    # distances per node. Each call takes about 0.15-0.2 s, so 10 s catches a
    # return to O(N**2) Python-level work only with a large constant.
    Row("n2000.csv", "simulate --model 2 --rule min --smoothness 0.5,2 --seeds 1,2", 10,
        "d593021442e3bf44a7bf60c7416a54f54e8f9ec363faa6b8ea8fba2de2a3c3d9"),
    Row("n2000.csv", "evaluate --model 2 --rule min --order {order}", 10,
        "e6936061f5350a8d5b421b8aa23e10db421bf5e5eefb90c0141ef2bcddcfad9a"),
    # bits reads each node's row to the nodes after it off the model's step
    # table (n=12: 64n + 2 = 770 budget calls, far below the 1,999,000 pairs);
    # the digest was recorded when the whole mirrored table was built before
    # printing. Past the last step (2.23) every pair has the top budget, so a
    # cell grid computes only the pairs near enough to be below it: about
    # 0.6 s, 0.9 s when it computed every pair; 10 s catches work above O(N**2).
    Row("n2000.csv", "bits --model 2 --n 12 --beta 0.5", 10,
        "ed4195876175df5a3dfef0203026a0a094e800db9b22a07b91ec816f960f78e9"),
    # Digests recorded when every pair was computed: a last step of 0.77,
    # where the grid computes about 3% of the pairs (0.65 s, 1.05 s before);
    # a power law whose last step (7) spans most of the layout, where the
    # rows are read off the step table as before (about 1 s); and beta < 0
    # with alpha = 1, where every budget clamps to 0 and no distance is
    # computed (0.4 s, 0.9 s before).
    Row("n2000.csv", "bits --model 2 --n 20 --alpha 0.3 --beta 3", 10,
        "4d75a106a2467d99c22e98c99e2646e81cfafa988b35fc60fff3fe1d9a91f6da"),
    Row("n2000.csv", "bits --model 1 --n 8 --beta 1", 10,
        "6309d38688f990b6afd2dabbdf4c5a501c09da05ed4e94a0bb51041d8ea329bd"),
    Row("n2000.csv", "bits --model 2 --beta -0.5", 10,
        "85969b83c0be3a6e98a8b4b106fa48306ce665390367f3fece3414b8c0f818cd"),
    # Sampled stats build the mirrored pair table from the rows bits reads:
    # on the field model (last step 2.23) the cell grid computes only the
    # near pairs (about 0.9-1.1 s, 1.05-1.35 s when the table computed every
    # pair), and beta < 0 with alpha = 1 is a constant staircase whose table
    # computes no distance (about 0.5-0.55 s, 0.95-1.1 s before). Digests
    # recorded when the table computed every pair; 10 s catches work far
    # above O(N**2).
    Row("n2000.csv", "stats --mode sampled --samples 200 --model 2 --n 12 --beta 0.5 --rule min", 10,
        "da9d240936fb68e49f9cf57c44ff037489b0f3212db8ebf400ed126f4f7dbbc5"),
    Row("n2000.csv", "stats --mode sampled --samples 200 --model 2 --beta -0.5 --rule max", 10,
        "67aa5a246c82c9796348f5a0d37d2f54880409b0c62381e5cd5c8d2a9bc6de4a"),
    # Sampled schedules come from the package's own Fisher-Yates draws over
    # random.Random(seed).getrandbits, so these digests, recorded with
    # random.Random.shuffle's draws, hold on every Python. Each N=40 and N=62
    # row takes about 0.1-0.2 s; their 30 s only stops a hang.
    Row("n40.csv", "stats --mode sampled --samples 300 --model 2 --n 12 --beta 0.5 --seed 11 --rule min", 30,
        "9ae9636965f3a169f4a6108795cd5c1b188dc241d3af3e87487bc1528970b7ae"),
    Row("n40.csv", "stats --mode sampled --samples 300 --model 2 --n 12 --beta 0.5 --seed 11 --rule max", 30,
        "3e04aae2a77db4d128c474a5a9461b9723fe753afad37ed39c1427c7cbdc97b4"),
    Row("n40.csv", "stats --mode sampled --samples 300 --model 2 --n 12 --beta 0.5 --seed 11 --rule additive", 30,
        "d90d728312e753636f4a1be1eef6b4aad6dad39495aa3b2f703e7fb514d23f07"),
    Row("n40.csv", "optimize --strategy random_restart --restarts 300 --model 2 --n 12 --beta 0.5 --seed 11 "
        "--rule min --objective maximize", 30, "29d458d93421186e69a423778d748ecc45bfc67e9e1436d6bf42f62b7b8af3e5"),
    # The benchmark's search shape (model 1, MAX) at N=200, under both
    # ranked-scan rules, and random_restart reporting off its scoring table;
    # recorded with the forward scan over a per-order position list and the
    # closing evaluate walk. Each takes about 0.2-0.3 s.
    Row("n200_seed3.csv", "stats --mode sampled --samples 2000 --model 1 --n 8 --beta 1 --seed 5 --rule max", 30,
        "708227474079665c2d1897e1a2bbbda7e3bdd792c70a2084150aa39a7cba9528"),
    Row("n200_seed3.csv", "stats --mode sampled --samples 2000 --model 1 --n 8 --beta 1 --seed 5 --rule min", 30,
        "1b7b6839af06428973404b39bed70590dffc0c772ce3e1d95037da2e107ddf2c"),
    Row("n200_seed3.csv", "optimize --strategy random_restart --restarts 2000 --model 1 --n 8 --beta 1 --seed 5 "
        "--rule max --objective minimize", 30, "53ed3576413d41c751b5b8ce3c99c4940ba1570a2ca9367bc801c8c2c186b58a"),
    # Paths from a distance to a budget that no benchmark row reaches, each
    # digest recorded before the models' budgets became plain methods: forced
    # greedy_prim (one pair table under MIN and MAX, a budget table and a
    # decay-term table under ADDITIVE); bits with n=13, where 64n + 2 = 834
    # >= 780 pairs, so each pair calls the budget (n=12 reads the step
    # table); and ADDITIVE evaluate on a shuffled order.
    Row("n40.csv", "optimize --strategy greedy_prim --force-greedy --model 2 --n 12 --beta 0.5 --rule min "
        "--objective maximize", 30, "f0bbdd5057823c0a9ce38be4d4fe19c223bd68bf10ffe5d8dc0e79e112de523f"),
    Row("n40.csv", "optimize --strategy greedy_prim --force-greedy --model 2 --n 12 --beta 0.5 --rule max "
        "--objective minimize", 30, "c106b7d8af8126abe93a10b0362bd800894969db27184777d899e2c62f40aca4"),
    Row("n40.csv", "optimize --strategy greedy_prim --force-greedy --model 2 --n 12 --beta 0.5 --rule additive "
        "--objective minimize", 30, "c03e769c326a4e31091b8214e0ac68d759952f22799f104ef2ecf0f6f0e46921"),
    Row("n40.csv", "bits --model 2 --n 13 --beta 0.5", 30,
        "3d9eb2ab2a3da5f8b59c305e08ae64be8e78decc542b1b9ec981cc12a67aaa0e"),
    Row("n40.csv", "evaluate --model 2 --n 12 --beta 0.5 --rule additive --order {order}", 30,
        "e065ded315c33a6f2061c1dff46e63597c68c7dd6ed8e8578e9885efc22f479c"),
    # A power law with beta < 0 is singular at d = 0, so two coincident nodes
    # are refused from every path before the first byte of stdout. At N=62
    # with n=5 the pair rows and Prim read the step table (64n + 2 = 322
    # calls < 1891 pairs), which must still see the 0; a MIN-rule walk reads
    # each node's farthest distance and must check for coincident nodes too,
    # and a MAX-rule walk reads its nearest off the sorted sweep.
    Row("twins.csv", "bits --beta -0.5", 30, 2, SINGULAR),
    Row("twins.csv", "evaluate --beta -0.5 --rule min --order {order}", 30, 2, SINGULAR),
    Row("twins.csv", "evaluate --beta -0.5 --rule max --order {order}", 30, 2, SINGULAR),
    Row("twins.csv", "simulate --beta -0.5 --rule min", 30, 2, SINGULAR),
    Row("twins.csv", "optimize --strategy greedy_prim --beta -0.5 --rule min", 30, 2, SINGULAR),
    Row("twins.csv", "optimize --strategy brute_force --beta -0.5 --rule min", 30, 2, SINGULAR),
    # The field model on the layouts where the grid pays less: bits, the
    # farthest-partner and decay-term walks, and the MIN Prim order, each
    # 0.3-1.5 s. The digests were recorded before any of these paths changed:
    # they pin today's outputs, and the hypothesis oracles carry correctness.
    *(Row(layout, argv, 10, digest) for layout, digests in SPARSE_GRID.items()
      for argv, digest in zip(SPARSE_GRID_ARGV, digests)),
]


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    """run(row): the row's finished call, made once per session."""
    where, orders = tmp_path_factory.mktemp("layouts"), {}
    for name, make in LAYOUTS.items():
        nodes = make()
        (where / name).write_text(layout_text(nodes))
        ids = [*range(len(nodes))]
        random.Random(0).shuffle(ids)
        orders[name] = ",".join(map(str, ids))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    @functools.cache
    def call(row: Row) -> subprocess.CompletedProcess:
        argv = [sys.executable, "-m", "bitgather.cli", *shlex.split(row.argv.format(order=orders[row.layout]))]
        return subprocess.run([*argv, "--topology", row.layout], cwd=where, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=row.timeout)

    return call


@pytest.mark.parametrize("row", [pytest.param(row, id=f"{row.layout} {row.argv}") for row in ROWS])
def test_row(run, row):
    got, call = run(row), f"bitgather {row.argv} --topology {row.layout}"
    if isinstance(row.expect, str):
        digest = hashlib.sha256(got.stdout).hexdigest()
        assert (got.returncode, digest) == (0, row.expect), f"{call}: exit {got.returncode}, sha256 {digest}"
        return
    assert got.returncode == row.expect, f"{call}: exit {got.returncode}\n{got.stderr.decode()}"
    assert got.stdout == b"", f"{call} wrote to stdout before its error"
    if row.stderr is not None:
        assert got.stderr.decode() == row.stderr + "\n", f"{call}: {got.stderr.decode()}"


def test_every_success_row_pins_a_digest():
    """A row that expects exit 0 would pin nothing of what the call writes."""
    assert [row for row in ROWS if row.expect == 0] == []


def test_spanning_brute_force_totals_what_greedy_prim_totals(run):
    """n plus the minimum spanning tree weight, read off the two rows' stdout."""
    totals = [[s for s in run(row).stdout.splitlines() if s.startswith(b"# total=")] for row in (SPANNING_MIN, PRIM_MIN)]
    assert len(totals[0]) == 1 and totals[0] == totals[1], totals


# Each workload's full-size outputs against bench/expected.json, one pass
# each (bench/test_smoke.py runs tiny sizes). A layout holds its positions
# only, and bits holds only the lines it has not yet written, so field's
# traced peak is about 1.6 MB; 2.9 MB means bits holds the mirrored N x N
# table again. Sampled stats sum each total as it is drawn, so search peaks
# at about 0.1 MB; 0.28 MB means the totals are kept again.
@pytest.mark.parametrize("workload, peak_mb", [("enumerate", math.inf), ("search", 0.15), ("field", 2.5)])
def test_full_size_bench_pass(workload, peak_mb):
    argv = [sys.executable, str(REPO / "bench" / "run.py"), *f"--workload {workload} --seed 0 --seconds 0 --trace 0".split()]
    got = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    assert got.returncode == 0, got.stderr.decode()
    result = json.loads(got.stdout.splitlines()[-1])
    assert result["correct"] is True, result["problems"]
    assert result["metrics"]["peak_mem_mb"]["value"] <= peak_mb, result["metrics"]
