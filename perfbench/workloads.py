"""Seeded workloads: the CLI calls each batch makes and how each is checked.

Every op is one call of the public entry point `schubfgl.cli.main(argv,
out, stdin)`.  The argv and stdin of an op come only from the workload
seed.  Each op carries its own check, run after the op and outside its
timed interval.  A check returns None when the output is right and a
message otherwise.

Expected answers come from three places:
- the independent implementations in `tests/oracles.py`, or plain-dict
  arithmetic in `polys.py`;
- inputs built so that the answer is known by construction;
- `digests.json`, recorded from the program at the commit that added
  this benchmark, for outputs no cheap oracle covers.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import polys

LAWS = ("additive", "multiplicative", "hyperbolic", "lorentz")
M2_ZERO_LAWS = ("additive", "multiplicative")

# fk5 draws its words from the set verify fk --n 5 computes: each batch
# takes, for every word length, 1/FK5_FRACTION of that length's words
# (at least one), so every batch has the suite's length mix.  Batches
# are kept short (about 0.4 s) because slowdowns on a shared machine
# come in bursts of a fraction of a second to a few seconds: the median
# of many short batches stays on the undisturbed ones.
FK5_FRACTION = 128

# The hyperbolic law at n = 5 takes 7 to 10 s per call, too long for a
# steady median within one run; the multiplicative law keeps the dense
# series products at n = 5 and takes under a second.
VDM5_ARGV = ("verify", "vandermonde", "--n", "5", "--fgl", "multiplicative", "--json")

Check = Callable[[Optional[int], str, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    stdin: str
    check: Check


def verify_catalogue() -> list[tuple]:
    """Every verify argv that `compute` can issue; digests.json covers them all."""
    out = [("verify", "gr24", "--fgl", law, "--json") for law in LAWS]
    for k, n in ((2, 4), (2, 5), (2, 6), (3, 6)):
        for law in M2_ZERO_LAWS:
            out.append(("verify", "chowk", "--k", str(k), "--n", str(n), "--fgl", law, "--json"))
    for law in LAWS:
        for n in (3, 4):
            for samples in (3, 4, 5):
                for seed in range(4):
                    out.append(
                        ("verify", "braid", "--n", str(n), "--samples", str(samples),
                         "--seed", str(seed), "--fgl", law, "--json")
                    )
        for what, n in (("ybe", 3), ("local", 2), ("local", 3), ("fk", 3), ("differ", 3), ("vandermonde", 3)):
            out.append(("verify", what, "--n", str(n), "--fgl", law, "--json"))
    return out


class Cycle:
    """Draws items in seeded shuffles, so every item comes once before any repeats."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.queue: list = []

    def next(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def all_reduced_words(oracles, n: int) -> list[tuple]:
    words = set()
    for perm in itertools.permutations(range(1, n + 1)):
        words |= oracles.brute_reduced_words(perm)
    return sorted(words, key=lambda w: (len(w), w))


def word_arg(word: tuple) -> str:
    return ",".join(map(str, word))


# ----------------------------------------------------------------------
# reference answers


class References:
    """Oracles, recorded digests and per-run caches of reference answers."""

    def __init__(self, oracles, poly_cls, digests: dict):
        self.oracles = oracles
        self.poly_cls = poly_cls
        self.digests = digests
        self._classes: dict = {}

    def kernel(self, law: str, n: int, i: int) -> dict:
        """p(x_i, x_{i+1}) = 1 - m1*x_{i+1} - m2*x_i*x_{i+1}, restricted to the law."""
        p = {((0,) * n, (0, 0)): 1}
        y = [0] * n
        y[i] = 1
        xy = list(y)
        xy[i - 1] = 1
        if law in ("multiplicative", "hyperbolic"):
            p[(tuple(y), (1, 0))] = -1
        if law in ("hyperbolic", "lorentz"):
            p[(tuple(xy), (0, 1))] = -1
        return p

    def word_class(self, law: str, n: int, word: tuple) -> dict:
        """C along the word applied to the staircase monomial.

        C_i f = d_i(f * p(x_i, x_{i+1})) with d_i the classical divided
        difference, so the oracle's product and divided difference
        give every law; the additive law is the oracle's own word map.
        """
        key = (law, n, word)
        if key not in self._classes:
            poly = self.poly_cls
            f = poly(n, {(tuple(range(n - 1, -1, -1)), (0, 0)): 1})
            if law == "additive":
                f = self.oracles.oracle_apply_word(word, f)
            else:
                for i in word:
                    f = self.oracles.classical_ddiff(
                        self.oracles.naive_mul(f, poly(n, self.kernel(law, n, i))), i
                    )
            self._classes[key] = dict(f.terms)
        return self._classes[key]

    def linear_nf(self, f: dict, n: int) -> dict:
        return dict(self.oracles.nf_linear_oracle(self.poly_cls(n, f), n).terms)

    def recorded(self, key: str) -> str:
        if key not in self.digests:
            raise KeyError(f"digests.json has no entry {key!r}")
        return self.digests[key]


def _poly_output(out: str, as_json: bool) -> dict:
    return polys.from_json_obj(json.loads(out)) if as_json else polys.parse_text(out)


def expect_poly(expected: Callable[[], dict], as_json: bool) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        if _poly_output(out, as_json) != expected():
            return "polynomial differs from the reference"
        return None

    return check


def expect_poly_digest(refs: References, key: str, as_json: bool) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        if polys.poly_digest(_poly_output(out, as_json)) != refs.recorded(key):
            return f"polynomial digest differs from {key!r}"
        return None

    return check


def expect_report(refs: References, key: str) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        obj = json.loads(out)
        if not obj["passed"]:
            return "report did not pass"
        if polys.report_digest(obj) != refs.recorded(key):
            return f"report digest differs from {key!r}"
        return None

    return check


def expect_usage_error(rc, out, err):
    if rc == 2 and err.strip():
        return None
    return f"expected exit 2 with a message, got exit {rc}"


# ----------------------------------------------------------------------
# workloads


class Fk5:
    """Hyperbolic classes of reduced words of S_5, the cases of verify fk --n 5."""

    def __init__(self, seed: int, refs: References):
        self.rng = random.Random(seed)
        self.refs = refs
        by_len: dict = {}
        for w in all_reduced_words(refs.oracles, 5):
            by_len.setdefault(len(w), []).append(w)
        self.words = {L: Cycle(self.rng, ws) for L, ws in by_len.items()}
        self.quota = {L: max(1, round(len(ws) / FK5_FRACTION)) for L, ws in by_len.items()}

    def batch(self) -> list[Op]:
        words = [self.words[L].next() for L, k in sorted(self.quota.items()) for _ in range(k)]
        self.rng.shuffle(words)
        return [
            Op("word", ("poly", "word", "--n", "5", "--word", word_arg(w)), "",
               expect_poly_digest(self.refs, "fk5 " + word_arg(w), False))
            for w in words
        ]


class Vdm5:
    """The deformed Vandermonde check at n = 5, one call per batch.

    At fixed n, law and cap the suite has no free input, so the seed
    does not change the op.
    """

    def __init__(self, seed: int, refs: References):
        self.refs = refs

    def batch(self) -> list[Op]:
        return [Op("verify", VDM5_ARGV, "", expect_report(self.refs, " ".join(VDM5_ARGV)))]


class Compute:
    """A mixed batch of small CLI commands, as a library session issues them."""

    # ops of each kind per batch, besides one table and three verify calls
    WORDS = 30
    REDUCE_BUILT = 19
    REDUCE_CLASS = 6
    EXPAND = 10
    GRPROD = 9

    def __init__(self, seed: int, refs: References, basis_files: dict):
        self.rng = random.Random(seed)
        self.refs = refs
        self.basis_files = basis_files
        self.bases = {}
        for law, path in basis_files.items():
            with open(path, encoding="utf-8") as fh:
                self.bases[law] = [polys.from_json_obj(row["poly"]) for row in json.load(fh)]
        words = {n: all_reduced_words(refs.oracles, n) for n in (3, 4, 5)}
        self.word_pool = {3: words[3], 4: words[4], 5: [w for w in words[5] if len(w) <= 5]}
        catalogue = verify_catalogue()
        # the twelve gr24/chowk runs, up to 0.4 s each, come round in a
        # cycle, so each is equally frequent whatever the run length
        self.verify_heavy = Cycle(self.rng, [a for a in catalogue if a[1] in ("gr24", "chowk")])
        self.verify_braid = [a for a in catalogue if a[1] == "braid"]
        self.verify_small = [a for a in catalogue if a[1] not in ("gr24", "chowk", "braid")]
        self.tables = Cycle(self.rng, LAWS)

    def batch(self) -> list[Op]:
        rng = self.rng
        ops = [self._word() for _ in range(self.WORDS)]
        ops += [self._reduce_built() for _ in range(self.REDUCE_BUILT)]
        ops += [self._reduce_class() for _ in range(self.REDUCE_CLASS)]
        ops += [self._expand() for _ in range(self.EXPAND)]
        ops += [self._grprod() for _ in range(self.GRPROD)]
        ops.append(self._table(self.tables.next()))
        verify = [self.verify_heavy.next(), rng.choice(self.verify_braid), rng.choice(self.verify_small)]
        ops += [Op("verify", argv, "", expect_report(self.refs, " ".join(argv))) for argv in verify]
        rng.shuffle(ops)
        return ops

    def _word(self) -> Op:
        rng = self.rng
        law = rng.choice(LAWS)
        n = rng.choice((4, 5))
        word = rng.choice(self.word_pool[n])
        as_json = rng.random() < 0.5
        argv = ("poly", "word", "--n", str(n), "--word", word_arg(word), "--fgl", law)
        argv += ("--json",) if as_json else ()
        return Op("word", argv, "", expect_poly(lambda: self.refs.word_class(law, n, word), as_json))

    def _stdin_and_flags(self, f: dict, n: int) -> tuple:
        rng = self.rng
        stdin = polys.render_json(f, n) if rng.random() < 0.5 else polys.render_text(f)
        as_json = rng.random() < 0.5
        flags = (("--n", str(n)) if rng.random() < 0.5 else ()) + (("--json",) if as_json else ())
        return stdin, flags, as_json

    def _reduce_built(self) -> Op:
        """g + h with g staircase-supported and h in S: the normal form is g."""
        rng = self.rng
        n = rng.choices((3, 4, 5, 6), weights=(3, 3, 3, 1))[0]
        top = n * (n - 1) // 2
        g: dict = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, n - k) for k in range(1, n + 1))
            polys.add_into(g, (exps, (rng.randint(0, 2), rng.randint(0, 2))), rng.choice((-5, -2, -1, 1, 3, 7)))
        h: dict = {}
        for _ in range(rng.randint(1, 2 if n == 6 else 4)):
            k = rng.randint(1, n)
            u = [0] * n
            for _ in range(rng.randint(0, top + 3 - k)):
                u[rng.randrange(n)] += 1
            mono = {(tuple(u), (rng.randint(0, 1), rng.randint(0, 1))): rng.choice((-3, -1, 1, 2))}
            h = polys.add(h, polys.mul(mono, elementary(n, k)))
        f = polys.add(g, h)
        if not f:
            return self._reduce_built()
        stdin, flags, as_json = self._stdin_and_flags(f, n)
        refs = self.refs

        def expected():
            if n <= 3 and refs.linear_nf(f, n) != g:
                raise AssertionError("nf_linear_oracle disagrees with the constructed normal form")
            return g

        return Op("reduce", ("reduce",) + flags, stdin, expect_poly(expected, as_json))

    def _reduce_class(self) -> Op:
        rng = self.rng
        law = rng.choice(LAWS)
        n = rng.choice((3, 4))
        word = rng.choice(self.word_pool[n])
        f = self.refs.word_class(law, n, word)
        stdin, flags, as_json = self._stdin_and_flags(f, n)
        key = f"nf {law} {n} {word_arg(word)}"
        return Op("reduce", ("reduce",) + flags, stdin, expect_poly_digest(self.refs, key, as_json))

    def _expand(self) -> Op:
        """Sum of c_j * basis_j plus an element of S; expand must return the c_j."""
        rng = self.rng
        law = rng.choice(LAWS)
        basis = self.bases[law]
        degs = [polys.graded_degree(next(iter(b))) for b in basis]
        d = rng.randint(0, max(degs))
        coeffs = []
        for deg in degs:
            c: dict = {}
            gap = deg - d
            for b2 in range(gap // 2 + 1) if gap >= 0 else ():
                if rng.random() < 0.6:
                    polys.add_into(c, ((), (gap - 2 * b2, b2)), rng.randint(-4, 4))
            coeffs.append(c)
        if not any(coeffs):
            j = degs.index(max(degs))
            gap = degs[j] - d
            coeffs[j] = {((), (gap, 0)): 1}
        f: dict = {}
        for c, b in zip(coeffs, basis):
            lifted = {((0, 0, 0, 0), mu): v for (_e, mu), v in c.items()}
            f = polys.add(f, polys.mul(lifted, b))
        if rng.random() < 0.5:
            # an element of S of the same graded degree leaves the coordinates alone
            k = rng.randint(1, 4)
            a = rng.randint(0, 1)
            xdeg = d + a
            if xdeg >= k:
                u = [0] * 4
                for _ in range(xdeg - k):
                    u[rng.randrange(4)] += 1
                f = polys.add(f, polys.mul({(tuple(u), (a, 0)): rng.choice((-2, 1, 3))}, elementary(4, k)))
        stdin, flags, as_json = self._stdin_and_flags(f, 4)
        argv = ("expand", "--basis", self.basis_files[law]) + flags

        def check(rc, out, err):
            if rc != 0:
                return f"exit {rc}: {err.strip()[:200]}"
            if as_json:
                got = [polys.from_json_obj(c) for c in json.loads(out)["coefficients"]]
            else:
                got = [polys.parse_text(line.split("] ", 1)[1]) for line in out.splitlines()]
            if got != coeffs:
                return "coordinates differ from the ones the input was built from"
            return None

        return Op("expand", argv, stdin, check)

    def _grprod(self) -> Op:
        rng = self.rng
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        m = n - k
        a, b = rng.randint(1, k), rng.randint(1, m)
        lam = tuple(sorted((rng.randint(0, m) for _ in range(k)), reverse=True))
        as_json = rng.random() < 0.5
        argv = ("grprod", "--k", str(k), "--n", str(n), "--rect", f"{a},{b}",
                "--lambda", ",".join(map(str, lam)), "--fgl", rng.choice(LAWS))
        argv += ("--json",) if as_json else ()
        want = smooth_product(k, n, a, b, lam)

        def check(rc, out, err):
            if rc != 0:
                return f"exit {rc}: {err.strip()[:200]}"
            if as_json:
                res = json.loads(out)["result"]
                got, expected = (None if res is None else tuple(res)), want
            else:
                # the text form prints both the zero class and the k = 1 point class as "0"
                got, expected = out.strip(), "0" if want is None else ",".join(map(str, want))
            return None if got == expected else f"got {got}, rule gives {expected}"

        return Op("grass", argv, "", check)

    def _table(self, law: str) -> Op:
        argv = ("table", "gr24", "--fgl", law, "--json")
        key = " ".join(argv)
        refs = self.refs

        def check(rc, out, err):
            if rc != 0:
                return f"exit {rc}: {err.strip()[:200]}"
            return None if table_digest(json.loads(out)) == refs.recorded(key) else "table differs"

        return Op("grass", argv, "", check)


def elementary(n: int, k: int) -> dict:
    out = {}
    for subset in itertools.combinations(range(n), k):
        exps = [0] * n
        for j in subset:
            exps[j] = 1
        out[(tuple(exps), (0, 0))] = 1
    return out


def smooth_product(k: int, n: int, a: int, b: int, lam: tuple):
    """The rectangle rule: lam must contain the dual of b^a; then dualize twice."""
    m = n - k
    threshold = (m,) * (k - a) + (m - b,) * a
    if any(x < t for x, t in zip(lam, threshold)):
        return None
    inner = [m - lam[k - 1 - i] for i in range(k)]
    return tuple(b - inner[a - 1 - i] for i in range(a)) + (0,) * (k - a)


def table_digest(rows: list) -> str:
    return polys.digest(
        [(row["lam"], row["word"], polys.poly_digest(polys.from_json_obj(row["poly"]))) for row in rows]
    )


def bad_input_probes() -> list[Op]:
    """Malformed inputs that must exit 2 with a message.

    `reduce` on 1*x[0,0,0,0,0,0,0,0,40] is left out: it ran for more
    than 60 s, and an op with no time bound cannot sit in a timed run.
    """
    def reduce_json(x, c):
        return json.dumps({"nvars": 2, "terms": [{"x": x, "mu": [0, 0], "c": c}]})

    cases = [
        (("poly", "word", "--n", "3", "--word", "5"), ""),
        (("reduce",), reduce_json([1, 0], 1.5)),
        (("reduce",), reduce_json(["1", 0], "1")),
        (("reduce",), reduce_json([True, 0], "1")),
        (("verify", "braid", "--samples", "-1"), ""),
        (("reduce",), "1*x[0,0,3000]"),
    ]
    return [Op("probe", argv, stdin, expect_usage_error) for argv, stdin in cases]


WORKLOADS = {"fk5": Fk5, "vdm5": Vdm5, "compute": Compute}
