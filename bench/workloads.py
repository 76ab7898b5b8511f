"""Seeded query lists for the three benchmark workloads.

A workload is a list of rounds; every round has the same slots (the
same commands on the same groups under the same budgets), and the seed
only picks the words, exponents and cases inside each slot.  That keeps
the mix, and so the cost, alike across seeds while the inputs differ.

A query is a plain dict, so two generations compare byte for byte:

* ``cmds``: argument lists for ``python -m braidkernel``; with
  ``pipe`` the first command's stdout feeds the second, otherwise they
  run one after the other and each earlier command must exit 0;
* ``stdin``: text piped into the first command;
* ``expect``: ``exit`` is the decided exit code the math requires (0 or
  1), or None when no decided answer exists (an infinite group under a
  coset budget); ``stdout``, when present, is a regular expression the
  stripped output of the last command must match in full.  Exit 2
  ("undecided") is never a failure.
"""

from __future__ import annotations

import random
import re

import groups as G

WORKLOADS = ("finite", "certify", "pipeline")

# Seconds one round takes, timed on a 2-core machine at the commit that
# added the benchmark.  The round count follows from --seconds through
# these constants only, so both sides of a comparison run the same queries.
NOMINAL_ROUND_S = {"finite": 7.0, "certify": 5.5, "pipeline": 4.5}


def _query(family, cmds, stdin="", exit=None, stdout=None, pipe=False, files=None):
    return {"family": family, "cmds": cmds, "pipe": pipe, "stdin": stdin,
            "files": files or {}, "expect": {"exit": exit, "stdout": stdout}}


def _random_word(rng: random.Random, g: G.Group, length: int) -> G.Letters:
    out: list[int] = []
    while len(out) < length:
        x = rng.randrange(2 * len(g.gens))
        if not out or out[-1] != x ^ 1:
            out.append(x)
    return tuple(out)


def _insert_relators(rng: random.Random, g: G.Group, word: G.Letters, count: int) -> G.Letters:
    """Insert ``count`` relators (rotated, possibly inverted): equal by construction."""
    for _ in range(count):
        rel = rng.choice(g.relators)
        k = rng.randrange(len(rel))
        rel = rel[k:] + rel[:k]
        if rng.random() < 0.5:
            rel = G.inverse(rel)
        pos = rng.randint(0, len(word))
        word = G.free_reduce(word[:pos] + rel + word[pos:])
    return word


def _separated_word(rng, g, model, length) -> G.Letters:
    """A word the model maps to a non-identity element: provably not 1 in g."""
    while True:
        x = _random_word(rng, g, length)
        if not model.is_identity(model.value(x)):
            return x


def _noncentral_word(rng, g, model, length) -> G.Letters:
    while True:
        x = _random_word(rng, g, length)
        if not model.commutes_with_generators(x):
            return x


def _decided_pair(rng, g, model, length):
    """A pair decided by a faithful model: equal by insertion half the time."""
    u = _random_word(rng, g, length)
    if rng.random() < 0.5:
        v = _insert_relators(rng, g, u, rng.randint(1, 2))
    else:
        v = G.mul(u, _random_word(rng, g, 2))
    return u, v, 0 if model.value(u) == model.value(v) else 1


def _equal_args(g, u, v, *mode):
    return ["equal", *mode, "--lhs", g.fmt(u), "--rhs", g.fmt(v)]


def _central_tau(rng, g, n, inserts=1) -> G.Letters:
    """A conjugate of tau_n with relator insertions: central by the paper's theorem."""
    c = _random_word(rng, g, rng.randint(1, 2))
    return _insert_relators(rng, g, G.mul(c, G.tau(g, n), G.inverse(c)), inserts)


# finite ---------------------------------------------------------------------------

class _Finite:
    def __init__(self):
        self.q8 = G.quaternion()
        self.p2 = G.pure_braid_rp2(2)
        self.sym = {n: G.coxeter_symmetric(n) for n in (5, 6, 7)}
        self.models = {id(self.q8): G.quaternion_model(self.q8), id(self.p2): G.p2_model(self.p2)}
        for n, g in self.sym.items():
            self.models[id(g)] = G.symmetric_model(g, n)
        self.rp2q = {(3, 2): G.rp2_power_quotient(3, 2), (3, 4): G.rp2_power_quotient(3, 4),
                     (4, 2): G.rp2_power_quotient(4, 2), (3, 6): G.rp2_power_quotient(3, 6)}
        self.rp2q_models = {k: G.rp2_models(g, k[0]) for k, g in self.rp2q.items()}
        self.p3 = G.pure_braid_rp2(3)

    def round(self, rng: random.Random, r: int) -> list[dict]:
        qs = []
        q, s = rng.randint(2, 9), rng.randint(2, 9)
        lat = G.torus_lattice(q, s)
        lat_model = G.lattice_model(lat, q, s)
        for g, order in ((self.q8, 8), (self.p2, 8), (self.sym[5], 120), (self.sym[6], 720),
                         (self.sym[7], 5040), (lat, q * s)):
            qs.append(_query(f"order.{g.name}", [["order"]], g.text(), 0, re.escape(str(order))))

        for g in (self.sym[7], self.q8):
            model = self.models[id(g)]
            w = _random_word(rng, g, rng.randint(6, 10))
            if rng.random() < 0.5:  # a relator-inserted identity: central
                w = _insert_relators(rng, g, (), 1)
            qs.append(_query(f"central.{g.name}", [["central", "--element", g.fmt(w)]], g.text(),
                             0 if model.commutes_with_generators(w) else 1))
        for key in ((3, 4), (4, 2)):
            g = self.rp2q[key]
            qs.append(_query(f"central.tau.{g.name}",
                             [["central", "--element", g.fmt(_central_tau(rng, g, key[0]))]],
                             g.text(), 0))
        g = self.rp2q[(3, 4)]
        w = _noncentral_word(rng, g, self.rp2q_models[(3, 4)], rng.randint(4, 8))
        qs.append(_query(f"central.noncentral.{g.name}", [["central", "--element", g.fmt(w)]],
                         g.text(), 1))

        for g in (self.sym[7], self.p2):
            u, v, verdict = _decided_pair(rng, g, self.models[id(g)], rng.randint(6, 12))
            qs.append(_query(f"equal.table.{g.name}", [_equal_args(g, u, v, "--table")],
                             g.text(), verdict))
        u, v, verdict = _decided_pair(rng, lat, lat_model, rng.randint(6, 12))
        qs.append(_query("equal.table.lattice", [_equal_args(lat, u, v, "--table")], lat.text(), verdict))
        for key in ((3, 4), (4, 2)):
            g = self.rp2q[key]
            u = _random_word(rng, g, rng.randint(6, 10))
            v = _insert_relators(rng, g, u, rng.randint(1, 3))
            qs.append(_query(f"equal.table.inserted.{g.name}", [_equal_args(g, u, v, "--table")],
                             g.text(), 0))
        for key in ((3, 4), (3, 2)):
            g = self.rp2q[key]
            u = _random_word(rng, g, rng.randint(6, 10))
            v = G.mul(u, _separated_word(rng, g, self.rp2q_models[key], 3))
            qs.append(_query(f"equal.table.separated.{g.name}", [_equal_args(g, u, v, "--table")],
                             g.text(), 1))

        # budget-exhausted enumerations: P3(RP2) is infinite, so "order"
        # has no correct decided answer; tau stays central in any quotient
        qs.append(_query("order.capped.P3(RP2)", [["order", "--max-cosets", "40000"]],
                         self.p3.text(), None))
        qs.append(_query("central.capped.P3(RP2)",
                         [["central", "--element", self.p3.fmt(_central_tau(rng, self.p3, 3)),
                           "--max-cosets", "40000"]], self.p3.text(), 0))
        g = self.rp2q[(3, 6)]
        qs.append(_query(f"central.capped.{g.name}",
                         [["central", "--element", g.fmt(_central_tau(rng, g, 3)),
                           "--max-cosets", "40000"]], g.text(), 0))

        for g, model in [(g, self.models[id(g)]) for g in (self.sym[5], self.sym[7], self.q8)] + [
                (lat, lat_model)]:
            u, v, verdict = _decided_pair(rng, g, model, rng.randint(6, 12))
            qs.append(_query(f"equal.rewrite.{g.name.split('/')[0]}",
                             [_equal_args(g, u, v, "--rewrite")], g.text(), verdict))
        return qs


# certify --------------------------------------------------------------------------

CERTIFY_REWRITE = ("--rewrite", "--max-rules", "150")
CERTIFY_SEARCH = ("--search", "--max-word-len", "12", "--max-nodes", "4000")
_FAMILIES = ("bij", "conj", "braidlike", "tau")


class _Certify:
    """P3(RP2) pairs from the paper's identities, by rewriting and by search.

    The identity instances (index pair, the generator tau is commuted
    with) cycle with the round and are not conjugated: whether a partial
    rewriting system or a bounded search decides a pair depends on the
    exact words, and the share decided should not depend on the seed.
    The seed picks the inserted, separated and P2(RP2) pairs, built so
    their verdicts are decided (or not) the same way on every seed.
    """

    def __init__(self):
        self.p3 = G.pure_braid_rp2(3)
        self.p3_model = G.rp2_models(self.p3, 3)
        self.p2 = G.pure_braid_rp2(2)
        self.p2_model = G.p2_model(self.p2)
        self.p3_short = G.Group("", self.p3.gens, [r for r in self.p3.relators if len(r) <= 8])
        self.p2_short = G.Group("", self.p2.gens, [r for r in self.p2.relators if len(r) <= 8])

    def _identity_pair(self, family, i, j, x):
        g = self.p3
        ri, rj, bij = f"rho{i}", f"rho{j}", G.b_name(i, j)
        if family == "bij":
            return g.word(bij), g.word(f"{rj} {ri}^-1 {rj}^-1 {ri}")
        if family == "conj":
            return g.word(f"{bij}^-1 {rj} {bij}"), g.word(f"{ri}^-2 {rj} {ri}^2")
        if family == "braidlike":
            return g.word(f"{ri} {rj} {ri} {rj}"), g.word(f"{rj} {ri} {rj} {ri}")
        return G.mul(G.tau(g, 3), (x,)), G.mul((x,), G.tau(g, 3))  # tau is central

    def round(self, rng: random.Random, r: int) -> list[dict]:
        g = self.p3
        pairs = G.rp2_pairs(3)
        qs = []
        for mode in (CERTIFY_REWRITE, CERTIFY_SEARCH):
            tag = mode[0][2:]
            for k, family in enumerate(_FAMILIES):
                i, j = pairs[(r + k) % 3]
                lhs, rhs = self._identity_pair(family, i, j, 2 * ((r + k) % len(g.gens)))
                qs.append(_query(f"{tag}.{family}", [_equal_args(g, lhs, rhs, *mode)], g.text(), 0))
            u, x = _random_word(rng, g, 3), _separated_word(rng, g, self.p3_model, 1)
            if u[-1] == x[0] ^ 1:  # keep v four letters long: the budget runs out alike
                u = u[:-1] + (u[-1] ^ 1,)
            qs.append(_query(f"{tag}.separated", [_equal_args(g, u, G.mul(u, x), *mode)],
                             g.text(), 1))
        # one short relator inserted: found at the search's first level
        u = _random_word(rng, g, rng.randint(2, 3))
        v = _insert_relators(rng, self.p3_short, u, 1)
        qs.append(_query("search.inserted", [_equal_args(g, u, v, *CERTIFY_SEARCH)], g.text(), 0))
        # P2(RP2) is finite: rewriting completes and decides either way
        u, v, verdict = _decided_pair(rng, self.p2, self.p2_model, rng.randint(3, 6))
        qs.append(_query("rewrite.P2", [_equal_args(self.p2, u, v, *CERTIFY_REWRITE)],
                         self.p2.text(), verdict))
        u = _random_word(rng, self.p2, rng.randint(2, 4))
        v = _insert_relators(rng, self.p2_short, u, 1)
        qs.append(_query("search.P2", [_equal_args(self.p2, u, v, *CERTIFY_SEARCH)],
                         self.p2.text(), 0))
        return qs


# pipeline -------------------------------------------------------------------------

_CHAINS = ("b12_as_rho_n2", "braidlike_n2", "braidlike_n3", "conj_rho_squared_n2",
           "conj_rho_squared_n3", "conj_rho_squared_n3_23")

# (cover, base, sheets, exit): Euler characteristic, orientation and the
# classical fact that the Klein bottle does not cover the torus decide
# the 1s; orientable and double covers that exist decide the 0s.
_COVER_CASES = (("S3", "S2", 2, 0), ("S5", "S2", 4, 0), ("S4", "S3", 2, 1),
                ("klein", "torus", 2, 1), ("N4", "S2", 1, 1), ("S2", "N3", 2, 0),
                ("torus", "klein", 2, 0), ("N3", "S2", 2, 1), ("S7", "S3", 3, 0))

# the paper's 15-case kernel table: (quotient, n, full braid, q, r, case)
_KERNEL_CASES = (("S2", 3, False, None, None, "full"), ("S2", 3, True, None, None, "full"),
                 ("S5", 1, False, None, None, "full"), ("klein", 2, False, None, None, "full"),
                 ("N3", 1, True, None, None, "full"), ("sphere", 1, False, None, None, "mod-center"),
                 ("sphere", 2, True, None, None, "mod-center"),
                 ("sphere", 4, False, None, None, "mod-center"),
                 ("rp2", 1, False, None, None, "mod-center"), ("rp2", 2, False, None, None, "mod-center"),
                 ("rp2", 3, False, None, None, "mod-center"), ("rp2", 2, True, None, None, "mod-center"),
                 ("torus", 1, False, 2, 3, "mod-lattice"), ("torus", 1, True, 2, 2, "mod-lattice"),
                 ("torus", 5, False, 2, 3, "mod-lattice"))

_SURFACE_NAMES = {(True, 0): "sphere", (True, 1): "torus", (False, 1): "projective plane",
                  (False, 2): "Klein bottle"}


def _surface_line(orientable: bool, genus: int) -> str:
    label = f"{'S' if orientable else 'N'}{genus}"
    name = _SURFACE_NAMES.get((orientable, genus)) or (
        f"orientable, genus {genus}" if orientable else f"nonorientable, {genus} crosscaps")
    return re.escape(f"{label} ({name})")


def _quotient_lines(orientable: bool, genus: int, sheets: int) -> str:
    """Surfaces X with sheets * chi(X) = chi(M): the free-quotient candidates."""
    chi = 2 - 2 * genus if orientable else 2 - genus
    lines = []
    if chi % sheets == 0:
        c = chi // sheets
        if c % 2 == 0 and c <= 2:
            lines.append(_surface_line(True, (2 - c) // 2) + "[^\n]*")
        if c <= 1:
            lines.append(_surface_line(False, 2 - c) + "[^\n]*")
    return "\n".join(lines) if lines else re.escape("(no candidates)")


def _abelian_line(g: G.Group) -> str:
    rank, torsion = G.abelian_invariants(g)
    return re.escape(f"rank {rank}, torsion {torsion}")


class _Pipeline:
    def __init__(self, workdir: str, data_dir):
        self.workdir = workdir
        self.rp2 = {k: G.pure_braid_rp2(k) for k in range(2, 9)}
        self.p2_model = G.p2_model(self.rp2[2])
        self.s5 = G.coxeter_symmetric(5)
        self.s5_model = G.symmetric_model(self.s5, 5)
        self.q8 = G.quaternion()
        self.q8_model = G.quaternion_model(self.q8)
        self.kernel_ab = {k: _abelian_line(g.quotient("", [G.tau(g, k)])) for k, g in self.rp2.items()}
        self.chains = {name: (data_dir / f"{name}.chain").read_text() for name in _CHAINS}

    def _path(self, name: str) -> str:
        return f"{self.workdir}/{name}"

    def _forget_map(self, n: int) -> tuple[str, int]:
        """The strand-forgetting map P_n(RP2) -> P2(RP2), checked in the Q8 model."""
        src, tgt = self.rp2[n], self.rp2[2]
        sends, images = [], []
        for name in src.gens:
            image = name if name in tgt.gens else "1"
            sends.append(f"send {name} = {image}")
            images.append(tgt.word(image) if image != "1" else ())
        ok = all(self.p2_model.is_identity(self.p2_model.value(
            G.mul(*[images[x // 2] if x % 2 == 0 else G.inverse(images[x // 2]) for x in rel])))
            for rel in src.relators)
        return self._map_text(src, tgt, sends), 0 if ok else 1

    @staticmethod
    def _map_text(src, tgt, sends) -> str:
        return (f"begin source\n{src.text()}end\nbegin target\n{tgt.text()}end\n"
                + "\n".join(sends) + "\n")

    def _cyclic_map(self, rng, tgt, model, image_words) -> tuple[str, int]:
        """x^N -> w: a homomorphism iff the order of w in the model divides N."""
        image = rng.choice(image_words)
        n = rng.randint(990, 1010)
        src = G.Group("C", ["x"], [(0,) * n])
        val = model.value(tgt.word(image))
        order = next(k for k in range(1, 200) if model.is_identity(
            tuple(G.perm_power(p, k) for p in val)))
        return self._map_text(src, tgt, [f"send x = {image}"]), 0 if n % order == 0 else 1

    def round(self, rng: random.Random, r: int) -> list[dict]:
        qs = []
        k = 2 + r % 7
        qs.append(_query(f"build|abelianize.n{k}",
                         [["build", "--surface", "rp2", "--n", str(k)], ["abelianize"]],
                         exit=0, stdout=_abelian_line(self.rp2[k]), pipe=True))
        k2 = 2 + (r + 3) % 7
        kfile = self._path(f"kernel{k2}.txt")
        qs.append(_query(f"kernel>abelianize.n{k2}",
                         [["kernel", "--quotient", "rp2", "--n", str(k2), "--presentation-out", kfile],
                          ["abelianize", "--input", kfile]],
                         exit=0, stdout=self.kernel_ab[k2]))
        k3 = 2 + (r + 5) % 7
        qs.append(_query(f"central.tau.n{k3}", [["central", "--element", "tau", "--max-cosets", "1000"]],
                         self.rp2[k3].text(), 0))

        n = 3 + r % 3
        text, verdict = self._forget_map(n)
        name = f"forget{n}.hom"
        qs.append(_query(f"hom-check.forget.n{n}", [["hom-check", "--map", self._path(name)]],
                         exit=verdict, files={name: text}))
        # images of four syllables that do not merge across periods, so
        # every x^N costs Word.__pow__ the same
        for tag, tgt, model, words in (("S5", self.s5, self.s5_model,
                                        ("s1 s2 s3 s4", "s4 s3 s2 s1", "s1 s2 s1 s3")),
                                       ("Q8", self.q8, self.q8_model,
                                        ("rho1 rho2 rho1 rho2", "rho2 rho1 rho2 rho1",
                                         "rho1 rho2 rho1^-1 rho2"))):
            text, verdict = self._cyclic_map(rng, tgt, model, words)
            name = f"cyclic-{tag}-{r}.hom"
            qs.append(_query(f"hom-check.cyclic.{tag}", [["hom-check", "--map", self._path(name)]],
                             exit=verdict, files={name: text}))

        for g, model in ((self.s5, self.s5_model), (self.q8, self.q8_model)):
            e1, e2 = rng.randint(450000, 500000), rng.randint(450000, 500000)
            a, b = rng.sample(range(len(g.gens)), 2)
            lhs = [(a, e1), (b, 1), (a, e2)]
            rhs = [(b, 1), (a, e1 + e2)] if rng.random() < 0.5 else [(a, e1 + e2), (b, 1)]
            verdict = 0 if model.value_syllables(lhs) == model.value_syllables(rhs) else 1
            lhs_text, rhs_text = ("*".join(f"{g.gens[x]}^{e}" for x, e in syl) for syl in (lhs, rhs))
            qs.append(_query(f"equal.table.power.{g.name}",
                             [["equal", "--table", "--lhs", lhs_text, "--rhs", rhs_text]],
                             g.text(), verdict))

        cover, base, sheets, verdict = rng.choice(_COVER_CASES)
        qs.append(_query("cover", [["cover", "--from", cover, "--to", base, "--sheets", str(sheets)]],
                         exit=verdict))
        orientable, genus, sheets = rng.random() < 0.5, rng.randint(2, 9), rng.randint(1, 4)
        label = f"{'S' if orientable else 'N'}{genus}"
        qs.append(_query("quotients", [["quotients", "--surface", label, "--sheets", str(sheets)]],
                         exit=0, stdout=_quotient_lines(orientable, genus, sheets)))
        for surface, n, full, q, rr, case in rng.sample(_KERNEL_CASES, 2):
            argv = ["kernel", "--quotient", surface, "--n", str(n)]
            argv += ["--full-braid"] if full else []
            argv += ["--q", str(q), "--r", str(rr)] if q else []
            qs.append(_query("kernel.table", [argv], exit=0,
                             stdout=re.escape(f"case: {case}") + "\n.*"))

        chain = rng.choice(_CHAINS)
        text = self.chains[chain]
        n = int(re.search(r"P(\d)\(RP2\)", text).group(1))
        verdict = 0
        if rng.random() < 0.25:  # a tampered end line must be rejected
            text = re.sub(r"(?m)^end (.*)$", r"end \1*rho1", text)
            verdict = 1
        name = f"{chain}-{verdict}.chain"
        qs.append(_query("check-derivation", [["check-derivation", self._path(name)]],
                         self.rp2[n].text(), verdict, files={name: text}))
        return qs


def generate(workload: str, seed: int, rounds: int, workdir: str, data_dir) -> list[dict]:
    """Every query of one run, in order; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "finite":
        gen = _Finite()
    elif workload == "certify":
        gen = _Certify()
    elif workload == "pipeline":
        gen = _Pipeline(workdir, data_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [q for r in range(rounds) for q in gen.round(rng, r)]
