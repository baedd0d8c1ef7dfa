"""The three benchmark workloads: inputs from a seed, the timed call into
bottcheck, and the check of its result against the benchmark's own
reference.

Only public names of the package are used, always through their module
(``theorems.thm2_closed``, not a copy bound at import), so a test that
monkeypatches a module attribute, or the span tracer, reaches every call.

The references are plain-``Fraction`` closed forms written out here; none
of bottcheck's own closed forms is imported.  A change that breaks both
of the package's routes in the same way therefore still fails a check.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from bottcheck import chern, chow, cli, theorems

FAILS = "FAILS_BY_NEGATIVE_CHI"
NEEDS_H0 = "NEEDS_H0_CHECK"
INCONCLUSIVE = "INCONCLUSIVE"


def thm1_reference(h, c13, c12H, c1H2, c2H, H3) -> Fraction:
    return (
        16 + Fraction(h) - Fraction(c13, 2)
        - Fraction(5, 4) * (c12H + c1H2)
        + Fraction(3, 4) * c2H
        - Fraction(H3, 2)
    )


def thm2_reference(a, k) -> Fraction:
    return Fraction(2 * (sum(a) + 2 * k))


def thm3_reference(c1, c2) -> Fraction:
    return c2 - Fraction(c1 * (c1 - 1), 2)


def conclusion_reference(value: Fraction) -> str:
    if value > 0:
        return FAILS
    return NEEDS_H0 if value == 0 else INCONCLUSIVE


def chain_key(a, k) -> tuple:
    """The normalised (p, q, k) under which the package derives a thm2
    chain: shift by the smallest repeated twist, drop two zeros."""
    shift = min(v for v in a if a.count(v) >= 2)
    rest = [v - shift for v in a]
    rest.remove(0)
    rest.remove(0)
    return (rest[0], rest[1], k)


class DivisorGrid:
    """Acceptance criterion 3's grid: twists in [-3,3]^4 with two equal,
    k in [-3,3]; each check is thm2_chain == thm2_closed == 2(sum a + 2k).
    A pass is the whole grid in a seed-shuffled order."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def warmup_input(self):
        return ((0, 0, 0, 0), 4)  # k = 4 lies outside the grid: no shared key

    def pass_inputs(self, index: int) -> list:
        cases = [
            (a, k)
            for a in product(range(-3, 4), repeat=4)
            if len(set(a)) < 4
            for k in range(-3, 4)
        ]
        random.Random(f"divisor-grid:{self.seed}:{index}").shuffle(cases)
        return cases

    @staticmethod
    def call(inp):
        case = theorems.DivisorCaseInput(*inp)
        return theorems.thm2_chain(case), theorems.thm2_closed(case)

    @staticmethod
    def verify(inp, out):
        chain, closed = out
        want = thm2_reference(*inp)
        if not chain == closed == want:
            return f"chain {chain}, closed {closed}, reference {want}"
        return None

    @staticmethod
    def chain_keys(inp):
        return [chain_key(*inp)]


class PlaneGrid:
    """Rank-2 plane bundles (c1, c2) drawn without replacement from
    [-40,40]^2.  Each check runs every dual-route comparison of thm3 and
    the chern oracles for one bundle.  Every pass of a run checks the
    same bundles, each once, in its own fresh process."""

    PASS_SIZE = 100
    SPAN = range(-40, 41)
    HRR_B = range(-3, 7)
    SYM_B = range(0, 7)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def warmup_input(self):
        return (41, 7)  # c1 = 41 lies outside the drawn square

    def pass_inputs(self, index: int) -> list:
        bundles = list(product(self.SPAN, repeat=2))
        random.Random(f"plane-grid:{self.seed}").shuffle(bundles)
        return bundles[:self.PASS_SIZE]

    @classmethod
    def call(cls, inp):
        c1, c2 = inp
        bundle = theorems.PlaneBundleInput(c1, c2)
        q = theorems.thm3_Q(bundle).Q
        hrr = [(theorems.thm3_hrr_crosscheck(bundle, b), q(b)) for b in cls.HRR_B]
        polys = chern.sym_power_polys(chern.SurfaceChern(2, c1, c2))
        sym = []
        for b in cls.SYM_B:
            oracle = chern.sym_power_splitting_oracle(c1, c2, b)
            sym.append(((oracle.c1, oracle.c2), (polys.C1(b), polys.C2(b))))
        tc1, tc2, tc3 = chern.tangent_chern_plane_bundle(chow.PlaneBase2(c1, c2))
        degrees = (tc3.degree(), (tc1 * tc2).degree())
        return q(-1), theorems.thm3_value(bundle), hrr, sym, degrees

    @staticmethod
    def verify(inp, out):
        q_minus_1, value, hrr, sym, degrees = out
        want = thm3_reference(*inp)
        if not q_minus_1 == value == want:
            return f"Q(-1) {q_minus_1}, thm3_value {value}, reference {want}"
        if any(x != y for x, y in hrr):
            return f"HRR crosscheck differs from Q(b): {hrr}"
        if any(x != y for x, y in sym):
            return f"splitting oracle differs from sym_power_polys: {sym}"
        if degrees != (6, 24):
            return f"tangent degrees c3 = {degrees[0]}, c1c2 = {degrees[1]}"
        return None

    @staticmethod
    def chain_keys(inp):
        return []


class Registry:
    """One in-process ``bott-report --cases FILE --json`` per check, on a
    file of 11 drawn records over all eight geometries.  Every pass of a
    run reports on the same files, in its own fresh process."""

    PASS_SIZE = 100
    # The built-in registry's mix (1 dp6, 4 dp8, 1 conic, 1 plane bundle,
    # 2 table8, 1 table9, 1 table75no1), with the dp8 share split between
    # the small and divisorial contractions so all eight geometries occur.
    MIX = (
        "delPezzoFib6",
        "delPezzoFib8-small", "delPezzoFib8-small",
        "delPezzoFib8-divisorial", "delPezzoFib8-divisorial",
        "conicBundle",
        "p1BundleOverPlane",
        "table8", "table8",
        "table9",
        "table75no1",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / f"registry-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def warmup_input(self):
        return self._file("warmup")

    def pass_inputs(self, index: int) -> list:
        return [self._file(str(j)) for j in range(self.PASS_SIZE)]

    def _file(self, tag: str):
        """Write one case file; return its path, the expected rows by id,
        and the thm2 chain keys it contains."""
        rng = random.Random(f"registry:{self.seed}:{tag}")
        lines, expected, keys = [], {}, []
        for j, geometry in enumerate(self.MIX):
            fields, value = self._draw(rng, geometry)
            record_id = f"r{j:02d}-{geometry}"
            expected[record_id] = (geometry, value)
            if "a" in fields:
                keys.append(chain_key(fields["a"], fields["k"]))
                fields["a"] = ",".join(map(str, fields["a"]))
            lines.append(f"[{record_id}]")
            lines.append(f"geometry = {geometry}")
            lines.extend(f"{key} = {val}" for key, val in fields.items())
            lines.append("")
        path = self.dir / f"{tag}.ini"
        path.write_text("\n".join(lines), encoding="utf-8")
        return str(path), expected, keys

    @staticmethod
    def _draw(rng: random.Random, geometry: str):
        h, c13 = rng.randint(0, 12), rng.randint(-20, 60)
        if geometry == "delPezzoFib6":
            return {"h": h, "c13": c13}, thm1_reference(h, c13, 6, 0, 6, 0)
        if geometry == "conicBundle":
            d = rng.randint(1, 12)
            fields = {"h": h, "c13": c13, "d": d}
            return fields, thm1_reference(h, c13, 12 - d, 2, d + 6, 0)
        if geometry.startswith("delPezzoFib8"):
            # Wide twists and k, so normalised chain keys almost never repeat.
            a = [rng.randint(-60, 60) for _ in range(3)]
            a.append(a[0])
            rng.shuffle(a)
            k = rng.randint(-20, 20)
            return {"a": a, "k": k}, thm2_reference(a, k)
        if geometry == "p1BundleOverPlane":
            c1, c2 = rng.randint(-40, 40), rng.randint(-40, 40)
            return {"c1": c1, "c2": c2}, thm3_reference(c1, c2)
        numerics = {
            "h": h, "c13": c13,
            "c12H": rng.randint(-10, 40), "c1H2": rng.randint(-10, 40),
            "c2H": rng.randint(0, 60), "H3": rng.randint(-10, 40),
        }
        return numerics, thm1_reference(**numerics)

    @staticmethod
    def call(inp):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["bott-report", "--cases", inp[0], "--json"], out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def verify(inp, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        expected = inp[1]
        rows = json.loads(stdout)
        if sorted(row["id"] for row in rows) != sorted(expected):
            return f"report ids {[row['id'] for row in rows]}"
        for row in rows:
            geometry, value = expected[row["id"]]
            got = (row["geometry"], row["obstruction"], row["conclusion"])
            want = (geometry, str(value), conclusion_reference(value))
            if got != want:
                return f"row {row['id']}: got {got}, reference {want}"
        return None

    @staticmethod
    def chain_keys(inp):
        return inp[2]


WORKLOADS = {
    "divisor-grid": DivisorGrid,
    "plane-grid": PlaneGrid,
    "registry": Registry,
}
