"""Acceptance criteria, one test per criterion.

Each criterion runs its checks from the registry in :mod:`polylog.checks`,
the same checks ``polylog verify`` runs, on the same seeded inputs.  C1 and
C2 first compare the registry's table with this file's own table of expected
closed forms, and C3, C4, C8 and C10 check the inputs the registry draws
against this file's description of them.  Every check
is exact (Fraction equality) unless the criterion states a numeric
tolerance.  Each test prints a single PASS line with its runtime; the stated
runtime budgets are asserted as well.
"""

import time

from polylog import checks
from polylog.nc_core import Word, X, Y

SEED = 20240

# The eight non-positive multi-indices with their exact rational functions,
# star combinations, and (where known in monomials) closed-form polynomials.
NONPOSITIVE_TABLE = [
    ((0,), [0, 1], 1, {1: 1, 0: -1}, {1: "1"}),
    ((-1,), [0, 1], 2, {2: 1, 1: -1}, {2: "1/2", 1: "1/2"}),
    ((0, 0), [0, 0, 1], 2, {2: 1, 1: -2, 0: 1}, {2: "1/2", 1: "-1/2"}),
    (
        (-2, -1),
        [0, 0, 4, 7, 1],
        5,
        {5: 12, 4: -33, 3: 31, 2: -11, 1: 1},
        {5: "1/10", 4: "1/8", 3: "-1/12", 2: "-1/8", 1: "-1/60"},
    ),
    (
        (-2, -2),
        [0, 0, 4, 21, 14, 1],
        6,
        {6: 40, 5: -132, 4: 161, 3: -87, 2: 19, 1: -1},
        {6: "1/18", 5: "1/15", 4: "-5/72", 3: "-1/12", 2: "1/72", 1: "1/60"},
    ),
    (
        (-3, -3),
        [0, 0, 8, 179, 584, 424, 64, 1],
        8,
        {8: 1260, 7: -5400, 6: 9270, 5: -8070, 4: 3699, 3: -829, 2: 71, 1: -1},
        None,
    ),
    (
        (-1, 0, -2),
        [0, 0, 0, 3, 6, 1],
        6,
        {6: 10, 5: -38, 4: 55, 3: -37, 2: 11, 1: -1},
        {6: "1/72", 5: "-1/40", 4: "-1/36", 3: "1/24", 2: "1/72", 1: "-1/60"},
    ),
    (
        (-1, -2, -2),
        [0, 0, 0, 12, 100, 133, 34, 1],
        8,
        {8: 280, 7: -1312, 6: 2497, 5: -2457, 4: 1310, 3: -358, 2: 41, 1: -1},
        {
            8: "1/144",
            7: "-13/1260",
            6: "-7/240",
            5: "23/720",
            4: "1/24",
            3: "-19/720",
            2: "-7/360",
            1: "1/210",
        },
    ),
]


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def _inputs(suite, name):
    (check,) = [c for c in suite if c.name == name]
    return check.inputs


def _run(suite, *prefixes, count):
    """Run the checks of ``suite`` named with one of ``prefixes``; all ``count`` must pass."""
    results = [check.run() for check in suite if check.name.startswith(prefixes)]
    assert len(results) == count, [r.name for r in results]
    failures = [(r.name, r.detail) for r in results if not r.passed]
    assert not failures, failures


def test_c01_nonpositive_rational_functions_and_stars():
    started = time.perf_counter()
    assert checks.KNOWN_NONPOSITIVE == NONPOSITIVE_TABLE
    _run(checks.suite_ex3(50), "ratfunc[", "stars[", count=16)
    _report("C1 nonpositive closed forms", started, 1.0)


def test_c02_closed_form_polynomials_match_oracle():
    started = time.perf_counter()
    assert checks.KNOWN_NONPOSITIVE == NONPOSITIVE_TABLE
    _run(checks.suite_ex3(50), "npoly[", "oracle[", count=15)
    _report("C2 closed-form polynomials", started, 5.0)


def test_c03_stuffle_character():
    started = time.perf_counter()
    suite = checks.suite_morphisms(100, SEED)
    pairs = _inputs(suite, "stuffle-character 200 random weight<=6")
    words = [w for pair in pairs for w in pair]
    assert len(pairs) == 200 and all(w.alphabet == Y and 1 <= sum(w.letters) <= 6 for w in words)
    _run(
        suite,
        "stuffle-character weight<=4 N<=30",
        "stuffle-character 200 random weight<=6",
        "stuffle-character Euler pair y2,y3",
        count=3,
    )
    _report("C3 stuffle character", started, 30.0)


def test_c04_shuffle_morphism_on_taylor_coefficients():
    started = time.perf_counter()
    suite = checks.suite_morphisms(100, SEED)
    # the X-words of length <= 4 ending in x1, and the empty word
    coded = [Word((), X)] + [
        Word(tuple((bits >> i) & 1 for i in range(n - 1)) + (1,), X)
        for n in range(1, 5)
        for bits in range(2 ** (n - 1))
    ]
    pairs = _inputs(suite, "shuffle-morphism len<=4 N<=100")
    assert len(pairs) == 16 * 16 and set(pairs) == {(u, v) for u in coded for v in coded}
    _run(suite, "shuffle-morphism len<=4 N<=100", count=1)
    _report("C4 shuffle morphism", started, 60.0)


def test_c05_hadamard_identity():
    started = time.perf_counter()
    _run(checks.suite_morphisms(100, SEED), "hadamard weight<=4 N<=100", count=1)
    _report("C5 Hadamard identity", started, 60.0)


def test_c06_stirling_lemma():
    started = time.perf_counter()
    _run(checks.suite_stirling(), "surjection lemma n<=20 m<=8", count=1)
    _report("C6 Stirling lemma", started, 10.0)


def test_c07_star_identities():
    started = time.perf_counter()
    _run(
        checks.suite_stars(seed=SEED),
        "plane-star stuffle consistency 50 random pairs cap 6",
        "ykstar exponential identity k<=3 cap 6",
        count=2,
    )
    _report("C7 star identities", started, 30.0)


def test_c08_radford_regularization_roundtrip():
    started = time.perf_counter()
    suite = checks.suite_morphisms(100, SEED)
    polys = [p for (p,) in _inputs(suite, "radford-regularization 100 random roundtrips")]
    assert len(polys) == 100 and all(p.alphabet == X for p in polys)
    assert any(w.letters[-1:] == (0,) for p in polys for w in p.support())  # some need regularizing
    _run(suite, "radford-regularization 100 random roundtrips", count=1)
    _report("C8 Radford regularization", started, 30.0)


def test_c09_numeric_spot_checks():
    started = time.perf_counter()
    _run(
        checks.suite_morphisms(100, SEED),
        "numeric Li_1(1/2) = ln 2 within 1e-10",
        "numeric H_y2(10^4) ~ pi^2/6 within 1.2e-4",
        count=2,
    )
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE C9 numeric spot checks: PASS ({elapsed:.2f}s)")


def test_c10_derivative_recursion():
    started = time.perf_counter()
    suite = checks.suite_morphisms(100, SEED)
    indices = [s for (s,) in _inputs(suite, "derivative-recursion 30 random size<=5 N<=60")]
    assert len(indices) == 30 and all(len(s) + sum(map(abs, s)) <= 5 for s in indices)
    _run(suite, "derivative-recursion 30 random size<=5 N<=60", count=1)
    _report("C10 derivative recursion", started, 10.0)


def test_c11_mixed_index_identities():
    started = time.perf_counter()
    _run(checks.suite_mixed(40), "mixed[", count=9)
    _report("C11 mixed-index identities", started, 10.0)


def test_c12_radius_diagnostic():
    started = time.perf_counter()
    _run(
        checks.suite_stars(seed=SEED),
        "radius diagnostic t=1 r=1/2 diverges",
        "radius diagnostic t=1 r=1/4 converges to 3/2",
        count=2,
    )
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE C12 radius diagnostic: PASS ({elapsed:.2f}s)")
