from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leelat import analyzer, cli, constructions, hadamard, intlat, metric, xform
from leelat.analyzer import CertificateKind
from leelat.errors import DimensionError, IntegralityError, LatticeError, SingularMatrixError

from helpers import check_record, lee_code_min_distance

EXAMPLE_G6 = (
    (1, 0, 0, 0, 0, 3),
    (0, 1, 0, 0, 0, 5),
    (0, 0, 1, 0, 0, 7),
    (0, 0, 0, 1, 0, 9),
    (0, 0, 0, 0, 1, 11),
    (0, 0, 0, 0, 0, 24),
)

#: ``density_csv(12)``, byte for byte
DENSITY_CSV_12 = """\
n,construction,d,volume,q,density,density_decimal
2,n2perfect,2,1/2*d^2,d,1/1,1.000000
3,minkowski3,6,19/108*d^3,19/3*d,18/19,0.947368
4,dim4,6,37/648*d^4,37/3*d,27/37,0.729730
5,gn_scaled(5),4,5/256*d^5,5*d,32/75,0.426667
6,kron(n2perfect x minkowski3),12,361/93312*d^6,19/3*d,648/1805,0.359003
7,gn_scaled(7),4,7/4096*d^7,7*d,256/2205,0.116100
8,kron(n2perfect x dim4),12,1369/6718464*d^8,37/3*d,5832/47915,0.121716
9,kron(minkowski3 x minkowski3),36,47045881/1586874322944*d^9,361/9*d,153055008/1646605835,0.092952
10,kron(n2perfect x gn_scaled(5)),8,25/2097152*d^10,5*d,8192/354375,0.023117
11,puncture(kron(n2perfect x kron(n2perfect x minkowski3))),24,130321/557256278016*d^12,19/3*d,1119744/250867925,0.004463
12,kron(minkowski3 x dim4),36,6601149613/37018604205637632*d^12,703/9*d,148769467776/12707213005025,0.011707
"""


class TestMinkowski3:
    def test_d6(self):
        lat = constructions.minkowski3(6)
        assert lat.volume == 38
        assert analyzer.min_distance(lat) == 6

    def test_d12_volume(self):
        assert constructions.minkowski3(12).volume == 304

    def test_divisibility(self):
        with pytest.raises(ValueError):
            constructions.minkowski3(4)


class TestDim4:
    def test_volume_is_74_not_78(self):
        lat = constructions.dim4(6)
        assert lat.volume == 74
        assert Fraction(13, 216) * 6**4 == 78  # the advertised value

    def test_oracle_distance_and_alphabet(self):
        lat = constructions.dim4(6)
        assert analyzer.min_distance(lat) == 6
        assert intlat.period(lat)[1] == 74

    def test_reconciliation_document(self):
        rec = constructions.dim4_reconciliation(6)
        assert rec["oracle"]["volume"] == 74
        assert rec["oracle"]["min_distance"] == 6
        assert rec["oracle"]["q"] == 74
        assert rec["oracle"]["density"] == "27/37"
        assert rec["discrepancy"]["volume_matches"] is False
        assert rec["discrepancy"]["density_matches"] is False
        assert rec["discrepancy"]["q_matches"] is True
        assert rec["discrepancy"]["note"]

    def test_reconciliation_internally_consistent(self):
        rec = constructions.dim4_reconciliation(6)
        num, den = map(int, rec["oracle"]["density"].split("/"))
        d, v = rec["oracle"]["min_distance"], rec["oracle"]["volume"]
        assert Fraction(num, den) * 24 * v == d**4


class TestN2Perfect:
    def test_d2_checkerboard(self):
        lat = constructions.n2_perfect(2)
        assert lat.volume == 2
        assert not intlat.contains(lat, (1, 0))
        assert intlat.contains(lat, (1, 1))

    def test_d4(self):
        lat = constructions.n2_perfect(4)
        assert lat.volume == 8
        assert analyzer.min_distance(lat) == 4

    def test_d6_diameter_perfect(self):
        cert = analyzer.certify(constructions.n2_perfect(6))
        assert cert.kind is CertificateKind.DIAMETER_PERFECT
        assert cert.bound_size == 18 == metric.anticode_size_odd(2, 2)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            constructions.n2_perfect(3)


class TestGn:
    def test_matches_example_shape(self):
        assert constructions.gn(6).gen.entries == EXAMPLE_G6

    def test_g3(self):
        lat = constructions.gn(3)
        assert lat.gen.entries == ((1, 0, 3), (0, 1, 5), (0, 0, 12))
        assert lat.volume == 12
        assert analyzer.min_distance(lat) == 4

    def test_g2(self):
        lat = constructions.gn(2)
        assert lat.gen.entries == ((1, 3), (0, 8))
        assert lat.volume == 8
        assert analyzer.min_distance(lat) == 4

    def test_certifies_diameter_perfect(self):
        for n in range(2, 7):
            cert = analyzer.certify(constructions.gn(n))
            assert cert.kind is CertificateKind.DIAMETER_PERFECT
            assert cert.bound_size == 4 * n == metric.anticode_size_odd(n, 1)

    def test_alphabet_is_4n(self):
        for n in range(2, 7):
            assert intlat.period(constructions.gn(n))[1] == 4 * n


class TestDouble:
    def test_gn3(self):
        lat = constructions.double(constructions.gn(3))
        d = analyzer.min_distance(lat)
        params = intlat.reduce_mod_period(lat, d)
        assert (params.n, params.d, params.v, params.q) == (6, 4, 24, 12)

    def test_gn2(self):
        lat = constructions.double(constructions.gn(2))
        d = analyzer.min_distance(lat)
        params = intlat.reduce_mod_period(lat, d)
        assert (params.n, params.d, params.v, params.q) == (4, 4, 16, 8)

    def test_twice(self):
        lat = constructions.double(constructions.double(constructions.gn(3)))
        d = analyzer.min_distance(lat)
        params = intlat.reduce_mod_period(lat, d)
        assert (params.n, params.d, params.v, params.q) == (12, 4, 48, 12)

    def test_membership_characterization(self):
        # (x, y) belongs iff x + y is in the base lattice and sum(x) is even
        import random

        base = constructions.gn(2)
        lat = constructions.double(base)
        rng = random.Random(41)
        for _ in range(200):
            p = tuple(rng.randint(-8, 8) for _ in range(4))
            x, y = p[:2], p[2:]
            expected = (
                intlat.contains(base, tuple(a + b for a, b in zip(x, y)))
                and sum(x) % 2 == 0
            )
            assert intlat.contains(lat, p) == expected

    def test_volume_doubles(self):
        for n in (2, 3, 4):
            base = constructions.gn(n)
            assert constructions.double(base).volume == 2 * base.volume

    def test_requires_distance_4(self):
        with pytest.raises(ValueError):
            constructions.double(constructions.gw_perfect(2))
        with pytest.raises(ValueError, match="exceeds"):  # d = 8, every weight <= 4 searched
            constructions.double(hadamard.hadamard_code(hadamard.sylvester(3)))


class TestScaledDiameterCode:
    def test_n5_d4(self):
        lat = constructions.scaled_diameter_code(5, 4)
        assert lat.volume == 20
        p = intlat.reduce_mod_period(lat, 4)
        assert p.density == Fraction(32, 75)

    def test_n7_d4(self):
        lat = constructions.scaled_diameter_code(7, 4)
        assert lat.volume == 28
        p = intlat.reduce_mod_period(lat, 4)
        assert p.density == Fraction(4096, 35280)
        assert analyzer.density_decimal(p.density, places=4) == "0.1161"

    def test_n5_d8_volume(self):
        assert constructions.scaled_diameter_code(5, 8).volume == 640

    def test_divisibility(self):
        with pytest.raises(ValueError):
            constructions.scaled_diameter_code(5, 6)


class TestGolombWelch:
    def test_n1(self):
        lat = constructions.gw_perfect(1)
        assert lat.volume == 3
        assert intlat.contains(lat, (3,)) and not intlat.contains(lat, (2,))

    @pytest.mark.parametrize("n", [2, 3])
    def test_perfect(self, n):
        lat = constructions.gw_perfect(n)
        assert lat.volume == 2 * n + 1 == metric.lee_sphere_size(n, 1)
        assert analyzer.min_distance(lat) == 3
        cert = analyzer.certify(lat)
        assert cert.kind is CertificateKind.PERFECT and cert.slack == 0


class TestKroneckerDistances:
    def test_distance_multiplies_small_instances(self):
        a = constructions.n2_perfect(2)
        assert analyzer.min_distance(intlat.kronecker(a, a)) == 4
        b = constructions.gn(2)
        assert analyzer.min_distance(intlat.kronecker(a, b)) == 8

    def test_lee_route_agrees(self):
        a = constructions.n2_perfect(2)
        k = intlat.kronecker(a, constructions.gn(2))
        _, m = intlat.period(k)
        assert lee_code_min_distance(k.int_matrix.entries, m) == 8


class TestDensityTable:
    def test_row_values(self):
        table = {e.n: e for e in constructions.density_table(12)}
        assert table[2].density == 1
        assert table[3].density == Fraction(18, 19)
        assert table[4].density == Fraction(27, 37)
        assert table[5].density == Fraction(32, 75)
        assert table[6].density == Fraction(648, 1805) == Fraction(2, 5) * Fraction(18, 19) ** 2
        assert table[7].density == Fraction(4096, 35280)

    def test_best_labels(self):
        table = {e.n: e for e in constructions.density_table(12)}
        assert table[3].label == "minkowski3"
        assert table[6].label == "kron(n2perfect x minkowski3)"
        assert table[11].label.startswith("puncture(")

    def test_density_identity_every_row(self):
        import math

        for e in constructions.density_table(12):
            assert e.density * math.factorial(e.n) * e.volume == e.d**e.n

    def test_every_row_holds_the_hnf_of_its_matrix(self):
        # products, scalings and normalized parents take their inputs' HNFs
        for e in constructions.density_table(12):
            assert e.lattice.hnf == intlat.hnf(e.lattice.int_matrix)

    def test_volume_coefficients(self):
        table = {e.n: e for e in constructions.density_table(7)}
        assert table[3].volume_coeff == Fraction(19, 108)
        assert table[5].volume_coeff == Fraction(5, 256)
        assert table[7].volume_coeff == Fraction(7, 4096)

    def test_puncture_row_keeps_parent_volume_law(self):
        e = {e.n: e for e in constructions.density_table(11)}[11]
        assert e.volume_power == 12
        assert e.volume == e.volume_coeff * e.d**12
        assert e.lattice.n == 11

    def test_csv_deterministic(self):
        assert constructions.density_csv(10) == constructions.density_csv(10)

    def test_csv_shape(self):
        lines = constructions.density_csv(10).splitlines()
        assert lines[0] == "n,construction,d,volume,q,density,density_decimal"
        assert len(lines) == 10  # header + rows for n = 2..10
        assert lines[5].startswith("6,") and lines[5].endswith("0.359003")

    def test_csv_pinned(self):
        for k in range(2, 13):
            assert constructions.density_csv(k) == "".join(
                DENSITY_CSV_12.splitlines(keepends=True)[:k]
            )

    def test_bounds(self):
        with pytest.raises(ValueError):
            constructions.density_table(13)

    def test_record(self):
        lat = constructions.n2_perfect(2)
        fields = {"n": 2, "label": "n2perfect", "d": 2, "volume": 2, "q": 2, "density": Fraction(1),
                  "volume_power": 2, "lattice": lat}
        text = ("DensityEntry(n=2, label='n2perfect', d=2, volume=2, q=2, density=Fraction(1, 1), "
                "volume_power=2, lattice=Lattice([[1, 1], [1, -1]]))")
        check_record(constructions.DensityEntry, fields, {"label": "gn"}, text)
        assert repr(constructions.density_table(2)[0]) == text
        entry = constructions.DensityEntry(**dict(fields, d=4, volume=8, q=4))
        assert (entry.volume_coeff, entry.q_coeff) == (Fraction(1, 2), 1)

    def test_survey_values_are_annotations(self):
        assert constructions.SURVEY_LOWER_BOUNDS[5] == Fraction(1600, 2343)
        table = {e.n: e for e in constructions.density_table(6)}
        # the survey bounds come from non-lattice packings; rows never use them
        assert table[5].density != constructions.SURVEY_LOWER_BOUNDS[5]


# row 9's distance, d = 36 over 3 * 10^9 cosets, takes the distance tree
# about 2.5 s; row 12 is inconclusive
@pytest.mark.parametrize("n", [pytest.param(n, marks=pytest.mark.slow) if n == 9 else n for n in range(2, 12)])
def test_density_row_distance_is_measured(n):
    entry = constructions.density_table(n)[-1]
    assert analyzer.min_distance(entry.lattice) == entry.d


NOMINAL_CODES = (
    [("hadamard", (order,)) for order in (4, 8, 12)]
    + [("gij", ij) for ij in ((3, 2), (4, 2), (3, 3), (4, 3))]
    + [("minkowski3", (d,)) for d in (6, 12)]
    + [("n2perfect", (d,)) for d in (2, 4)]
    + [("gn", (n,)) for n in (6, 16)]
    + [("scaled", nd) for nd in ((4, 8), (5, 8))]
    + [("gw", (n,)) for n in (3, 5, 21)]
    + [("double", (8,))]  # the double of gn(8)
)


@pytest.mark.parametrize("family, values", NOMINAL_CODES,
                         ids=[f"{f}-{'-'.join(map(str, v))}" for f, v in NOMINAL_CODES])
def test_family_nominal_distance_is_measured(family, values):
    _, build, _, nominal = cli.FAMILIES[family]
    if family == "double":
        values = (constructions.gn(*values),)
    assert analyzer.min_distance(build(*values)) == nominal(*values)[0]


REJECTIONS = {
    "discrete_transform": (lambda: xform.discrete_transform(xform.TransformSpec.build(2), (0, 0, 0)),
                           DimensionError, "point length disagrees with the transform order"),
    "discrete_box": (lambda: xform.discrete_box(xform.TransformSpec.build(2), -1),
                     ValueError, "radius must be non-negative"),
    "continuous_box": (lambda: xform.continuous_box(hadamard.sylvester(2), -1),
                       ValueError, "radius must be non-negative"),
    "sylvester": (lambda: hadamard.sylvester(-1), ValueError, "k must be non-negative"),
    "g_matrix": (lambda: hadamard.g_matrix(1, 2), ValueError, "i and j must be at least 2"),
    "gn": (lambda: constructions.gn(1), ValueError, "n must be at least 2"),
    "gw_perfect": (lambda: constructions.gw_perfect(0), ValueError, "n must be at least 1"),
    "scaled_diameter_code": (lambda: constructions.scaled_diameter_code(1, 4),
                             ValueError, "n must be at least 2"),
    "dim4": (lambda: constructions.dim4(5), ValueError, "d must be a positive multiple of 6"),
    "IntMatrix": (lambda: intlat.IntMatrix([]),
                  DimensionError, "matrix must have at least one row and column"),
    "matmul": (lambda: intlat.IntMatrix([[1, 2]]) @ intlat.IntMatrix([[1, 2]]),
               DimensionError, "inner dimensions disagree"),
    "mat_vec": (lambda: intlat.IntMatrix([[1, 2]]).mat_vec((1,)),
                DimensionError, "vector length disagrees with matrix width"),
    "hnf": (lambda: intlat.hnf(intlat.IntMatrix([[1, 2]])), DimensionError, "hnf needs a square matrix"),
    "snf": (lambda: intlat.snf(intlat.IntMatrix([[1, 2]])), DimensionError, "snf needs a square matrix"),
    "adjugate": (lambda: intlat.adjugate(intlat.IntMatrix([[1, 2]])),
                 DimensionError, "adjugate needs a square matrix"),
    "adjugate_singular": (lambda: intlat.adjugate(intlat.IntMatrix([[1, 2], [2, 4]])),
                          SingularMatrixError, "adjugate of a singular matrix"),
    "Lattice": (lambda: intlat.Lattice([[1, 2]]), DimensionError, "generator matrix must be square"),
    # a scale is an int or a Fraction, never a float or a string that Fraction() would read
    "Lattice_float_scale": (lambda: intlat.Lattice([[2, 0], [0, 2]], 0.5),
                            IntegralityError, r"scale 0\.5 is not an int or a Fraction"),
    "Lattice_string_scale": (lambda: intlat.Lattice([[2, 0], [0, 2]], "1/2"),
                             IntegralityError, "scale '1/2' is not an int or a Fraction"),
    "scale_float": (lambda: intlat.scale(intlat.Lattice([[2, 0], [0, 2]]), 2.0),
                    IntegralityError, r"scale factor 2\.0 is not an int or a Fraction"),
    "lee_dist": (lambda: metric.lee_dist((0, 0), (0,), 5), DimensionError, "points have different lengths"),
    "lee_sphere_size": (lambda: metric.lee_sphere_size(0, 1), ValueError, "need n >= 1 and radius >= 0"),
    "weight_shell": (lambda: list(metric.weight_shell(0, 0)), ValueError, "need n >= 1"),
    "anticode_size_odd": (lambda: metric.anticode_size_odd(1, -1),
                          ValueError, "need n >= 1 and radius >= 0"),
    "g_volume_formula": (lambda: hadamard.g_volume_formula(1, 2), ValueError, "i and j must be at least 2"),
    "RadicalVector": (lambda: xform.RadicalVector((1,), 0), ValueError, "radicand must be positive"),
    "RadicalVector_keyword": (lambda: xform.RadicalVector(nums=(1,), radicand=-4),
                              ValueError, "radicand must be positive"),
    "column_blocks": (lambda: list(xform.column_blocks([(1, 0, 0)], 4)),
                      DimensionError, "point length disagrees with the transform order"),
    "hadamard_columns": (lambda: xform.hadamard_columns(hadamard.sylvester(1), [(1, 2), (3,)]),
                         DimensionError, "coordinate columns of a block differ in length"),
    "min_distance_cap": (lambda: analyzer.min_distance(intlat.Lattice([[2]]), cap=0),
                         ValueError, "weight cap must be at least 1, got 0"),
    "report_min_dist_cap": (lambda: analyzer.report(intlat.Lattice([[2]]), min_dist_cap=-1),
                            ValueError, "weight cap must be at least 1, got -1"),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_public_rejections(name):
    call, error, message = REJECTIONS[name]
    with pytest.raises(error, match=f"^{message}$"):
        call()


#: public entry points on two sizes a, b; each ignores what it has no use for
SIZE_CALLS = {
    "lee_dist": lambda a, b: metric.lee_dist((a, b), (b, a), a),
    "lee_sphere_size": metric.lee_sphere_size,
    "anticode_size_odd": metric.anticode_size_odd,
    "check_anticode_recurrences": metric.check_anticode_recurrences,
    "weight_shell": lambda a, b: list(metric.weight_shell(a, b)),
    "sphere_center": metric.sphere_center,
    "enumerate_sphere": metric.enumerate_sphere,
    "enumerate_anticode_odd": metric.enumerate_anticode_odd,
    "sylvester": lambda a, b: hadamard.sylvester(a),
    "paley": lambda a, b: hadamard.paley(a),
    "hadamard_code": lambda a, b: hadamard.hadamard_code(hadamard.sylvester(a)),
    "h_matrix": lambda a, b: hadamard.h_matrix(a),
    "g_matrix": hadamard.g_matrix,
    "g_volume_formula": hadamard.g_volume_formula,
    "minkowski3": lambda a, b: constructions.minkowski3(a),
    "dim4": lambda a, b: constructions.dim4(a),
    "dim4_reconciliation": lambda a, b: constructions.dim4_reconciliation(a),
    "n2_perfect": lambda a, b: constructions.n2_perfect(a),
    "gn": lambda a, b: constructions.gn(a),
    "scaled_diameter_code": constructions.scaled_diameter_code,
    "gw_perfect": lambda a, b: constructions.gw_perfect(a),
    "density_csv": lambda a, b: constructions.density_csv(a),
    "identity": lambda a, b: intlat.IntMatrix.identity(a),
    "transform_matrix": lambda a, b: xform.transform_matrix(a),
    "column_blocks": lambda a, b: list(xform.column_blocks([(0,) * b], a)),
    "continuous_box": lambda a, b: xform.continuous_box(hadamard.sylvester(1), a),
    "discrete_box": lambda a, b: xform.discrete_box(xform.TransformSpec.build(2), a),
}

#: public entry points on a lattice and a point x of its length
LATTICE_CALLS = {
    "det": lambda lat, x: intlat.det(lat.gen),
    "snf": lambda lat, x: intlat.snf(lat.gen),
    "adjugate": lambda lat, x: intlat.adjugate(lat.gen),
    "contains": lambda lat, x: intlat.contains(lat, x),
    "coset_group": lambda lat, x: intlat.coset_group(lat),
    "period": lambda lat, x: intlat.period(lat),
    "reduce_mod_period": lambda lat, x: intlat.reduce_mod_period(lat, x[0]),
    "kronecker": lambda lat, x: intlat.kronecker(lat, intlat.Lattice([[2]])),
    "scale": lambda lat, x: intlat.scale(lat, x[0]),
    "puncture": lambda lat, x: intlat.puncture(lat),
    "normalize_first_column": lambda lat, x: intlat.normalize_first_column(lat),
    "parse_lattice": lambda lat, x: intlat.parse_lattice(intlat.format_lattice(lat)),
    "min_distance": lambda lat, x: analyzer.min_distance(lat),
    "coset_table": lambda lat, x: analyzer.coset_table(lat),
    "covering_radius": lambda lat, x: analyzer.covering_radius(lat),
    "report": lambda lat, x: analyzer.report(lat),
    "double": lambda lat, x: constructions.double(lat),
    "hadamard_kernel_code": lambda lat, x: xform.hadamard_kernel_code(hadamard.HadamardMatrix(lat.gen)),
    "discrete_transform": lambda lat, x: xform.discrete_transform(xform.TransformSpec.build(2), x),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_degenerate_inputs_return_or_raise_library_errors(data):
    """Small and out-of-range sizes, and lattices in n <= 4 with entries in
    [-4, 4] and scales p/q, p, q <= 3: every public call returns, or raises
    ValueError or a LatticeError, never another exception."""
    a, b = data.draw(st.integers(-3, 5)), data.draw(st.integers(-3, 5))
    for call in SIZE_CALLS.values():
        try:
            call(a, b)
        except (ValueError, LatticeError):
            pass
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))
    scale = Fraction(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    x = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    try:
        lat = intlat.Lattice(rows, scale)
    except (ValueError, LatticeError):
        return
    for call in LATTICE_CALLS.values():
        try:
            call(lat, x)
        except (ValueError, LatticeError):
            pass
