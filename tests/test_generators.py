from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegel2.generators as gmod
from siegel2 import qformat
from siegel2.errors import ConstructionError
from siegel2.expansion import SiegelExpansion, leading_index, wronskian35
from siegel2.generators import (
    GENERATOR_WEIGHTS,
    WITT_LAYERS,
    WITT_PINS,
    GeneratorRegistry,
    MonomialSpec,
    _pin,
    witt_image,
)
from siegel2.jacobi import jacobi_combine
from siegel2.qexp1 import QSeries1, delta1, eisenstein1
from siegel2.verify import (
    GENSET_C,
    GENSET_INTEGRAL,
    sharpness_witness,
    verify_identities,
    verify_theorem1_rank,
    weight_monomials,
)

ALL_NAMES = tuple(GENERATOR_WEIGHTS)


def test_integrality_and_weights(gens6):
    for name, exp in gens6.items():
        assert exp.weight == GENERATOR_WEIGHTS[name]
        assert all(isinstance(c, int) for c in exp.coeffs.values()), name


def test_witt_pins_agree_on_the_parallel_weight(gens6):
    for name, order, image in WITT_PINS:
        if image != "0":
            got = gens6[name].witt(order)
            assert got.weight == witt_image(image, 6).weight == gens6[name].weight + order


def test_known_coefficients(gens6):
    assert gens6["X4"].coeff(1, 0, 1) == 30240
    assert leading_index(gens6["X10"].coeffs) == (1, -1, 1)
    assert gens6["X12"].coeff(1, 0, 1) == 10
    assert gens6["Y12"].coeff(0, 0, 1) == 1
    assert gens6["X16"].coeff(1, 0, 1) == 1
    assert gens6["X16"].coeff(1, 1, 1) == 0
    assert gens6["X16"].coeff(1, -1, 1) == 0


def test_registry_serves_lower_precision_by_truncation(registry, gens6):
    x4_small = registry.generator("X4", 3)
    assert x4_small == gens6["X4"].truncate(3)
    assert x4_small.precision == 3


def test_cache_round_trip(tmp_path, registry, gens6):
    reg = GeneratorRegistry(tmp_path)
    exp = reg.generator("X12", 4)
    path = tmp_path / "X12.p4.qexp"
    assert path.is_file()
    name, parsed = qformat.parse_siegel(path.read_text(encoding="utf-8"))
    assert name == "X12" and parsed == exp
    # a fresh registry must serve from disk without rebuilding
    reg2 = GeneratorRegistry(tmp_path)
    original = gmod._build
    gmod._build = lambda *a, **k: (_ for _ in ()).throw(AssertionError("rebuilt"))
    try:
        again = reg2.generator("X12", 4)
    finally:
        gmod._build = original
    assert again == exp


def test_cache_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SIEGEL2_CACHE", str(tmp_path / "envcache"))
    reg = GeneratorRegistry()
    reg.generator("X4", 2)
    assert (tmp_path / "envcache" / "X4.p2.qexp").is_file()


def test_build_generator_convenience(tmp_path):
    reg = GeneratorRegistry(tmp_path)
    exp = reg.generator("X6", 3)
    assert exp.weight == 6 and exp.precision == 3
    with pytest.raises(ValueError):
        reg.generator("X99", 3)


def test_monomial_eval(registry):
    spec = MonomialSpec.from_dict({"X10": 1, "X12": 1})
    exp = registry.monomial(spec, 6)
    assert exp.weight == 22
    assert leading_index(exp.coeffs) == (2, -2, 2)
    f39 = registry.monomial(MonomialSpec.from_dict({"X4": 1, "X35": 1}), 6)
    assert leading_index(f39.coeffs) == (2, -1, 3)
    one = registry.monomial(MonomialSpec(), 4)
    assert one.weight == 0 and one.coeffs == {(0, 0, 0): 1}


def test_monomial_spec_behaviour():
    spec = MonomialSpec.from_dict({"X12": 1, "X10": 2})
    assert str(spec) == "X10^2*X12"
    assert spec.weight == 32
    assert spec.layer == 3 == spec.leading_index[0]
    assert MonomialSpec.from_dict({"X4": 2, "Y12": 1, "X35": 1}).layer == 2
    assert str(MonomialSpec()) == "1" and MonomialSpec().layer == 0
    genset = GENSET_INTEGRAL + ("X35",)
    for spec in (spec for k in range(61) for spec in weight_monomials(k, genset)):
        assert spec.layer == spec.leading_index[0], str(spec)
    assert MonomialSpec.from_dict({"X4": 0}) == MonomialSpec()
    with pytest.raises(ValueError):
        MonomialSpec((("X4", 0),))
    with pytest.raises(ValueError):
        MonomialSpec.from_dict({"E8": 1})


def test_monomial_spec_is_a_frozen_dict_key():
    # Equal exponents in any order are one key, as the registry's memo needs.
    spec = MonomialSpec((("X12", 1), ("X10", 2)))
    same = MonomialSpec.from_dict({"X10": 2, "X12": 1})
    assert spec == same and hash(spec) == hash(same)
    assert spec.exponents == (("X10", 2), ("X12", 1))
    held = {(spec, 6): "held"}
    assert held[same, 6] == "held" and (MonomialSpec(), 6) not in held
    assert spec != MonomialSpec.from_dict({"X10": 1, "X12": 1}) and spec != spec.exponents
    with pytest.raises(AttributeError):
        spec.exponents = ()


# Per Taylor order, a change to a precision-4 build that moves that Witt
# image alone and keeps integrality, the sign symmetries and the leading term.
WITT_PERTURBATIONS = {
    0: {(2, 0, 2): 1},
    1: {(3, 1, 4): 1, (4, -1, 3): 1, (3, -1, 4): -1, (4, 1, 3): -1},
    2: {(2, 1, 2): 1, (2, -1, 2): 1, (2, 0, 2): -2},
}


@pytest.mark.parametrize(
    "name, order, image",
    WITT_PINS,
    ids=[f"{WITT_LAYERS[order]}.{name}" for name, order, _ in WITT_PINS],
)
def test_each_witt_pin_rejects_a_build_that_moves_its_image(registry, name, order, image):
    exp = registry.generator(name, 4)
    _pin(name, exp)
    coeffs = dict(exp.coeffs)
    for key, delta in WITT_PERTURBATIONS[order].items():
        coeffs[key] = coeffs.get(key, 0) + delta
    bad = SiegelExpansion(exp.weight, exp.precision, coeffs)
    assert not bad.symmetry_violations()
    lead = leading_index(exp.coeffs)
    assert leading_index(bad.coeffs) == lead and bad.coeffs[lead] == exp.coeffs[lead]
    for layer in range(3):
        assert (bad.witt(layer) != exp.witt(layer)) == (layer == order)
    with pytest.raises(ConstructionError, match=f"^{name}: {WITT_LAYERS[order]} image"):
        _pin(name, bad)


@pytest.mark.parametrize(
    "name, layer, key",
    [("X10", 1, (0, 0, 1)), ("X12", 1, (0, 0, 2)), ("X16", 1, (0, 0, 1)), ("X35", 2, (1, 1, 2))],
)
def test_pins_reject_a_symmetric_build_nonzero_below_its_layer(gens6, name, layer, key):
    """The leading-term and symmetry pins imply vanishing where min(m, n) < layer."""
    exp = gens6[name]
    assert MonomialSpec.from_dict({name: 1}).layer == layer > min(key[0], key[2])
    sign = -1 if exp.weight % 2 else 1
    m, r, n = key
    coeffs = dict(exp.coeffs)
    for index, c in {(m, r, n): 1, (m, -r, n): sign, (n, r, m): sign, (n, -r, m): 1}.items():
        coeffs[index] = c
    bad = SiegelExpansion(exp.weight, exp.precision, coeffs)
    assert not bad.symmetry_violations()
    with pytest.raises(ConstructionError, match=f"^{name}: leading term"):
        _pin(name, bad)


def test_the_leading_term_pin_names_the_built_and_the_pinned_term(gens6):
    with pytest.raises(ConstructionError) as refusal:
        _pin("X10", 2 * gens6["X10"])
    assert str(refusal.value) == "X10: leading term (1, -1, 1) -> 2, expected (1, -1, 1) -> 1"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_the_leading_term_pin_refuses_the_zero_expansion_naming_the_generator(name):
    zero = SiegelExpansion(GENERATOR_WEIGHTS[name], 4, {})
    with pytest.raises(ConstructionError) as refusal:
        _pin(name, zero)
    assert str(refusal.value) == f"{name}: the expansion is 0, so it has no leading term"


def test_pin_suite_rejects_corrupted_cache(tmp_path):
    reg = GeneratorRegistry(tmp_path)
    good = reg.generator("X4", 2)
    path = tmp_path / "X4.p2.qexp"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("name X4", "name X6"), encoding="utf-8")
    # A file holding another generator is never served: it is a miss,
    # rebuilt and replaced.
    fresh = GeneratorRegistry(tmp_path)
    assert fresh.generator("X4", 2) == good
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda text: b"garbage\n", id="bad-magic"),
        pytest.param(lambda text: text.encode()[: len(text) // 2], id="truncated"),
        pytest.param(lambda text: b"\xff\xfe" + text.encode(), id="not-utf8"),
        pytest.param(lambda text: text.replace("weight 6", "weight 4").encode(), id="weight"),
    ],
)
def test_bad_cache_file_is_a_miss_and_is_replaced(tmp_path, gens6, corrupt):
    path = tmp_path / "X6.p4.qexp"
    good = gens6["X6"].truncate(4)
    text = qformat.dump_siegel(good, "X6")
    path.write_bytes(corrupt(text))
    assert GeneratorRegistry(tmp_path).generator("X6", 4) == good
    assert path.read_text(encoding="utf-8") == text


def test_cache_file_below_its_named_precision_is_a_miss(tmp_path, gens6):
    # The name promises precision 9, the header holds 3.
    short = qformat.dump_siegel(gens6["X4"].truncate(3), "X4")
    (tmp_path / "X4.p9.qexp").write_text(short, encoding="utf-8")
    assert GeneratorRegistry(tmp_path).generator("X4", 5) == gens6["X4"].truncate(5)
    rebuilt = (tmp_path / "X4.p5.qexp").read_text(encoding="utf-8")
    assert rebuilt == qformat.dump_siegel(gens6["X4"].truncate(5), "X4")
    # The rejected file is deleted, so no later request parses it again.
    assert not (tmp_path / "X4.p9.qexp").exists()


def test_each_precision_is_truncated_once(tmp_path, monkeypatch):
    reg = GeneratorRegistry(tmp_path)
    top = reg.generator("X4", 3)
    calls = []
    truncate = SiegelExpansion.truncate

    def counted(self, precision):
        calls.append(precision)
        return truncate(self, precision)

    monkeypatch.setattr(SiegelExpansion, "truncate", counted)
    served = [reg.generator("X4", 2) for _ in range(3)]
    assert calls == [2]
    assert served[0] is served[1] is served[2] == top.truncate(2)
    assert reg.generator("X4", 3) is top


def test_powers_are_held_in_one_chain(registry, gens6, monkeypatch):
    """``power`` serves every g^e over Z from one chain per (name,
    precision): a repeat call returns the same object, each new power is
    one product, and exponent 0 raises.  g^1 is the generator."""
    reg = GeneratorRegistry(registry.cache_dir)
    names = ("X4", "X10", "X35")
    formed = []
    mul = SiegelExpansion.__mul__

    def counted(self, other):
        formed.append(self.weight)
        return mul(self, other)

    monkeypatch.setattr(SiegelExpansion, "__mul__", counted)
    for name in names:
        g = gens6[name].truncate(5)
        assert reg.power(name, 1, 5) is reg.generator(name, 5)
        cube = reg.power(name, 3, 5)
        square = reg.power(name, 2, 5)
        assert cube is reg.power(name, 3, 5) and square is reg.power(name, 2, 5)
        assert reg.power(name, 1, 5) == g and square == g**2 and cube == g**3
    # g^2 and g^3 once per name, whatever the order of the requests.
    assert len(formed) == 2 * len(names)
    assert set(reg._chains) == {(name, 5) for name in names}
    with pytest.raises(ValueError):
        reg.power("X6", 0, 5)


def test_monomial_is_the_folded_product_of_its_powers(registry, gens6):
    """One packed product per monomial equals the left fold of binary
    products, for every monomial of weight <= 40 in the integral generators
    and X35."""
    genset = GENSET_INTEGRAL + ("X35",)
    specs = [spec for k in range(41) for spec in weight_monomials(k, genset)]
    assert len(specs) > 100
    for spec in specs:
        folded = SiegelExpansion.constant(1, 5)
        for name, e in spec.exponents:
            folded = folded * registry.power(name, e, 5)
        got = registry.monomial(spec, 5)
        assert got == folded, str(spec)
        assert got.weight == spec.weight


def test_certificates_leave_no_fp_monomials_held(registry, gens6):
    """Passing certificates at p = 2, 5 and 7, in even and odd weight, form
    no monomial and no power and leave no expansion mod p in any registry
    memo, only the packed chains of the leading coefficients at zeta = 1
    mod p, each headed by ``taylor_lead`` of its row's residues mod p.  Nor
    does the borcherds-structure suite, which reduces its generators itself."""
    reg = GeneratorRegistry(registry.cache_dir)
    for k, p in ((24, 5), (16, 2), (45, 7)):
        assert verify_theorem1_rank(k, p, 5, reg).passed
    assert reg._monomials == {} and reg._chains == {}
    assert verify_identities("borcherds-structure", 5, 4, reg).passed
    held = [*reg._forms.values(), *reg._served.values(), *reg._lifted.values()]
    assert reg._served and all(type(exp) is SiegelExpansion for exp in held)
    assert reg._monomials == {} and reg._chains == {}
    assert {p for _, _, p in reg._taylor} == {2, 5, 7}
    for (name, bound, p), held in reg._taylor.items():
        lead = gmod.taylor_lead(reg.generator_row(name, bound).reduce_mod(p), p)
        assert held is not None and lead is not None, (name, bound, p)
        (v, chain), (lead_v, h) = held, lead
        assert v == lead_v and gmod.unpacked(chain[0], bound, p) == _slots(h, bound), (name, bound, p)
        assert all(0 < c < p for c in h.values()) and all(type(x) is int for x in chain)


def test_lift_rows_are_the_leading_rows_of_the_pinned_generators(registry):
    """Each generator's row from the lift formula (``generator_row``) is row
    m = layer of the pinned whole-box generator, cut to n <= P, formed at
    every P <= 14 in turn (X35 below 3 as the cut of its row at 3); a
    smaller bound is the cut of the row held at 14."""
    reg = GeneratorRegistry(registry.cache_dir)
    for name in ALL_NAMES:
        layer = MonomialSpec.from_dict({name: 1}).layer
        whole = reg.generator(name, 14)
        for P in range(15):
            cut = {k: c for k, c in whole.coeffs.items() if k[0] == layer and k[2] <= P}
            row = reg.generator_row(name, P)
            assert row.coeffs == cut and row.precision == P, (name, P)
            assert row.weight == GENERATOR_WEIGHTS[name]
        held = reg._lifted[name]
        assert held.precision == 14
        assert reg.generator_row(name, 5) == held.truncate(5) and reg._lifted[name] is held


def test_leading_coefficients_at_zeta_1(tmp_path):
    """Each generator's (valuation, leading coefficient) at zeta = 1, over Z
    to n <= 20: X4 (0, E4), X6 (0, E6), X10 (2, Delta), X12 (0, 12 Delta),
    Y12 (0, Delta), X16 (0, E4 Delta), X35 (1, -2 Delta^3).  Mod p a
    coefficient that vanishes moves the valuation up: X12's is 2 mod 2 and
    mod 3, where 12 Delta is 0, and X35's is 2 mod 2; elsewhere the
    valuation stays and the coefficient is the reduction."""
    N = 20
    e4, e6, delta = eisenstein1(4, N), eisenstein1(6, N), delta1(N)
    table = {
        "X4": (0, e4),
        "X6": (0, e6),
        "X10": (2, delta),
        "X12": (0, 12 * delta),
        "Y12": (0, delta),
        "X16": (0, e4 * delta),
        "X35": (1, -2 * delta**3),
    }
    shifted = {("X12", 2): 2, ("X12", 3): 2, ("X35", 2): 2}
    reg = GeneratorRegistry(tmp_path)
    for name, (v, coefficient) in table.items():
        row = reg.generator_row(name, N)
        assert gmod.taylor_lead(row.coeffs) == (v, coefficient.coeffs), name
        for p in (2, 3, 5, 7, 11):
            got_v, got = gmod.taylor_lead(row.reduce_mod(p), p)
            assert got_v == shifted.get((name, p), v), (name, p)
            if got_v == v:
                assert got == _reduced(coefficient, p), (name, p)
    assert gmod.taylor_lead(reg.generator_row("X35", 2).coeffs) is None
    assert list(tmp_path.iterdir()) == []


def _slots(residues, bound):
    """The slot list ``unpacked`` gives for residues {n: h(n)} on n <= bound."""
    return [residues.get(n, 0) for n in range(bound + 1)]


def _reduced(series, p):
    """The nonzero residues mod p of a series over Z, as {n: h(n)}."""
    return {n: r for n, c in series.coeffs.items() if (r := c % p)}


@st.composite
def residue_rows(draw):
    """(rows, bound, p): one to six rows of residues mod p on n <= bound,
    each drawn as the packed 1, the packed 0 or any row."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 101)))
    bound = draw(st.integers(0, 60))
    one, zero = [1] + [0] * bound, [0] * (bound + 1)
    row = st.one_of(
        st.just(one),
        st.just(zero),
        st.lists(st.integers(0, p - 1), min_size=bound + 1, max_size=bound + 1),
    )
    return draw(st.lists(row, min_size=1, max_size=6)), bound, p


def _packed_product_is_the_qseries1_product(rows, bound, p):
    residues = [dict(enumerate(row)) for row in rows]
    want = _reduced(QSeries1._product([QSeries1(bound, h) for h in residues]), p)
    got = gmod.packed(residues[0], bound, p)
    for h in residues[1:]:
        got = gmod.packed_mul(got, gmod.packed(h, bound, p), bound, p)
    assert gmod.unpacked(got, bound, p) == _slots(want, bound)
    assert got == gmod.packed(want, bound, p)


@settings(max_examples=200, deadline=None)
@given(residue_rows())
def test_packed_products_are_the_qseries1_products_mod_p(case):
    """A fold of ``packed_mul`` over one to six rows of residues mod p, at
    bound 0..60, decodes to their ``QSeries1`` product over Z reduced mod p.  A factor may
    be the packed 1, the identity ``packed_mul`` returns the other factor
    for, or the packed 0, whose every product is 0."""
    _packed_product_is_the_qseries1_product(*case)


def test_packed_products_hold_the_largest_slot():
    """Rows whose every residue is p - 1 reach (bound + 1)(p - 1)^2 in the
    top kept slot of a product of two, the largest value a slot holds, and
    still decode to the ``QSeries1`` product over Z reduced mod p."""
    for p in (2, 3, 5, 7, 11, 101):
        for bound in (0, 1, 2, 7, 60):
            w, top = gmod._slot_width(bound, p), (bound + 1) * (p - 1) ** 2
            full = gmod.packed(dict.fromkeys(range(bound + 1), p - 1), bound, p)
            assert (full * full >> w * bound) & ((1 << w) - 1) == top < 1 << w
            for count in range(1, 7):
                _packed_product_is_the_qseries1_product([[p - 1] * (bound + 1)] * count, bound, p)


def test_taylor_powers_are_held_in_one_chain(registry):
    """``taylor_power`` serves (e v, g^e) from one chain per (name, bound,
    p): a repeat call returns the same object, g^e decodes to the e-th
    power of the leading coefficient mod p, a row 0 mod p is the packed 0
    with valuation 0, and exponent 0 raises.  The packed 1 (X4 mod 5) and
    the packed 0 are their own powers and grow no chain."""
    reg = GeneratorRegistry(registry.cache_dir)
    for name in ("X4", "X6", "X10", "X35"):
        v, h = gmod.taylor_lead(reg.generator_row(name, 6).reduce_mod(5), 5)
        for e in (1, 2, 3):
            got_v, got = reg.taylor_power(name, e, 6, 5)
            power = _reduced(QSeries1(6, h) ** e, 5)
            assert got_v == e * v and gmod.unpacked(got, 6, 5) == _slots(power, 6), (name, e)
        cube = reg.taylor_power(name, 3, 6, 5)
        assert reg.taylor_power(name, 3, 6, 5)[1] is cube[1]
        chain = reg._taylor[name, 6, 5][1]
        if name == "X4":
            assert chain == [1] and cube == (0, 1)
        else:
            assert len(chain) == 3 and chain[2] is cube[1]
    assert reg.taylor_power("X35", 2, 2, 5) == (0, 0)
    assert reg._taylor["X35", 2, 5] == (0, [0])
    for name in ("X4", "X6"):
        with pytest.raises(ValueError):
            reg.taylor_power(name, 0, 6, 5)


def test_unit_row_names_the_constant_leading_rows(registry):
    """The generators whose leading coefficient at zeta = 1 mod p is (0, 1),
    the packed constant 1, the identity of ``packed_mul``, at every bound >= 1:
    X4 mod 2, 3 and 5 and X6 mod 2, 3 and 7, whose leading rows mod p are
    the constant 1.  At bound 0 every layer-0 row is 1 mod p."""
    reg = GeneratorRegistry(registry.cache_dir)
    units = {("X4", 2), ("X4", 3), ("X4", 5), ("X6", 2), ("X6", 3), ("X6", 7)}
    for bound in (1, 6):
        for name in ALL_NAMES:
            for p in (2, 3, 5, 7, 11, 13):
                unit = reg.taylor_power(name, 1, bound, p) == (0, 1)
                assert unit == ((name, p) in units), (name, bound, p)
    assert all(reg.taylor_power(name, 1, 0, 11) == (0, 1) for name in ("X4", "X6"))


def test_x35_row_2_is_wronskian35_of_the_whole_box_leading_rows(registry):
    """``wronskian35`` of the leading rows cut from the pinned whole-box
    generators, X4 and X6 at row 0 and X10 and X12 at row 1, to n <= P,
    equals the whole-box X35 on its rows m <= 2, rows 0 and 1 being 0, at
    every P <= 12 where the determinant is normalised (P >= 3); so does
    the row ``generator_row`` serves."""
    reg = GeneratorRegistry(registry.cache_dir)
    wholes = {name: reg.generator(name, 12) for name in GENSET_C + ("X35",)}

    def rows_to(j, exp, P, low=0):
        return {k: c for k, c in exp.coeffs.items() if low <= k[0] <= j and k[2] <= P}

    layers = (0, 0, 1, 1)
    for P in range(3, 13):
        want = rows_to(2, wholes["X35"], P)
        assert min(k[0] for k in want) == 2
        rows = [
            SiegelExpansion(GENERATOR_WEIGHTS[name], P, rows_to(l, wholes[name], P, l))
            for name, l in zip(GENSET_C, layers)
        ]
        assert wronskian35(*rows).coeffs == want, P
        assert GeneratorRegistry(reg.cache_dir).generator_row("X35", P).coeffs == want


def test_a_row_1_of_a_jacobi_form_with_a_constant_term_is_refused(tmp_path, monkeypatch):
    """A row 1 is a(1, r, n) = c(4n - r^2) and leads only when the lift's
    row 0, sigma_{k-1}(n) c(0), is 0.  With c(0) = 1 in X10's and in X16's
    Jacobi forms, X10's row is refused naming X10, and so is X35's, the
    determinant over it; X16's is refused naming X16.  X12's form is kept,
    and its row is served.  Nothing is written to the cache."""
    jacobi = gmod._jacobi

    def with_constant_term_1(name, dmax):
        phi = jacobi(name, dmax)
        return QSeries1(dmax, {**phi.coeffs, 0: 1}, phi.weight) if name in ("X10", "X16") else phi

    monkeypatch.setattr(gmod, "_jacobi", with_constant_term_1)
    for name, named in (("X10", "X10"), ("X35", "X10"), ("X16", "X16")):
        with pytest.raises(ConstructionError, match=f"^{named}: c\\(0\\) = "):
            GeneratorRegistry(tmp_path).generator_row(name, 3)
    assert GeneratorRegistry(tmp_path).generator_row("X12", 3).coeffs
    assert list(tmp_path.iterdir()) == []


def test_a_row_with_a_non_integer_coefficient_is_refused(tmp_path, monkeypatch):
    """Every row ``generator_row`` forms is checked integral, as ``_pin``
    checks a generator.  With c(4) raised by 1/5 in X10's Jacobi form, X10's
    row is refused naming X10, and the certificates and the witness that
    read it raise instead of passing on a non-integral premise.  X35's
    determinant row is checked too: scaled by 1/5 over integral rows, it is
    refused naming X35.  Nothing is written to the cache."""
    jacobi, wronskian = gmod._jacobi, gmod.wronskian35

    def with_c4_raised(name, dmax):
        phi = jacobi(name, dmax)
        if name != "X10":
            return phi
        return QSeries1(dmax, {**phi.coeffs, 4: phi.coeffs[4] + Fraction(1, 5)}, phi.weight)

    with monkeypatch.context() as patch:
        patch.setattr(gmod, "_jacobi", with_c4_raised)
        with pytest.raises(ConstructionError, match=r"^X10: non-integral coefficient -9/5 at \(1, 0, 1\)$"):
            GeneratorRegistry(tmp_path).generator_row("X10", 3)
        for k, p, B in ((10, 7, 1), (20, 7, 2)):
            with pytest.raises(ConstructionError, match="^X10: non-integral"):
                verify_theorem1_rank(k, p, B, GeneratorRegistry(tmp_path))
        with pytest.raises(ConstructionError, match="^X10: non-integral"):
            sharpness_witness(20, 7, GeneratorRegistry(tmp_path))
    monkeypatch.setattr(gmod, "wronskian35", lambda *rows: wronskian(*rows) * Fraction(1, 5))
    with pytest.raises(ConstructionError, match="^X35: non-integral"):
        GeneratorRegistry(tmp_path).generator_row("X35", 3)
    assert list(tmp_path.iterdir()) == []


def test_x16_jacobi_form_is_delta_times_e41():
    """X16's Jacobi form, the one term Delta E_{4,1}, has integer
    coefficients and equals (E4 phi12 - E6 phi10)/12 from the forms of X12
    and X10, the row 1 of (X4 X12 - X6 X10)/12, at every D <= 3600, and so
    does its cut to any smaller dmax."""
    dmax = 3600
    twelfth = Fraction(1, 12)
    e4, e6 = eisenstein1(4, dmax // 4), eisenstein1(6, dmax // 4)
    phi10, phi12 = gmod._jacobi("X10", dmax), gmod._jacobi("X12", dmax)
    want = jacobi_combine([(twelfth, e4, phi12), (-twelfth, e6, phi10)])
    got = gmod._jacobi("X16", dmax)
    assert got == want and got.weight == 16 and got.coeff(0) == 0
    assert all(type(c) is int for c in got.coeffs.values())
    for d in (0, 3, 4, 7, 64, 400):
        assert gmod._jacobi("X16", d) == QSeries1(d, {D: c for D, c in want.coeffs.items() if D <= d}, 16)


def test_x16_lift_equals_the_four_generator_product(registry):
    """X16's build, the Maass lift of Delta E_{4,1}, equals the product
    (X4 X12 - X6 X10)/12 of the pinned generators at every P <= 12.  It
    is given no registry, so it reads no other generator."""
    reg = GeneratorRegistry(registry.cache_dir)
    x4, x6, x10, x12 = (reg.generator(name, 12) for name in GENSET_C)
    product = (x4 * x12 - x6 * x10) * Fraction(1, 12)
    for P in range(13):
        lift = gmod._build("X16", P, None)
        assert lift == product.truncate(P) and lift.weight == 16, P


def test_y12_build_equals_the_three_generator_formula(registry):
    """Y12's build, (V(psi) - 691 X6^2)/762048, equals its defining formula
    (X4^3 - X6^2)/1728 + 144 X12 of the pinned generators on the whole box
    at every P <= 12.  It is given no registry, so it reads no other
    generator."""
    reg = GeneratorRegistry(registry.cache_dir)
    x4, x6, x12 = (reg.generator(name, 12) for name in ("X4", "X6", "X12"))
    formula = (x4**3 - x6**2) * Fraction(1, 1728) + 144 * x12
    for P in range(1, 13):
        built = gmod._build("Y12", P, None)
        assert built == formula.truncate(P) and built.weight == 12, P
        assert all(type(c) is int for c in built.coeffs.values()), P


@pytest.mark.parametrize("k, lifted", [(12, "Y12"), (16, "X16")])
def test_the_certificates_that_prove_the_lifts_read_no_lift(registry, k, lifted):
    """``_build`` proves Y12 = (V(psi) - 691 X6^2)/762048 and ``_jacobi``
    proves X16 = V(Delta E_{4,1}) by Theorem 1 at (k, 5): both certificates
    pass on the GENSET_C monomials, which hold neither form."""
    report = verify_theorem1_rank(k, 5, 5, registry)
    assert report.passed and report.bound == 1
    assert all(lifted not in str(spec) for spec in report.monomials)
    assert sorted(map(str, report.monomials)) == sorted(map(str, weight_monomials(k, GENSET_C)))


def test_an_indivisible_y12_numerator_is_refused(tmp_path, monkeypatch):
    """A numerator V(psi) - 691 X6^2 that 762048 does not divide is refused
    naming its index, and nothing is cached."""
    lift = gmod.maass_lift

    def perturbed(phi, precision):
        exp = lift(phi, precision)
        if phi.weight == 12:
            exp.coeffs[1, 0, 1] += 1
        return exp

    monkeypatch.setattr(gmod, "maass_lift", perturbed)
    with pytest.raises(ConstructionError, match=r"^Y12: numerator at \(1, 0, 1\) is not divisible by 762048$"):
        GeneratorRegistry(tmp_path).generator("Y12", 2)
    assert list(tmp_path.iterdir()) == []


def test_x35_row_2_is_minus_eta_69_theta1(tmp_path):
    """Row 2 of X35 is -eta(tau)^69 theta1(tau, 2z) to n <= 30, with
    theta1(tau, 2z) = sum_n (-1)^n q^((2n+1)^2/8) zeta^(2n+1) and zeta^r
    read as index r: with s = 2n + 1 the term of q^j in
    prod (1 - q^i)^69 sits at (2, s, 3 + (s^2 - 1)/8 + j)."""
    N = 30
    euler = QSeries1(N, {0: 1})
    for i in range(1, N + 1):
        euler = euler * QSeries1(N, {0: 1, i: -1})
    power = euler**69
    want = {}
    for s in range(-2 * N - 1, 2 * N + 2, 2):
        shift = 3 + (s * s - 1) // 8
        sign = -1 if (s - 1) // 2 % 2 else 1
        for j, c in power.coeffs.items():
            if shift + j <= N:
                want[2, s, shift + j] = -sign * c
    row = GeneratorRegistry(tmp_path).generator_row("X35", N)
    assert row.coeffs == want and len(want) == 280
    assert list(tmp_path.iterdir()) == []


def test_slot_keys_are_shared():
    """``_slots`` returns one list per block (m, n), and a product's keys are
    its tuples."""
    slots = SiegelExpansion._slots
    x = SiegelExpansion(10, 3, {(1, -1, 1): 1, (1, 0, 1): -2, (1, 1, 1): 1})
    assert slots(x, 2, 3, 3) is slots(x, 2, 3, 3)
    square = x * x
    keys = {id(key) for m in range(4) for n in range(4) for key in slots(x, m, n, 3)}
    assert square.coeffs and all(id(key) in keys for key in square.coeffs)


def test_requests_below_the_leading_index_are_built_at_the_floor(tmp_path, gens6):
    """On an empty registry a request below the leading index builds at the
    precision that pins it and serves the truncation."""
    reg = GeneratorRegistry(tmp_path)
    low = reg.generator("X35", 2)
    assert (tmp_path / "X35.p3.qexp").is_file()
    assert not (tmp_path / "X35.p2.qexp").exists()
    assert low == reg.generator("X35", 3).truncate(2) == gens6["X35"].truncate(2)
    other = GeneratorRegistry(tmp_path / "other")
    assert other.generator("X10", 0) == gens6["X10"].truncate(0)
    assert sorted(path.name for path in other.cache_dir.iterdir()) == ["X10.p1.qexp"]
    assert other.generator("X4", 0).coeffs == {(0, 0, 0): 1}


def _flip_one_sign(coeffs):
    key = min(k for k, c in coeffs.items() if k[1] and c)
    coeffs[key] = -coeffs[key]


def _nonzero_below_the_layer(coeffs):
    coeffs[0, 0, 1] = coeffs[1, 0, 0] = 1


def _double_the_leading_coefficient(coeffs):
    coeffs[1, -1, 1] *= 2


@pytest.mark.parametrize(
    "corrupt",
    [None, _flip_one_sign, _nonzero_below_the_layer, _double_the_leading_coefficient, dict.clear],
    ids=["clean", "flipped-sign", "below-layer", "leading-doubled", "zero"],
)
def test_a_cache_file_that_fails_its_pins_is_deleted_and_rebuilt(
    tmp_path, gens6, monkeypatch, corrupt
):
    """A well-formed X10.p6 file is pinned on load: a clean one serves a
    request at P = 5 by truncation, with no build; a corrupted one is
    deleted, and the rebuild at P = 5 writes the bytes of a fresh build."""
    fresh_dir, cache_dir = tmp_path / "fresh", tmp_path / "cache"
    fresh = GeneratorRegistry(fresh_dir).generator("X10", 5)
    coeffs = dict(gens6["X10"].coeffs)
    if corrupt is not None:
        corrupt(coeffs)
    cache_dir.mkdir()
    stored = cache_dir / "X10.p6.qexp"
    stored.write_text(qformat.dump_siegel(SiegelExpansion(10, 6, coeffs), "X10"), encoding="utf-8")
    builds = []
    build = gmod._build

    def counted(name, precision, registry):
        builds.append((name, precision))
        return build(name, precision, registry)

    monkeypatch.setattr(gmod, "_build", counted)
    assert GeneratorRegistry(cache_dir).generator("X10", 5) == fresh
    rebuilt = cache_dir / "X10.p5.qexp"
    if corrupt is None:
        assert builds == [] and stored.exists() and not rebuilt.exists()
    else:
        assert builds == [("X10", 5)] and not stored.exists()
        assert rebuilt.read_bytes() == (fresh_dir / "X10.p5.qexp").read_bytes()
