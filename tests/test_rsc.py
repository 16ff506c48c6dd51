"""Systematic recursive encoder: state walk, parity responses, core weight."""

import pytest

from turbobound.rsc import RscCode, step, weight2_parity_response


def walk(code, state, bits):
    out = []
    for b in bits:
        state, _, p = step(code, state, b)
        out.append((state, p))
    return out


def encode(code, bits):
    """Systematic and parity outputs of a block encoded from the zero
    state, with no termination tail."""
    state, sys_out, par_out = 0, [], []
    for b in bits:
        state, s, p = step(code, state, b)
        sys_out.append(s)
        par_out.append(p)
    return tuple(sys_out), tuple(par_out)


def core_weight(code):
    """Parity weight of the open weight-2 excursion, diverge and remerge
    transitions excluded: the sum of y_1..y_{L-1}."""
    return sum(weight2_parity_response(code)[:-1])


def test_construction_rejects():
    with pytest.raises(ValueError):
        RscCode.from_octals("1", "1")  # no memory
    with pytest.raises(ValueError):
        RscCode.from_octals("6", "7")  # feedback constant term 0
    with pytest.raises(ValueError):
        RscCode.from_octals("7", "6")  # feedforward constant term 0
    with pytest.raises(ValueError):
        RscCode.from_octals("7", "17")  # feedforward degree beyond memory


def test_equal_generators_warn():
    with pytest.warns(UserWarning, match="parity reduces to the input"):
        RscCode.from_octals("7", "7")


def test_properties():
    code = RscCode.from_octals("15", "17")
    assert code.nu == 3
    assert code.n_states == 8
    assert code.period == 7
    assert code.label() == "15/17"
    assert RscCode.from_octals("7", "5").period == 3
    assert RscCode.from_octals("17", "15").period == 4


def test_step_rejects():
    code = RscCode.from_octals("7", "5")
    with pytest.raises(ValueError):
        step(code, 4, 0)  # only 2 memory bits
    with pytest.raises(ValueError):
        step(code, -1, 0)
    with pytest.raises(ValueError):
        step(code, 0, 2)


def test_zero_input_state_cycle():
    # a single 1 lands in state 2^(nu-1); zero input then walks the
    # full nonzero state cycle and returns
    code = RscCode.from_octals("15", "17")
    state, s, p = step(code, 0, 1)
    assert (state, s, p) == (4, 1, 1)
    states = [st for st, _ in walk(code, 4, [0] * 7)]
    assert states == [6, 7, 3, 5, 2, 1, 4]


def test_zero_state_is_absorbing():
    for fb, ff in [("15", "17"), ("7", "5"), ("23", "35")]:
        code = RscCode.from_octals(fb, ff)
        assert step(code, 0, 0) == (0, 0, 0)


@pytest.mark.parametrize("fb,ff,resp", [
    ("15", "17", (0, 1, 1, 1, 0, 1, 0)),
    ("7", "5", (1, 1, 0)),
    ("17", "15", (0, 1, 1, 0)),
    ("5", "7", (1, 0)),
    ("17", "7", (1, 0, 0, 1)),  # feedforward degree < nu: y_L = 1
])
def test_weight2_parity_response(fb, ff, resp):
    assert weight2_parity_response(RscCode.from_octals(fb, ff)) == resp


def test_weight2_response_non_primitive_feedback():
    # reducible feedback, period 7 < 2^4 - 1: the cycle still closes
    code = RscCode.from_octals("35", "23")
    resp = weight2_parity_response(code)
    assert len(resp) == code.period == 7


@pytest.mark.parametrize("fb,ff,zc", [
    ("15", "17", 4),
    ("7", "5", 2),
    ("17", "15", 2),
    ("23", "35", 8),
])
def test_core_weight(fb, ff, zc):
    assert core_weight(RscCode.from_octals(fb, ff)) == zc


def test_core_weight_matches_half_period_for_primitive_feedback():
    # primitive feedback with full-degree feedforward: the open
    # excursion carries exactly 2^(nu-1) parity ones
    for fb, ff in [("7", "5"), ("15", "17"), ("23", "35"), ("45", "67")]:
        code = RscCode.from_octals(fb, ff)
        assert core_weight(code) == 1 << (code.nu - 1)


def test_encode_systematic_and_impulse():
    code = RscCode.from_octals("15", "17")
    bits = (1, 0, 0, 0, 0, 0, 0, 0)
    sys_out, par_out = encode(code, bits)
    assert sys_out == bits
    assert par_out == (1, 0, 1, 1, 1, 0, 1, 0)


def test_encode_weight2_remerges():
    # separation equal to the period: parity weight 6, state back to 0
    code = RscCode.from_octals("15", "17")
    bits = (1, 0, 0, 0, 0, 0, 0, 1)
    _, par_out = encode(code, bits)
    assert sum(par_out) == 6
    state = 0
    for b in bits:
        state, _, _ = step(code, state, b)
    assert state == 0


def test_encode_weight2_non_multiple_separation_stays_open():
    code = RscCode.from_octals("15", "17")
    state = 0
    for b in (1, 0, 0, 0, 1, 0):
        state, _, _ = step(code, state, b)
    assert state != 0
