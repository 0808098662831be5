"""One magnitude sweep over the entry points that rescale by powers of two.

For any finite field, whatever the binary exponent of its samples, each
norm, square function, maximal function and criterion returns a finite
value or raises ParameterError naming the overflow, and never emits a
warning.  The same holds for Psi_kappa and its tail bound at any positive
float argument.
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import tlmkit as tk
from tlmkit.errors import ParameterError

SPEC = tk.GridSpec(1, 64)
FAMILY = tk.build_family(SPEC, 4, "plain")  # covers every frequency of the grid
SAMPLERS = {shape: tk.WindowSampler.dyadic(SPEC, shape) for shape in ("cube", "ball")}
SMOOTH = tk.random_bandlimited(SPEC, 3, 99).values.real
SMOOTH = SMOOTH / np.abs(SMOOTH).max()  # peak exactly 1
PQ = tk.LebesguePair(4.0, 2.0)


def _field(kind: str, mantissa: float, k: int) -> tk.GridFunction:
    """Peak sample mantissa * 2^k: the smooth field, or a spike on a faint one."""
    if kind == "smooth":
        return tk.GridFunction(SPEC, np.ldexp(SMOOTH * mantissa, k))
    values = np.ldexp(SMOOTH, k - 60)
    values[5] = np.ldexp(mantissa, k)
    return tk.GridFunction(SPEC, values)


def _entry_points():
    yield "lp_norm", lambda f: tk.lp_norm(f, 2.0)
    for shape, sampler in SAMPLERS.items():
        yield f"morrey_norm[{shape}]", lambda f, w=sampler: tk.morrey_norm(f, PQ, w)
    yield "hl_maximal", lambda f: tk.hl_maximal(f, SAMPLERS["cube"]).values.real.max()
    yield "multiplier_maximal_ratio", \
        lambda f: tk.multiplier_maximal_ratio(f, FAMILY, SAMPLERS["cube"])
    for s in (-0.5, 0.0, 0.5, 2.0):
        for r in (2.0, np.inf):
            params = tk.SpaceParams(4.0, 2.0, r, s)
            yield f"tlm_norm[s={s},r={r}]", \
                lambda f, p=params: tk.tlm_norm(f, FAMILY, p, SAMPLERS["cube"])
            yield f"diamond_criterion[s={s},r={r}]", \
                lambda f, p=params: tk.diamond_criterion(f, FAMILY, p, SAMPLERS["cube"]).lhs
            yield f"square_function[s={s},r={r}]", \
                lambda f, r=r, s=s: tk.square_function(f, FAMILY, r, s).values.real.max()
            yield f"truncated_square_function[s={s},r={r}]", \
                lambda f, r=r, s=s: max(tail.max() for tail in
                                        tk.truncated_square_function(f, FAMILY, r, s, 0.1))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["smooth", "spike"]),
       mantissa=st.floats(1.0, 2.0, exclude_max=True),
       k=st.integers(-1070, 1023))
def test_entry_points_finite_or_parameter_error(kind, mantissa, k):
    f = _field(kind, mantissa, k)
    for name, call in _entry_points():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = float(call(f))
            except ParameterError as exc:
                assert "overflows float64" in str(exc), (name, str(exc))
                continue
        assert np.isfinite(value), (name, value)


# the (kappa, r) pairs of the scalar suites, and a cutoff for the tail bound
PSI_PARAMS = [tk.PhiPsiParams(k, r) for k in (0.5, 1.0, 2.0) for r in (1.0, 2.0)]
TAIL_CUT = 0.25


@settings(max_examples=100, deadline=None)
@given(mantissa=st.floats(1.0, 2.0, exclude_max=True), k=st.integers(-1074, 1023))
def test_psi_finite_or_parameter_error(mantissa, k):
    t = float(np.ldexp(mantissa, k))  # subnormal for k < -1022
    calls = []
    for params in PSI_PARAMS:
        calls.append((f"psi_kappa[{params}]", lambda p=params: [tk.psi_kappa(t, p)]))
        if not TAIL_CUT <= t <= 1.0 / TAIL_CUT:
            calls.append((f"psi_tail_bound_check[{params}]",
                          lambda p=params: tk.psi_tail_bound_check(t, TAIL_CUT, p)))
    for name, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = call()
            except ParameterError as exc:
                assert "overflows float64" in str(exc), (name, t, str(exc))
                continue
        assert all(np.isfinite(v) and v >= 0.0 for v in values), (name, t, values)
