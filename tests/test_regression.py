"""Regression pin: final observables and history values of short runs.

Each case runs about 40 steps of every shipped method and compares the
final observable and the history at offsets (-tau, -tau/2, -h/2) with
values recorded from the library before the tableau rows became weight
matrices.  A refactor that only reorders floating-point sums stays inside
rtol 1e-13; a changed scheme moves these numbers by far more.
"""

import numpy as np
import pytest

from expdelay import Problem, belzen, builtin, daphnia, integrate, observed_values, quadratic_re


def _semilinear3() -> Problem:
    """3-dim semilinear DDE with a non-normal L and a nonlinear head term."""
    L = np.array([[-12.0, 3.0, 0.0], [0.5, -4.0, 1.5], [0.0, -2.0, -0.7]])
    B = np.array([[0.3, -0.2, 0.1], [0.0, 0.4, -0.3], [0.2, 0.1, -0.5]])
    phases = np.array([0.0, 1.1, 2.3])
    w = np.array([1.0, 0.5, -0.3])

    def rhs(t, v):
        return B @ v.eval(-1.0) + 0.2 * np.tanh(v.head) + np.sin(t) * w

    return Problem(
        kind="semilinear_dde",
        dim=3,
        tau=1.0,
        rhs=rhs,
        phi0=lambda th: np.cos(np.asarray(th, dtype=float)[..., None] + phases),
        L=L,
        name="semilinear3",
    )


# name -> (problem factory, h, T), each 40 steps
CASES = {
    "belzen": (belzen, 0.05, 2.0),
    "quadratic_re": (quadratic_re, 0.1, 4.0),
    "daphnia": (daphnia, 0.1, 4.0),
    "semilinear3": (_semilinear3, 0.05, 2.0),
}


def pinned_values(case: str, method: str) -> np.ndarray:
    """Observable, then each component's history at (-tau, -tau/2, -h/2),
    flattened."""
    make, h, T = CASES[case]
    prob = make()
    final = integrate(prob, builtin(method), h, T)
    thetas = np.array([-prob.tau, -prob.tau / 2.0, -h / 2.0])
    parts = [observed_values(final)]
    for state in final if isinstance(final, tuple) else (final,):
        parts.append(state.eval_many(thetas).ravel())
    return np.concatenate(parts)


PINNED = {
    ("belzen", "expeuler"): [
        0.5698737709791324, 2.647191683272067, 3.234433896747089, 0.8110700304817312
    ],
    ("belzen", "heun"): [
        0.005236487005571775, 2.7145112748791145, 3.164939116003553, 0.287164722929871
    ],
    ("belzen", "expo3"): [
        0.00019292638074458468, 2.7182776668037283, 3.1690693686221287,
        0.2830878885090887
    ],
    ("daphnia", "expeuler"): [
        0.6782449191450183, 0.3092519447237553, 0.7399000000000018, 0.6892817805483238,
        0.6782449191450183, 0.35, 0.3252061530826926, 0.30978030534960194
    ],
    ("daphnia", "heun"): [
        0.6763253210473127, 0.30950058624593546, 0.7399000000000018, 0.6881278803590684,
        0.6769533382141083, 0.35, 0.3255250195886755, 0.31001287448577947
    ],
    ("daphnia", "expo3"): [
        0.6763621300280611, 0.30949033809927395, 0.7399000000000018, 0.6881419069978233,
        0.6769689928248107, 0.35, 0.32552138126900027, 0.31000322595874735
    ],
    ("quadratic_re", "expeuler"): [
        0.614954714041921, 0.9696972041226625, 0.5477157264100805, 0.614954714041921
    ],
    ("quadratic_re", "heun"): [
        0.6966912140067615, 0.9696972041226625, 0.5040649866189377, 0.6753401857153836
    ],
    ("quadratic_re", "expo3"): [
        0.6962241096846998, 0.9696972041226625, 0.5023488752175961, 0.6749024404174455
    ],
    ("semilinear3", "expeuler"): [
        0.09655971898671334, 0.06496715811165776, -0.2980604769405284,
        0.08263054116872491, 0.04088579235302288, -0.3138064152321494,
        0.10080886801631572, 0.08722144676359526, -0.2592038745466088,
        0.09741027415611657, 0.06671660689226505, -0.29621114261474313
    ],
    ("semilinear3", "heun"): [
        0.09513832724052607, 0.06191820760781667, -0.30187994458455614,
        0.0852091986455252, 0.04402201093966965, -0.312377580867329,
        0.10089151872861307, 0.08495884467843301, -0.2647728663738661,
        0.09616016517275475, 0.06375780383294759, -0.3001796375157812
    ],
    ("semilinear3", "expo3"): [
        0.09513308185947865, 0.061837768058210195, -0.3020595246507163,
        0.08524489951152178, 0.04407088325735622, -0.31236325085287575,
        0.10087975881715333, 0.08484579449028455, -0.2650440897851445,
        0.09615266140423508, 0.06367472754833019, -0.30036124847084605
    ],
}


@pytest.mark.parametrize("method", ["expeuler", "heun", "expo3"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_final_values(case, method):
    got = pinned_values(case, method)
    np.testing.assert_allclose(got, PINNED[case, method], rtol=1e-13, atol=1e-15)
