"""The suite's warning filters against the plugins that run under them.

`pyproject.toml` turns every warning into an error.  A warning raised
inside a plugin's hook then ends the whole session with INTERNALERROR, and
no later test runs or is reported.
"""

pytest_plugins = ["pytester"]

#: One failing property test and one passing test after it.
FAILING_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_leaves_the_session_running(pytester, pytestconfig):
    # hypothesis reports a failing @given test through a hook that touches a
    # deprecated name of mypy_extensions; under the suite's own filters
    # that must fail the one test, not the session
    filters = "".join(f"\n    {entry}" for entry in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(test_pair=FAILING_PAIR)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
