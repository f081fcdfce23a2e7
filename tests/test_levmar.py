from importlib import resources

import numpy as np
import pytest

from rabispec import levmar
from rabispec.cli import main
from rabispec.errors import ConvergenceError


def _exponential_decay():
    """Residuals of a * exp(-k t) against noiseless data with a = 2, k = 0.7, per stacked row."""
    t = np.linspace(0.0, 4.0, 25)
    y = 2.0 * np.exp(-0.7 * t)
    return lambda stack: stack[:, :1] * np.exp(-stack[:, 1:] * t) - y


def test_converges_on_known_problem():
    result = levmar.least_squares_lm(_exponential_decay(), np.array([1.0, 0.2]))
    assert result.message in ("converged", "gradient vanished")
    assert result.x == pytest.approx([2.0, 0.7], abs=1e-8)
    assert result.rms < 1e-10
    assert result.iterations < levmar.MAX_ITERATIONS


def test_jacobian_is_one_stacked_call():
    model = _exponential_decay()
    stacks = []

    def spy(stack):
        stacks.append(stack.copy())
        return model(stack)

    x = np.array([2.5, 0.4])
    jac = levmar._numerical_jacobian(spy, x)
    assert len(stacks) == 1
    assert stacks[0].shape == (2 * x.size, x.size)
    assert jac.flags.c_contiguous
    expected = np.empty((25, x.size))
    for j in range(x.size):
        h = levmar.FD_STEP * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        expected[:, j] = (model(xp[np.newaxis])[0] - model(xm[np.newaxis])[0]) / (2.0 * h)
    assert jac.tobytes() == expected.tobytes()


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(levmar, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError, match="within 2 iterations"):
        levmar.least_squares_lm(_exponential_decay(), np.array([1.0, 0.2]))


def test_cli_reports_iteration_cap_with_exit_two(monkeypatch, capsys):
    monkeypatch.setattr(levmar, "MAX_ITERATIONS", 1)
    fixture = resources.files("rabispec").joinpath("data/synthetic_transitions.csv")
    code = main(
        ["fit-params", "--input", str(fixture), "--init-delta", "1.2",
         "--init-omega", "6.4", "--init-g", "0.5", "--nmax", "12"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: least-squares fit did not converge within 1 ")
    assert captured.err.count("\n") == 1
