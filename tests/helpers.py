"""Shared test utilities."""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import enzydesign.numerics as nm
from enzydesign.numerics import Tensor, finite_difference_gradient


def check_gradient(op, x, h=1e-5, tol=1e-6):
    """Compare analytic gradient of a random projection of op(x) against
    central differences.

    A fixed random weighting avoids losses that are constant by
    construction (softmax and layer_norm outputs have invariant sums).
    """
    probe = {}

    def loss_of(out):
        if out.size == 1:
            return out
        if "r" not in probe:
            probe["r"] = Tensor(np.random.default_rng(99).normal(size=out.shape))
        return nm.tensor_sum(out * probe["r"])

    t = Tensor(x, requires_grad=True)
    loss_of(op(t)).backward()

    def f(arr):
        return loss_of(op(Tensor(arr))).item()

    fd = finite_difference_gradient(f, np.array(x, dtype=np.float64), h=h)
    rel = np.abs(t.grad - fd) / (np.abs(fd) + 1e-8)
    assert rel.max() < tol, f"max relative error {rel.max():.3e}"


def mostly(field):
    """A well-formed field three times in four, else short free text."""
    return st.one_of(field, field, field, st.text(max_size=3))


# Fields near each tab-separated format.
COORD = mostly(st.floats().map(str))
NAME = mostly(st.text("ab01", min_size=1, max_size=3))


def integer(lo, hi):
    return mostly(st.integers(lo, hi).map(str))


def table(*fields):
    """File text near a format: rows of ``fields``, rows of free text split
    by tabs, or free text."""
    row = (st.tuples(*fields).map("\t".join)
           | st.lists(st.text(max_size=4), max_size=6).map("\t".join))
    return st.text() | st.lists(row, max_size=4).map("\n".join)


def read_text_as(reader, text, *errors):
    """``reader(path)`` on a file holding ``text``; None if it raised one of
    ``errors``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.tsv"
        path.write_text(text, encoding="utf-8")
        try:
            return reader(path)
        except errors:
            return None
