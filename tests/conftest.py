"""Shared test fixtures: tiny step programs for engine-level tests."""

from __future__ import annotations

from functools import partial

from kisnap import Instance, KisInvokeStep, WriteStep, ScanStep


def toy_one_write(ctx, value):
    """Write one value to the own cell, return it."""
    yield WriteStep("a", value)
    return value


def toy_two_writes(ctx, value):
    """Two writes to own cells of two arrays; fully independent across pids."""
    yield WriteStep("a", value)
    yield WriteStep("b", value + 1)
    return value


def toy_write_scan(ctx, value):
    """Write own value, then scan: the classic order-sensitive pair."""
    yield WriteStep("a", value)
    cells = yield ScanStep("a")
    return cells


def toy_kis_then_write(ctx, value):
    """Invoke the k-IS object `kis`, then write the size of the view."""
    view = yield KisInvokeStep("kis", value)
    yield WriteStep("a", len(view))
    return view


def toy_instance(program, n: int = 2, t: int = 0, arrays=("a", "b")) -> Instance:
    programs = {pid: partial(program, value=10 * pid) for pid in range(1, n + 1)}
    return Instance(n, t, None, programs, arrays=arrays, meta={"algo": "toy"})
