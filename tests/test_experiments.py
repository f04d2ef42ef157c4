"""The experiment harness's mechanics: patches are undone, a cell trains
once, what the memo hands out is read-only, and the report command prints.
Only 0-episode cells run."""

import dataclasses
import re
import types

import numpy as np
import pytest

import experiments
from experiments import SHIPPED, Cell, Variant, score_cell, train_cell
from pcseg import model as M
from pcseg.tensor import Tensor


def test_a_variant_restores_every_attribute_after_its_body_raises():
    target = types.SimpleNamespace(a="a", b="b")
    variant = Variant("two patches", ((target, "a", "patched a"), (target, "b", "patched b")))
    with pytest.raises(RuntimeError, match="body"):
        with variant.applied():
            assert (target.a, target.b) == ("patched a", "patched b")
            raise RuntimeError("body")
    assert (target.a, target.b) == ("a", "b")


def test_equal_cells_train_once_and_score_under_their_variant(monkeypatch):
    trainings, forwards = [], []
    real_meta_train = M.meta_train

    def counting_meta_train(*args):
        trainings.append(args)
        return real_meta_train(*args)

    def background_forward(episode, params, bank, excluded):
        forwards.append(episode)
        return Tensor(np.zeros((len(episode.query_gt), 2))), []

    monkeypatch.setattr(M, "meta_train", counting_meta_train)
    variant = Variant("all background", ((M, "forward", background_forward),))
    first, second = Cell(variant, 0, 3, 0), Cell(variant, 0, 3, 0)
    assert first == second and first is not second
    assert score_cell(first) is score_cell(second)
    assert train_cell(first) is train_cell(second)
    assert len(trainings) == 1
    assert len(forwards) == 200  # `evaluate`'s 100 episodes, with the bank and zeroed
    assert M.forward is not background_forward


def test_memoized_arrays_are_read_only():
    result, _ = train_cell(Cell(SHIPPED, fold=0, seed=3, episodes=0))
    arrays = [p.data for p in result.params.parameters()] + [result.bank.prototypes, result.bank.update_counts]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_the_report_command_prints_four_finite_tables(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "TOY_CONFIG", dataclasses.replace(experiments.TOY_CONFIG, episodes=0))
    experiments.main()
    out = capsys.readouterr().out
    for header in ("prototype matching against", "  trained guidance parity", "guidance parity, mean", "way and shot"):
        assert f"\n{header}" in out, header
    numbers = re.findall(r"\b(?:nan|inf|\d[\d,]*(?:\.\d+)?)\b", out)
    assert len(numbers) > 50 and all(np.isfinite(float(n.replace(",", ""))) for n in numbers), out
