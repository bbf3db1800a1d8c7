"""The number text kernel: its bytes are ``str`` of each value, and the writers' bytes
are those of a writer that calls ``str`` per cell."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab import text
from bell_lab.core import SettingQuad
from bell_lab.models import FAMILIES, DiscreteSource, FactorizableInstrument, UniformAngleSource
from bell_lab.simulate import _CSV_BLOCK_ROWS, CSV_COLUMNS, TrialLog, run_experiment

QUAD = SettingQuad.from_degrees(0, 45, 135, 90)


def kernel_text(values: np.ndarray) -> bytes:
    """The kernel's texts of ``values``, one per line, formatted a block at a time."""
    blocks = range(0, len(values), _CSV_BLOCK_ROWS)
    return b"\n".join(text.join(text.cells(values[lo : lo + _CSV_BLOCK_ROWS]), b"\n") for lo in blocks)


def str_text(values: np.ndarray) -> bytes:
    return "\n".join(map(str, values.tolist())).encode()


def kernel_sized(values: list[float]) -> np.ndarray:
    """``values`` and 128 distinct floats after them: mostly distinct, and at least 128,
    so the float kernel writes each value, not ``str`` per value and not the dedupe."""
    return np.concatenate([values, np.random.default_rng(20180).random(128)])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_float_texts_are_str(values):
    x = kernel_sized(values)
    assert kernel_text(x) == str_text(x)


def test_float_texts_are_str_through_the_kernel(monkeypatch):
    calls = counting_kernel(monkeypatch)
    kernel_text(kernel_sized([0.1, -0.0]))
    assert calls == [130]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8))
def test_int64_texts_are_str(values):
    v = np.array(values, dtype=np.int64)
    assert kernel_text(v) == str_text(v)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=12))
def test_int64_text_order_is_the_order_of_str(values):
    v = np.array(values, dtype=np.int64)
    assert [str(x) for x in v[text.order(v)].tolist()] == sorted(map(str, values))


def test_text_order_of_every_width_and_trailing_zeros():
    rng = np.random.default_rng(20183)
    powers = [s * 10**k * d for s in (-1, 1) for k in range(19) for d in (1, 2, 9) if -(2**63) <= s * 10**k * d < 2**63]
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        values = np.unique(np.concatenate([rng.integers(info.min, info.max, 20_000, dtype=dtype, endpoint=True),
                                           np.array([info.min, info.max, 0, 1, -1], dtype=dtype),
                                           np.array([p for p in powers if info.min <= p <= info.max], dtype=dtype)]))
        assert values[text.order(values)].tolist() == sorted(values.tolist(), key=str), dtype
    with pytest.raises(TypeError, match="by its text"):
        text.order(np.arange(3, dtype=np.uint64))


def test_a_million_floats_are_str():
    rng = np.random.default_rng(20181)
    n = 200_000
    bits = rng.integers(0, 2**64, n // 8, dtype=np.uint64).view(np.float64)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), 10.0 ** np.arange(-30, 31)])
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    floats = np.concatenate([
        rng.random(n),  # uniforms
        rng.random(n) * 2 * np.pi,  # angles
        rng.integers(0, 2**53, n) * 2.0**-53,  # k * 2**-53
        10 ** rng.uniform(-5, 17, n) * rng.choice([-1.0, 1.0], n),  # log-uniform on +-[1e-5, 1e17]
        np.round(rng.uniform(-1e3, 1e3, n), 3),  # three decimals: many digits removed
        bits[np.isfinite(bits)],  # every exponent, subnormals and huge values included
        powers, -powers,  # powers of two and ten, and their neighbours
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 9.999999999999999e-5, 1e16,
         9999999999999998.0, 2.0**51, 2.0**52, 2.0**53, 2.0**54, 0.1, 0.2, 0.3, 0.5, 1.0, 123.456, 5e-5, 1e-5],
    ])
    assert len(floats) >= 10**6
    assert kernel_text(floats) == str_text(floats)


def test_integers_of_every_width_are_str():
    rng = np.random.default_rng(20182)
    for dtype in (np.int8, np.uint8, np.int16, np.int32, np.uint32, np.int64, np.uint64):
        info = np.iinfo(dtype)
        values = np.concatenate([rng.integers(info.min, info.max, 20_000, dtype=dtype, endpoint=True),
                                 np.array([info.min, info.max, 0, 1, 9, 10, 99, 100], dtype=dtype)])
        assert kernel_text(values) == str_text(values), dtype
    values = rng.random(4096).astype(np.float32)  # written as the float64 of each value, as tolist gives
    assert kernel_text(values) == str_text(values)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64])
def test_integers_take_the_integer_kernel_at_every_width(monkeypatch, dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(info.bits)
    monkeypatch.setattr(text, "_distinct", None)  # integers are never deduplicated
    for v in (np.array([info.min], dtype=dtype), np.array([info.max], dtype=dtype), np.full(4096, info.max, dtype=dtype),
              np.array([info.min, info.max, 0, 1], dtype=dtype),
              np.where(np.arange(4096) % 3 > 0, -1, 1).astype(dtype),  # +-1 outcomes; -1 wraps in the unsigned
              (np.arange(4096) % 16).astype(dtype),  # lambda indices
              np.arange(4096).astype(dtype) + dtype(info.min),  # arange indices; 8 bits wrap
              rng.integers(info.min, info.max, 4096, dtype=dtype, endpoint=True)):
        assert kernel_text(v) == str_text(v), v[:4]


def counting_kernel(monkeypatch) -> list[int]:
    """The lengths of the float arrays that the float kernel's digit search gets."""
    calls, real = [], text._shortest
    monkeypatch.setattr(text, "_shortest", lambda bits: calls.append(len(bits)) or real(bits))
    return calls


@pytest.mark.parametrize("distinct", [[0.1], [-0.0, 0.0], [5e-324, 1e16, 1e-5], [-0.0, 0.0, 1e16, 0.7853981633974483]])
def test_float_blocks_of_few_distinct_values_are_str_per_value(monkeypatch, distinct):
    calls = counting_kernel(monkeypatch)
    rng = np.random.default_rng(len(distinct))
    for n in (1, 4, 127, 128, 4096):
        values = np.array(distinct)[rng.permutation(np.arange(n) % len(distinct))]
        assert kernel_text(values) == str_text(values), n
    assert calls == []  # a block's few distinct values are written by str, below the kernel's fixed cost


@pytest.mark.parametrize("n, kernel", [(127, False), (128, True), (4096, True)])
def test_random_floats_are_str_per_value_below_128_and_the_kernel_from_128(monkeypatch, n, kernel):
    calls = counting_kernel(monkeypatch)
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-6, 18, n)
    assert kernel_text(values) == str_text(values)
    assert calls == ([n] if kernel else [])


def test_fast_path_covers_nearly_every_cell_of_an_angle_log(monkeypatch):
    # A kernel that fell back to str everywhere would still write the right bytes.
    log = run_experiment(FactorizableInstrument(epsilon=0.25), QUAD, 10**5, seed=5)
    fallbacks = []
    real = text._str_cells

    def counting(values):
        fallbacks.append(len(values))
        return real(values)

    monkeypatch.setattr(text, "_str_cells", counting)
    for column in (log.lam, log.ip_1, log.ip_2):
        for lo in range(0, len(log), _CSV_BLOCK_ROWS):
            text.cells(column[lo : lo + _CSV_BLOCK_ROWS])
    assert sum(fallbacks) <= 0.001 * 3 * len(log)


def reference_csv(log: TrialLog) -> bytes:
    """The trial log as a writer that formats each cell with ``str`` writes it."""
    columns = [range(len(log)), *(getattr(log, name).tolist() for name in ("t", "pair_id", "setting_1", "setting_2",
                                                                           "lam", "ip_1", "ip_2", "a", "b"))]
    lines = [",".join(CSV_COLUMNS)] + [",".join(map(str, row)) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


_SOURCES = {
    "angle": UniformAngleSource(),
    "discrete-16": DiscreteSource.uniform(16),
    "weights": DiscreteSource((0.25, 0.0, 0.75)),
}


@pytest.mark.parametrize("source", list(_SOURCES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_csv_bytes_are_those_of_a_str_per_cell_writer(tmp_path, family, source):
    spec = FAMILIES[family](_SOURCES[source])
    for n in (1, 3, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3):
        log = run_experiment(spec, QUAD, n, seed=n)
        log.to_csv(tmp_path / "log.csv")
        assert (tmp_path / "log.csv").read_bytes() == reference_csv(log), n


def test_csv_bytes_of_a_callers_log_with_fallbacks(tmp_path):
    # First block: fast-path values mixed with values the kernel leaves to str (0.0,
    # -0.0, e notation, whole numbers at or above 2**51). Second block: only those.
    rng = np.random.default_rng(3)
    n = _CSV_BLOCK_ROWS + 10
    slow = np.array([0.0, -0.0, 1e-8, -3.5e-7, 1e20, 2.0**53, -(2.0**60), 5e-324, 1.5e300, 2.0**51 + 0.5])
    mixed = np.round(rng.uniform(-50, 50, n), 3)
    mixed[::7] = slow[rng.integers(0, len(slow), len(mixed[::7]))]
    mixed[_CSV_BLOCK_ROWS:] = slow
    log = TrialLog(
        t=-np.arange(n, dtype=np.int64) * 3,
        pair_id=rng.integers(0, 4, n).astype(np.int8),
        setting_1=-np.round(rng.uniform(0, 3, n), 3),
        setting_2=mixed[::-1].copy(),
        lam=mixed,
        ip_1=10 ** rng.uniform(-8, 20, n),
        ip_2=np.where(np.arange(n) < _CSV_BLOCK_ROWS, rng.random(n), 0.0),
        a=rng.choice(np.array([-1, 1], dtype=np.int8), n),
        b=rng.choice(np.array([-1, 1], dtype=np.int8), n),
        n_pairs=4,
    )
    log.to_csv(tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_bytes() == reference_csv(log)
    assert TrialLog.from_csv(tmp_path / "log.csv") == log


_LOADED_SCRIPT = """
import json, os, sys, traceback
from bell_lab.cli import main

failed = []
for argv, expected in json.loads(sys.argv[1]):
    pid = os.fork()  # each command starts from the modules that importing cli loaded
    if pid == 0:
        code = 1
        try:
            rc = main(argv)
            loaded = "bell_lab.text" in sys.modules
            if rc == 0 and loaded == expected:
                code = 0
            else:
                print(f"{argv}: exit {rc}, kernel loaded {loaded}, expected {expected}", file=sys.stderr)
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _pid, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status):
        failed.append(argv)
assert "bell_lab.text" not in sys.modules
assert not failed, failed
"""


def test_the_kernel_loads_only_where_an_array_is_written(tmp_path):
    base = "model.kind = factorizable_instrument\nmodel.epsilon = 0.25\nquad.a_deg = 0\nquad.b_deg = 45\n" \
           "quad.c_deg = 135\nquad.d_deg = 90\nn_trials = 20000\nseed = 7\n"
    plain = tmp_path / "plain.cfg"
    plain.write_text(base)
    discrete = tmp_path / "discrete.cfg"
    discrete.write_text(base + "model.source.kind = discrete\nmodel.source.size = 16\n")
    logged = tmp_path / "logged.cfg"
    logged.write_text(base + "outputs.trial_log = t.csv\n")
    check = tmp_path / "check.cfg"
    check.write_text(base.replace("factorizable_instrument", "time_tagged_anticorrelated").replace("model.epsilon = 0.25\n", ""))
    commands = [
        (["simulate", "--config", str(plain), "--out", str(tmp_path / "s"), "--threads", "2",
          "--sweep", str(tmp_path / "sweep.csv"), "--convergence", str(tmp_path / "conv.csv")], False),
        (["check", "--config", str(check), "--out", str(tmp_path / "c"), "--threads", "2"], False),
        (["simulate", "--config", str(logged), "--out", str(tmp_path / "l")], True),
        *((["tables", "--config", str(discrete), "--out", str(tmp_path / mode), "--key-mode", mode], True)
          for mode in ("lambda", "lambda-time")),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-c", _LOADED_SCRIPT, json.dumps(commands)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
