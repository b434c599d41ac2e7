"""Seeded inputs and command sequences for the benchmark workloads.

A workload's ``prepare`` writes its input files into a scratch directory,
computes the oracle's references from them, and returns the steps of one
closed-loop cycle: the CLI argv of each call and the check that its report
must pass.  The same seed gives the same files byte for byte.  Why each
workload exists is recorded in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass(frozen=True)
class Step:
    """One CLI call of a cycle; ``check`` raises oracle.OracleError on a wrong report."""

    command: str
    argv: list[str]
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path, Callable], list[Step]]
    #: Eigensolves per call of each command; the traced run requires these exactly.
    eigen_calls: dict[str, int]


def random_synthesis(rng: np.random.Generator, count: int, d: int, n: int) -> np.ndarray:
    """Dense complex Gaussian synthesis matrix of `count` vectors in A^n, A = M_d(C)."""
    shape = (count * d, n * d)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def write_frame(path: Path, synthesis: np.ndarray, d: int, n: int) -> None:
    """Write a synthesis matrix in the package's frame-file schema."""
    count = synthesis.shape[0] // d
    blocks = synthesis.reshape(count, d, n, d).transpose(0, 2, 1, 3)
    pairs = np.stack([blocks.real, blocks.imag], axis=-1)
    payload = {
        "schema": "cstar-frames/1",
        "algebra": {"d": d},
        "module": {"n": n},
        "vectors": pairs.tolist(),
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# --------------------------------------------------------------- spectral

SPECTRAL_D, SPECTRAL_N, SPECTRAL_COUNT = 2, 16, 128
SPECTRAL_XI, SPECTRAL_ETA, SPECTRAL_ALPHA = 1.0, 0.5, 1.0
PERTURBATION = 1e-3


def prepare_spectral(seed: int, workdir: Path, cli_main) -> list[Step]:
    rng = np.random.default_rng([seed, 1])
    d, n = SPECTRAL_D, SPECTRAL_N
    synth_f = random_synthesis(rng, SPECTRAL_COUNT, d, n)
    synth_g = synth_f + PERTURBATION * random_synthesis(rng, SPECTRAL_COUNT, d, n)
    path_f, path_g, path_dual = workdir / "f.json", workdir / "g.json", workdir / "dual.json"
    write_frame(path_f, synth_f, d, n)
    write_frame(path_g, synth_g, d, n)
    # The oracle reads the files back, so it checks what the CLI was given.
    synth_f, synth_g = oracle.read_synthesis(path_f), oracle.read_synthesis(path_g)
    spectrum_f, spectrum_g = oracle.frame_spectrum(synth_f), oracle.frame_spectrum(synth_g)
    frame_op = synth_f.conj().T @ synth_f
    dual_files = oracle.VerifiedFiles()

    def check_dual(report):
        oracle.check_dual(report, spectrum_f)
        dual_files.check(path_dual, lambda payload: oracle.check_dual_file(payload, frame_op))

    xi, eta = SPECTRAL_XI, SPECTRAL_ETA
    return [
        Step("analyze",
             ["analyze", str(path_f), "--xi", repr(xi), "--eta", repr(eta),
              "--alpha", repr(SPECTRAL_ALPHA), "--format", "json"],
             lambda report: oracle.check_analyze(report, spectrum_f, SPECTRAL_COUNT, xi, eta)),
        Step("dual", ["dual", str(path_f), "--out", str(path_dual), "--format", "json"], check_dual),
        Step("perturb",
             ["perturb", str(path_f), str(path_g), "--xi", repr(xi), "--eta", repr(eta),
              "--format", "json"],
             lambda report: oracle.check_perturb(report, synth_f, synth_g, spectrum_f, spectrum_g,
                                                 xi, eta)),
    ]


# ------------------------------------------------------------------ files

FILES_N, FILES_REPEATED, FILES_EXTRA = 64, 16, 1000


def prepare_files(seed: int, workdir: Path, cli_main) -> list[Step]:
    rng = np.random.default_rng([seed, 2])
    # A fixed total of extra copies keeps the file size the same for every seed.
    indices = np.sort(rng.choice(FILES_N, size=FILES_REPEATED, replace=False)) + 1
    extras = rng.multinomial(FILES_EXTRA, np.full(FILES_REPEATED, 1.0 / FILES_REPEATED))
    counts = np.ones(FILES_N)
    counts[indices - 1] += extras
    spec = ",".join(f"{i}:{1 + e}" for i, e in zip(indices, extras))
    path = workdir / "repetition.json"
    written = oracle.VerifiedFiles()

    def check_construct(report):
        oracle.check_construct_repetition(report, counts, 1)
        written.check(path, lambda payload: oracle.check_repetition_file(payload, counts, 1))

    def check_analyze(report):
        spectrum = written.check(path, lambda payload: oracle.check_repetition_file(payload, counts, 1))
        oracle.check_analyze(report, spectrum, int(counts.sum()))

    return [
        Step("construct",
             ["construct", "repetition", "--n", str(FILES_N), "--repeat", spec,
              "--out", str(path), "--format", "json"],
             check_construct),
        Step("analyze", ["analyze", str(path), "--format", "json"], check_analyze),
    ]


# ------------------------------------------------------------ weave-dense

DENSE_D, DENSE_N, DENSE_COUNT = 2, 3, 10


def prepare_weave_dense(seed: int, workdir: Path, cli_main) -> list[Step]:
    rng = np.random.default_rng([seed, 3])
    paths = [workdir / "a.json", workdir / "b.json"]
    for path in paths:
        write_frame(path, random_synthesis(rng, DENSE_COUNT, DENSE_D, DENSE_N), DENSE_D, DENSE_N)
    reference = oracle.WeaveReference.build([oracle.read_synthesis(p) for p in paths], DENSE_D)
    return [Step("weave", ["weave", *map(str, paths), "--format", "json"],
                 lambda report: oracle.check_weave(report, reference))]


# ------------------------------------------------------ weave-adversarial

ADVERSARIAL_SIZE = 14
ADVERSARIAL_SWEEP = [16, 32, 64, 128]


def prepare_weave_adversarial(seed: int, workdir: Path, cli_main) -> list[Step]:
    rng = np.random.default_rng([seed, 4])
    amp_a, amp_b = (float(a) for a in rng.uniform(0.5, 2.0, size=2))
    prefix = workdir / "pair"
    argv = ["construct", "t49", "--n", str(ADVERSARIAL_SIZE),
            "--profile1", f"geometric:{amp_a!r}:0.7", "--profile2", f"geometric:{amp_b!r}:0.8",
            "--out", str(prefix), "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"construct t49 failed with exit code {code}: {err.getvalue()}")
    paths = [workdir / "pair-a.json", workdir / "pair-b.json"]
    reference = oracle.WeaveReference.build([oracle.read_synthesis(p) for p in paths], 1)
    sweep = ",".join(map(str, ADVERSARIAL_SWEEP))
    return [Step("weave", ["weave", *map(str, paths), "--sweep", sweep, "--format", "json"],
                 lambda report: oracle.check_weave(report, reference, ADVERSARIAL_SWEEP))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectral", prepare_spectral, {"analyze": 10, "dual": 4, "perturb": 8}),
        Workload("files", prepare_files, {"construct": 2, "analyze": 1}),
        Workload("weave-dense", prepare_weave_dense, {"weave": 2 ** DENSE_COUNT}),
        Workload("weave-adversarial", prepare_weave_adversarial,
                 {"weave": 2 ** ADVERSARIAL_SIZE + len(ADVERSARIAL_SWEEP)}),
    )
}
