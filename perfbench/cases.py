"""Static case lists and seeded input generation for the four workloads.

A case is one point of a workload's mix (map family, conformal radius,
mode, truncation, node count or CLI command). The timed loop cycles
through a workload's *pool*: the cases on which the program under test
passes the benchmark's checks at the commit that defined the benchmark,
for every seed tried. The remaining *known-defect* cases are not timed;
they are attempted once per run with fixed inputs (the census) so that a
fix or a regression in them moves ``solved_share`` without making the
timed operations fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Map coefficients (a0, a1, ...) of Psi(w) = w + a0 + a1/w + ... at gamma = 1.
# A map at radius gamma is the same shape scaled by gamma: a_k -> a_k gamma^(k+1).
SHAPES = {
    "disk": (0.0,),
    "ellipse": (0.0, 0.3),
    "fourterm": (0.1, 0.25, 0.08 + 0.05j, 0.03),
    "elongated": (0.0, 0.9),
}
FAMILIES = tuple(SHAPES)
GAMMAS = (0.5, 1.0, 2.0)
MODES = ("transmission", "cavity")
TRUNCATIONS = (16, 32, 64)
ORACLE_NODES = (128, 256, 512)
LOADING_MODES = 2
PROBE_POINTS = 256
GRID_POINTS = 101
CLI_GRID_POINTS = 41
CENSUS_SEED = 0
ORDER_SEED = 0


def map_coefficients(family: str, gamma: float) -> np.ndarray:
    a = np.asarray(SHAPES[family], dtype=complex)
    return a * gamma ** (np.arange(a.size) + 1)


def psi(a: np.ndarray, w) -> np.ndarray:
    """Psi(w) = w + sum_k a_k w^-k by Horner in 1/w (the benchmark's own copy)."""
    w = np.asarray(w, dtype=complex)
    acc = np.zeros_like(w)
    winv = 1.0 / w
    for ak in np.asarray(a, dtype=complex)[::-1]:
        acc = acc * winv + ak
    return w + acc


def random_material(rng: np.random.Generator, mode: str) -> dict:
    """Lame constants; the interior pair is absent for a cavity."""
    out = {"lam": 0.5 + 2.0 * rng.random(), "mu": 0.5 + 1.5 * rng.random()}
    if mode == "transmission":
        out["lam_t"] = 0.5 + 3.0 * rng.random()
        out["mu_t"] = 0.5 + 2.5 * rng.random()
    return out


def random_loading(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Far-field coefficients A, B over modes 1..LOADING_MODES (index 0 is zero)."""
    A = np.zeros(LOADING_MODES + 1, dtype=complex)
    B = np.zeros(LOADING_MODES + 1, dtype=complex)
    A[1:] = rng.standard_normal(LOADING_MODES) + 1j * rng.standard_normal(LOADING_MODES)
    B[1:] = rng.standard_normal(LOADING_MODES) + 1j * rng.standard_normal(LOADING_MODES)
    return A, B


@dataclass(frozen=True)
class SolveCase:
    family: str
    gamma: float
    mode: str
    n: int

    @property
    def label(self) -> str:
        return f"{self.family}/g{self.gamma:g}/{self.mode}/n{self.n}"


def solve_cases() -> list[SolveCase]:
    return [SolveCase(*c) for c in itertools.product(FAMILIES, GAMMAS, MODES, TRUNCATIONS)]


# n = 16 cases away from gamma = 1 whose interface mismatch came within a
# factor 10 of the check's tolerance in 300 seeded inputs (heavy tails).
NEAR_TOLERANCE_N16 = {
    ("disk", 2.0, "transmission"),
    ("ellipse", 2.0, "transmission"),
    ("fourterm", 2.0, "transmission"),
    ("elongated", 2.0, "transmission"),
    ("elongated", 2.0, "cavity"),
    ("elongated", 0.5, "transmission"),
}


def solve_case_is_pool(case: SolveCase) -> bool:
    """Cases that solve and pass the interface check with a wide margin.

    Excluded (census only): n = 64 away from gamma = 1 and for the
    elongated map; n = 32 away from gamma = 1 except the disk cavity; the
    n = 16 cases in NEAR_TOLERANCE_N16. At the commit that defined the
    benchmark these fail, answer silently wrong or pass only narrowly
    (ROADMAP items 2 and 4).
    """
    if case.gamma == 1.0:
        return not (case.family == "elongated" and case.n == 64)
    if case.n == 16:
        return (case.family, case.gamma, case.mode) not in NEAR_TOLERANCE_N16
    return case.n == 32 and case.family == "disk" and case.mode == "cavity"


@dataclass(frozen=True)
class ConfigCase:
    """One solved configuration at gamma = 1 (field_grid and oracle_check setup)."""

    family: str
    mode: str

    @property
    def label(self) -> str:
        return f"{self.family}/{self.mode}"


def config_cases() -> list[ConfigCase]:
    return [ConfigCase(f, m) for f, m in itertools.product(FAMILIES, MODES)]


def grid_case_is_pool(case: ConfigCase) -> bool:
    """The elongated map's grids fail in map inversion (ROADMAP item 5)."""
    return case.family != "elongated"


@dataclass(frozen=True)
class OracleCase:
    config: ConfigCase
    q: int

    @property
    def label(self) -> str:
        return f"{self.config.label}/q{self.q}"


def oracle_cases() -> list[OracleCase]:
    return [OracleCase(c, q) for c in config_cases() for q in ORACLE_NODES]


def oracle_case_is_pool(case: OracleCase) -> bool:
    """At q = 128 the reference solve under-resolves the elongated cavity:
    its disagreement reached 0.7 of the tolerance in 100 seeded inputs."""
    return not (case.config == ConfigCase("elongated", "cavity") and case.q == 128)


@dataclass(frozen=True)
class CliCase:
    family: str
    command: str         # "solve" | "field" | "oracle-check"
    n: int
    mode: str

    @property
    def label(self) -> str:
        return f"{self.family}/{self.command}/n{self.n}/{self.mode}"


def cli_cases() -> list[CliCase]:
    """Per map: two solves, a field run and an oracle-check run, both modes."""
    out = []
    for family in FAMILIES:
        out += [
            CliCase(family, "solve", 16, "transmission"),
            CliCase(family, "solve", 32, "cavity"),
            CliCase(family, "field", 16, "cavity"),
            CliCase(family, "oracle-check", 16, "transmission"),
        ]
    return out


def cli_case_is_pool(case: CliCase) -> bool:
    """``elastinc field`` exits 3 on the elongated map (ROADMAP item 5)."""
    return not (case.family == "elongated" and case.command == "field")


def mixed_order(indices: list[int]) -> list[int]:
    """A fixed permutation of the pool, so any stretch of ops mixes the factors."""
    rng = np.random.default_rng(ORDER_SEED)
    return [indices[k] for k in rng.permutation(len(indices))]


# Independent streams: timed op i, setup config i, the warm-up op, census case i.
def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0, index])


def setup_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1, index])


def warmup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 2, 0])


def census_rng(index: int) -> np.random.Generator:
    return np.random.default_rng([CENSUS_SEED, 3, index])


def straddling_window(a: np.ndarray, gamma: float, rng: np.random.Generator) -> tuple:
    """A rectangle (x0, x1, y0, y1) centred near a seeded boundary point."""
    theta = 2.0 * np.pi * rng.random()
    centre = complex(psi(a, gamma * np.exp(1j * theta)))
    centre += 0.1 * gamma * complex(rng.standard_normal(), rng.standard_normal())
    hx = gamma * (0.6 + 0.6 * rng.random())
    hy = hx * (0.7 + 0.6 * rng.random())
    return (centre.real - hx, centre.real + hx, centre.imag - hy, centre.imag + hy)
