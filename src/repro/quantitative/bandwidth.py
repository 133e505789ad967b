"""Channel capacity of an information path (section 1.8).

The introduction concedes that one may not be able to eliminate every
path in a system "designed to be kind to users" — e.g. the disk-timing
channel of Lampson 73 — and suggests being "satisfied to introduce
enough noise to guarantee that the bandwidth from the user to the disk
is sufficiently low".

This module quantifies that idea.  Fixing a distribution over every
object *except* the source set turns one use of a history into a classic
discrete memoryless channel::

    p(observation | source value) =
        Pr_rest[ H(sigma)[target] = observation | sigma.A = source value ]

whose Shannon **capacity** (the supremum of mutual information over
input distributions, bits per use) is computed with the Blahut-Arimoto
algorithm.  Capacity, unlike the fixed-input measures in
:mod:`repro.quantitative.channel`, is the right yardstick for an
*adversarial* source choosing its own coding.

:func:`capacity` runs Blahut-Arimoto; :func:`channel_matrix` exposes the
transition matrix; benchmark E27 demonstrates noise injection driving
the capacity of a leaky path toward zero.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from repro import obs
from repro.core.bitset import load_numpy
from repro.core.errors import DistributionError
from repro.core.state import Value
from repro.core.system import History
from repro.quantitative.distributions import StateDistribution


def channel_matrix(
    rest_distribution: StateDistribution,
    sources: Iterable[str],
    target: str,
    history: History,
) -> tuple[list[tuple[Value, ...]], list[Value], list[list[float]]]:
    """The discrete channel induced by a history.

    ``rest_distribution`` supplies the randomness of everything outside
    the source set (its marginal on the sources themselves is ignored —
    each channel input conditions the source cells to a fixed value).

    Returns ``(inputs, outputs, matrix)`` with
    ``matrix[i][j] = p(outputs[j] | inputs[i])``.
    """
    source_names = sorted(frozenset(sources))
    space = rest_distribution.space
    input_values = []
    for name in source_names:
        input_values.append(space.domain(name))
    inputs: list[tuple[Value, ...]] = list(itertools.product(*input_values))
    row_tables: list[dict[Value, Fraction]] = []
    outputs_seen: dict[Value, None] = {}
    for input_value in inputs:
        binding = dict(zip(source_names, input_value))
        row: dict[Value, Fraction] = {}
        for state, p in rest_distribution.items():
            forced = state.replace(**binding)
            observation = history(forced)[target]
            row[observation] = row.get(observation, Fraction(0)) + p
        total = sum(row.values(), Fraction(0))
        if total == 0:
            raise DistributionError("empty conditional distribution")
        row = {obs: p / total for obs, p in row.items()}
        row_tables.append(row)
        for obs in row:
            outputs_seen.setdefault(obs)
    outputs = list(outputs_seen)
    matrix = [
        [float(row.get(obs, Fraction(0))) for obs in outputs]
        for row in row_tables
    ]
    return inputs, outputs, matrix


def capacity(
    rest_distribution: StateDistribution,
    sources: Iterable[str],
    target: str,
    history: History,
    tolerance: float = 1e-9,
    max_iterations: int = 10_000,
) -> float:
    """Shannon capacity of the induced channel, in bits per use, via
    Blahut-Arimoto.

    >>> from repro.lang.builders import SystemBuilder
    >>> from repro.lang.expr import var
    >>> from repro.core.system import History
    >>> b = SystemBuilder().integers("a", "b", bits=1)
    >>> _ = b.op_assign("copy", "b", var("a"))
    >>> system = b.build()
    >>> dist = StateDistribution.uniform_over_space(system.space)
    >>> c = capacity(dist, {"a"}, "b", History.of(system.operation("copy")))
    >>> round(c, 6)
    1.0
    """
    _inputs, _outputs, matrix = channel_matrix(
        rest_distribution, sources, target, history
    )
    return blahut_arimoto(matrix, tolerance, max_iterations)


def blahut_arimoto(
    matrix: Sequence[Sequence[float]],
    tolerance: float = 1e-9,
    max_iterations: int = 10_000,
) -> float:
    """Capacity of a transition matrix ``matrix[i][j] = p(j | i)``.

    At least one mutual-information evaluation always runs and the
    *last computed* value is returned, so tiny ``max_iterations`` can
    only under-estimate capacity — never return a ``-1.0`` sentinel or
    other artifact.  Uses a NumPy bulk path when available (gated the
    same way as the bitset kernel: ``REPRO_BITSET_NUMPY=0`` forces the
    pure-Python fallback).
    """
    n_inputs = len(matrix)
    n_outputs = len(matrix[0]) if n_inputs else 0
    if n_inputs == 0 or n_outputs == 0:
        return 0.0
    iterations = max(1, max_iterations)
    np = load_numpy()
    if np is not None:
        return _blahut_arimoto_numpy(np, matrix, tolerance, iterations)
    return _blahut_arimoto_python(matrix, tolerance, iterations)


def _blahut_arimoto_python(
    matrix: Sequence[Sequence[float]], tolerance: float, max_iterations: int
) -> float:
    n_inputs = len(matrix)
    n_outputs = len(matrix[0])
    p_input = [1.0 / n_inputs] * n_inputs
    mutual = 0.0
    steps = 0
    for _ in range(max_iterations):
        steps += 1
        # q(j): output marginal under the current input distribution.
        q = [
            sum(p_input[i] * matrix[i][j] for i in range(n_inputs))
            for j in range(n_outputs)
        ]
        # Per-input divergence D(p(.|i) || q).
        divergence = []
        for i in range(n_inputs):
            row = matrix[i]
            d = 0.0
            for j in range(n_outputs):
                pij = row[j]
                if pij > 0:
                    d += pij * math.log2(pij / q[j])
            divergence.append(d)
        # Blahut-Arimoto bounds: max divergence upper-bounds capacity,
        # the current mutual information lower-bounds it.
        mutual = sum(p_input[i] * divergence[i] for i in range(n_inputs))
        upper = max(divergence)
        if upper - mutual < tolerance:
            break
        # Multiplicative update.
        weights = [p_input[i] * (2.0 ** divergence[i]) for i in range(n_inputs)]
        total = sum(weights)
        p_input = [w / total for w in weights]
    obs.count("quant.ba_iterations", steps)
    return max(mutual, 0.0)


def _blahut_arimoto_numpy(
    np, matrix: Sequence[Sequence[float]], tolerance: float, max_iterations: int
) -> float:
    P = np.asarray(matrix, dtype=np.float64)
    mask = P > 0.0
    logP = np.zeros_like(P)
    logP[mask] = np.log2(P[mask])
    n_inputs = P.shape[0]
    p_input = np.full(n_inputs, 1.0 / n_inputs)
    mutual = 0.0
    steps = 0
    for _ in range(max_iterations):
        steps += 1
        q = p_input @ P
        logq = np.zeros_like(q)
        positive = q > 0.0
        logq[positive] = np.log2(q[positive])
        divergence = (P * (logP - logq[np.newaxis, :])).sum(axis=1)
        mutual = float(p_input @ divergence)
        upper = float(divergence.max())
        if upper - mutual < tolerance:
            break
        weights = p_input * np.exp2(divergence)
        p_input = weights / weights.sum()
    obs.count("quant.ba_iterations", steps)
    return max(mutual, 0.0)
