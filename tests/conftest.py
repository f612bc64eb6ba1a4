import numpy as np


def aligned(vec: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate a global phase so vec best matches reference."""
    overlap = np.vdot(reference, vec)
    if abs(overlap) == 0.0:
        return vec
    return vec * (abs(overlap) / overlap)


def max_phase_free_error(vec: np.ndarray, reference: np.ndarray) -> float:
    return float(np.abs(aligned(vec, reference) - reference).max())


def columns_of(rows: list[dict]) -> dict[str, np.ndarray]:
    """Row dicts of a reference runner as the columns a CLI runner returns."""
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}
