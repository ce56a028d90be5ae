"""Independent reference implementations used as test oracles.

Deliberately written in the most literal way possible (plain loops,
math module, no shared code with the package) so they stay independent
of the implementation paths they check. ``argmin_pick`` keeps the
vectorised full scan that the package's pick step replaced.
"""

import math

import numpy as np


def naive_learn_threshold(scores, gamma_error):
    """Quadratic scan over every candidate threshold.

    Candidates are the distinct observed scores plus one sentinel above
    all of them; for each, the below-threshold fraction is counted by a
    full pass; the best |gamma - fraction| wins with ties going to the
    smallest candidate. Returns (threshold, fraction).
    """
    scores = list(scores)
    n = len(scores)
    candidates = sorted(set(scores)) + [math.inf]
    best_t, best_prop, best_diff = None, None, None
    for t in candidates:
        below = 0
        for s in scores:
            if s < t:
                below += 1
        prop = below / n
        diff = abs(gamma_error - prop)
        if best_diff is None or diff < best_diff:
            best_t, best_prop, best_diff = t, prop, diff
    return best_t, best_prop


def argmin_pick(candidates, ranks, below, idx, gamma):
    """ATC's pick step as a scan of every kept candidate, the sentinel appended.

    The first minimum of ``|gamma - proportion|`` over all of them wins, so
    ties go to the smallest threshold. Takes and returns what
    ``atckit.atc._pick`` does: ``(threshold, proportion, below)``.
    """
    counts = np.bincount(ranks[idx], minlength=candidates.size - 1)
    total = np.cumsum(counts)
    kept = np.flatnonzero(counts)
    proportions = np.append((total[kept] - counts[kept]) / total[-1], 1.0)
    best = int(np.argmin(np.abs(gamma - proportions)))
    index = kept[best] if best < kept.size else counts.size
    return float(candidates[index]), float(proportions[best]), int(below[index])


def quantile_sorted_index(values, q):
    """Linear interpolation between order statistics, by hand."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    pos = (n - 1) * q
    lo = math.floor(pos)
    frac = pos - lo
    if lo + 1 >= n:
        return xs[-1]
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def naive_mean(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def two_point_line(g1, d1, g2, d2):
    """Closed-form line through two calibration points."""
    slope = (d2 - d1) / (g2 - g1)
    intercept = d1 - slope * g1
    return slope, intercept


def doc_regression_reference(source_conf, source_acc, target_conf, calibration):
    """Regression DoC before clamping, from the centred normal equations.

    ``source_conf`` and ``target_conf`` hold per-row max confidences and
    ``calibration`` holds (per-row max confidences, accuracy) pairs. Each
    calibration set gives the point (gap, drop) = (source mean minus its
    mean, source accuracy minus its accuracy); the least-squares line
    through those points is evaluated at the target gap and the drop
    subtracted from the source accuracy.
    """
    source_mean = naive_mean(source_conf)
    gaps = [source_mean - naive_mean(conf) for conf, _ in calibration]
    drops = [source_acc - acc for _, acc in calibration]
    gap_bar, drop_bar = naive_mean(gaps), naive_mean(drops)
    sxy, sxx = 0.0, 0.0
    for g, d in zip(gaps, drops):
        sxy += (g - gap_bar) * (d - drop_bar)
        sxx += (g - gap_bar) * (g - gap_bar)
    slope = sxy / sxx
    intercept = drop_bar - slope * gap_bar
    return source_acc - (intercept + slope * (source_mean - naive_mean(target_conf)))


def js_divergence_reference(p, base_k):
    """Jensen-Shannon divergence to the uniform vector, scalar loops."""
    u = 1.0 / base_k
    total = 0.0
    for pi in p:
        m = 0.5 * (pi + u)
        if pi > 0.0:
            total += 0.5 * pi * math.log(pi / m)
        total += 0.5 * u * math.log(u / m)
    return total


def _rel_entr_reference(x, y):
    """x * log(x / y) with scipy.special.rel_entr's branches, for x >= 0 and y > 0.

    log1p((x - y) / y) where 0.5 < x / y < 2, log(x / y) elsewhere, and 0
    where x = 0.
    """
    if x == 0.0:
        return 0.0
    ratio = x / y
    if 0.5 < ratio < 2.0:
        return x * math.log1p((x - y) / y)
    return x * math.log(ratio)


def neg_entropy_reference(p):
    """Negative entropy sum p_i log p_i with ``math.log`` and an exact ``math.fsum``.

    Returns (value, scale); scale is the sum of the terms' magnitudes,
    which bounds the rounding error of any summation order.
    """
    terms = [pi * math.log(pi) for pi in p if pi > 0.0]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def js_to_uniform_reference(p):
    """Jensen-Shannon divergence to uniform, ``math.log``/``math.log1p`` per component.

    The i-th term is (rel_entr(p_i, m_i) + rel_entr(1/k, m_i)) / 2 at the
    midpoint m_i = (p_i + 1/k) / 2, and the terms are summed exactly by
    ``math.fsum``. Returns (value, scale); scale is the sum of the two
    relative entropies' magnitudes over two. Near the uniform vector the
    pair cancels within each term, so scale, not the value, is what the
    rounding of the logs is relative to.
    """
    u = 1.0 / len(p)
    terms, parts = [], []
    for pi in p:
        m = 0.5 * (pi + u)
        a, b = _rel_entr_reference(pi, m), _rel_entr_reference(u, m)
        terms.append(0.5 * (a + b))
        parts.append(0.5 * (abs(a) + abs(b)))
    return math.fsum(terms), math.fsum(parts)


def dense_first_violation(va, vb, eps):
    """First pair i < j, in row-major order, that two score vectors order differently.

    The dense check: both full n x n sign matrices of the differences
    va[i] - va[j] and vb[i] - vb[j], where a difference within ``eps``
    counts as zero and a NaN difference disagrees with everything. Returns
    (i, j) or None.
    """
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)

    def signs(delta):
        return np.where(np.abs(delta) <= eps, 0.0, np.sign(delta))

    disagree = signs(va[:, None] - va[None, :]) != signs(vb[:, None] - vb[None, :])
    disagree[np.tril_indices_from(disagree)] = False
    hits = np.argwhere(disagree)
    if hits.size == 0:
        return None
    return int(hits[0, 0]), int(hits[0, 1])


def bfs_components(adjacent):
    """Connected components of a symmetric 0/1 matrix, by breadth-first search.

    Components come in the order of their smallest member, each as a
    sorted tuple of indices.
    """
    n = len(adjacent)
    component_of = [None] * n
    components = []
    for start in range(n):
        if component_of[start] is not None:
            continue
        component_of[start] = len(components)
        members, queue = [start], [start]
        while queue:
            u = queue.pop(0)
            for v in range(n):
                if adjacent[u][v] and component_of[v] is None:
                    component_of[v] = len(components)
                    members.append(v)
                    queue.append(v)
        components.append(tuple(sorted(members)))
    return tuple(components)


def csv_dump_text(probs, labels):
    """A dump's CSV text, built one element at a time with ``format(x, ".12g")``."""
    k = len(probs[0])
    header = [f"p{i}" for i in range(k)]
    if labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i, row in enumerate(probs):
        fields = [format(float(x), ".12g") for x in row]
        if labels is not None:
            fields.append(str(int(labels[i])))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def csv_text_tables():
    """The CSV writer's six word tables, each entry built from its text with ``int.from_bytes``."""

    def word(text: bytes) -> int:
        return int.from_bytes(text, "little")

    exponents = range(292)
    scale = np.array([float(10 ** (11 + e)) for e in exponents])
    row = np.array([min(e, 5) - 1 for e in exponents])
    exponent = np.array([0 if e <= 4 else word(b"\0e-%02d" % e) for e in exponents], "<u8")
    triples = [b"%03d" % g for g in range(1000)]
    first = np.array(
        [[word(b"0." + b"0" * z + b"\0" * (3 - z) + t) for t in triples] for z in range(4)]
        + [[word(t[:1] + b".\0\0\0\0" + t[1:]) for t in triples]],
        "<u8",
    )
    digits = np.array([word(t) for t in triples], "<u8")
    stripped = np.array([word(t.rstrip(b"0")) for t in triples], "<u8")
    return scale, row, exponent, first, digits, stripped


def validate_matrix_reference(raw, tolerance):
    """Simplex validation of an (n, k >= 2) matrix with every check run over every component, in order:
    non-finite, below -tolerance, clamp, row sums, renormalize. Returns the
    renormalized matrix, or the first fault as (row, detail) of a NotOnSimplexError.
    The row sums are numpy's, as the package's are: only their checks differ."""
    probs = np.array(raw, dtype=np.float64, ndmin=2)
    for i, row in enumerate(probs):
        if not all(math.isfinite(x) for x in row):
            return i, "non-finite component"
    for i, row in enumerate(probs):
        if any(x < -tolerance for x in row):
            return i, f"component below -{tolerance:g} ({row.min():.6g})"
    probs[probs < 0.0] = 0.0
    with np.errstate(over="ignore"):
        sums = probs.sum(axis=1)
    for i, total in enumerate(sums):
        if abs(total - 1.0) > tolerance:
            return i, f"components sum to {total:.9g}, further than {tolerance:g} from 1"
    return probs / sums[:, None]


def masked_log_kernels(probs):
    """``{score id: scores}`` of an (n, k) block, with the logs taken only where
    their argument is positive, as numpy's ``where=`` masks take them.

    This is the form the package's kernels had before they took their logs
    unmasked: ``negent`` runs ``log`` only where p > 0, and js's first
    relative entropy runs ``log1p`` only where its step exceeds -1 and
    ``log`` only where its ratio is positive, so no -inf meets a zero
    factor. The terms are added as the package adds them, sorted per row
    and then left to right, which the last column of ``cumsum`` gives.
    """
    probs = np.asarray(probs, dtype=np.float64)
    u = 1.0 / probs.shape[1]

    def row_sum(terms):
        return np.cumsum(np.sort(terms, axis=1), axis=1)[:, -1]

    def rel_entr(x, y, masked):
        out = x / y
        near = (0.5 < out) & (out < 2.0)
        step = (x - y) / y
        if masked:
            np.log1p(step, out=step, where=step > -1.0)
            np.log(out, out=out, where=out > 0.0)
        else:
            np.log1p(step, out=step)
            np.log(out, out=out)
        np.putmask(out, near, step)
        return out * x

    negent = np.zeros(probs.shape)
    np.log(probs, out=negent, where=probs > 0)
    mid = (probs + u) * 0.5
    js = (rel_entr(probs, mid, True) + rel_entr(u, mid, False)) * 0.5
    return {
        "max": np.max(probs, axis=1),
        "negent": row_sum(negent * probs),
        "l2n": row_sum(probs * probs),
        "l1u": row_sum(np.abs(probs - u)),
        "l2u": row_sum((probs - u) ** 2),
        "js": row_sum(js),
    }
