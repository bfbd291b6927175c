"""Independent reference implementations used as test oracles.

Everything here is written the dumb, obvious way (pure Python loops, the
textbook formula) and deliberately shares no code with the package.
"""

import itertools

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def splitmix64_ref(seed: int, count: int, start: int = 0) -> list:
    """SplitMix64 outputs for draw indices start..start+count-1, in pure
    Python integer arithmetic."""
    out = []
    for i in range(start, start + count):
        z = (seed + (i + 1) * GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def brute_ranking(pairs, scores):
    """Pairs sorted by (-score, u, v) via Python's sort."""
    rows = [(float(s), int(u), int(v)) for (u, v), s in zip(pairs, scores)]
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    return [(u, v) for _, u, v in rows]


def brute_precision_at_k(pairs, scores, truth, k):
    ranked = brute_ranking(pairs, scores)
    truth = set(truth)
    return sum(1 for p in ranked[:k] if p in truth) / k


def brute_average_precision(pairs, scores, truth):
    """AP of one candidate list; denominator counts all true edges."""
    ranked = brute_ranking(pairs, scores)
    truth = set(truth)
    total = 0.0
    found = 0
    for rank, p in enumerate(ranked, start=1):
        if p in truth:
            found += 1
            total += found / rank
    return total / len(truth)


def brute_map(pairs, scores, truth):
    """MAP over source nodes with at least one true edge."""
    truth = {(int(u), int(v)) for u, v in truth}
    sources = sorted({u for u, _ in truth})
    aps = []
    for u in sources:
        sub = [(p, s) for p, s in zip(pairs, scores) if int(p[0]) == u]
        if not sub:
            aps.append(0.0)
            continue
        sub_pairs = [p for p, _ in sub]
        sub_scores = [s for _, s in sub]
        sub_truth = {(a, b) for a, b in truth if a == u}
        aps.append(brute_average_precision(sub_pairs, sub_scores, sub_truth))
    return float(np.mean(np.array(aps)))


def fd_gradient(params, x, targets, cfg, h=1e-5):
    """Central finite differences of ae_loss over every weight and bias."""
    from dynembed.ae import ae_loss

    grads_w, grads_b = [], []
    for mats, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for m in mats:
            g = np.zeros_like(m)
            it = np.nditer(m, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = m[idx]
                m[idx] = orig + h
                up = ae_loss(params, x, targets, cfg)
                m[idx] = orig - h
                down = ae_loss(params, x, targets, cfg)
                m[idx] = orig
                g[idx] = (up - down) / (2.0 * h)
            grads.append(g)
    return grads_w, grads_b


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix from the QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def write_matrix_ref(path, m) -> None:
    """The embedding text format written one float at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def save_snapshots_ref(seq, path) -> None:
    """The snapshot text format written one edge line at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(seq)} {seq.n}\n")
        for t, g in enumerate(seq):
            for u, v, w in g.edges():
                fh.write(f"{t} {u} {v} {w:.17g}\n")


def row_indicator_factor(delta, n: int):
    """Delta as P Q^T with one column per touched row: P[:, j] = e_u and
    Q[:, j] = the change of row u."""
    rows = sorted(delta.touched_rows)
    p = np.zeros((n, len(rows)))
    q = np.zeros((n, len(rows)))
    col = {u: j for j, u in enumerate(rows)}
    for j, u in enumerate(rows):
        p[u, j] = 1.0
    for u, v, w in delta.added:
        q[v, col[u]] += w
    for u, v, w_old in delta.removed:
        q[v, col[u]] -= w_old
    for u, v, w_old, w_new in delta.reweighted:
        q[v, col[u]] += w_new - w_old
    return p, q


def brute_min_cover_size(edges) -> int:
    """Size of a minimum vertex cover of a bipartite graph given as (row, col)
    edges, by trying every subset of rows and columns from the smallest up."""
    edges = set(edges)
    vertices = sorted({("r", u) for u, _ in edges} | {("c", v) for _, v in edges})
    for size in range(len(vertices) + 1):
        for chosen in itertools.combinations(vertices, size):
            chosen = set(chosen)
            if all(("r", u) in chosen or ("c", v) in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable: all vertices always cover")
