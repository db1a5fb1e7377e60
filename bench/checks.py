"""Output checks, each from a property of the method or an independent computation.

Every check returns a list of failure messages; an empty list means the
output passed.  None of them compares against a stored copy of an earlier
output.  Decomposition bands are read through their public fields (`level`,
`cols`, `values`) as decoded from the `.vdec` bytes.
"""

import numpy as np

# the per-profile Gram tolerances `vecwave verify` applies (see the README)
GRAM_TOL = {"exact": 1e-10, "sampled": 1e-3}


def round_trip(x: np.ndarray, rec: np.ndarray, tol: float = 1e-10) -> list:
    """Unthresholded analysis then synthesis gives the signal back."""
    if rec.shape != x.shape:
        return [f"round trip: shape {rec.shape} != {x.shape}"]
    err = float(np.max(np.abs(rec - x)))
    scale = float(np.max(np.abs(x)))
    if not err <= tol * scale:
        return [f"round trip: max error {err:.3g} > {tol:g} * max|x| = {tol * scale:.3g}"]
    return []


def parseval(x: np.ndarray, bands, tol: float = 1e-12) -> list:
    """An orthonormal transform keeps energy."""
    e_sig = float(np.sum(x * x))
    e_dec = float(sum(np.sum(b.values * b.values) for b in bands))
    if not abs(e_dec - e_sig) <= tol * e_sig:
        return [f"parseval: decomposition energy {e_dec!r} vs signal energy {e_sig!r}"]
    return []


def census(bands, m: int, n: int, d: int) -> list:
    """The valid coefficient slots number m * n^d, one per sample."""
    total = 0
    for b in bands:
        for col in b.cols:
            total += m * int(np.prod([length for _, _, length in col]))
    if total != m * n**d:
        return [f"census: {total} slots, expected m * n^d = {m * n**d}"]
    return []


def _eligible_columns(band) -> list:
    # wavelet bands are thresholded whole; base bands only in their detail
    # columns, so all-approx columns always survive
    if band.level >= 0:
        return list(range(len(band.cols)))
    return [r for r, col in enumerate(band.cols) if any(kind == "detail" for kind, _, _ in col)]


def threshold_sides(raw_bands, thr_bands, tau: float) -> list:
    """Every matrix below tau was zeroed and every other one kept, bit for bit.

    Frobenius norms are recomputed with numpy from the unthresholded bands.
    """
    errors = []
    if len(raw_bands) != len(thr_bands):
        return [f"threshold: {len(thr_bands)} bands, expected {len(raw_bands)}"]
    for raw, thr in zip(raw_bands, thr_bands):
        if raw.values.shape != thr.values.shape:
            errors.append(f"threshold: band shape {thr.values.shape} != {raw.values.shape}")
            continue
        cols = _eligible_columns(raw)
        keep_cols = [r for r in range(raw.values.shape[1]) if r not in cols]
        if keep_cols and not np.array_equal(raw.values[:, keep_cols], thr.values[:, keep_cols]):
            errors.append("threshold: an all-approx column changed")
        if not cols:
            continue
        sub_raw = raw.values[:, cols]
        sub_thr = thr.values[:, cols]
        norms = np.sqrt(np.sum(sub_raw * sub_raw, axis=(0, 1)))
        below = norms < tau
        zeroed = np.all(sub_thr == 0.0, axis=(0, 1))
        kept = np.all(sub_thr == sub_raw, axis=(0, 1))
        bad_low = int(np.count_nonzero(below & ~zeroed))
        bad_high = int(np.count_nonzero(~below & ~kept))
        if bad_low:
            errors.append(f"threshold: {bad_low} matrices below tau were not zeroed")
        if bad_high:
            errors.append(f"threshold: {bad_high} matrices at or above tau were changed")
    return errors


def threshold_energy(x: np.ndarray, rec: np.ndarray, raw_bands, thr_bands, tol: float = 1e-10) -> list:
    """||x - rec||^2 equals the energy of the zeroed coefficients (orthogonality)."""
    lost = float(np.sum((x - rec) ** 2))
    zeroed = float(sum(np.sum((r.values - t.values) ** 2) for r, t in zip(raw_bands, thr_bands)))
    scale = float(np.sum(x * x))
    if not abs(lost - zeroed) <= tol * scale:
        return [f"threshold energy: ||x - rec||^2 = {lost!r} but zeroed energy = {zeroed!r}"]
    return []


def codec_exact(data: bytes, decode, encode) -> list:
    """decode(encode(.)) is bit-exact: re-encoding the decoded value gives the same bytes."""
    try:
        again = encode(decode(data))
    except Exception as exc:  # any decoder error is a codec failure here
        return [f"codec: decoding failed: {type(exc).__name__}: {exc}"]
    if again != data:
        return ["codec: re-encoded bytes differ from the input"]
    return []


def same_values(a: np.ndarray, b: np.ndarray, what: str) -> list:
    """Bitwise equality of two float arrays, as a codec round trip must give."""
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{what}: values differ after decoding"]
    return []


def periodic_pyramid(x: np.ndarray, h, h_start: int, g, g_start: int, levels: int):
    """Periodic correlate-and-decimate pyramid of one 1-D signal, from the taps.

    coef[k] = sum_i taps[i] * a[(2k + start + i) mod len(a)].  Returns
    (approx, details) with details finest first.
    """
    a = np.asarray(x, dtype=float)
    details = []
    for _ in range(levels):
        size = len(a)
        k = np.arange(size // 2)[:, None]
        a_idx = (2 * k + h_start + np.arange(len(h))[None, :]) % size
        d_idx = (2 * k + g_start + np.arange(len(g))[None, :]) % size
        details.append(a[d_idx] @ np.asarray(g))
        a = a[a_idx] @ np.asarray(h)
    return a, details


def matches_pyramid(bands, x: np.ndarray, h, h_start: int, g, g_start: int, levels: int, tol: float = 1e-12) -> list:
    """An m = 1, d = 1 decomposition equals the scalar pyramid coefficients."""
    approx, details = periodic_pyramid(x, h, h_start, g, g_start, levels)
    smax = len(x).bit_length() - 1
    want = {("approx", smax - levels): approx}
    for i, det in enumerate(details):
        want[("detail", smax - 1 - i)] = det
    scale = tol * float(np.max(np.abs(x)))
    errors = []
    seen = set()
    for b in bands:
        (kind, scale_b, length), = b.cols[0]
        key = (kind, scale_b)
        seen.add(key)
        if key not in want:
            errors.append(f"pyramid: unexpected subband {key}")
            continue
        got = b.values[0, 0, :length]
        if got.shape != want[key].shape or not np.max(np.abs(got - want[key])) <= scale:
            errors.append(f"pyramid: subband {key} differs from the reference")
    if seen != set(want):
        errors.append(f"pyramid: subbands {sorted(set(want) - seen)} missing")
    return errors


def dense_star(start_a, vals_a, start_b, vals_b, level: int) -> np.ndarray:
    """Matrix of channel inner products by dense quadrature on one grid.

    vals_* have shape (m, *space) with sample p at (start + p) * 2**-level.
    """
    d = vals_a.ndim - 1
    m = vals_a.shape[0]
    sl_a, sl_b = [slice(None)], [slice(None)]
    for i in range(d):
        lo = max(start_a[i], start_b[i])
        hi = min(start_a[i] + vals_a.shape[1 + i], start_b[i] + vals_b.shape[1 + i])
        if hi <= lo:
            return np.zeros((m, m))
        sl_a.append(slice(lo - start_a[i], hi - start_a[i]))
        sl_b.append(slice(lo - start_b[i], hi - start_b[i]))
    a = vals_a[tuple(sl_a)].reshape(m, -1)
    b = vals_b[tuple(sl_b)].reshape(m, -1)
    return (a @ b.T) * 2.0 ** (-level * d)


def star_agrees(separable: np.ndarray, dense: np.ndarray, tol: float, what: str) -> list:
    """The separable star pairing agrees with the dense one within the quadrature tolerance."""
    err = float(np.max(np.abs(separable - dense)))
    if not err <= tol:
        return [f"star {what}: separable and dense pairings differ by {err:.3g} > {tol:g}"]
    return []


def verify_passed(exit_code: int, report_csv: str) -> list:
    """`verify` exited 0 and every report row says pass."""
    errors = []
    if exit_code != 0:
        errors.append(f"verify: exit code {exit_code}")
    rows = report_csv.strip().splitlines()[1:]
    if not rows:
        errors.append("verify: empty report")
    failing = [row.split(",")[0] for row in rows if not row.endswith(",pass")]
    if failing:
        errors.append(f"verify: checks not passing: {failing}")
    return errors


def same_bytes(output: bytes, expected: bytes, what: str) -> list:
    """An invocation wrote exactly the expected bytes."""
    if output != expected:
        return [f"{what}: output differs from the expected bytes"]
    return []
