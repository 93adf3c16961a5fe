"""Corpus-scale evaluation: a linear detection test over band-energy features.

The detector is a two-class Fisher linear discriminant over the band-energy
features, trained on a seeded train/test split of cover/stego pairs. A
detection rate of 50% on held-out data means the features carry no usable
signal. A method of None makes a benchmark cell the cover-vs-cover null
experiment (identical images labeled both classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bits import CapacityError, FRAME_BITS, frame_bits
# embed is unused here, but perfbench/tracer.py's REQUIRED wraps lsblab.harness.embed
from .embed import DEFAULT_THRESHOLD, EmbedConfig, _capacity, _job, _settle, _threshold, embed
from .glcm import DEFAULT_OFFSETS, N_BANDS, band_features
from .image import GrayImage, traversal_order
from .rng import Rng, derive_seed

# stream tags for per-image child seeds, so message bits, embedding coins
# and the train/test shuffle never share a generator
_TAG_MESSAGE = 0
_TAG_EMBED = 1
_TAG_SPLIT = 2


@dataclass
class FisherDiscriminant:
    """Linear detector: score = x . w, stego when the score exceeds the bias."""

    weights: np.ndarray
    bias: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels (0 cover, 1 stego) for the rows of x."""
        return (np.asarray(x, dtype=np.float64) @ self.weights > self.bias).astype(int)


def train_fld(x: np.ndarray, y: np.ndarray) -> FisherDiscriminant:
    """Fit a Fisher linear discriminant to feature rows x with labels y.

    weights solve S_w w = (mean_stego - mean_cover) with S_w the pooled
    within-class scatter; the bias is the projected midpoint of the class
    means. A singular scatter is regularized by eps * I with
    eps = 1e-6 * trace / dim.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not (np.any(y == 0) and np.any(y == 1)):
        raise ValueError("training requires examples of both classes (cover and stego)")
    mu0 = x[y == 0].mean(axis=0)
    mu1 = x[y == 1].mean(axis=0)
    c0 = x[y == 0] - mu0
    c1 = x[y == 1] - mu1
    scatter = c0.T @ c0 + c1.T @ c1
    diff = mu1 - mu0
    try:
        weights = np.linalg.solve(scatter, diff)
    except np.linalg.LinAlgError:
        dim = scatter.shape[0]
        eps = 1e-6 * np.trace(scatter) / dim
        if eps <= 0.0:
            eps = 1e-12
        weights = np.linalg.solve(scatter + eps * np.eye(dim), diff)
    bias = float(weights @ (mu0 + mu1) / 2.0)
    return FisherDiscriminant(weights=weights, bias=bias)


def accuracy(model: FisherDiscriminant, x: np.ndarray, y: np.ndarray) -> float:
    """Percent of feature rows the model labels correctly."""
    return 100.0 * np.count_nonzero(model.predict(x) == np.asarray(y)) / len(y)


# ---------------------------------------------------------------------------
# experiments


def _check_rate(rate: float) -> None:
    if not rate <= 1.0:  # also nan; a rate <= 0 (even -inf) fails _message_bits' frame check
        raise ValueError(f"rate must be in (0, 1], got {rate}")


def _budget(rate: float, n_pixels: int) -> int:  # a message's framed bits at this rate
    _check_rate(rate)
    budget = math.floor(max(rate, 0.0) * n_pixels + 1e-9)  # floor(rate * n) despite float noise
    if budget <= FRAME_BITS:
        raise CapacityError(
            f"rate {rate:g} on {n_pixels} pixels leaves no room for the 32-bit frame"
        )
    return budget


def _message_bits(rate: float, n_pixels: int, seed: int) -> np.ndarray:
    return Rng(seed).bits(_budget(rate, n_pixels) - FRAME_BITS)


def _mean_energies(x: np.ndarray) -> np.ndarray:
    # a feature row is len(DEFAULT_OFFSETS) blocks of 5 band energies; average the blocks
    return x.reshape(len(x), -1, N_BANDS).mean(axis=1)


def _split_accuracy(cover_x: np.ndarray, stego_x: np.ndarray, indices: np.ndarray) -> float:
    """Detection accuracy with the first half of the shuffled images training the FLD.

    Both feature vectors of an image land on the same side of the split, so
    train and test stay balanced 50/50 between classes.
    """
    n_train = round(len(indices) / 2)  # rounds half to even: 21 images train on 10

    def labelled(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.concatenate([cover_x[idx], stego_x[idx]]), np.repeat([0, 1], len(idx))

    model = train_fld(*labelled(indices[:n_train]))
    return accuracy(model, *labelled(indices[n_train:]))


# ---------------------------------------------------------------------------
# benchmark report

REPORT_HEADER = (
    "method,rate,T,seed,n,"
    "e0_cover,e1_cover,e2_cover,e3_cover,e4_cover,"
    "e0_stego,e1_stego,e2_stego,e3_stego,e4_stego,detect_pct"
)


@dataclass
class ReportRow:
    method: str | None  # None: the cover-vs-cover null experiment
    rate: float
    threshold: int
    seed: int
    n_images: int
    cover_energies: np.ndarray  # (5,) means over the corpus
    stego_energies: np.ndarray
    detect_pct: float


_CHUNK_PIXELS = 1 << 18  # a settle batch's job pixels: its jobs times their padded block


def _chunks(corpus: Sequence[GrayImage], jobs_per_cover: int) -> Iterator[range]:
    """Runs of the corpus, each grown cover by cover while its covers' jobs fit _CHUNK_PIXELS.

    A batch pads every block to its largest height and width, plus the border.
    """
    lo, h, w = 0, 0, 0
    for i, image in enumerate(corpus):
        h, w = max(h, image.height), max(w, image.width)
        if i > lo and jobs_per_cover * (i + 1 - lo) * (h + 2) * (w + 2) > _CHUNK_PIXELS:
            yield range(lo, i)
            lo, h, w = i, image.height, image.width
    yield range(lo, len(corpus))


def _featurize(images: Sequence[GrayImage]) -> np.ndarray:
    """band_features of each image, one stacked call per image shape."""
    x = np.empty((len(images), len(DEFAULT_OFFSETS) * N_BANDS))
    shapes: dict[tuple[int, int], list[int]] = {}
    for j, image in enumerate(images):
        shapes.setdefault(image.pixels.shape, []).append(j)
    for js in shapes.values():
        x[js] = band_features(np.stack([images[j].pixels for j in js]))
    return x


def benchmark(corpus: Sequence[GrayImage], methods: Sequence[str | None],
              rates: Sequence[float], threshold: int = DEFAULT_THRESHOLD,
              seed: int = 0) -> list[ReportRow]:
    """One report row per method x rate: mean energies plus detection rate.

    The work that depends only on an image is done once per call, not once
    per cell: its cover features, its keyed permutation (one shuffle, shared
    by every method and rate), its message (one draw at the largest rate,
    whose prefixes are the smaller rates' messages) and its plan at each
    rate for each code family (shared by the baseline and improved cells).
    A null cell reuses the cover features. The train/test split is drawn
    once. The embedding cells that share a _settle threshold settle
    together: chunk by chunk of covers, each chunk's images of all those
    cells in one batch of at most _CHUNK_PIXELS job pixels, read from the
    chunk's table of plans, built before it settles. An image's cells share
    one coin draw. Features are taken per batch of stegos and per
    _chunks(corpus, 1) run of covers, one band_features call per image
    shape. Same bytes as cell by cell. Nothing is kept between calls.
    """
    if len(corpus) < 20:
        raise ValueError(f"corpus of {len(corpus)} images is too small; need at least 20")
    for rate in rates:  # up front, since a null cell draws no message
        _check_rate(rate)
    EmbedConfig("lsbm", threshold)  # raises for a negative threshold, as an embedding cell would
    cells = [(method, rate) for method in methods for rate in rates]
    groups: dict[int, list[int]] = {}  # the embedding cells of each _settle threshold
    plans = set()  # the (rate, pairwise) plans they use
    for c, (method, rate) in enumerate(cells):  # in the per-cell order: the first to fail raises
        if method is None:  # null experiment: the "stego" image is the cover itself
            continue
        for image in corpus:  # each image's frame, then the method, as embed meets them
            budget = _budget(rate, image.n_pixels)
            _capacity(image, budget, EmbedConfig(method).method.startswith("lsbmr"))
        groups.setdefault(_threshold(EmbedConfig(method, threshold)), []).append(c)
        plans.add((rate, method.startswith("lsbmr")))
    cover_x = np.concatenate([_featurize([corpus[i] for i in chunk])
                              for chunk in _chunks(corpus, 1)])
    stego_x = np.repeat(cover_x[None], len(cells), axis=0)  # a null cell keeps these
    for chunk in _chunks(corpus, max(map(len, groups.values()), default=0)):
        table = {}  # (image, rate, pairwise): its plan
        for i in chunk if plans else ():  # a null-only bench draws nothing
            image, s = corpus[i], derive_seed(seed, i, _TAG_EMBED)
            # one draw at the top rate: bits(n) is a prefix of bits(m)
            message = _message_bits(max(rates), image.n_pixels, derive_seed(seed, i, _TAG_MESSAGE))
            order = traversal_order(image, "permuted", s)
            configs = [EmbedConfig(family, threshold, s, "permuted") for family in ("lsbm", "lsbmr")]
            for rate, pairwise in plans:
                framed = frame_bits(message[: _budget(rate, image.n_pixels) - FRAME_BITS])
                table[i, rate, pairwise] = _job(image, framed, configs[pairwise], order)
        for t, group in groups.items():
            batch = [table[i, rate, method.startswith("lsbmr")]
                     for method, rate in (cells[c] for c in group) for i in chunk]
            stego_x[group, chunk.start : chunk.stop] = (
                _featurize(_settle(batch, t)).reshape(len(group), len(chunk), -1))
    cover_e = _mean_energies(cover_x).mean(axis=0)
    split = Rng(derive_seed(seed, _TAG_SPLIT)).shuffle(len(corpus))
    return [ReportRow(method, rate, threshold, seed, len(corpus), cover_e,
                      _mean_energies(x).mean(axis=0), _split_accuracy(cover_x, x, split))
            for (method, rate), x in zip(cells, stego_x)]


def report_csv(rows: Sequence[ReportRow]) -> str:
    """Deterministic CSV with the fixed header; same rows, same bytes."""
    lines = [REPORT_HEADER]
    for r in rows:
        cells = [str(r.method), f"{r.rate:g}", str(r.threshold), str(r.seed), str(r.n_images)]
        cells.extend(f"{v:.6f}" for v in r.cover_energies)
        cells.extend(f"{v:.6f}" for v in r.stego_energies)
        cells.append(f"{r.detect_pct:.2f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def report_svg(rows: Sequence[ReportRow]) -> str:
    """Static line plot of main-diagonal energy vs rate, one line per method.

    The cover mean is drawn as a dashed reference. Pure geometry, no
    interactivity; output bytes depend only on the rows.
    """
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 20, 40
    methods = []
    for r in rows:
        if r.method not in methods:
            methods.append(r.method)
    rates = sorted({r.rate for r in rows})
    ys = [float(r.stego_energies[0]) for r in rows]
    ys += [float(r.cover_energies[0]) for r in rows]
    if not ys:
        ys = [0.0, 1.0]
    lo, hi = min(ys), max(ys)
    pad = (hi - lo) * 0.1 or 0.05
    lo, hi = lo - pad, hi + pad
    x_lo, x_hi = (min(rates), max(rates)) if rates else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.1, x_hi + 0.1

    def sx(rate: float) -> float:
        return left + (rate - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(e: float) -> float:
        return top + (hi - e) / (hi - lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">payload rate (bpp)</text>',
        f'<text x="15" y="{(top + height - bottom) / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 15 {(top + height - bottom) / 2:.1f})" text-anchor="middle">'
        f'main-diagonal energy</text>',
    ]
    for rate in rates:
        parts.append(f'<text x="{sx(rate):.1f}" y="{height - bottom + 15}" '
                     f'text-anchor="middle" font-size="10">{rate:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        e = lo + frac * (hi - lo)
        parts.append(f'<text x="{left - 5}" y="{sy(e):.1f}" text-anchor="end" '
                     f'font-size="10">{e:.3f}</text>')
    for mi, method in enumerate(methods):
        line = sorted((r for r in rows if r.method == method), key=lambda r: r.rate)
        color = _SVG_COLORS[mi % len(_SVG_COLORS)]
        points = " ".join(f"{sx(r.rate):.1f},{sy(float(r.stego_energies[0])):.1f}" for r in line)
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for r in line:
            parts.append(f'<circle cx="{sx(r.rate):.1f}" cy="{sy(float(r.stego_energies[0])):.1f}" '
                         f'r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{width - right - 5}" y="{top + 14 * (mi + 1)}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{method}</text>')
    if rows:
        cover_mean = float(np.mean([r.cover_energies[0] for r in rows]))
        parts.append(f'<line x1="{left}" y1="{sy(cover_mean):.1f}" x2="{width - right}" '
                     f'y2="{sy(cover_mean):.1f}" stroke="gray" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{left + 5}" y="{sy(cover_mean) - 4:.1f}" font-size="10" '
                     f'fill="gray">cover</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# bundled synthetic corpus

def _blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur with mirrored edges, bit for bit ndimage.gaussian_filter(mode="reflect").

    Covers must keep their bytes, so this does ndimage's float operations in
    its order: weights exp(-0.5 / sigma^2 * k^2) over |k| <= int(4 sigma + 0.5),
    normalised by their sum; axis 0, then axis 1; each output starts at the
    centre tap and adds the mirrored pairs from the outermost in. The weights
    need `c * k ** 2`: `c * k * k` multiplies left to right and rounds differently.
    """
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    w /= w.sum()
    out = x
    for _ in range(2):  # filter along axis 0, then transpose
        n = out.shape[0]
        padded = np.pad(out, ((r, r), (0, 0)), mode="symmetric")
        acc = padded[r:r + n] * w[r]
        for j in range(r, 0, -1):
            acc += (padded[r - j:r - j + n] + padded[r + j:r + j + n]) * w[r + j]
        out = acc.T
    # C order, so later reductions sum in the same order as on ndimage's output
    return np.ascontiguousarray(out)


def synthetic_image(width: int, height: int, seed: int, *,
                    texture: float = 0.6, noise: float = 0.1) -> GrayImage:
    """One smooth synthetic image: blurred Gaussian noise, mid-gray centered.

    Structure scale and contrast are drawn per image so a corpus has
    natural spread; `texture` and `noise` cap the per-image doses of fine
    texture and sensor-like noise. The defaults keep neighboring pixels
    within a few gray levels, the regime where near-diagonal energy is
    informative; heavier doses make covers harder to tell from stegos.
    """
    gen = np.random.default_rng(seed)
    sigma = gen.uniform(5.0, 12.0)
    contrast = gen.uniform(8.0, 26.0)
    levels = np.full((height, width), 128.0)
    smooth = _blur(gen.standard_normal((height, width)), sigma)
    levels += contrast * (smooth - smooth.mean()) / (smooth.std() + 1e-12)
    if texture > 0.0:
        tex_sigma = gen.uniform(0.6, 2.0)
        tex = _blur(gen.standard_normal((height, width)), tex_sigma)
        levels += gen.uniform(0.0, texture) * (tex - tex.mean()) / (tex.std() + 1e-12)
    if noise > 0.0:
        levels += gen.uniform(0.0, noise) * gen.standard_normal((height, width))
    return GrayImage(np.clip(np.rint(levels), 0, 255).astype(np.uint8))


def _synthetic_covers(n: int, width: int, height: int, seed: int,
                      **doses: float) -> Iterator[GrayImage]:
    """The covers of synthetic_corpus, made one at a time; n is checked at the call."""
    if n < 1:
        raise ValueError(f"corpus size must be positive, got {n}")
    return (synthetic_image(width, height, derive_seed(seed, i), **doses) for i in range(n))


def synthetic_corpus(n: int, width: int, height: int, seed: int = 0, *,
                     texture: float = 0.6, noise: float = 0.1) -> list[GrayImage]:
    """Seeded corpus of n smooth synthetic images; no external data needed."""
    return list(_synthetic_covers(n, width, height, seed, texture=texture, noise=noise))
