"""Confusion matrices, per-letter precision/recall and run comparisons."""

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.errors import EmptyDataError, LengthMismatchError, UnknownLetterError


def confusion(preds, truths, labels=STATIC_LETTERS) -> np.ndarray:
    """Count matrix with rows = true letter, columns = predicted letter."""
    if len(preds) != len(truths):
        raise LengthMismatchError(f"{len(preds)} predictions vs {len(truths)} truths")
    if len(preds) == 0:
        raise EmptyDataError("no samples to evaluate")
    index = {c: i for i, c in enumerate(labels)}
    cm = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for p, t in zip(preds, truths):
        if t not in index:
            raise UnknownLetterError(f"unknown true label {t!r}")
        if p not in index:
            raise UnknownLetterError(f"unknown predicted label {p!r}")
        cm[index[t], index[p]] += 1
    return cm


@dataclass
class EvalReport:
    """Per-letter precision/recall plus macro and micro averages.

    Letters with a zero denominator get ``None`` (never coerced to 0 or 1)
    and are excluded from the macro averages.
    """

    labels: tuple
    precision: list            # per letter, float or None
    recall: list
    support: list              # true-count per letter
    macro_precision: float
    macro_recall: float
    micro_precision: float
    micro_recall: float
    total: int
    split: str = ""
    confused_pairs: list = field(default_factory=list)   # (true, pred, count), largest first

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)

    @classmethod
    def load_json(cls, path) -> "EvalReport":
        with open(path) as fh:
            d = json.load(fh)
        pairs = [tuple(p) for p in d.get("confused_pairs", [])]
        return cls(**{**d, "labels": tuple(d["labels"]), "confused_pairs": pairs})

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["letter", "precision", "recall", "support"])
            for i, letter in enumerate(self.labels):
                writer.writerow(
                    [
                        letter,
                        "" if self.precision[i] is None else f"{self.precision[i]:.6f}",
                        "" if self.recall[i] is None else f"{self.recall[i]:.6f}",
                        self.support[i],
                    ]
                )


def precision_recall(cm: np.ndarray, split: str = "", labels=STATIC_LETTERS, top_confusions: int = 10) -> EvalReport:
    """Per-letter metrics from a confusion matrix.

    ``recall(l) = cm[l, l] / row_sum(l)``, ``precision(l) = cm[l, l] /
    col_sum(l)``; macro averages run over letters whose denominator is
    nonzero.  The most-confused pairs are the largest off-diagonal counts,
    tied counts in row-major (true, predicted) order.
    """
    cm = np.asarray(cm)
    row = cm.sum(axis=1)
    col = cm.sum(axis=0)
    diag = np.diag(cm)
    recall = [float(diag[i] / row[i]) if row[i] > 0 else None for i in range(len(labels))]
    precision = [float(diag[i] / col[i]) if col[i] > 0 else None for i in range(len(labels))]

    rec_vals = [r for r in recall if r is not None]
    pre_vals = [p for p in precision if p is not None]
    total = int(cm.sum())
    micro = float(diag.sum() / total) if total else 0.0

    off = cm.copy()
    np.fill_diagonal(off, 0)
    pairs = []
    # a stable sort puts tied counts in row-major order; numpy's default sort orders ties by the CPU's SIMD level
    for pos in np.argsort(-off, axis=None, kind="stable")[:top_confusions]:
        r, c = divmod(int(pos), cm.shape[1])
        if off[r, c] > 0:
            pairs.append((labels[r], labels[c], int(off[r, c])))

    return EvalReport(
        labels=tuple(labels),
        precision=precision,
        recall=recall,
        support=[int(r) for r in row],
        macro_precision=float(np.mean(pre_vals)) if pre_vals else 0.0,
        macro_recall=float(np.mean(rec_vals)) if rec_vals else 0.0,
        micro_precision=micro,
        micro_recall=micro,
        total=total,
        split=split,
        confused_pairs=pairs,
    )


def confusion_to_csv(cm: np.ndarray, path, labels=STATIC_LETTERS) -> None:
    """Write the confusion matrix as a CSV grid with letter headers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred"] + list(labels))
        for i, letter in enumerate(labels):
            writer.writerow([letter] + [int(v) for v in cm[i]])


def compare_reports(named_reports) -> dict:
    """Side-by-side per-letter and macro table across named runs.

    ``named_reports`` is a list of ``(name, EvalReport)``; column order
    follows input order.  Returns a dict with ``names``, ``letters`` and
    per-letter/macro rows, ready for JSON.
    """
    if not named_reports:
        raise EmptyDataError("no reports to compare")
    names = [n for n, _ in named_reports]
    labels = named_reports[0][1].labels
    rows = []
    for i, letter in enumerate(labels):
        row = {"letter": letter}
        for name, rep in named_reports:
            row[f"precision_{name}"] = rep.precision[i]
            row[f"recall_{name}"] = rep.recall[i]
        rows.append(row)
    macro = {}
    for name, rep in named_reports:
        macro[name] = {
            "macro_precision": rep.macro_precision,
            "macro_recall": rep.macro_recall,
        }
    return {"names": names, "letters": list(labels), "rows": rows, "macro": macro}


def write_comparison(named_reports, csv_path, json_path) -> dict:
    """Emit the comparison table as CSV and JSON; returns the table dict."""
    table = compare_reports(named_reports)
    with open(json_path, "w") as fh:
        json.dump(table, fh, indent=2)
    names = table["names"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["letter"]
        for name in names:
            header += [f"precision_{name}", f"recall_{name}"]
        writer.writerow(header)
        for row in table["rows"]:
            out = [row["letter"]]
            for name in names:
                p, r = row[f"precision_{name}"], row[f"recall_{name}"]
                out += ["" if p is None else f"{p:.6f}", "" if r is None else f"{r:.6f}"]
            writer.writerow(out)
        macro_row = ["MACRO"]
        for name in names:
            m = table["macro"][name]
            macro_row += [f"{m['macro_precision']:.6f}", f"{m['macro_recall']:.6f}"]
        writer.writerow(macro_row)
    return table
