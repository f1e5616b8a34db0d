import csv
import json

import numpy as np
import pytest

from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.errors import EmptyDataError, LengthMismatchError, UnknownLetterError
from fingerspell.metrics import (
    EvalReport,
    compare_reports,
    confusion,
    confusion_to_csv,
    precision_recall,
    write_comparison,
)


def ref_report_to_dict(report):
    """The hand-written ``EvalReport.to_dict`` that ``dataclasses.asdict`` replaced, kept as the byte reference."""
    return {
        "labels": list(report.labels),
        "precision": report.precision,
        "recall": report.recall,
        "support": report.support,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "micro_precision": report.micro_precision,
        "micro_recall": report.micro_recall,
        "total": report.total,
        "split": report.split,
        "confused_pairs": [list(p) for p in report.confused_pairs],
    }


def brute_force_metrics(cm, labels):
    """Independent per-class counting oracle."""
    precision, recall = [], []
    for i in range(len(labels)):
        tp = cm[i][i]
        fn = sum(cm[i][j] for j in range(len(labels))) - tp
        fp = sum(cm[j][i] for j in range(len(labels))) - tp
        recall.append(tp / (tp + fn) if tp + fn > 0 else None)
        precision.append(tp / (tp + fp) if tp + fp > 0 else None)
    return precision, recall


class TestConfusion:
    def test_all_correct_is_diagonal(self):
        letters = list(STATIC_LETTERS)
        cm = confusion(letters, letters)
        assert np.array_equal(cm, np.eye(24, dtype=np.int64))

    def test_single_error_cell(self):
        cm = confusion(["S"], ["E"])
        e, s = STATIC_LETTERS.index("E"), STATIC_LETTERS.index("S")
        assert cm[e, s] == 1 and cm.sum() == 1

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(0)
        preds = [STATIC_LETTERS[i] for i in rng.integers(0, 24, 137)]
        truths = [STATIC_LETTERS[i] for i in rng.integers(0, 24, 137)]
        assert confusion(preds, truths).sum() == 137

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion(["A"], ["A", "B"])

    def test_empty_input(self):
        with pytest.raises(EmptyDataError):
            confusion([], [])

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetterError):
            confusion(["Z"], ["A"])


class TestPrecisionRecall:
    def test_perfect_diagonal(self):
        cm = np.eye(24, dtype=np.int64) * 5
        rep = precision_recall(cm)
        assert all(p == 1.0 for p in rep.precision)
        assert all(r == 1.0 for r in rep.recall)
        assert rep.macro_precision == 1.0 and rep.macro_recall == 1.0

    def test_two_class_reduction_example(self):
        # [[8, 2], [4, 6]] embedded at letters A and B:
        # recall(A) = 8/10, precision(A) = 8/12
        cm = np.zeros((24, 24), dtype=np.int64)
        cm[0, 0], cm[0, 1] = 8, 2
        cm[1, 0], cm[1, 1] = 4, 6
        rep = precision_recall(cm)
        assert rep.recall[0] == pytest.approx(0.8)
        assert rep.precision[0] == pytest.approx(8 / 12)
        assert rep.recall[1] == pytest.approx(0.6)
        assert rep.precision[1] == pytest.approx(6 / 8)

    def test_absent_letter_excluded_from_macro(self):
        cm = np.zeros((24, 24), dtype=np.int64)
        cm[0, 0] = 10
        rep = precision_recall(cm)
        assert rep.recall[5] is None and rep.precision[5] is None
        assert rep.macro_recall == 1.0  # only letter A contributes

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            cm = rng.integers(0, 30, (24, 24)).astype(np.int64)
            # randomly zero some rows/columns to exercise the None path
            for _ in range(rng.integers(0, 4)):
                cm[rng.integers(0, 24), :] = 0
            rep = precision_recall(cm)
            ep, er = brute_force_metrics(cm.tolist(), STATIC_LETTERS)
            for a, b in zip(rep.precision, ep):
                assert (a is None) == (b is None)
                if a is not None:
                    assert abs(a - b) < 1e-12
            for a, b in zip(rep.recall, er):
                assert (a is None) == (b is None)
                if a is not None:
                    assert abs(a - b) < 1e-12

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2)
        cm = rng.integers(0, 9, (24, 24)).astype(np.int64)
        r1 = precision_recall(cm)
        r2 = precision_recall(cm * 3)
        assert r1.macro_recall == pytest.approx(r2.macro_recall, abs=1e-12)
        assert r1.macro_precision == pytest.approx(r2.macro_precision, abs=1e-12)

    def test_most_confused_pairs(self):
        cm = np.zeros((24, 24), dtype=np.int64)
        e, s = STATIC_LETTERS.index("E"), STATIC_LETTERS.index("S")
        q, p = STATIC_LETTERS.index("Q"), STATIC_LETTERS.index("P")
        cm[e, s] = 40
        cm[q, p] = 25
        cm[e, e] = 10
        rep = precision_recall(cm)
        assert rep.confused_pairs[0] == ("E", "S", 40)
        assert rep.confused_pairs[1] == ("Q", "P", 25)

    def test_tied_confusions_come_in_row_major_order(self):
        # twelve tied counts: numpy's default sort orders ties by the CPU's SIMD level, so the rule is explicit
        rng = np.random.default_rng(12)
        cm = np.diag(rng.integers(5, 40, 24)).astype(np.int64)
        cells = [(23, 0), (22, 23), (19, 20), (17, 18), (13, 14), (11, 12), (9, 10), (8, 9), (7, 8), (3, 4), (1, 2),
                 (0, 1)]
        for r, c in cells:
            cm[r, c] = 1
        cm[12, 3] = 2
        rep = precision_recall(cm)
        ones = [(STATIC_LETTERS[r], STATIC_LETTERS[c], 1) for r, c in sorted(cells)]
        assert rep.confused_pairs == [(STATIC_LETTERS[12], STATIC_LETTERS[3], 2)] + ones[:9]


class TestReportSerialization:
    def make_report(self):
        rng = np.random.default_rng(3)
        cm = rng.integers(0, 12, (24, 24)).astype(np.int64)
        return precision_recall(cm, split="allseen")

    def test_json_round_trip_lossless(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "report.json"
        rep.save_json(p)
        back = EvalReport.load_json(p)
        assert back == rep

    def test_json_text_equals_hand_written_reference(self, tmp_path):
        cm = np.zeros((24, 24), dtype=np.int64)
        cm[0, 0], cm[0, 3], cm[4, 18], cm[7, 7] = 3, 2, 5, 1  # letters without samples get None entries
        rep = precision_recall(cm, split="unseen:user02")
        assert None in rep.recall and None in rep.precision and len(rep.confused_pairs) == 2
        p = tmp_path / "report.json"
        rep.save_json(p)
        assert p.read_text() == json.dumps(ref_report_to_dict(rep), indent=2)
        assert EvalReport.load_json(p) == rep

    def test_csv_rows(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "report.csv"
        rep.save_csv(p)
        with open(p) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 24
        assert rows[0]["letter"] == "A"
        assert set(rows[0]) == {"letter", "precision", "recall", "support"}

    def test_none_round_trips_as_null(self, tmp_path):
        cm = np.zeros((24, 24), dtype=np.int64)
        cm[0, 0] = 3
        rep = precision_recall(cm)
        p = tmp_path / "r.json"
        rep.save_json(p)
        raw = json.loads(p.read_text())
        assert raw["recall"][5] is None
        assert EvalReport.load_json(p).recall[5] is None


class TestCompareReports:
    def reference_reports(self):
        """Reports carrying the published unseen macro numbers for the four
        feature families (layered 77/79, raw 68/73, gabor 64/69, bar 67/71)."""
        out = []
        for name, rec, pre in (
            ("layered", 0.77, 0.79),
            ("raw", 0.68, 0.73),
            ("gabor", 0.64, 0.69),
            ("bar", 0.67, 0.71),
        ):
            out.append(
                (
                    name,
                    EvalReport(
                        labels=STATIC_LETTERS,
                        precision=[pre] * 24,
                        recall=[rec] * 24,
                        support=[10] * 24,
                        macro_precision=pre,
                        macro_recall=rec,
                        micro_precision=pre,
                        micro_recall=rec,
                        total=240,
                        split="unseen",
                    ),
                )
            )
        return out

    def test_single_report_table_matches_report(self):
        reports = self.reference_reports()[:1]
        table = compare_reports(reports)
        assert table["names"] == ["layered"]
        assert table["macro"]["layered"]["macro_recall"] == 0.77
        assert len(table["rows"]) == 24

    def test_column_order_follows_input(self, tmp_path):
        reports = self.reference_reports()
        table = write_comparison(reports, tmp_path / "cmp.csv", tmp_path / "cmp.json")
        assert table["names"] == ["layered", "raw", "gabor", "bar"]
        with open(tmp_path / "cmp.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[1:3] == ["precision_layered", "recall_layered"]
        assert header[3:5] == ["precision_raw", "recall_raw"]

    def test_macro_row_carries_reference_values(self, tmp_path):
        reports = self.reference_reports()
        write_comparison(reports, tmp_path / "cmp.csv", tmp_path / "cmp.json")
        with open(tmp_path / "cmp.csv") as fh:
            macro = list(csv.reader(fh))[-1]
        assert macro[0] == "MACRO"
        assert [float(v) for v in macro[1:]] == pytest.approx(
            [0.79, 0.77, 0.73, 0.68, 0.69, 0.64, 0.71, 0.67]
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            compare_reports([])


class TestConfusionCsv:
    def test_grid_with_letter_headers(self, tmp_path):
        cm = np.arange(24 * 24, dtype=np.int64).reshape(24, 24)
        p = tmp_path / "cm.csv"
        confusion_to_csv(cm, p)
        rows = list(csv.reader(open(p)))
        assert rows[0][1:] == list(STATIC_LETTERS)
        assert rows[1][0] == "A" and int(rows[1][1]) == 0
        assert int(rows[24][24]) == 24 * 24 - 1
