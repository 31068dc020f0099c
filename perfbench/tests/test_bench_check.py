"""The output checks reject perturbed metrics and partial log records."""

import csv

import pytest

import check
import generate
import workloads

REFERENCE = {
    "arima(10,1,0)": "1.0510001114091862e-11",
    "lstm_single": "58.87506472561868",
    "naive_last_value": "165.65222746958534",
}


def write_metrics(path, rmses):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["model", "mse", "rmse", "winner"])
        for model, rmse in rmses.items():
            writer.writerow([model, repr(float(rmse) ** 2), rmse, 0])


def observed_rmses(path):
    return {row[0]: row[2] for row in check.read_table(path, ("model", "mse", "rmse", "winner"))}


def test_metrics_matching_reference_pass(tmp_path):
    write_metrics(tmp_path / "metrics.csv", REFERENCE)
    check.compare_rmses(observed_rmses(tmp_path / "metrics.csv"), REFERENCE)


@pytest.mark.parametrize(
    "model, value",
    [
        ("lstm_single", "58.8751"),  # a model off by more than RTOL
        ("naive_last_value", "165.65222746958537"),  # the baseline must match exactly
    ],
)
def test_perturbed_metrics_are_rejected(tmp_path, model, value):
    write_metrics(tmp_path / "metrics.csv", {**REFERENCE, model: value})
    with pytest.raises(check.CheckError, match=model):
        check.compare_rmses(observed_rmses(tmp_path / "metrics.csv"), REFERENCE)


def test_model_within_tolerance_passes():
    nudged = {**REFERENCE, "lstm_single": repr(58.87506472561868 * (1 + check.RTOL / 10))}
    check.compare_rmses(nudged, REFERENCE)


def test_missing_model_is_rejected():
    partial = {k: v for k, v in REFERENCE.items() if k != "lstm_single"}
    with pytest.raises(check.CheckError, match="models"):
        check.compare_rmses(partial, REFERENCE)


def test_truncated_log_row_is_rejected(tmp_path):
    log = tmp_path / "bitstamp.csv"
    generate.tick_log_and_payloads(log, tmp_path / "payloads", seed=0, n_log=20, n_payloads=1)
    check.expect_rows(log, generate.BITSTAMP_COLUMNS, 20)
    text = log.read_text(encoding="utf-8")
    cut = text.rstrip("\n").rsplit(",", 3)[0] + "\n"  # last record loses 3 fields
    log.write_text(cut, encoding="utf-8")
    with pytest.raises(check.CheckError, match="partial record"):
        check.expect_rows(log, generate.BITSTAMP_COLUMNS, 20)


def test_unparseable_log_value_is_rejected(tmp_path):
    log = tmp_path / "bitstamp.csv"
    generate.tick_log_and_payloads(log, tmp_path / "payloads", seed=0, n_log=5, n_payloads=1)
    lines = log.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace(",", ",abc", 1)
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = check.expect_rows(log, generate.BITSTAMP_COLUMNS, 5)
    with pytest.raises(check.CheckError, match=":4: bad value"):
        check.parse_columns(log, rows, "ffiffffffs")


def test_check_against_requires_a_reference_for_recorded_values():
    with pytest.raises(check.CheckError, match="no recorded reference"):
        workloads.check_against({"arima_css/arima(1,1,1)": "20.1"}, None)
    workloads.check_against({}, None)  # a workload whose outputs hold no RMSEs


def test_prefixed_naive_baseline_must_match_exactly():
    want = {"evaluate_long/naive_last_value": "170.0323369003373"}
    with pytest.raises(check.CheckError, match="naive_last_value"):
        check.compare_rmses({"evaluate_long/naive_last_value": "170.03233690033731"}, want)


def test_n_test_matches_program_split():
    from btcforecast.dataset import train_test_counts

    for n in (690, 700, 4999, 5000):
        assert workloads.n_test(n) == train_test_counts(n, workloads.TRAIN_FRACTION)[1]
