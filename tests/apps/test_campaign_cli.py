"""The ``python -m repro campaign`` subcommand."""

from repro.apps.campaign import campaign_main
from repro.coregen import fault_test
from repro.netlist import lanes


class TestCampaignCli:
    def test_numpy_campaign(self, capsys, monkeypatch):
        """The lane engine comes from the lane count; forcing the
        threshold down puts the whole campaign on numpy lanes."""
        monkeypatch.setattr(lanes, "NUMPY_MIN_LANES", 1)
        code = campaign_main(
            ["--program", "mult", "--width", "8", "--stride", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage" in out
        assert "faults/s" in out

    def test_config_by_name(self, capsys):
        code = campaign_main(["--config", "p1_8_2", "--stride", "32"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p1_8_2" in out

    def test_max_faults_and_lanes(self, capsys, monkeypatch):
        """``--max-faults`` caps the sites; 4-lane batches (forced
        through the module cap) cover all of them."""
        monkeypatch.setattr(fault_test, "MAX_LANES", 4)
        code = campaign_main(["--stride", "8", "--max-faults", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "/10 faults" in out

    def test_unknown_backend_rejected(self, capsys):
        """The lane engine is not user-picked: the old selectors are
        unknown options, in campaign and --verify-suite mode alike."""
        for argv in (
            ["--backend", "numpy"],
            ["--backend", "batched"],
            ["--lanes", "4"],
            ["--verify-suite", "--backend", "numpy"],
        ):
            assert campaign_main(argv) == 2, argv
            assert "unknown option" in capsys.readouterr().err

    def test_unknown_option_rejected(self, capsys):
        assert campaign_main(["--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_value_rejected(self, capsys):
        """Missing or out-of-range values are usage errors (exit 2,
        one message line), never tracebacks."""
        for argv, message in (
            (["--stride"], "needs an argument"),
            (["--stride", "0"], "stride must be >= 1"),
            (["--stride", "-3"], "stride must be >= 1"),
            (["--max-faults", "-1"], "max_faults must be >= 0"),
            (["--width", "7"], "7-bit core"),
            (["--jobs", "0"], "jobs must be >= 1"),
            (["--config", "bogus"], "bad config name"),
        ):
            assert campaign_main(argv) == 2, argv
            assert message in capsys.readouterr().err, argv

    def test_help(self, capsys):
        assert campaign_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out
