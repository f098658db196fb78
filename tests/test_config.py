import pytest

from hilferbvp.config import (
    RHS_KINDS,
    RhsSpec,
    RunConfig,
    SweepAxis,
    apply_parameter,
    parse_run_text,
    parse_sweep_text,
)
from hilferbvp.errors import ConfigError

BASE = """
[problem]
alpha = 0.5
beta = 0.5
lambda = 0.2
d = 1.0

[rhs]
kind = constant
c = 1.0

[mesh]
n = 64
r = auto

[picard]
tol = 1e-10
max_iter = 200
"""


class TestParseRun:
    def test_minimal(self):
        cfg = parse_run_text(BASE)
        assert cfg.alpha == 0.5
        assert cfg.lam == 0.2
        assert cfg.rhs.kind == "constant"
        assert cfg.mesh_r is None
        assert cfg.mesh().r == pytest.approx(2.0 / 0.75)
        assert cfg.output_dir == "."

    def test_comments_and_blank_lines(self):
        text = BASE.replace("alpha = 0.5", "alpha = 0.5   # order")
        assert parse_run_text(text).alpha == 0.5

    def test_catalog_lipschitz(self):
        assert parse_run_text(BASE).effective_lipschitz() == 0.0
        linear = BASE.replace("kind = constant\nc = 1.0",
                              "kind = linear\na = -0.25\nb = 1.0")
        assert parse_run_text(linear).effective_lipschitz() == 0.25
        logistic = BASE.replace("kind = constant\nc = 1.0",
                                "kind = logistic\nscale = 0.5")
        assert parse_run_text(logistic).effective_lipschitz() == 0.5
        expr = BASE.replace("kind = constant\nc = 1.0",
                            "kind = expression\nexpr = (y+1)/4")
        assert parse_run_text(expr).effective_lipschitz() is None

    def test_explicit_lipschitz_wins(self):
        text = BASE.replace("c = 1.0", "c = 1.0\nlipschitz = 0.125")
        assert parse_run_text(text).effective_lipschitz() == 0.125

    def test_rhs_builds_callable(self):
        cfg = parse_run_text(BASE.replace("kind = constant\nc = 1.0",
                                          "kind = power\nsigma = 1.5"))
        f = cfg.rhs.build()
        assert f(0.25, 7.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("needle,replacement,match", [
        ("alpha = 0.5", "alpha = oops", "bad value for 'alpha'"),
        ("kind = constant", "kind = cubic", "unknown rhs kind"),
        ("n = 64", "n = 2", "mesh n must be >= 4"),
        ("tol = 1e-10", "tol = -1", "tol must be > 0"),
    ])
    def test_validation_messages(self, needle, replacement, match):
        with pytest.raises(ConfigError, match=match):
            parse_run_text(BASE.replace(needle, replacement))

    def test_unknown_key_rejected_with_line(self):
        text = BASE + "\n[mesh2]\nn = 3\n"
        with pytest.raises(ConfigError, match=r"unknown section \[mesh2\]"):
            parse_run_text(text, path="run.cfg")
        text = BASE.replace("n = 64", "n = 64\nwibble = 1")
        with pytest.raises(ConfigError, match=r"run\.cfg:\d+: unknown key 'wibble'"):
            parse_run_text(text, path="run.cfg")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing key 'd'"):
            parse_run_text(BASE.replace("d = 1.0", ""))
        with pytest.raises(ConfigError, match=r"missing \[problem\]"):
            parse_run_text("[rhs]\nkind = constant\nc = 1\n")

    def test_line_anchored_syntax_error(self):
        text = "[problem]\nalpha 0.5\n"
        with pytest.raises(ConfigError, match="run.cfg:2"):
            parse_run_text(text, path="run.cfg")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_run_text(BASE + "\n[extra]\nx = 1\nx = 2\n")


class TestRhsCatalog:
    """Each kind's row of the catalog: the text report.txt prints, the
    analytic Lipschitz constant in y and one value of f."""

    ROWS = [
        (RhsSpec("constant", c=1.5), "f(t, y) = 1.5", 0.0, (0.25, 7.0, 1.5)),
        (RhsSpec("linear", a=-0.25, b=1.0), "f(t, y) = -0.25*y + 1", 0.25,
         (0.25, 2.0, 0.5)),
        (RhsSpec("power", sigma=1.5), "f(t, y) = t^(1.5 - 1)", 0.0, (0.25, 7.0, 0.5)),
        (RhsSpec("logistic", scale=-0.5), "f(t, y) = -0.5*y/(1 + y)", 0.5,
         (0.25, 3.0, -0.375)),
        (RhsSpec("expression", expr="(y+1)/4 + t"), "f(t, y) = (y+1)/4 + t", None,
         (0.5, 3.0, 1.5)),
    ]

    def test_rows_cover_every_kind(self):
        assert tuple(spec.kind for spec, *_ in self.ROWS) == RHS_KINDS

    @pytest.mark.parametrize("spec, text, lipschitz, point", ROWS,
                             ids=[spec.kind for spec, *_ in ROWS])
    def test_row(self, spec, text, lipschitz, point):
        assert spec.describe() == text
        assert spec.catalog_lipschitz() == lipschitz
        t, y, value = point
        assert spec.build()(t, y) == value


class TestRoundTrip:
    """Each config text parses to its RunConfig: the second spells out every
    field, the others leave mesh, picard and output to their defaults, and
    together they cover every rhs kind."""

    CASES = [
        ("[problem]\nalpha = 0.5\nbeta = 0.5\nlambda = 0.2\nd = 1.0\n"
         "[rhs]\nkind = constant\nc = 1.0\n",
         RunConfig(alpha=0.5, beta=0.5, lam=0.2, d=1.0,
                   rhs=RhsSpec(kind="constant", c=1.0))),
        ("[problem]\nalpha = 0.3\nbeta = 1.0\nlambda = 0.0\nd = 0.25\n"
         "[rhs]\nkind = linear\na = 0.125\nb = 2.0\n"
         "[mesh]\nn = 512\nr = 3.5\n[picard]\ntol = 1e-08\nmax_iter = 50\n"
         "[bounds]\nlower = 1.0\nupper = 4.0\n[output]\ndir = out\n",
         RunConfig(alpha=0.3, beta=1.0, lam=0.0, d=0.25,
                   rhs=RhsSpec(kind="linear", a=0.125, b=2.0),
                   mesh_n=512, mesh_r=3.5, tol=1e-8, max_iter=50,
                   lower=1.0, upper=4.0, output_dir="out")),
        ("[problem]\nalpha = 0.9\nbeta = 0.0\nlambda = 0.7\nd = 2.0\n"
         "[rhs]\nkind = power\nsigma = 1.75\nlipschitz = 0.0\n",
         RunConfig(alpha=0.9, beta=0.0, lam=0.7, d=2.0,
                   rhs=RhsSpec(kind="power", sigma=1.75), lipschitz=0.0)),
        ("[problem]\nalpha = 1.0\nbeta = 0.25\nlambda = 0.1\nd = 1.0\n"
         "[rhs]\nkind = logistic\nscale = 0.5\n",
         RunConfig(alpha=1.0, beta=0.25, lam=0.1, d=1.0,
                   rhs=RhsSpec(kind="logistic", scale=0.5))),
        ("[problem]\nalpha = 0.6\nbeta = 0.4\nlambda = 0.3\nd = 1.5\n"
         "[rhs]\nkind = expression\nexpr = (y+1)/4 + sin(t)^2\n",
         RunConfig(alpha=0.6, beta=0.4, lam=0.3, d=1.5,
                   rhs=RhsSpec(kind="expression", expr="(y+1)/4 + sin(t)^2"))),
    ]

    @pytest.mark.parametrize("text, cfg", CASES,
                             ids=[f"cfg{i}" for i in range(len(CASES))])
    def test_emit_parse_identity(self, text, cfg):
        assert parse_run_text(text) == cfg


class TestSweep:
    SWEEP = BASE + """
[sweep]
axis1 = lambda
axis1_start = 0.0
axis1_stop = 0.8
axis1_steps = 5
axis2 = alpha
axis2_start = 0.3
axis2_stop = 0.9
axis2_steps = 3
"""

    def test_axes(self):
        sweep = parse_sweep_text(self.SWEEP)
        assert [a.parameter for a in sweep.axes] == ["lambda", "alpha"]
        assert sweep.axes[0].values() == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8])

    def test_cells_outer_major(self):
        sweep = parse_sweep_text(self.SWEEP)
        cells = sweep.cells()
        assert len(cells) == 15
        values = [v for v, _ in cells]
        assert values[0] == pytest.approx((0.0, 0.3))
        assert values[1] == pytest.approx((0.0, 0.6))
        assert values[3] == pytest.approx((0.2, 0.3))
        assert cells[3][1].lam == pytest.approx(0.2)
        assert cells[1][1].alpha == pytest.approx(0.6)

    def test_two_step_axes_give_four_cells(self):
        text = BASE + """
[sweep]
axis1 = d
axis1_start = 0.0
axis1_stop = 1.0
axis1_steps = 2
axis2 = beta
axis2_start = 0.0
axis2_stop = 1.0
axis2_steps = 2
"""
        assert len(parse_sweep_text(text).cells()) == 4

    def test_lipschitz_axis(self):
        cfg = parse_run_text(BASE)
        out = apply_parameter(cfg, "lipschitz", 0.5)
        assert out.effective_lipschitz() == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError, match="missing \\[sweep\\]"):
            parse_sweep_text(BASE)
        with pytest.raises(ConfigError, match="steps must be >= 2"):
            parse_sweep_text(BASE + "\n[sweep]\naxis1 = d\naxis1_start = 0\n"
                                    "axis1_stop = 1\naxis1_steps = 1\n")
        with pytest.raises(ConfigError, match="sweep parameter"):
            parse_sweep_text(BASE + "\n[sweep]\naxis1 = tol\naxis1_start = 0\n"
                                    "axis1_stop = 1\naxis1_steps = 2\n")

    def test_axis_values_cover_endpoints(self):
        axis = SweepAxis("lambda", 0.25, 0.75, 3)
        assert axis.values() == pytest.approx([0.25, 0.5, 0.75])
