import dataclasses
import json

import numpy as np
import pytest
from scipy.optimize import nnls

import zpencil.eigenstructure
from zpencil.cli import build_report, format_pencil, main
from zpencil.digraph import classes, digraph_of, union
from zpencil.eigenstructure import (
    ConstructionFailedError,
    EigenBasisVector,
    NotMMatrixError,
    class_labels,
    critical_classes,
    m_nullbasis,
    pencil_eigenbasis,
    rho_ambiguous,
)
from zpencil.linalg import DEFAULT_TOL, inf_norm
from zpencil.pencil import Pencil, spectral_summary
from zpencil.testkit import GenConfig, gen_pencil


class TestClassLabels:
    def test_nilpotent_chain(self, ex3):
        # -A has classes {1}, {2}; both blocks are 1x1 zeros (singular);
        # {2} is accessed from the singular {1}, so only {1} is distinguished
        labels = class_labels(-ex3.A, digraph_of(ex3.A))
        by_class = {lab.vertices: lab for lab in labels}
        assert by_class[(1,)].is_singular and by_class[(1,)].is_distinguished
        assert by_class[(2,)].is_singular and not by_class[(2,)].is_distinguished

    def test_golden_critical_member(self, ex2):
        rho = spectral_summary(ex2).rho_ab
        gamma = union(digraph_of(ex2.A), digraph_of(ex2.B))
        labels = class_labels(rho * ex2.B - ex2.A, gamma)
        by_class = {lab.vertices: lab for lab in labels}
        assert by_class[(2, 4)].is_singular and by_class[(2, 4)].is_distinguished
        assert not by_class[(1, 3)].is_singular

    def test_identity_all_nonsingular(self):
        labels = class_labels(np.eye(3), digraph_of(np.eye(3)))
        assert all(not lab.is_singular for lab in labels)
        assert all(not lab.is_distinguished for lab in labels)

    def test_rejects_non_m_matrix(self):
        X = np.array([[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotMMatrixError):
            class_labels(X, digraph_of(X))


class TestMNullbasis:
    def test_zero_matrix(self):
        vecs = m_nullbasis(np.zeros((2, 2)))
        assert len(vecs) == 2
        assert np.array_equal(vecs[0].x, [1.0, 0.0])
        assert np.array_equal(vecs[1].x, [0.0, 1.0])

    def test_nilpotent_chain(self, ex3):
        vecs = m_nullbasis(-ex3.A)
        assert len(vecs) == 1
        assert np.array_equal(vecs[0].x, [1.0, 0.0])
        assert vecs[0].origin_class == (1,)

    def test_symmetric_singular(self):
        vecs = m_nullbasis(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert len(vecs) == 1
        assert np.allclose(vecs[0].x, [1.0, 1.0], atol=1e-9)
        assert vecs[0].support == (1, 2)

    def test_nonsingular_empty(self):
        assert m_nullbasis(np.eye(4)) == ()


class TestPencilEigenbasis:
    def test_golden_support(self, ex2):
        summary = spectral_summary(ex2)
        vecs = pencil_eigenbasis(ex2, critical_classes(ex2, summary))
        assert len(vecs) == 1
        x = vecs[0].x
        assert abs(x[0]) <= 1e-10 and abs(x[2]) <= 1e-10
        assert x[1] > 1e-10 and x[3] > 1e-10
        assert vecs[0].support == (2, 4)

    def test_golden_zero_critical_value(self, ex3):
        summary = spectral_summary(ex3)
        vecs = pencil_eigenbasis(ex3, critical_classes(ex3, summary))
        assert len(vecs) == 1
        assert np.array_equal(vecs[0].x, [1.0, 0.0])

    def test_trivial_pencil_full_basis(self):
        p = Pencil(A=np.zeros((3, 3)), B=np.eye(3))
        vecs = pencil_eigenbasis(p, critical_classes(p, spectral_summary(p)))
        assert len(vecs) == 3
        assert np.array_equal(np.array([v.x for v in vecs]), np.eye(3))

    def test_critical_digraph_follows_the_critical_value(self, ex2, ex3):
        crit = critical_classes(ex2, spectral_summary(ex2))
        name, gamma = crit.name, crit.graph
        assert name == "union"
        assert gamma == union(digraph_of(ex2.A), digraph_of(ex2.B))
        # rho_ab = 0 leaves -A, so the pattern of B drops out
        crit = critical_classes(ex3, spectral_summary(ex3))
        name, gamma = crit.name, crit.graph
        assert name == "a"
        assert gamma == digraph_of(ex3.A) != union(digraph_of(ex3.A), digraph_of(ex3.B))

    def test_critical_classes_feed_the_eigenbasis(self, ex2):
        summary = spectral_summary(ex2)
        crit = critical_classes(ex2, summary)
        assert crit.rho_ab == summary.rho_ab
        assert crit.labels == class_labels(
            summary.rho_ab * ex2.B - ex2.A, crit.graph)
        with pytest.raises(dataclasses.FrozenInstanceError):
            crit.labels = ()
        vecs = pencil_eigenbasis(ex2, crit)
        assert [v.origin_class for v in vecs] == [
            lab.vertices for lab in crit.labels if lab.is_distinguished]

    def test_g_a_branch_labels_minus_a(self):
        # desk-mix seed 2, input 303: rho_ab = 2.1e-11 is noise on an exact
        # zero, and blocks of rho_ab*B - A that should vanish do not
        p = gen_pencil(GenConfig(7, (2, 302), 0.05, 1e-6, 0.1))
        crit = critical_classes(p, spectral_summary(p))
        assert crit.name == "a"
        assert crit.labels == class_labels(-p.A, digraph_of(p.A))
        assert pencil_eigenbasis(p, crit)

    def test_acyclic_a_with_noisy_rho_reports(self, tmp_path, capsys):
        # desk-mix seed 6, input 146: rho_ab = 1.05e-16 used to make a
        # nonsingular class distinguished, and report exited 3
        path = tmp_path / "p.pencil"
        path.write_text(format_pencil(gen_pencil(GenConfig(4, (6, 145), 0.2, 1e3, 1e-5))))
        assert main(["report", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["eigenbasis"]

    def test_g_a_branch_needs_minus_a_to_be_an_m_matrix(self):
        # rho_ab = 1e-10 is below rel_sing, but G(A) has a loop, so -A is
        # no M-matrix and class_labels(-A) would raise NotMMatrixError
        p = Pencil(A=np.array([[1e-4]]), B=np.array([[1e6]]))
        crit = critical_classes(p, spectral_summary(p))
        assert crit.rho_ab <= DEFAULT_TOL.rel_sing
        assert crit.name == "union"
        assert build_report(p)["eigenbasis"] == [
            {"origin_class": [1], "support": [1], "values": [1.0]}]

    def test_union_classes_on_both_branches(self):
        configs = [GenConfig(n, 40 + seed, d, magnitude)
                   for n in (2, 4, 6) for seed, d in enumerate((0.05, 0.2, 0.5))
                   for magnitude in (1e-6, 1.0)]
        names = set()
        for p in map(gen_pencil, configs):
            crit = critical_classes(p, spectral_summary(p))
            names.add(crit.name)
            assert crit.union_classes == classes(union(digraph_of(p.A), digraph_of(p.B)))
        assert names == {"a", "union"}

    def test_rho_ambiguity_flag(self, ex3):
        summary = spectral_summary(ex3)
        assert not rho_ambiguous(summary.rho_ab)


class TestEigenBasisVector:
    def test_positive_exactly_on_the_support_and_zero_elsewhere(self):
        EigenBasisVector(x=[1.0, 1e-300, 0.0], origin_class=(1,), support=(1, 2))
        with pytest.raises(ValueError, match="on the support"):
            EigenBasisVector(x=[1.0, 0.0, 0.0], origin_class=(1,), support=(1, 2))
        with pytest.raises(ValueError, match="off the support"):
            EigenBasisVector(x=[1.0, 1.0, 1e-300], origin_class=(1,), support=(1, 2))


class TestConstructionFailures:
    """A vector that fails its self-check raises ConstructionFailedError
    naming the class and the numbers, never a bare ValueError."""

    @pytest.fixture
    def patched(self, monkeypatch):
        def use(v):
            monkeypatch.setattr(zpencil.eigenstructure, "perron_vector",
                                lambda P, tol=None: np.array(v, dtype=float))
        return use

    def test_nonpositive_support_entry(self, ex2, patched, data_dir, capsys):
        patched([1.0, 0.0])  # on W = (2, 4)
        crit = critical_classes(ex2, spectral_summary(ex2))
        with pytest.raises(ConstructionFailedError) as info:
            pencil_eigenbasis(ex2, crit)
        assert str(info.value) == (
            "class (2, 4): entry 4 on the support (2, 4) is 0.000e+00, not positive")
        assert main(["report", str(data_dir / "ex2.pencil"), "--json"]) == 3
        assert capsys.readouterr() == ("", f"error: {info.value}\n")

    def test_residual_above_budget(self, ex2, patched):
        patched([1.0, 0.5])
        crit = critical_classes(ex2, spectral_summary(ex2))
        with pytest.raises(ConstructionFailedError) as info:
            pencil_eigenbasis(ex2, crit)
        # budget 1e-8 * max(||A||, ||B||) = 1e-8 * 6
        assert str(info.value) == "class (2, 4): residual 1.500e+00 above 6.000e-08"

    def test_m_nullbasis_names_the_class_too(self, patched):
        patched([1.0, 0.5])
        with pytest.raises(ConstructionFailedError, match=r"^class \(1, 2\): residual"):
            m_nullbasis(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        patched([1.0, -0.0])
        with pytest.raises(ConstructionFailedError, match="entry 2 on the support"):
            m_nullbasis(np.array([[1.0, -1.0], [-1.0, 1.0]]))


class TestRandomPencilProperties:
    CONFIGS = [GenConfig(n=n, seed=seed, density=d)
               for n in (2, 3, 4, 5)
               for seed, d in enumerate((0.2, 0.35, 0.5, 0.75, 0.9))]

    def test_support_matches_combinatorial_prediction(self):
        for cfg in self.CONFIGS:
            p = gen_pencil(cfg)
            summary = spectral_summary(p)
            for vec in pencil_eigenbasis(p, critical_classes(p, summary)):
                positive = tuple(
                    int(i) + 1 for i in np.nonzero(vec.x > 1e-10)[0]
                )
                assert positive == vec.support

    def test_eigen_residual(self):
        for cfg in self.CONFIGS:
            p = gen_pencil(cfg)
            summary = spectral_summary(p)
            limit = 1e-8 * max(inf_norm(p.A), inf_norm(p.B))
            for vec in pencil_eigenbasis(p, critical_classes(p, summary)):
                assert inf_norm(p.A @ vec.x - summary.rho_ab * (p.B @ vec.x)) <= limit

    def test_linear_independence(self):
        for cfg in self.CONFIGS:
            p = gen_pencil(cfg)
            summary = spectral_summary(p)
            vecs = pencil_eigenbasis(p, critical_classes(p, summary))
            if not vecs:
                continue
            stack = np.column_stack([v.x for v in vecs])
            assert np.linalg.matrix_rank(stack, tol=1e-10) == len(vecs)

    def test_nonnegative_kernel_vectors_lie_in_cone(self):
        # inverse iteration from random positive starts yields nonnegative
        # kernel vectors independent of the basis construction; each must
        # be reproduced by nonnegative least squares over the basis
        rng = np.random.default_rng(97)
        for cfg in self.CONFIGS:
            p = gen_pencil(cfg)
            summary = spectral_summary(p)
            vecs = pencil_eigenbasis(p, critical_classes(p, summary))
            assert vecs, "critical member always carries a kernel vector"
            X = summary.rho_ab * p.B - p.A
            eps = 1e-8 * max(1.0, inf_norm(X))
            sample = rng.uniform(0.5, 1.5, p.n)
            for _ in range(3):
                sample = np.linalg.solve(X + eps * np.eye(p.n), sample)
                sample = np.maximum(sample, 0.0)
                sample /= sample.max()
            basis = np.column_stack([v.x for v in vecs])
            coeff, _ = nnls(basis, sample)
            assert inf_norm(basis @ coeff - sample) <= 1e-6

    def test_classes_of_gamma_match_critical_member(self):
        # for 0 < rho < 1 the digraph of rho*B - A has the same classes as
        # the union digraph
        for cfg in self.CONFIGS:
            p = gen_pencil(cfg)
            summary = spectral_summary(p)
            if not DEFAULT_TOL.rel_sing < summary.rho_ab < 1.0:
                continue
            member = digraph_of(summary.rho_ab * p.B - p.A)
            assert classes(member) == classes(critical_classes(p, summary).graph)
