"""Span arithmetic and import-site patching of the trace harness."""

import pytest

import spans


def _span(sid, name, start, end, parent=None, **counts):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, **counts}


def test_self_time_subtracts_direct_children_only():
    tree = [_span(0, "root", 0.0, 10.0),
            _span(1, "child", 1.0, 4.0, parent=0),
            _span(2, "grandchild", 2.0, 3.0, parent=1),
            _span(3, "child", 5.0, 6.5, parent=0)]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.5)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    tree = [_span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 5.0, parent=0),
            _span(2, "b", 3.0, 7.0, parent=0),     # overlaps a by 2
            _span(3, "c", 9.0, 12.0, parent=0)]    # runs past the parent
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_of_nested_solver_spans():
    tree = [
        _span(0, "solver.local_uniqueness_probe", 0.0, 10.0, trials=2,
              trials_failed=1),
        _span(1, "solver.fixed_point_solve", 1.0, 4.0, parent=0, iters=3),
        _span(2, "fem.solve_linear", 1.5, 3.5, parent=1),
        _span(3, "fem.lu_factor", 2.0, 3.0, parent=2, fill=50, nnz=10,
              digest="x"),
        _span(4, "solver.fixed_point_solve", 5.0, 9.0, parent=0, iters=4),
        _span(5, "fem.lu_factor", 6.0, 8.0, parent=4, fill=70, nnz=12,
              digest="x"),
    ]
    m = {k: v for k, (v, _) in spans.layer_metrics(tree).items()}
    assert m["solver.local_uniqueness_probe.s"] == pytest.approx(10.0)
    assert m["solver.local_uniqueness_probe.self_s"] == pytest.approx(3.0)
    assert m["solver.local_uniqueness_probe.trials"] == 2
    assert m["solver.local_uniqueness_probe.trials_failed"] == 1
    assert m["solver.fixed_point_solve.calls"] == 2
    assert m["solver.fixed_point_solve.s"] == pytest.approx(7.0)
    assert m["solver.fixed_point_solve.self_s"] == pytest.approx(1.0 + 2.0)
    assert m["solver.fixed_point_solve.iters"] == 7
    assert m["fem.solve_linear.s"] == pytest.approx(2.0)
    assert m["fem.lu_factor.calls"] == 2
    assert m["fem.lu_factor.s"] == pytest.approx(3.0)
    assert m["fem.lu_factor.fill"] == 120
    assert m["fem.lu_factor.fill_max"] == 70
    assert m["fem.matrix_nnz_max"] == 12
    assert m["fem.lu_factor.repeat"] == 1
    assert m["fem.lu_factor.unique_frac"] == pytest.approx(0.5)


def test_recorder_patches_every_import_site_and_restores_them():
    import homfem
    import homfem.cli
    import homfem.solver
    from homfem.fem import FemSpace

    original = homfem.solver.fixed_point_solve
    assert homfem.cli.fixed_point_solve is original
    with spans.Recorder() as recorder:
        for module in (homfem, homfem.cli, homfem.solver):
            patched = module.fixed_point_solve
            assert patched is not original
            assert patched.__wrapped__ is original
        homfem.mesh.build_interval_mesh(4)
    assert homfem.cli.fixed_point_solve is original
    assert homfem.solver.fixed_point_solve is original
    assert "__wrapped__" not in vars(FemSpace.__init__)
    assert [s["name"] for s in recorder.spans] == ["mesh.build_interval_mesh"]
