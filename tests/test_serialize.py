from __future__ import annotations

import json

import numpy as np
import pytest

from cubicpoints import (
    InputError,
    ParameterPath,
    chordal_distance,
    fermat_cubic,
    hesse_cubic,
)
from cubicpoints.serialize import (
    canonical_dumps,
    cubic_from_obj,
    cubic_to_obj,
    path_from_obj,
    path_to_obj,
    points_from_obj,
    points_to_csv,
    points_to_obj,
)


class TestCubicCodec:
    def test_round_trip_preserves_coefficients(self, rng):
        coeffs = {}
        for key in [(3, 0, 0), (1, 1, 1), (0, 2, 1)]:
            coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
        from cubicpoints import CubicForm

        f = CubicForm.from_coeffs(coeffs)
        g = cubic_from_obj(cubic_to_obj(f))
        assert f.proportionality_residual(g) < 1e-15

    def test_zero_coefficients_are_omitted(self):
        obj = cubic_to_obj(hesse_cubic(0.0))
        assert sorted(obj["coeffs"]) == ["003", "030", "300"]

    def test_rejects_malformed(self):
        with pytest.raises(InputError):
            cubic_from_obj({"coeffs": {}})
        with pytest.raises(InputError):
            cubic_from_obj({"coeffs": {"30": [1, 0]}})
        with pytest.raises(InputError):
            cubic_from_obj({"coeffs": {"400": [1, 0]}})
        with pytest.raises(InputError):
            cubic_from_obj({"coeffs": {"300": [1]}})
        with pytest.raises(InputError):
            cubic_from_obj({"coeffs": {"300": [True, 0.0]}})
        with pytest.raises(InputError):
            cubic_from_obj([1, 2, 3])


class TestPointsCodec:
    def test_round_trip(self, fermat_flexes):
        obj = points_to_obj(fermat_flexes)
        back = points_from_obj(obj)
        assert len(back) == 9
        for p, cp in zip(back, fermat_flexes):
            assert chordal_distance(p.array, cp.array) < 1e-15

    def test_csv_shape(self, fermat_flexes):
        text = points_to_csv(fermat_flexes)
        lines = text.strip().splitlines()
        assert lines[0] == "x_re,x_im,y_re,y_im,z_re,z_im"
        assert len(lines) == 10
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_rejects_malformed(self):
        with pytest.raises(InputError):
            points_from_obj({"xyz": [[[0, 0], [0, 0], [0, 0]]]})
        with pytest.raises(InputError):
            points_from_obj({"xyz": [[[1, 0], [0, 0]]]})
        with pytest.raises(InputError):
            points_from_obj({})


class TestPathCodec:
    def test_round_trip_preserves_geometry(self):
        path = ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0), hesse_cubic(0.0)], steps=12)
        back = path_from_obj(path_to_obj(path))
        assert back.steps == 12
        assert back.is_closed()
        for t in np.linspace(0.0, 1.0, 7):
            r = back.at(float(t)).proportionality_residual(path.at(float(t)))
            assert r < 1e-12

    def test_text_round_trip_is_byte_stable(self):
        path = ParameterPath([fermat_cubic(), fermat_cubic()], steps=4)
        text = canonical_dumps(path_to_obj(path))
        again = canonical_dumps(path_to_obj(path_from_obj(json.loads(text))))
        assert text == again

    def test_rejects_disconnected_segments(self):
        path = ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0)], steps=4)
        obj = path_to_obj(path)
        obj["segments"].append(
            {"from": cubic_to_obj(hesse_cubic(5.0)), "to": cubic_to_obj(hesse_cubic(6.0))}
        )
        with pytest.raises(InputError):
            path_from_obj(obj)

    def test_rejects_bad_steps(self):
        path = ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0)], steps=4)
        obj = path_to_obj(path)
        obj["steps"] = True
        with pytest.raises(InputError, match="the step count must be a positive integer"):
            path_from_obj(obj)
