"""Spectral existence iteration on the flat 7-torus.

The model problem: perturb the flat structure phi0 by an exact 2-form,
phi = phi0 + eps d sigma, and run the correction iteration until
phi + d eta is torsion-free.  On T^7 the only torsion-free structure in
the cohomology class near phi0 is phi0 itself (parallel forms have
constant coefficients, and constant intersect exact = 0), so the solver
is certified end-to-end: the residual and the distance to phi0 must both
vanish to solver tolerance.

All derivative operators are Fourier-diagonal with respect to the flat
background metric.  The solver rearranges the torsion-free equation as

    delta0 [ P0(chi) - *0 F0(chi) ] = 0,     chi = (phi - phi0) + d eta,

where Theta(phi0 + chi) = *0 phi0 - T0(chi) - F0(chi) is the split at the
flat structure, T0 = -*0 P0 is its exact linearization (P0 a constant
35x35 rational matrix), and F0 is quadratically small.  The left side is
linear with a mode-diagonal symbol A(m) = 4 pi^2 (m -|) P0 (m ^) on
2-forms.  P0 has spectrum {4/3, 1, -1}, so A(m)^2 = -Lap(m) A(m) with
Lap(m) = 4 pi^2 |m|^2: A is -Lap times a projector, and its
pseudo-inverse is A^+ = Lap^-2 A, applied by d, P0 and delta in the
spectral domain with nothing factorized or stored; the right side feeds
back F0.  At the fixed point *0[P0 chi - *0 F0] equals
Theta(phi + d eta) - *0 phi0 identically, so the reported torsion
residual vanishes with the iteration error, independent of grid effects.

The Nyquist convention: N is even, and mode index N/2 stands for
m = -N/2 = N/2 mod N, its own negative, so an odd symbol there could be
flipped neither by conjugation nor by a reflection.  d and delta take
the odd symbol 0 at index N/2 on every axis, and A and the Lap of A^+
take m from that same symbol; so d, delta and A^+ commute exactly with
Gamma' below and keep a real field's half spectrum that of a real field.
The Laplacian's symbol is even and keeps m.

The model is that of the orbifold T^7/Gamma: sigma is averaged over
Gamma' = L^-1 Gamma L (kummer.gamma_elements() in the frame of phi0, by
the signed permutation kummer.L_PERM), whose linear parts fix phi0.  So
every iterate is exactly Gamma'-invariant, and a solve holds each
spectrum at one mode per orbit of Gamma' x conjugation (2376 of the
12288 half-spectrum modes at N = 4), takes the pointwise split once per
Gamma'-orbit of the grid (2432 of 4^7 points), and has grid values one
component at a time, inside _rfft and _irfft.

Positivity is proved where a metric is eliminated, once per orbit and
iterate: a step's Theta raises PositivityError where phi + d eta leaves
the G2 cone.  The first iterate is phi itself, so its Theta is the gate
on eps.  The reported residual takes Theta at every grid point.

A field has one representation at a time.  Grid values are a forms.Form
whose batch shape is the (N,)*7 grid, so the pointwise G2 algebra (theta,
the metric, hodge_star with g) takes them as they are; a SpectralField
holds a half spectrum, whole or at the mode-orbit representatives, on
which the derivative operators act.  to_spectral() and
SpectralField.to_grid() convert between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
import struct
from typing import NamedTuple

import numpy as np
import scipy.fft

from . import kummer
from .forms import (_THETA_BLOCK, Form, Metric, PositivityError, _place,
                    _read_only, _theta_at, _theta_linear, _wedge_table,
                    hodge_star, index_list, metric_from_g2, phi0, star_phi0,
                    theta)

__all__ = [
    "SpectralField", "to_spectral", "constant", "SolverConfig", "SpectralOps",
    "derivative_ops",
    "make_model_problem", "picard_step", "solve", "residual",
    "flat_t_matrix", "save_field", "load_field", "GridTooLargeError",
]

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------
# the one FFT site
# ----------------------------------------------------------------------

_GRID_AXES = tuple(range(1, 8))
# a constant form's (ncomp,) coefficients, broadcast over the grid axes
_CONST = (slice(None),) + (None,) * 7


def _half_shape(N: int) -> tuple[int, ...]:
    """The mode axes of a half spectrum of the N^7 grid."""
    return (N,) * 6 + (N // 2 + 1,)


def _rfft(coeffs: np.ndarray, N: int, degree: int | None = None
          ) -> np.ndarray:
    """Half spectrum over the seven grid axes of real grid values.

    coeffs (ncomp, N, ..., N) gives the whole half spectrum.  With the
    degree of a Gamma'-invariant field, coeffs (ncomp, n_orbits) are its
    values at the grid's orbit representatives (_orbit_tables), each
    component is scattered to the grid before its transform, and the
    result is its spectrum at the mode-orbit representatives
    (_mode_orbits).

    _rfft and _irfft are the package's only Fourier transforms.  They run
    on one worker thread, as the BLAS calls do in a timed run, so that a
    solve uses one core, and one component at a time, so that grid
    values and the transform's own work arrays are one component's size.
    """
    orbits = degree is not None
    reps = _mode_orbits(N).reps if orbits else None
    out = np.empty((len(coeffs),) + (reps.shape if orbits else _half_shape(N)),
                   dtype=complex)
    for i, comp in enumerate(coeffs):
        if orbits:
            comp = _on_grid(comp, _component_signs(degree)[:, i], N)
        spec = scipy.fft.rfftn(comp.reshape((N,) * 7), workers=1)
        out[i] = spec.reshape(-1)[reps] if orbits else spec
    return out


def _irfft(spec: np.ndarray, N: int, degree: int | None = None
           ) -> np.ndarray:
    """Real grid values of a half spectrum: (ncomp, N, ..., N) of the
    whole half spectrum, or, with the degree of a Gamma'-invariant field
    held at the mode-orbit representatives, (ncomp, n_orbits) at the
    grid's orbit representatives, each component scattered to the whole
    half spectrum before its transform."""
    orbits = degree is not None
    points = _orbit_tables(N)[0] if orbits else None
    out = np.empty((len(spec),) + (points.shape if orbits else (N,) * 7))
    for i, comp in enumerate(spec):
        if orbits:
            comp = _at_modes(comp, _component_signs(degree)[:, i], N)
        grid = scipy.fft.irfftn(comp, s=(N,) * 7, workers=1)
        out[i] = grid.reshape(-1)[points] if orbits else grid
    return out


# ----------------------------------------------------------------------
# fields: grid values and half spectra
# ----------------------------------------------------------------------

def to_spectral(field: Form) -> "SpectralField":
    """Half spectrum of a field's grid values, coeffs (ncomp, N, ..., N)."""
    N = field.coeffs.shape[1]
    return SpectralField(field.degree, _rfft(field.coeffs, N), N)


def constant(form: Form, N: int) -> Form:
    """The grid values of a constant field: form at every point."""
    nc = form.coeffs.shape[0]
    arr = np.empty((nc,) + (N,) * 7)
    arr[:] = form.coeffs.reshape((nc,) + (1,) * 7)
    return Form(7, form.degree, arr)


def _linf(field: SpectralField) -> float:
    """Largest absolute grid value over all components, each component
    taken to the grid on its own: no grid values of the whole field.  A
    field at the mode-orbit representatives is read at the grid's orbit
    representatives, where |field| takes every value it takes."""
    if field.on_orbits:
        return float(np.abs(_irfft(field.spec, field.N, field.degree)).max())
    return max(float(np.abs(_irfft(comp[None], field.N)).max())
               for comp in field.spec)


class SpectralField:
    """Degree-p form field on the N^7 periodic lattice by its half spectrum.

    spec: complex array (ncomp,) + modes.  Either modes are the whole half
    spectrum (N, ..., N, N // 2 + 1), the rfftn of the grid values over
    the seven grid axes; or the field is Gamma'-invariant and modes are
    (n_mode_orbits,), its spectrum at one mode per orbit of Gamma' and
    conjugation (_mode_orbits), from which the rest of the half spectrum
    follows.  The derivative operators act here; to_grid() transforms
    back to grid values, a Form, once per call.
    """

    def __init__(self, degree: int, spec: np.ndarray, N: int):
        nc = len(index_list(7, degree))
        if spec.shape[:1] != (nc,) or (
                spec.shape[1:] != _half_shape(N)
                and (spec.ndim != 2
                     or spec.shape[1:] != _mode_orbits(N).reps.shape)):
            raise ValueError(f"expected the (ncomp={nc}) half spectrum of "
                             f"an N = {N} grid, whole or at its mode orbits")
        self.degree = degree
        self.spec = spec
        self.N = N

    @classmethod
    def zero(cls, degree: int, N: int) -> "SpectralField":
        nc = len(index_list(7, degree))
        return cls(degree, np.zeros((nc,) + _half_shape(N), dtype=complex),
                   N)

    @property
    def on_orbits(self) -> bool:
        """Whether spec holds the mode-orbit representatives only."""
        return self.spec.ndim == 2

    def to_grid(self) -> Form:
        if self.on_orbits:
            pts = _irfft(self.spec, self.N, self.degree)
            return Form(7, self.degree, _orbit_grid(pts, self.degree, self.N))
        return Form(7, self.degree, _irfft(self.spec, self.N))

    def __add__(self, other):
        return SpectralField(self.degree, self.spec + other.spec, self.N)

    def __sub__(self, other):
        return SpectralField(self.degree, self.spec - other.spec, self.N)

    def __mul__(self, s):
        return SpectralField(self.degree, s * self.spec, self.N)

    __rmul__ = __mul__


# ----------------------------------------------------------------------
# the group Gamma' on the grid and on the modes
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gamma_prime() -> tuple[np.ndarray, np.ndarray]:
    """Gamma' = L^-1 Gamma L: the elements of kummer.gamma_elements() with
    signs and shifts read through kummer.L_PERM, as (signs, halves), each
    (8, 7), element 0 the identity.  Element g maps x to
    signs[g] x + halves[g] / 2, so grid index k to
    signs[g] k + halves[g] N/2 mod N (N even).  Its linear part fixes
    phi0, so it lies in G2."""
    perm = list(kummer.L_PERM)
    elements = kummer.gamma_elements()
    signs = np.array([[el.signs[j] for j in perm] for el in elements])
    halves = np.array([[int(2 * el.shift[j]) for j in perm]
                       for el in elements])
    return _read_only(signs), _read_only(halves)


@lru_cache(maxsize=None)
def _component_signs(degree: int) -> np.ndarray:
    """(8, ncomp): the sign by which the linear part of each element of
    Gamma' multiplies each basis form of the degree."""
    idx = np.array(index_list(7, degree))
    return _read_only(_gamma_prime()[0][:, idx].prod(axis=-1))


def _gamma_average(field: Form) -> None:
    """Replace grid values, in place, by their mean over Gamma',
    (1/8) sum_g g* field: g* multiplies each component by its sign and
    reads it at g x.  The mean is taken at each orbit representative from
    its images in _orbit_tables, and written to the rest of its orbit with
    g's signs; the linear parts are diagonal, so one component at a
    time."""
    N = field.coeffs.shape[1]
    if not field.coeffs.flags.c_contiguous:
        raise ValueError("the average is written over contiguous values")
    images = _orbit_tables(N)
    eps = _component_signs(field.degree)
    for comp, signs in zip(field.coeffs.reshape(eps.shape[1], -1), eps.T):
        acc = comp[images[0]]               # element 0, the identity
        for sign, img in zip(signs[1:], images[1:]):
            acc += sign * comp[img]
        _on_grid(acc / len(images), signs, N, out=comp)


def _image_index(coords, signs, halves, N: int):
    """Flat grid index of g(k), for grid coordinates coords[a] along each
    axis a (arrays that broadcast together)."""
    flat = 0
    for k, s, h in zip(coords, signs, halves):
        flat = flat * N + (s * k + h * (N // 2)) % N
    return flat


def _grid_map(N: int, signs, halves) -> np.ndarray:
    """The flat index of g(k) at every grid point k, (N,)*7."""
    return _image_index([np.arange(N).reshape((-1,) + (1,) * (6 - a))
                         for a in range(7)], signs, halves, N)


def _invariance_defect(field: Form) -> float:
    """max over g in Gamma' of ||g* field - field||_Linf / ||field||_Linf
    on the grid values (0 for the zero field).  The values at g x are
    gathered by _grid_map, not through the cached orbit tables that the
    average and the transforms read, so the check does not share their
    reading of the group."""
    signs, halves = _gamma_prime()
    eps = _component_signs(field.degree)
    c = field.coeffs.reshape(eps.shape[1], -1)
    worst = 0.0
    for g in range(1, len(signs)):
        at_image = _grid_map(field.coeffs.shape[-1], signs[g],
                             halves[g]).ravel()
        for i, comp in enumerate(c):    # one component's temporary
            diff = comp[at_image]
            diff *= eps[g, i]
            diff -= comp
            worst = max(worst, float(np.abs(diff, out=diff).max()))
    scale = float(np.abs(c).max())
    return worst / scale if scale > 0.0 else 0.0


@lru_cache(maxsize=None)
def _orbit_tables(N: int) -> np.ndarray:
    """(8, n_orbits) flat grid indices: column o holds g(rep_o) for each
    element g of Gamma', where rep_o is the least index of the o-th
    orbit; row 0 (the identity) holds the representatives.  Built one
    element's map of the grid at a time."""
    signs, halves = _gamma_prime()
    least = _grid_map(N, signs[0], halves[0])
    for s, h in zip(signs[1:], halves[1:]):
        np.minimum(least, _grid_map(N, s, h), out=least)
    reps = np.flatnonzero(least.ravel() == np.arange(N ** 7))
    coords = np.unravel_index(reps, (N,) * 7)
    return _read_only(np.stack([_image_index(coords, s, h, N)
                                for s, h in zip(signs, halves)]))


def _on_grid(values: np.ndarray, signs, N: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """One component of a Gamma'-invariant field on the whole grid, flat
    (N^7,), from its values at the orbit representatives: each image
    g(rep) of _orbit_tables gets signs[g] times the value at rep."""
    out = np.empty(N ** 7) if out is None else out
    for sign, img in zip(signs, _orbit_tables(N)):
        out[img] = sign * values
    return out


def _orbit_grid(values: np.ndarray, degree: int, N: int) -> np.ndarray:
    """Grid values (ncomp, N, ..., N) of a Gamma'-invariant field from its
    values (ncomp, n_orbits) at the orbit representatives."""
    out = np.empty((len(values), N ** 7))
    for comp, signs, row in zip(values, _component_signs(degree).T, out):
        _on_grid(comp, signs, N, out=row)
    return out.reshape((len(values),) + (N,) * 7)


class _ModeOrbits(NamedTuple):
    """One mode per orbit of Gamma' x conjugation on the half spectrum.

    Element g multiplies a mode m by signs[g] and, by its shift, the
    coefficient by (-1)^(m . halves[g]); conjugation maps m to -m, which
    a real field's spectrum reads as the conjugate.  So an invariant real
    field's coefficient of component I at the half-spectrum mode j is
    (sign of I under elem[j]) * phase[j] * v, v its coefficient at the
    representative of j's orbit, conjugated where conj[j].  N is even,
    so m . halves has the parity of the mode index's and the rule holds
    on the grid."""
    # (n_mode_orbits,) flat half-spectrum indices, ascending
    reps: np.ndarray
    # per half-spectrum mode j, flat: the position in reps of its orbit,
    # the element g and whether conjugation joins it in mapping the
    # representative to j, and (-1)^(k . halves[g]), k the index of j
    src: np.ndarray
    elem: np.ndarray
    conj: np.ndarray
    phase: np.ndarray
    # the operators on the representatives
    ops: "SpectralOps"


@lru_cache(maxsize=None)
def _mode_orbits(N: int) -> _ModeOrbits:
    """The mode orbits of the N^7 half spectrum.  A mode's representative
    is the least flat index among its images under Gamma' x conjugation
    that lie in the half spectrum.  Built one element's map of the modes
    at a time."""
    signs, halves = _gamma_prime()
    shape = _half_shape(N)
    size = int(np.prod(shape))
    coords = [np.arange(n).reshape((-1,) + (1,) * (6 - a))
              for a, n in enumerate(shape)]
    least = np.arange(size).reshape(shape)
    elem = np.zeros(shape, dtype=np.int8)
    conj = np.zeros(shape, dtype=bool)
    for g, s in enumerate(signs):
        for c in (1, -1):
            img = [(c * s_a * k) % N for s_a, k in zip(s, coords)]
            flat = 0
            for k, n in zip(img, shape):
                flat = flat * n + k
            # an image past the last axis's N/2 lies outside the half
            flat = np.where(img[6] < shape[6], flat, size)
            less = flat < least
            least[less], elem[less], conj[less] = flat[less], g, c < 0
    least = least.ravel()
    reps = np.flatnonzero(least == np.arange(size))
    parity = sum(k * halves[elem, a] for a, k in enumerate(coords)) % 2
    return _ModeOrbits(
        _read_only(reps), _read_only(np.searchsorted(reps, least)),
        _read_only(elem.ravel()), _read_only(conj.ravel()),
        _read_only((1 - 2 * parity).astype(np.int8).ravel()),
        SpectralOps(N, np.unravel_index(reps, shape)))


def _at_modes(values: np.ndarray, signs, N: int) -> np.ndarray:
    """One component of a Gamma'-invariant field on the whole half
    spectrum from its values at the mode-orbit representatives, by the
    rule of _ModeOrbits; signs[g] is the component's sign under g."""
    orbits = _mode_orbits(N)
    out = values[orbits.src]
    np.conjugate(out, out=out, where=orbits.conj)
    out *= signs[orbits.elem] * orbits.phase
    return out.reshape(_half_shape(N))


# ----------------------------------------------------------------------
# spectral derivative operators
# ----------------------------------------------------------------------

class SpectralOps:
    """Fourier-diagonal d, d*, Laplacian and inverse on the spectra of a
    set of modes of the N^7 grid: the whole half spectrum
    (derivative_ops) or the mode-orbit representatives (_mode_orbits).

    The odd symbol of d and d* is 0 at mode index N/2 on every axis: that
    mode, -N/2 = N/2 mod N, is its own negative, so an odd symbol there
    could not be flipped by Gamma' or by conjugation.  With it 0, d, d*
    and A^+ commute exactly with Gamma' and keep a real field's spectrum
    real.  The Laplacian's symbol 4 pi^2 |m|^2 is even and keeps m."""

    def __init__(self, N: int, index):
        """index: the mode index along each of the 7 axes, integer arrays
        that broadcast to the mode set's shape."""
        self.N = N
        # the signed modes of the index, -N/2 at N/2; read-only, as one
        # instance per N and mode set is shared
        ms = [(k + N // 2) % N - N // 2 for k in index]
        self.m = tuple(_read_only(np.where(np.abs(m) == N // 2, 0.0, m))
                       for m in ms)
        lap = TWO_PI ** 2 * sum(m.astype(float) ** 2 for m in ms)
        self.lap = _read_only(lap)
        # set to 1 where the symbol is 0, so that dividing by it leaves
        # that mode as it is
        self.lap_nonzero = _read_only(np.where(lap == 0.0, 1.0, lap))
        # A^+ = Lap^-2 A with the Laplacian of the odd symbol, whose A is
        # -Lap times a projector
        lap_odd = TWO_PI ** 2 * sum(m ** 2 for m in self.m)
        self.pinv_denominator = _read_only(
            np.where(lap_odd == 0.0, 1.0, lap_odd) ** 2)
        self.mode_max = _read_only(reduce(np.maximum, map(np.abs, ms)))
        # the zero mode is the first of both mode sets
        self.zero_mode = (slice(None),) + (0,) * lap.ndim

    def _m_action(self, spec: np.ndarray, p: int, q: int, factor):
        """factor (m ^ .) for q = p + 1, or its transpose (m -| .) for
        q = p - 1, on the spectrum of a p-form, mode by mode."""
        out = np.zeros((len(index_list(7, q)),) + spec.shape[1:],
                       dtype=complex)
        # e^a ^ e^I: the wedge table of Lambda^1 x Lambda^p, axis a first
        for a, lo, hi, sign in _wedge_table(7, 1, min(p, q)):
            i, o = (lo, hi) if q > p else (hi, lo)
            out[o] += (factor * sign) * (self.m[a] * spec[i])
        return out

    def d(self, field: SpectralField) -> SpectralField:
        """Exterior derivative on trigonometric interpolants (exact)."""
        p = field.degree
        out = self._m_action(field.spec, p, p + 1, TWO_PI * 1j)
        return SpectralField(p + 1, out, self.N)

    def delta(self, field: SpectralField) -> SpectralField:
        """Formal adjoint of d w.r.t. the flat L^2 pairing (degree -1)."""
        p = field.degree
        out = self._m_action(field.spec, p, p - 1, -TWO_PI * 1j)
        return SpectralField(p - 1, out, self.N)

    def laplacian(self, field: SpectralField) -> SpectralField:
        return SpectralField(field.degree, field.spec * self.lap, self.N)

    def inv_laplacian(self, field: SpectralField) -> SpectralField:
        """Invert the Hodge Laplacian on the mean-zero complement.

        The constant modes are outside the image and are dropped (the
        discrete analogue of working orthogonal to the reference kernel).
        """
        spec = field.spec / self.lap_nonzero
        spec[self.zero_mode] = 0.0
        return SpectralField(field.degree, spec, self.N)

    def band_limit(self, field: SpectralField, max_mode: int) -> SpectralField:
        return SpectralField(field.degree,
                             field.spec * (self.mode_max <= max_mode), self.N)

    def mean_zero(self, field: SpectralField) -> SpectralField:
        spec = field.spec.copy()
        spec[self.zero_mode] = 0.0
        return SpectralField(field.degree, spec, self.N)


@lru_cache(maxsize=None)
def derivative_ops(N: int) -> SpectralOps:
    return SpectralOps(N, [np.arange(n).reshape((-1,) + (1,) * (6 - a))
                           for a, n in enumerate(_half_shape(N))])


# ----------------------------------------------------------------------
# the exact flat-background linearization
# ----------------------------------------------------------------------

def _star0(field: SpectralField) -> SpectralField:
    """The Euclidean Hodge star *0 on a half spectrum: the signed
    permutation of the components (forms._place), one gather."""
    return SpectralField(7 - field.degree, _place(field.spec, 7, field.degree),
                         field.N)


@lru_cache(maxsize=None)
def flat_t_matrix() -> np.ndarray:
    """T0 = -*0 P0: forms._theta_linear at phi0 on the 35 basis 3-forms as
    one batch (T alone: a unit chi takes phi0 + chi out of the G2 cone)."""
    phi = Form(7, 3, np.broadcast_to(phi0().coeffs[:, None], (35, 35)))
    return _read_only(_theta_linear(Metric.euclidean(7), phi, star_phi0(),
                                    Form(7, 3, np.eye(35))).coeffs)


@lru_cache(maxsize=None)
def flat_p_matrix() -> np.ndarray:
    """P0 = (7/3) pi_1 + 2 pi_7 - Id on 3-forms at the flat structure,
    read off T0 = -*0 P0 as P0 = -*0 T0 (** = Id in dimension 7)."""
    return _read_only(-_place(flat_t_matrix(), 7, 4))


def _apply_symbol(ops: SpectralOps, spec: np.ndarray) -> np.ndarray:
    """A = delta0 P0 d on the spectrum of a 2-form: the real symbol
    4 pi^2 (m -|) P0 (m ^), mode by mode and never assembled.  Its kernel
    holds the d-closed directions and the diffeomorphism gauge modes."""
    dx = ops._m_action(spec, 2, 3, 1.0)
    flat = dx.reshape(len(dx), -1)      # a view: dx is new and contiguous
    step = -(-flat.shape[1] // ops.N)
    for lo in range(0, flat.shape[1], step):   # P0 in place, N slabs
        flat[:, lo:lo + step] = flat_p_matrix() @ flat[:, lo:lo + step]
    return ops._m_action(dx, 3, 2, TWO_PI ** 2)


def _apply_symbol_pinv(ops: SpectralOps, field: SpectralField
                       ) -> SpectralField:
    """A^+ = Lap^-2 A, mode by mode; 0 where the odd symbol is."""
    spec = _apply_symbol(ops, field.spec)
    spec /= ops.pinv_denominator
    return SpectralField(2, spec, field.N)


def _flat_split_F(chi: np.ndarray) -> np.ndarray:
    """F0(chi) = *0 phi0 - T0 chi - Theta(phi0 + chi) of a Gamma'-invariant
    chi, at the grid's orbit representatives (_orbit_tables), written over
    chi's values there (35, n_orbits), which the caller hands over.

    All representatives go to one theta call (which takes them
    _THETA_BLOCK points at a time).  At an image g(rep), F0 is g's 4-form
    component signs times F0 at rep: g's linear part fixes phi0 and lies
    in G2, Theta is G2-equivariant and T0 commutes with it.  Theta raises
    PositivityError where phi0 + chi is not a G2-structure at a
    representative; at every other point phi0 + chi is the image of a
    representative's under that linear map, so it is positive with it."""
    t_c = flat_t_matrix() @ chi
    theta_c = theta(Form(7, 3, phi0().coeffs[:, None] + chi)).coeffs
    np.subtract(star_phi0().coeffs[:, None], t_c, out=chi)
    chi -= theta_c
    return chi


# ----------------------------------------------------------------------
# the model problem
# ----------------------------------------------------------------------

@dataclass
class SolverConfig:
    N: int = 6
    eps: float = 1e-2
    seed: int = 7
    tol_residual: float = 1e-8
    max_iter: int = 50
    # one scheme; the keyword stays because the bench's torus-n4 passes it
    operator_mode: str = "flat-background"

    def __post_init__(self):
        if self.N not in (4, 6, 8):
            raise ValueError("N must be 4, 6, or 8")
        if not np.isfinite(self.eps):
            raise ValueError(f"eps must be finite, not {self.eps}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if self.operator_mode != "flat-background":
            raise ValueError(f"unknown operator mode {self.operator_mode!r}")


# Peak RSS of a solve per grid point: the slope of ru_maxrss between an
# N = 4 and an N = 6 solve in fresh processes (138.9 and 436.8 MiB with
# the spectra held by mode orbit, one BLAS thread), 1185 B, with a
# quarter on top for allocator slack.  solve holds no grid-sized phi,
# psi, metric or 4-form, and no whole half spectrum between transforms;
# its peak is in the full-grid Theta and d of the reported residual.
_PEAK_BYTES_PER_POINT = 1500


class GridTooLargeError(MemoryError):
    """A solve's estimated peak memory exceeds the memory available."""


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where unreadable."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


_EPS_TOO_LARGE = "eps too large: phi leaves the G2 cone on the grid"


def _model_sigma(cfg: SolverConfig) -> tuple[SpectralField, np.ndarray,
                                               float]:
    """sigma for the model problem at the mode-orbit representatives, the
    values of d sigma (35, n_orbits) at the grid's orbit representatives,
    scaled so that ||d sigma||_Linf = 1, and the invariance defect of the
    averaged draw, after the memory refusal.  sigma is the coexact
    band-limited part of a random draw averaged over Gamma', so sigma,
    phi and every iterate of a solve are Gamma'-invariant.

    The draw is transformed from its values at the orbit representatives,
    which would make a broken average invariant unseen: so its defect is
    measured on its grid values first, for the report of a solve.

    Nothing here proves phi = phi0 + eps d sigma positive: the first
    elimination of phi's metric does, in make_model_problem or in the
    first step of a solve."""
    need, avail = _PEAK_BYTES_PER_POINT * cfg.N ** 7, _mem_available()
    if avail is not None and need > avail:
        raise GridTooLargeError(
            f"N = {cfg.N} needs about {need / 2 ** 30:.1f} GiB, "
            f"{avail / 2 ** 30:.1f} GiB available")
    # the cached orbit tables, built before any grid-sized array: built
    # inside the first step, the long-lived table held heap pages there
    # and raised the peak RSS (3 MB at N = 4)
    points = _orbit_tables(cfg.N)[0]
    ops = _mode_orbits(cfg.N).ops
    rng = np.random.default_rng(cfg.seed)
    raw = Form(7, 2, rng.normal(size=(21,) + (cfg.N,) * 7))
    _gamma_average(raw)
    defect = _invariance_defect(raw)
    raw = raw.coeffs.reshape(21, -1)[:, points]
    # coexact part: delta Lap^-1 d keeps the band limit (diagonal ops,
    # which commute with Gamma', so sigma stays invariant) and drops the
    # constant mode, which d multiplies by m = 0
    sigma = ops.delta(ops.inv_laplacian(ops.d(ops.band_limit(
        SpectralField(2, _rfft(raw, cfg.N, 2), cfg.N), max(1, cfg.N // 4)))))
    dsig = _irfft(ops.d(sigma).spec, cfg.N, 3)
    scale = float(np.abs(dsig).max())
    if scale == 0.0:
        raise RuntimeError("degenerate random draw")
    sigma.spec *= 1.0 / scale
    dsig *= 1.0 / scale
    return sigma, dsig, defect


def make_model_problem(cfg: SolverConfig):
    """phi = phi0 + eps d sigma for a random Gamma'-invariant band-limited
    coexact 2-form sigma with || d sigma ||_Linf = 1, and the torsion
    bookkeeping 3-form psi with *psi = Theta(phi) - *0 phi0; sigma is
    held at the mode-orbit representatives.

    Refuses a grid that cannot fit in memory before allocating it, and
    raises PositivityError where phi is not a G2-structure at some grid
    point: the metric that psi needs is the gate, one elimination per
    point.  delta_g psi = delta_g phi holds by construction: ** = id in
    dimension 7 and *0 phi0 is constant, so d *psi = d Theta(phi).
    solve() builds no psi and iterates on sigma from _model_sigma.
    """
    sigma, dsig, _ = _model_sigma(cfg)
    # phi in place in the grid values of d sigma, written from its values
    # at the orbit representatives; psi one theta block at a time, within
    # the peak the refusal estimates
    phi = Form(7, 3, _orbit_grid(dsig, 3, cfg.N))
    phi.coeffs[:] *= cfg.eps
    phi.coeffs[:] += phi0().coeffs[_CONST]
    pts = phi.coeffs.reshape(35, -1)
    psi = np.empty_like(pts)
    star0 = Form(7, 4, star_phi0().coeffs[:, None])
    for lo in range(0, pts.shape[1], _THETA_BLOCK):
        blk = slice(lo, lo + _THETA_BLOCK)
        block = Form(7, 3, pts[:, blk])
        try:
            g, _ = metric_from_g2(block)
        except PositivityError as exc:
            raise PositivityError(_EPS_TOO_LARGE) from exc
        psi[:, blk] = hodge_star(g, _theta_at(g, block) - star0).coeffs
    return phi, Form(7, 3, psi.reshape(phi.coeffs.shape)), sigma


# ----------------------------------------------------------------------
# iteration
# ----------------------------------------------------------------------

def picard_step(pot: SpectralField, chi: np.ndarray) -> SpectralField:
    """One update of the correction 2-form eta, at the mode-orbit
    representatives.

    pot is the model potential, phi = phi0 + d pot: eps sigma for the
    output of make_model_problem, so no step recomputes
    delta Lap^-1 (phi - phi0).  chi = d(pot + eta) for the current eta,
    as its values at the grid's orbit representatives, which the caller
    hands over and F0 overwrites.  The step solves the exact
    rearrangement A(eta + pot) = delta0(*0 F0(chi)), using the mode-wise
    pseudo-inverse Lap^-2 A of A = delta0 P0 d.  Its Theta is the one
    metric elimination of phi + d eta: PositivityError where that leaves
    the G2 cone.
    """
    N = pot.N
    ops = _mode_orbits(N).ops
    sol = _apply_symbol_pinv(ops, ops.delta(_star0(
        SpectralField(4, _rfft(_flat_split_F(chi), N, 4), N))))
    # A acted on eta + pot; peel the model part off and drop the mean, in
    # place, as sol is this step's own
    sol.spec -= pot.spec
    sol.spec[ops.zero_mode] = 0.0
    return sol


def _torsion_linf(phi_tilde: Form) -> float:
    """||d Theta(phi)||_Linf on the grid (flat norm)."""
    ops = derivative_ops(phi_tilde.coeffs.shape[1])
    return _linf(ops.d(to_spectral(theta(phi_tilde))))


def residual(phi_tilde: Form) -> float:
    """max(||d phi||_Linf, ||d Theta(phi)||_Linf) on the grid (flat norms).
    Theta raises PositivityError where phi is not a G2-structure.  solve()
    reports the second half only: its phi = phi0 + d(eps sigma + eta) is
    closed by construction, so the first would measure rounding."""
    ops = derivative_ops(phi_tilde.coeffs.shape[1])
    return max(_linf(ops.d(to_spectral(phi_tilde))), _torsion_linf(phi_tilde))


def solve(cfg: SolverConfig):
    """Run the iteration to the torsion-free structure; returns
    (eta, report), eta as grid values.  On the flat torus the target is
    phi0 itself, so the report carries both the torsion residual and the
    distance to phi0, and the invariance defect under Gamma': the larger
    of the averaged draw's and eta's.

    The model problem enters as its potential eps sigma, after the memory
    refusal of make_model_problem; psi is never built, and phi + d eta is
    phi0 + d(eps sigma + eta).  That is closed by construction, so the
    reported residual is ||d Theta(phi + d eta)||_Linf, the torsion half
    of residual().  Between transforms, every spectrum is held at the
    mode-orbit representatives.

    Each iterate's metric is eliminated once.  Iterate 0 is phi itself,
    so the first Theta is phi's positivity gate and raises
    PositivityError("eps too large"), as make_model_problem does.  A
    later iterate outside the cone raises RuntimeError."""
    pot, chi, draw_defect = _model_sigma(cfg)
    pot.spec *= cfg.eps         # sigma, in place, becomes the potential
    chi *= cfg.eps              # and d sigma the first step's chi
    ops = _mode_orbits(cfg.N).ops
    eta = SpectralField(2, np.zeros_like(pot.spec), cfg.N)
    diffs = []
    iterations = 0
    for j in range(cfg.max_iter):
        if j > 0:
            chi = _irfft(ops.d(pot + eta).spec, cfg.N, 3)
        try:
            new_eta = picard_step(pot, chi)
        except PositivityError as exc:
            if j == 0:
                raise PositivityError(_EPS_TOO_LARGE) from exc
            raise RuntimeError(f"iterate {j} left the G2 cone") from exc
        step = _linf(new_eta - eta)
        diffs.append(step)
        eta = new_eta
        del new_eta         # one name per spectrum, so each is freed in time
        if step <= cfg.tol_residual:
            iterations = j          # productive steps before convergence
            break
        iterations = j + 1
    else:
        raise RuntimeError(f"max_iter = {cfg.max_iter} exceeded: last step "
                           f"{diffs[-1]:.3e} > tol {cfg.tol_residual:g}")

    phi_tilde = ops.d(pot + eta).to_grid()      # phi + d eta
    phi_tilde.coeffs[:] += phi0().coeffs[_CONST]
    del pot
    # the full-grid Theta: independent of the orbit reduction of the steps
    res = _torsion_linf(phi_tilde)
    dist = float(np.abs(phi_tilde.coeffs - phi0().coeffs[_CONST]).max())
    # the grid mean of each component is its constant Fourier mode
    zero_mode_gap = float(np.abs(
        phi_tilde.coeffs.mean(axis=_GRID_AXES) - phi0().coeffs).max())
    del phi_tilde       # freed before eta's grid values are made
    eta = eta.to_grid()
    contraction = [diffs[i + 1] / diffs[i]
                   for i in range(len(diffs) - 1) if diffs[i] > 0]
    report = {
        "iterations": iterations,
        "residual": res,
        "distance_to_flat": dist,
        "zero_mode_gap": zero_mode_gap,
        "invariance_defect": max(draw_defect, _invariance_defect(eta)),
        "contraction_factors": contraction,
        "step_sizes": diffs,
    }
    return eta, report


# ----------------------------------------------------------------------
# binary field dump
# ----------------------------------------------------------------------

def save_field(path: str, field: Form):
    """Little-endian layout: header '<II' (N, degree), then the float64
    coefficient array, component-major then row-major grid order."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", field.coeffs.shape[1], field.degree))
        fh.write(np.ascontiguousarray(field.coeffs, dtype="<f8").tobytes())


def load_field(path: str) -> Form:
    with open(path, "rb") as fh:
        N, degree = struct.unpack("<II", fh.read(8))
        nc = len(index_list(7, degree))
        data = np.frombuffer(fh.read(), dtype="<f8")
    return Form(7, degree, data.reshape((nc,) + (N,) * 7).copy())
