"""Special functions for the 2D solver.

Bessel and Hankel functions of real and complex argument, and Gaussian
quadrature rules including log-weighted rules for singular self terms.

Evaluation strategy
-------------------
One implementation serves each job:

* Complex ``J_n`` and ``Y_n`` at every order (:func:`bessel_jy`, and
  through it :func:`hankel2` and the modal series): the AMOS routines
  behind ``scipy.special.jv``/``yv`` (D. E. Amos, ACM TOMS 12 (1986)
  265-273).
* Kernel path (:func:`hankel2_01_real`, real x > 0 only): the Cephes
  ``j0/j1/y0/y1`` of scipy.special.  The two are separate codes, so on
  the real axis each checks the other.

Working range: orders 0..200 and |z| < 1e4.  Measured accuracy of
:func:`bessel_jy` against 40-digit mpmath, worst over orders 0..200 at
random arguments (half real, half with |Im z| <= 40), as the error relative
to |f| where n >= |z| and relative to the modulus sqrt(|J_n|^2 + |Y_n|^2)
where n < |z| (the oscillatory range, whose real zeros leave no relative
scale; off the real axis the two measures are of one size):

    |z| <= 200           3e-13
    200 < |z| <= 1e3     1e-12
    1e3 < |z| < 1e4      2e-11  (worst at orders ~150-200 on the real axis)

The coated-cylinder series reaches the last band only when |k1 b| > 1e3.
Values not representable in double precision (huge order with tiny
argument, |Im z| large enough to overflow) come back as 0, inf or NaN;
the modal series refuses the non-finite ones (TruncationError).

All functions are pure; nothing here mutates shared state.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1, jv, y0, y1, yv

from .errors import DomainError, RangeError, UsageError

# Free-space impedance [ohm] and speed of light [m/s].
Z0 = 376.730313668
C0 = 299792458.0

_MAX_ORDER = 200
_MAX_ABS_Z = 1.0e4


def _check_order_arg(order, z):
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise UsageError(f"order must be an integer, got {order!r}")
    if order < 0 or order > _MAX_ORDER:
        raise RangeError(f"order {order} outside working range 0..{_MAX_ORDER}")
    if abs(z) >= _MAX_ABS_Z:
        raise RangeError(f"|z| = {abs(z):.6g} outside working range < {_MAX_ABS_Z:g}")


def bessel_jy(nmax, z):
    """Arrays (J_0..J_nmax, Y_0..Y_nmax) at a common argument, for series
    summations that consume many orders at once.  Orders 0..200 and
    |z| < 1e4 (RangeError outside); z must lie off the non-positive real
    axis, the branch cut of Y (DomainError otherwise).  Accuracy: module
    notes.
    """
    z = complex(z)
    _check_order_arg(nmax, z)
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError(
            f"z = {z} lies on the branch cut (non-positive real axis)"
        )
    n = np.arange(nmax + 1)
    return jv(n, z), yv(n, z)


def hankel2(order, z):
    """Hankel function of the second kind, J - iY (outgoing under exp(+iwt))."""
    js, ys = bessel_jy(order, z)
    return complex(js[order] - 1j * ys[order])


# ----------------------------------------------------------------------
# Vectorized J0/J1/Y0/Y1 for real positive arguments (kernel assembly path)
# ----------------------------------------------------------------------

def hankel2_01_real(x):
    """H0^(2)(x), H1^(2)(x) for an array of real positive x, vectorized.

    This is the kernel-assembly path, built on the Cephes j0/j1/y0/y1 of
    scipy.special.  Against the scalar route the results agree to ~1e-14
    below x = 40 and to <= 1e-12 up to 1e4.  Raises DomainError if any
    entry is <= 0 and RangeError if any entry is >= 1e4.
    """
    x = np.asarray(x, dtype=float)
    if x.size and not np.all(x > 0.0):
        raise DomainError("hankel2_01_real needs strictly positive arguments")
    if x.size and float(np.max(x)) >= _MAX_ABS_Z:
        raise RangeError(f"arguments exceed working range < {_MAX_ABS_Z:g}")
    return j0(x) - 1j * y0(x), j1(x) - 1j * y1(x)


# ----------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights pair; gauss_legendre lives on (-1, 1), gauss_log on (0, 1)
    with weight function -ln(t)."""

    kind: str
    nodes: np.ndarray
    weights: np.ndarray


# Gauss rules for int_0^1 f(t) * (-ln t) dt, exact for polynomials f of
# degree <= 2n-1.  Generated from the exact moments 1/(k+1)^2 by the
# Golub-Welsch procedure in 80-digit arithmetic, then rounded once.
_GAUSS_LOG_TABLES = {
    1: (
        [0.25],
        [1.0],
    ),
    2: (
        [0.112008806166976183, 0.602276908118738103],
        [0.718539319030384441, 0.281460680969615559],
    ),
    3: (
        [0.063890793087325405, 0.368997063715618766, 0.766880303938941455],
        [0.513404552232363325, 0.391980041201487555, 0.0946154065661491201],
    ),
    4: (
        [0.0414484801993832208, 0.245274914320602252, 0.556165453560275837, 0.848982394532985175],
        [0.383464068145135125, 0.386875317774762627, 0.190435126950142415, 0.0392254871299598325],
    ),
    5: (
        [0.0291344721519720533, 0.173977213320897629, 0.411702520284902043, 0.677314174582820381, 0.894771361031008284],
        [0.297893471782894457, 0.34977622651322418, 0.234488290044052419, 0.098930459516633147, 0.0189115521431957965],
    ),
    6: (
        [0.021634005844116949, 0.129583391154950796, 0.314020449914765509, 0.538657217351802145, 0.756915337377402852, 0.922668851372120237],
        [0.23876366257854757, 0.308286573273946793, 0.245317426563210386, 0.142008756566476685, 0.05545462232488629, 0.0101689586929322759],
    ),
    7: (
        [0.0167193554082585159, 0.100185677915675122, 0.246294246207930599, 0.433463493257033106, 0.632350988047766088, 0.811118626740105577, 0.940848166743347722],
        [0.196169389425248208, 0.270302644247272982, 0.239681873007690948, 0.165775774810432907, 0.0889432271376579644, 0.033194304356571067, 0.005932787015125924],
    ),
    8: (
        [0.013320244160892465, 0.0797504290138949384, 0.197871029326188054, 0.35415399435190942, 0.529458575234917278, 0.701814529939099964, 0.849379320441106676, 0.953326450056359789],
        [0.164416604728002887, 0.237525610023306021, 0.226841984431919126, 0.175754079006070245, 0.112924030246759052, 0.0578722107177820724, 0.020979073742132978, 0.00368640710402761901],
    ),
    9: (
        [0.0108693360841754771, 0.0649836663380079394, 0.162229398023882939, 0.293749903971674658, 0.446631881905468037, 0.605481662776128621, 0.754110137157163567, 0.877265828835838253, 0.962250559410281841],
        [0.140068438748134734, 0.209772205201030448, 0.211427149896602729, 0.17715623393807999, 0.127799228033205496, 0.0784789026115621725, 0.0390225049853990968, 0.0138672955495930233, 0.00240804103639231157],
    ),
    10: (
        [0.00904263096219965064, 0.0539712662225006295, 0.135311824639250775, 0.247052416287159824, 0.380212539609332334, 0.523792317971843201, 0.665775205516424597, 0.794190416011966217, 0.898161091219003538, 0.968847988718633539],
        [0.120955131954570515, 0.18636354256407187, 0.195660873277759983, 0.173577142182906921, 0.135695672995484202, 0.093646758538110526, 0.0557877273514158741, 0.0271598108992333311, 0.009515182602848515, 0.00163815763359826325],
    ),
    11: (
        [0.00764394117463770663, 0.0455418282565789185, 0.114522297455124584, 0.210378581227033531, 0.326695553221692848, 0.455453246928813438, 0.587648356359084408, 0.713963850012561441, 0.825453217801811804, 0.914193921612543138, 0.973860256275586152],
        [0.105652256099100491, 0.166571680600629049, 0.180563218287753725, 0.167278736773784179, 0.138697057401631221, 0.10383343336504406, 0.0695366978887352323, 0.0405416008035963296, 0.0194354024762181728, 0.0067374293424500627, 0.00115248696105747778],
    ),
    12: (
        [0.00654872227908005879, 0.0389468095604499592, 0.0981502631060066289, 0.181138581590631577, 0.283220067667372555, 0.398434435163436644, 0.519952626792352663, 0.640510916716106454, 0.752865012051830578, 0.850240024162302201, 0.926749683223914101, 0.977756129689997479],
        [0.0931926914439313245, 0.149751827576322364, 0.166557454364593005, 0.159633559436987651, 0.138424831864835621, 0.110016570635721162, 0.0799618217708289703, 0.0524069548246417707, 0.0300710888737611871, 0.0142492455879982791, 0.00489992458232176094, 0.000834029038056903365],
    ),
    13: (
        [0.00567476625624266903, 0.0336901087990325367, 0.0850367544741750281, 0.157497559477889029, 0.247569578876843146, 0.3507443123608552, 0.461773746761610246, 0.574959466525561321, 0.684459880350430043, 0.784602568810347081, 0.870186428407888389, 0.936757829306751393, 0.980843451811590949],
        [0.0829004967932757878, 0.1353686731657445, 0.153773284392292201, 0.151458158509988191, 0.136040336537283061, 0.113176822881633803, 0.0873744304800452582, 0.0621602306418048695, 0.0400877289341658519, 0.0227238449399721953, 0.0106712304129684441, 0.00364649227597414008, 0.000618270034851697077],
    ),
    14: (
        [0.00496600357386854224, 0.0294325401188851783, 0.0743762922245357626, 0.138138491989186282, 0.218055648498959078, 0.310662083918101983, 0.411872475177750207, 0.51717930739865433, 0.62186485972851112, 0.721220745208108854, 0.810765988071589856, 0.886454038034434657, 0.944859139461818639, 0.98333102648567848],
        [0.0742912250675104125, 0.122988772469322914, 0.142199306562523356, 0.143229297641264222, 0.132345083772085209, 0.114135875736676475, 0.0922830380790736132, 0.0697536732939375646, 0.0488303236005135646, 0.0311017960644161411, 0.0174628119501960938, 0.00814242342987593613, 0.00276843641856393733, 0.000467935914040560135],
    ),
    15: (
        [0.00438311017547540383, 0.0259358981053306161, 0.0655960954123162453, 0.122101934073331603, 0.193395262374007116, 0.276772838706102024, 0.369015127139742944, 0.466524328964706583, 0.565473473791817306, 0.661962919012456421, 0.752178883378785799, 0.832548033866189589, 0.899882050120898084, 0.951506188743409903, 0.985364468122131939],
        [0.0670099789164937136, 0.112264150286705742, 0.131760177039679904, 0.135217649061934725, 0.12788179864568037, 0.113532907490219421, 0.0952052397843586585, 0.0753893141673959543, 0.056078424492653718, 0.0387682953750182311, 0.024451483268750076, 0.0136246301382388469, 0.0063164475985907612, 0.00213888991594447135, 0.000360613818335406647],
    ),
    16: (
        [0.00389783448711591592, 0.0230289456168732398, 0.0582803983062404123, 0.108678365091054036, 0.172609454909843938, 0.247937054470578495, 0.332094549129917156, 0.4221839105819486, 0.515082473381462603, 0.607556120447728724, 0.696375653228214061, 0.778432565873265405, 0.850850269715391083, 0.911086857222271905, 0.957025571703542158, 0.987047800247984477],
        [0.0607917100435912329, 0.102915677517582144, 0.122355662046009194, 0.127569246937015989, 0.123013574600070915, 0.111847244855485723, 0.0965963851521243413, 0.0793566643514731388, 0.0618504945819652071, 0.0454352465077266686, 0.0310989747515818064, 0.0194597659273608421, 0.0107762549632055256, 0.00497254289008764171, 0.00167820111005119452, 0.000282353764668436322],
    ),
}


def quad_rule(kind, n):
    """Return a QuadratureRule of the requested kind and size.

    gauss_legendre supports n = 1..64 (nodes on (-1, 1), weights summing
    to 2); gauss_log supports n = 1..16 (nodes on (0, 1), exact for
    polynomials of degree <= 2n-1 against the weight -ln t).
    """
    if kind == "gauss_legendre":
        if not 1 <= n <= 64:
            raise RangeError(f"gauss_legendre supports n = 1..64, got {n}")
        nodes, weights = np.polynomial.legendre.leggauss(n)
        return QuadratureRule(kind, nodes, weights)
    if kind == "gauss_log":
        if n not in _GAUSS_LOG_TABLES:
            raise RangeError(f"gauss_log supports n = 1..16, got unsupported n = {n}")
        nodes, weights = _GAUSS_LOG_TABLES[n]
        return QuadratureRule(kind, np.array(nodes), np.array(weights))
    raise UsageError(f"unknown quadrature kind {kind!r}")


def gauss_legendre_unit(n):
    """Gauss-Legendre nodes and weights mapped onto (0, 1)."""
    rule = quad_rule("gauss_legendre", n)
    return 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights
